"""Desk-size CLI runs reproduce their committed outputs byte for byte.

Each test runs one command in process through ``cli.main``, writes into a
temporary directory and compares bytes with the committed file, and for
``solve`` also the one-line summary it prints to stderr.
"""

from pathlib import Path

import pytest

from aoisched.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
REFERENCE = ROOT / "perfbench" / "reference"
DESK_SIM = ["--horizon", "3000", "--warmup", "100"]

SOLVES = {
    "desk-ns": (["--case", "no_sensing", "--bound-N", "12"], DATA / "solve-desk-ns", ".err"),
    "desk-d": (["--case", "delayed_sensing", "--bound-N", "12"], DATA / "solve-desk-d", ".err"),
    "lam200-ns": (["--case", "no_sensing", "--lam", "4.0", "--bound-N", "200"],
                  DATA / "solve-lam200-ns", ".err"),
    "lam200-d": (["--case", "delayed_sensing", "--lam", "4.0", "--bound-N", "200"],
                 DATA / "solve-lam200-d", ".err"),
    # the benchmark's structure solves, at its own scale
    **{
        f"lam1000-{short}": (
            ["--case", case, "--lam", "1.0", "--bound-N", "1000", "--frame-K", "3",
             "--p11", "0.7", "--p01", "0.3", "--eps", "1e-06"],
            REFERENCE / f"structure-solve_{short}", ".stderr",
        )
        for short, case in (("ns", "no_sensing"), ("d", "delayed_sensing"))
    },
}

SWEEPS = {
    "tradeoff-desk": (["tradeoff", "--case", "both", "--emax", "0.3,0.6", "--bound-N", "20"],
                      DATA / "tradeoff-desk.csv"),
    "tradeoff-deep-price": (["tradeoff", "--case", "both", "--emax", "0.05,0.3",
                             "--bound-N", "40"], DATA / "tradeoff-deep-price.csv"),
    "tradeoff-low-budget": (["tradeoff", "--case", "both", "--emax", "0.05",
                             "--bound-N", "200"], DATA / "tradeoff-low-budget-desk.csv"),
    "greedy-desk": (["greedy-compare", "--frame-K", "2,3", "--bound-N", "12"],
                    DATA / "greedy-desk.csv"),
    "framelength-desk": (["framelength", "--frame-K", "2,3,4", "--emax", "0.3,0.6",
                          "--bound-N", "12"], DATA / "framelength-desk.csv"),
}


@pytest.mark.parametrize("name", SOLVES)
def test_solve_reproduces_its_table_and_summary(tmp_path, capsys, name):
    flags, stem, err_suffix = SOLVES[name]
    out = tmp_path / "solve.csv"
    assert main(["solve", *flags, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == stem.with_suffix(".csv").read_bytes()
    assert capsys.readouterr().err.encode() == stem.with_suffix(err_suffix).read_bytes()


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_reproduces_its_csv(tmp_path, name):
    argv, committed = SWEEPS[name]
    out = tmp_path / "sweep.csv"
    assert main([*argv, *DESK_SIM, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == committed.read_bytes()


def test_property_suite_reproduces_its_report(tmp_path, capsys):
    out = tmp_path / "properties.json"
    assert main(["properties", "--seed", "1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (ROOT / "results" / "properties.json").read_bytes()


def test_desk_tradeoff_rerun_is_byte_identical(tmp_path):
    argv, _committed = SWEEPS["tradeoff-desk"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main([*argv, *DESK_SIM, "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
