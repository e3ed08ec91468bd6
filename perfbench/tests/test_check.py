"""The output checker accepts the references and rejects broken rows."""

import csv
import json
import shutil
import subprocess
import sys

import pytest

import check
from conftest import BENCH, ROOT

REF = BENCH / "reference"


def _rewrite(src, dest, edit):
    with open(src, newline="") as handle:
        rows = list(csv.DictReader(handle))
    edit(rows)
    with open(dest, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_references_pass_against_themselves(workdir):
    assert check.check_tradeoff(str(REF / "ns-budget.csv"), str(REF / "ns-budget.csv"), 1) == (3, 0, [])
    assert check.check_tradeoff(str(REF / "low-budget.csv"), str(REF / "low-budget.csv"), 1)[1] == 0
    ref = json.loads((REF / "sim-heavy.json").read_text())
    with open(workdir / "greedy.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(ref["rows"][0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(ref["rows"])
    assert check.check_greedy(str(workdir / "greedy.csv"), str(REF / "sim-heavy.json"), 1)[1] == 0
    for tag in ("solve_ns", "solve_d"):
        csv_ref = REF / f"structure-{tag}.csv"
        stderr_ref = REF / f"structure-{tag}.stderr"
        attempted, failed, _ = check.check_solve(str(csv_ref), str(csv_ref), str(stderr_ref),
                                                 str(stderr_ref))
        assert failed == 0 and attempted > 1
    props = REF / "structure-properties.json"
    assert check.check_properties(str(props), str(props)) == (56, 0, [])


@pytest.mark.parametrize("column, factor, seed, fails", [
    ("aoi_analytic", 1 + 1e-12, 1, False),
    ("aoi_analytic", 1 + 1e-8, 1, True),
    ("q", 1 + 1e-8, 1, True),
    ("aoi_mc", 1 + 1e-8, 1, True),    # at the reference seed MC columns must match too
    ("aoi_mc", 1.001, 2, False),      # elsewhere they only need the z-bound
    ("aoi_mc", 1.5, 2, True),
])
def test_tradeoff_tolerances(workdir, column, factor, seed, fails):
    def edit(rows):
        rows[0][column] = repr(float(rows[0][column]) * factor)
        for row in rows:
            row["seed"] = str(seed)
    out = workdir / "out.csv"
    _rewrite(REF / "ns-budget.csv", out, edit)
    assert (check.check_tradeoff(str(out), str(REF / "ns-budget.csv"), seed)[1] > 0) == fails


def test_budget_overrun_and_missing_rows_fail(workdir):
    out = workdir / "out.csv"
    _rewrite(REF / "ns-budget.csv", out, lambda rows: rows[0].update(energy_analytic="0.31"))
    assert check.check_tradeoff(str(out), str(REF / "ns-budget.csv"), 1)[1] == 1
    _rewrite(REF / "ns-budget.csv", out, lambda rows: rows.pop())
    assert check.check_tradeoff(str(out), str(REF / "ns-budget.csv"), 1)[:2] == (3, 1)
    assert check.check_tradeoff(str(workdir / "absent.csv"), str(REF / "ns-budget.csv"), 1)[:2] == (3, 3)


def test_failed_or_missing_property_check_fails(workdir):
    report = json.loads((REF / "structure-properties.json").read_text())
    report["checks"][3]["passed"] = False
    dropped = report["checks"].pop()
    report["all_passed"] = False
    (workdir / "p.json").write_text(json.dumps(report))
    attempted, failed, notes = check.check_properties(str(workdir / "p.json"),
                                                      str(REF / "structure-properties.json"))
    assert (attempted, failed) == (56, 2)
    assert any(dropped["name"] in n for n in notes)


def test_ns_budget_reference_is_the_committed_rows():
    committed = ROOT / "results" / "tradeoff.csv"
    if not committed.exists():
        pytest.skip("results/ is not part of this checkout")
    with open(committed, newline="") as handle:
        rows = {tuple(r) for r in csv.reader(handle)}
    with open(REF / "ns-budget.csv", newline="") as handle:
        assert {tuple(r) for r in csv.reader(handle)} <= rows


def test_baseline_shows_the_roadmap_solve_counts():
    baseline = json.loads((BENCH / "baseline" / "ns-budget.json").read_text())
    assert [p["solves"] for p in baseline["price_points"]] == [23, 17]


def test_run_refuses_a_directory_without_the_program(workdir):
    shutil.copytree(BENCH, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ns-budget",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
