"""Self-tests of the tracer: patch sites, self times and exact counters.

Desk-size versions of each workload keep the command shapes of
workloads.py (same subcommands and cases) at a small cap N and horizon.
Each traced pass runs in its own process, because the tracer patches module
attributes for the life of the process.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from conftest import BENCH, ROOT

SMALL = ["--frame-K", "3", "--p11", "0.7", "--p01", "0.3", "--bound-N", "20",
         "--horizon", "3000", "--warmup", "100", "--workers", "1", "--seed", "5"]
DESK = {
    "ns-budget": [["tradeoff", "--case", "no_sensing", "--emax", "0.3,0.6", *SMALL,
                   "--out", "{out}/tradeoff.csv"]],
    "low-budget": [["tradeoff", "--case", "both", "--emax", "0.2", *SMALL,
                    "--out", "{out}/tradeoff.csv"]],
    "sim-heavy": [["greedy-compare", "--emax", "0.4", *SMALL, "--out", "{out}/greedy.csv"]],
    "structure": [
        ["solve", "--case", "no_sensing", "--lam", "1.0", *SMALL, "--out", "{out}/ns.csv"],
        ["solve", "--case", "delayed_sensing", "--lam", "1.0", *SMALL, "--out", "{out}/d.csv"],
        ["properties", "--seed", "1", "--out", "{out}/properties.json"],
    ],
}

_PASS = ("import json, sys, child; "
         "print(json.dumps(child.run_pass(json.loads(sys.argv[1]), True, sys.argv[2])))")


def traced_pass(name, out):
    out.mkdir(parents=True, exist_ok=True)
    argvs = [[a.replace("{out}", str(out)) for a in argv] for argv in DESK[name]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", _PASS, json.dumps(argvs), str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_layer_records_spans(name, workdir):
    record = traced_pass(name, workdir)
    assert record["exit_codes"] == [0] * len(DESK[name])
    assert record["missing_sites"] == []
    missing = set(workloads.WORKLOADS[name]["layers"]) - set(record["layers_seen"])
    assert not missing, f"{name}: no spans for {sorted(missing)}"
    layers = record["layers"]
    assert layers["trace.self_sum_s"] == pytest.approx(record["sweep_s"], rel=run.SELF_SUM_TOLERANCE)


def test_counters_repeat_exactly(workdir):
    first = traced_pass("sim-heavy", workdir / "a")
    second = traced_pass("sim-heavy", workdir / "b")
    for name, unit in tracer.UNITS.items():
        if unit in tracer.EXACT_UNITS:
            assert first["layers"][name] == second["layers"][name], name
    assert first["price_points"] == second["price_points"]
    assert first["layers"]["sim.slots"] == 5 * 3000  # two mixtures of two plus greedy


def test_a_layer_without_spans_fails_the_traced_run():
    spec = workloads.WORKLOADS["sim-heavy"]
    layers = {name: 1.0 for name in tracer.UNITS}
    layers["trace.self_sum_s"] = 1.0
    seen = [layer for layer in spec["layers"] if layer != "sim.greedy"]
    passes = [
        {"traced": True, "sweep_s": 1.0, "layers": layers, "layers_seen": seen,
         "missing_sites": ["cli.simulate_greedy"], "price_points": []},
        {"traced": False, "sweep_s": 1.0},
    ]
    notes = []
    run._layer_metrics(spec, passes, passes[1:], notes)
    assert any("sim.greedy" in note for note in notes)


def test_self_times_subtract_direct_children_only():
    spans = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["solver.price", 0, 1.0, 9.0, None],
        ["solver.rvi", 1, 2.0, 5.0, None],
        ["solver.eval", 1, 5.0, 6.0, None],
    ]
    assert tracer.self_times(spans) == [2.0, 4.0, 3.0, 1.0]
    assert sum(tracer.self_times(spans)) == 10.0
