"""Benchmark of the aoisched sweep CLI: one workload per run, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload ns-budget --seed 1 --seconds 30 --trace 0

The run first starts a few import-only processes to time set-up, then runs
passes of the workload, each in a fresh process, one after another, and
starts another pass while that brings the run's expected length closer to
``--seconds``. Every output row is
checked. The last line on stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1``, passes alternate traced and untraced and
the metrics are the per-layer ones (medians over traced passes) plus the
tracing overhead. Details, including the environment record, go to stderr
and to ``.perfbench/<workload>/run.json``. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
SETUP_SAMPLES = 5
# Every run must end within 180 s: no pass starts after START_LIMIT, and a
# pass still running at HARD_LIMIT is killed and counted as failed.
START_LIMIT = 140.0
HARD_LIMIT = 170.0
# the self times of a traced pass must add up to its wall time within this share
SELF_SUM_TOLERANCE = 0.01


def _child(args: list[str], timeout: float, log) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    t0 = time.monotonic()
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--t0", repr(t0), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        timeout=max(timeout, 1.0),
    )


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    spec = workloads.WORKLOADS[workload]
    work = ROOT / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.monotonic()
    env_record = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
                  "git_commit": _git_commit(), "load_before_run": os.getloadavg()}
    notes: list[str] = []
    setup, passes = [], []
    attempted = failed = 0

    with open(work / "children.log", "w") as log:
        for _ in range(SETUP_SAMPLES):
            proc = _child(["--import-only"], HARD_LIMIT, log)
            if proc.returncode != 0:
                raise RuntimeError(f"import of aoisched failed, see {work / 'children.log'}")
            info = json.loads(proc.stdout.strip().splitlines()[-1])
            setup.append(info.pop("setup_s"))
            env_record.update(info)

        while True:
            n = len(passes)
            pass_traced = traced and n % 2 == 0
            out = work / f"pass{n}"
            out.mkdir()
            record = {"traced": pass_traced, "load_before": os.getloadavg()}
            began = time.monotonic()
            try:
                proc = _child(["--workload", workload, "--seed", str(seed),
                               "--trace", str(int(pass_traced)), "--out", str(out)],
                              HARD_LIMIT - (began - start), log)
                if proc.returncode == 0:
                    with open(out / "record.json") as handle:
                        record.update(json.load(handle))
                else:
                    notes.append(f"pass {n}: child exited with {proc.returncode}")
            except subprocess.TimeoutExpired:
                notes.append(f"pass {n}: killed after the {HARD_LIMIT:.0f} s limit")
            record["wall_s"] = time.monotonic() - began
            record["load_after"] = os.getloadavg()

            codes = record.get("exit_codes", [None] * len(spec["checks"]))
            for i, (kind, output, reference) in enumerate(spec["checks"]):
                a, f, why = check.check_command(kind, str(out), output, str(REFERENCE),
                                                reference, seed, str(out / f"cmd{i}.stderr"))
                if codes[i] != 0:
                    f = a
                    why.append(f"command {i} exited with {codes[i]}")
                attempted, failed = attempted + a, failed + f
                notes.extend(f"pass {n}: {w}" for w in why)
            passes.append(record)

            elapsed = time.monotonic() - start
            estimate = max(p["wall_s"] for p in passes)
            kinds = {p["traced"] for p in passes}
            need_pair = traced and len(kinds) < 2
            if elapsed + estimate > START_LIMIT:
                break
            # the pass count whose expected length lands closest to --seconds
            if not need_pair and elapsed + estimate / 2 > seconds:
                break

    env_record["load_after_run"] = os.getloadavg()
    plain = [p for p in passes if not p["traced"] and "sweep_s" in p]
    setup += [p["setup_s"] for p in plain]
    if traced:
        metrics = _layer_metrics(spec, passes, plain, notes)
    else:
        metrics = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "sweep_s": {"value": _median([p["sweep_s"] for p in plain]), "unit": "s"},
            "peak_rss_mb": {"value": _median([p["peak_rss_mb"] for p in plain]), "unit": "MB"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    result = {"correct": failed == 0 and not notes, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
               "environment": env_record, "setup_samples_s": setup, "passes": passes,
               "notes": notes, "result": result}
    with open(work / "run.json", "w") as handle:
        json.dump(details, handle, indent=1)
    print(json.dumps({"environment": env_record, "notes": notes[:20]}), file=sys.stderr)
    return result


def _layer_metrics(spec: dict, passes: list[dict], plain: list[dict], notes: list[str]) -> dict:
    traced = [p for p in passes if p["traced"] and "layers" in p]
    if not traced:
        notes.append("no traced pass completed")
        names = {**tracer.UNITS, "trace.sweep_s": "s", "trace.overhead_s": "s"}
        return {name: {"value": 0.0, "unit": unit} for name, unit in names.items()}
    for p in traced:
        missing = [layer for layer in spec["layers"] if layer not in p["layers_seen"]]
        if missing or p["missing_sites"]:
            notes.append(f"layers without spans: {missing}; patch sites not found: "
                         f"{p['missing_sites']}")
        gap = abs(p["layers"]["trace.self_sum_s"] - p["sweep_s"])
        if gap > SELF_SUM_TOLERANCE * p["sweep_s"]:
            notes.append(f"self times sum to {p['layers']['trace.self_sum_s']:.4f} s, "
                         f"traced sweep_s is {p['sweep_s']:.4f} s")
    for name, unit in tracer.UNITS.items():
        if unit in tracer.EXACT_UNITS and len({p["layers"][name] for p in traced}) > 1:
            notes.append(f"counter {name} differs between traced passes")
    metrics = {name: {"value": _median([p["layers"][name] for p in traced]), "unit": unit}
               for name, unit in tracer.UNITS.items()}
    traced_sweep = _median([p["sweep_s"] for p in traced])
    metrics["trace.sweep_s"] = {"value": traced_sweep, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_sweep - _median([p["sweep_s"] for p in plain]), "unit": "s"}
    print(json.dumps({"price_points": traced[0]["price_points"]}), file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "aoisched" / "cli.py").is_file():
        print(f"no aoisched sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
