"""Record the checker's reference outputs into perfbench/reference/.

Run once, from the repository root, at the commit whose outputs are the
reference (it was run at the commit that introduced this benchmark):

    PYTHONPATH=src python3 perfbench/record_reference.py

It runs every workload's commands at seed 1 and keeps their outputs. The
``ns-budget`` reference is instead copied from the committed
``results/tradeoff.csv`` rows. For ``sim-heavy`` it also stores, per budget,
the analytic AoI of both optimal mixtures and the Monte-Carlo standard
errors, because the greedy-comparison CSV carries neither. Re-recording is a
change to the benchmark and must say why.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from aoisched import cli
from aoisched.channel import ChannelModel
from aoisched.mdp import Case, FrameSpec, TruncationBound
from aoisched.sim import SimConfig, estimate_mixture, simulate_greedy
from aoisched.solver import bisect_lambda

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SEED = 1


def _run_commands(name: str, out: str) -> list[str]:
    stderr_texts = []
    for argv in workloads.commands(name, SEED, out):
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name}: {argv[0]} exited with {code}")
        stderr_texts.append(buf.getvalue())
    return stderr_texts


def _committed_ns_rows(dest: Path) -> None:
    with open(HERE.parent / "results" / "tradeoff.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    col = {c: i for i, c in enumerate(header)}
    keep = [r for r in body
            if r[col["case"]] == "no_sensing" and r[col["frame_k"]] == "3"
            and r[col["p11"]] == "0.7" and r[col["p01"]] == "0.3"
            and r[col["emax"]] in ("0.3", "0.6", "")]
    with open(dest, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header] + keep)


def _greedy_reference(csv_path: str, dest: Path) -> None:
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    analytic = {}
    for row in rows:
        emax = float(row["emax"])
        frame, ch = FrameSpec(int(row["frame_k"])), ChannelModel(float(row["p11"]), float(row["p01"]))
        bound = TruncationBound(int(row["bound_n"]))
        cfg = SimConfig(int(row["horizon"]), SEED, int(row["warmup"]))
        stats = {}
        for case in (Case.NO_SENSING, Case.DELAYED_SENSING):
            mix = bisect_lambda(case, frame, ch, bound, emax, eps=float(row["eps"]),
                                eps_lam=float(row["eps_lambda"]))
            stats[f"aoi_{case.value}"] = mix.analytic_aoi()
            stats[f"se_{case.value}"] = estimate_mixture(case, frame, ch, mix, cfg).aoi_se
        stats["se_greedy"] = simulate_greedy(Case.NO_SENSING, frame, ch, emax, cfg).aoi_se
        analytic[row["emax"]] = stats
    with open(dest, "w") as handle:
        json.dump({"seed": SEED, "rows": rows, "analytic": analytic}, handle, indent=1)
        handle.write("\n")


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        _committed_ns_rows(REFERENCE / "ns-budget.csv")

        _run_commands("low-budget", tmp)
        shutil.copy(f"{tmp}/tradeoff.csv", REFERENCE / "low-budget.csv")

        _run_commands("sim-heavy", tmp)
        _greedy_reference(f"{tmp}/greedy.csv", REFERENCE / "sim-heavy.json")

        stderr_texts = _run_commands("structure", tmp)
        for i, tag in enumerate(("solve_ns", "solve_d")):
            shutil.copy(f"{tmp}/{tag}.csv", REFERENCE / f"structure-{tag}.csv")
            (REFERENCE / f"structure-{tag}.stderr").write_text(stderr_texts[i])
        with open(f"{tmp}/properties.json") as handle:
            report = json.load(handle)
        with open(REFERENCE / "structure-properties.json", "w") as handle:
            json.dump({"all_passed": report["all_passed"],
                       "checks": [{k: c[k] for k in ("name", "instance", "passed")}
                                  for c in report["checks"]]}, handle, indent=1)
            handle.write("\n")
    print(f"references written to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
