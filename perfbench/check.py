"""Output checker: every CSV row and property check is one operation.

Numbers are compared within a relative 1e-9, never byte for byte: on the
same machine the committed rows differ from a rerun in the last one or two
ulps, and the BLAS thread count moves the last ulp of ``q`` and
``energy_minus``. Monte-Carlo columns depend on the seed, so away from the
reference seed they are checked against the analytic value within Z
standard errors instead. Each check returns ``(attempted, failed, notes)``.
"""

from __future__ import annotations

import csv
import json
import math
import re

REL = 1e-9
# Monte-Carlo AoI must lie within Z standard errors of its analytic value.
# The committed full-scale rows reach |z| = 1.17 at most; Z = 6 keeps a false
# alarm below 1e-8 per row while still catching a simulator that disagrees
# with the model (the defects in ROADMAP item 5 sit hundreds of SEs away).
Z = 6.0

PROVENANCE = ("row_kind", "case", "frame_k", "p11", "p01", "emax", "bound_n",
              "eps", "eps_lambda", "horizon", "warmup")
ANALYTIC = ("lambda_minus", "lambda_plus", "q", "energy_minus", "energy_plus",
            "aoi_analytic", "energy_analytic")
MONTE_CARLO = ("aoi_mc", "energy_mc", "aoi_mc_se")
GREEDY_PROVENANCE = ("emax", "frame_k", "p11", "p01", "bound_n", "eps",
                     "eps_lambda", "horizon", "warmup")
GREEDY_MC = ("aoi_no_sensing", "aoi_delayed", "aoi_greedy", "gap_no_sensing",
             "gap_delayed")


def close(a, b, rel: float = REL) -> bool:
    """Equal within ``rel`` of the larger magnitude; values below 1e-3 are
    compared absolutely at rel * 1e-3, so last-ulp noise around zero passes."""
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-3)


def _same(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return close(a, b)
    except ValueError:
        return False


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _key(row: dict, fields) -> tuple:
    return tuple(row[f] for f in fields)


def _match_rows(out_rows, ref_rows, key_fields, notes):
    """Pairs of (output row, reference row) plus the count of unmatched ones."""
    ref = {_key(r, key_fields): r for r in ref_rows}
    pairs, seen = [], set()
    for row in out_rows:
        k = _key(row, key_fields)
        if k in ref and k not in seen:
            pairs.append((row, ref[k]))
            seen.add(k)
        else:
            notes.append(f"unexpected row {k}")
    missing = [k for k in ref if k not in seen]
    notes.extend(f"missing row {k}" for k in missing)
    return pairs, len(out_rows) - len(pairs) + len(missing)


def check_tradeoff(path: str, ref_path: str, seed: int):
    ref_rows = _read_csv(ref_path)
    notes: list[str] = []
    try:
        out_rows = _read_csv(path)
    except (OSError, csv.Error) as exc:
        return len(ref_rows), len(ref_rows), [f"{path}: {exc}"]
    keys = ("row_kind", "case", "frame_k", "p11", "p01", "emax")
    pairs, failed = _match_rows(out_rows, ref_rows, keys, notes)
    for row, ref in pairs:
        bad = [f for f in PROVENANCE + ANALYTIC if not _same(row[f], ref[f])]
        if row["seed"] != str(seed):
            bad.append("seed")
        if str(seed) == ref["seed"]:
            bad += [f for f in MONTE_CARLO if not _same(row[f], ref[f])]
        try:
            if row["row_kind"] == "constrained" and \
                    float(row["energy_analytic"]) > float(row["emax"]) * (1 + REL):
                bad.append("energy_analytic>emax")
            se = float(row["aoi_mc_se"])
            if not se > 0 or abs(float(row["aoi_mc"]) - float(row["aoi_analytic"])) > Z * se:
                bad.append("aoi_mc z-bound")
        except ValueError:
            bad.append("unparsable number")
        if bad:
            failed += 1
            notes.append(f"row {_key(row, keys)}: {', '.join(bad)}")
    return max(len(out_rows), len(ref_rows)), failed, notes


def check_greedy(path: str, ref_path: str, seed: int):
    with open(ref_path) as handle:
        ref = json.load(handle)
    notes: list[str] = []
    try:
        out_rows = _read_csv(path)
    except (OSError, csv.Error) as exc:
        return len(ref["rows"]), len(ref["rows"]), [f"{path}: {exc}"]
    pairs, failed = _match_rows(out_rows, ref["rows"], ("emax",), notes)
    for row, ref_row in pairs:
        bad = [f for f in GREEDY_PROVENANCE if not _same(row[f], ref_row[f])]
        if row["seed"] != str(seed):
            bad.append("seed")
        try:
            if str(seed) == ref_row["seed"]:
                bad += [f for f in GREEDY_MC if not _same(row[f], ref_row[f])]
            stats = ref["analytic"][ref_row["emax"]]
            for col, case in (("aoi_no_sensing", "no_sensing"), ("aoi_delayed", "delayed_sensing")):
                if abs(float(row[col]) - stats[f"aoi_{case}"]) > Z * stats[f"se_{case}"]:
                    bad.append(f"{col} z-bound")
            # two independent greedy estimates differ by sqrt(2) standard errors
            if abs(float(row["aoi_greedy"]) - float(ref_row["aoi_greedy"])) > \
                    Z * math.sqrt(2.0) * stats["se_greedy"]:
                bad.append("aoi_greedy z-bound")
            for gap, col in (("gap_no_sensing", "aoi_no_sensing"), ("gap_delayed", "aoi_delayed")):
                if not close(row[gap], float(row["aoi_greedy"]) - float(row[col])):
                    bad.append(gap)
        except ValueError:
            bad.append("unparsable number")
        if bad:
            failed += 1
            notes.append(f"row emax={row['emax']}: {', '.join(bad)}")
    return max(len(out_rows), len(ref["rows"])), failed, notes


_SUMMARY = re.compile(r"gain=(\S+) aoi=(\S+) energy=(\S+)")


def check_solve(path: str, ref_path: str, stderr_path: str, ref_stderr_path: str):
    """Cutoff rows against the reference, plus the printed gain, AoI and
    energy as one more operation (printed to 9 decimals, compared to 2e-9)."""
    ref_rows = _read_csv(ref_path)
    notes: list[str] = []
    try:
        out_rows = _read_csv(path)
    except (OSError, csv.Error) as exc:
        return len(ref_rows) + 1, len(ref_rows) + 1, [f"{path}: {exc}"]
    fields = list(ref_rows[0])
    keys = tuple(f for f in fields if f not in ("omega_star", "delta_star"))
    pairs, failed = _match_rows(out_rows, ref_rows, keys, notes)
    for row, ref in pairs:
        bad = [f for f in fields if not _same(row[f], ref[f])]
        if bad:
            failed += 1
            notes.append(f"row {_key(row, keys)}: {', '.join(bad)}")
    with open(ref_stderr_path) as handle:
        want = _SUMMARY.search(handle.read())
    try:
        with open(stderr_path) as handle:
            got = _SUMMARY.search(handle.read())
    except OSError:
        got = None
    if got is None or any(
        abs(float(g) - float(w)) > 2e-9 + REL * abs(float(w))
        for g, w in zip(got.groups(), want.groups())
    ):
        failed += 1
        notes.append(f"solve summary {got.groups() if got else None} != {want.groups()}")
    return max(len(out_rows), len(ref_rows)) + 1, failed, notes


def check_properties(path: str, ref_path: str):
    """Every reference check must be reported and passed; so must any new one."""
    with open(ref_path) as handle:
        ref_checks = json.load(handle)["checks"]
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        return len(ref_checks), len(ref_checks), [f"{path}: {exc}"]
    notes: list[str] = []
    ids = [(c["name"], c["instance"]) for c in report["checks"]]
    missing = [(c["name"], c["instance"]) for c in ref_checks
               if (c["name"], c["instance"]) not in ids]
    notes.extend(f"missing check {m}" for m in missing)
    failed = len(missing)
    for check in report["checks"]:
        if not check["passed"]:
            failed += 1
            notes.append(f"failed check {check['name']} ({check['instance']}): {check.get('detail', '')}")
    if not report.get("all_passed") and failed == 0:
        failed, notes = 1, ["all_passed is false"]
    return len(report["checks"]) + len(missing), failed, notes


def check_command(kind: str, out_dir: str, output: str, ref_dir: str, reference: str, seed: int,
                  stderr_path: str):
    out, ref = f"{out_dir}/{output}", f"{ref_dir}/{reference}"
    if kind == "tradeoff":
        return check_tradeoff(out, ref, seed)
    if kind == "greedy":
        return check_greedy(out, ref, seed)
    if kind == "solve":
        return check_solve(out, ref, stderr_path, ref[: -len(".csv")] + ".stderr")
    if kind == "properties":
        return check_properties(out, ref)
    raise ValueError(f"unknown check {kind!r}")
