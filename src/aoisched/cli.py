"""Command-line front end: experiment sweeps, single solves, property suite.

Subcommands write one CSV per sweep with a fixed, documented column order.
Every row carries the full parameter tuple and the seed, so any row can be
regenerated in isolation. Rows are computed one job per curve (optionally on
a process pool), each (case, K, channel) curve's budgets sharing one price
search, and sorted before writing, so the worker count never changes the
file content. Reruns with equal arguments produce byte-identical files.

Exit codes: 0 success, 2 argument or config errors, 3 solver non-convergence,
4 property-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .mdp import Case, FrameSpec, TruncationBound, build_case
from .sim import SimConfig, estimate_mixture, simulate, simulate_greedy
from .solver import (
    NonConvergenceError,
    ThresholdStructureError,
    aoi_monotonicity_violations,
    belief_mix_inequality_violations,
    belief_monotonicity_violations,
    bisect_lambda,
    discounted_vi,
    dual_value_sweep,
    extract_threshold_belief,
    policy_averages,
    rvi_plain,
    rvi_threshold_delayed,
    rvi_threshold_no_sensing,
    threshold_ordering_violations,
)

__all__ = [
    "EXIT_OK",
    "EXIT_PROPERTY",
    "EXIT_SOLVER",
    "EXIT_USAGE",
    "ExperimentSpec",
    "main",
    "run_greedy_comparison",
    "run_property_suite",
    "run_tradeoff_sweep",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_PROPERTY = 4

DEFAULT_PAIRS = ((0.7, 0.3), (0.9, 0.3), (0.9, 0.5))

TRADEOFF_COLUMNS = [
    "row_kind", "case", "frame_k", "p11", "p01", "emax", "bound_n", "eps",
    "eps_lambda", "seed", "horizon", "warmup", "lambda_minus", "lambda_plus",
    "q", "energy_minus", "energy_plus", "aoi_analytic", "energy_analytic",
    "aoi_mc", "energy_mc", "aoi_mc_se",
]
GREEDY_COLUMNS = [
    "emax", "frame_k", "p11", "p01", "bound_n", "eps", "eps_lambda", "seed",
    "horizon", "warmup", "aoi_no_sensing", "aoi_delayed", "aoi_greedy",
    "gap_no_sensing", "gap_delayed",
]
SOLVE_COLUMNS_BELIEF = ["case", "component", "delta", "k", "omega_star"]
SOLVE_COLUMNS_AOI = ["case", "component", "k", "g", "delta_star"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep's fully validated configuration."""

    case: str
    frame_k_list: tuple[int, ...]
    pairs: tuple[tuple[float, float], ...]
    emax_list: tuple[float, ...]
    bound_n: int
    eps: float
    eps_lambda: float
    horizon: int
    seed: int
    warmup: int
    out: str | None
    workers: int

    def __post_init__(self):
        if self.case not in ("no_sensing", "delayed_sensing", "both"):
            raise ValueError(f"unknown case {self.case!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not self.frame_k_list or not self.emax_list:
            raise ValueError("frame-length and energy-budget lists must be non-empty")
        for flag, values in (("--frame-K", self.frame_k_list), ("--emax", self.emax_list)):
            if len(set(values)) < len(values):
                raise ValueError(f"{flag} lists a value more than once: {values}")
        for k in self.frame_k_list:
            for p11, p01 in self.pairs:
                TruncationBound(self.bound_n).validate_against(FrameSpec(k))
                ChannelModel(p11, p01)
                if p01 == 0.0:
                    raise ValueError(
                        f"p01=0 makes the bad channel state absorbing (p11={p11}): no "
                        "transmission succeeds once it is entered, so the AoI grows without bound"
                    )
        for e in self.emax_list:
            if not 0.0 < e <= 1.0:
                raise ValueError(f"energy budget must lie in (0, 1], got {e}")
        if not (0.0 < self.eps < math.inf and 0.0 < self.eps_lambda < math.inf):
            raise ValueError("tolerances must be finite and positive")
        SimConfig(self.horizon, self.seed, self.warmup)
        if self.out:
            if os.path.isdir(self.out):
                raise ValueError(f"output path {self.out!r} is a directory")
            if not os.path.isdir(os.path.dirname(self.out) or "."):
                raise ValueError(f"output directory of {self.out!r} does not exist")

    def cases(self) -> list[Case]:
        if self.case == "both":
            return [Case.NO_SENSING, Case.DELAYED_SENSING]
        return [Case(self.case)]

    def sim_config(self) -> SimConfig:
        return SimConfig(self.horizon, self.seed, self.warmup)


# ---------------------------------------------------------------------------
# formatting and dispatch helpers


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf"
        return repr(value)
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: str | None, columns: list[str], rows: list[dict]) -> None:
    handle = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
    finally:
        if path:
            handle.close()


def _map_points(fn, jobs: list, workers: int) -> list:
    """The rows of every job, in job order; each job returns a list of rows."""
    if workers <= 1 or len(jobs) <= 1:
        results = [fn(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(fn, jobs))
    return [row for rows in results for row in rows]


def _provenance(spec: ExperimentSpec, case: Case, k: int, p11: float, p01: float) -> dict:
    return {
        "case": case.value,
        "frame_k": k,
        "p11": p11,
        "p01": p01,
        "bound_n": spec.bound_n,
        "eps": spec.eps,
        "eps_lambda": spec.eps_lambda,
        "seed": spec.seed,
        "horizon": spec.horizon,
        "warmup": spec.warmup,
    }


# ---------------------------------------------------------------------------
# sweep jobs, one per curve (top level so a process pool can pickle them)


def _constrained_point(job) -> list[dict]:
    """One curve's rows: one per budget, then the unconstrained optimum. No
    policy spends more than every slot, so that is the optimum at budget 1,
    which the curve's search solves with its own price-0 solve."""
    spec, case, k, p11, p01 = job
    frame, ch = FrameSpec(k), ChannelModel(p11, p01)
    budgets = spec.emax_list + (() if 1.0 in spec.emax_list else (1.0,))
    mixes = bisect_lambda(
        case, frame, ch, TruncationBound(spec.bound_n), budgets,
        eps=spec.eps, eps_lam=spec.eps_lambda,
    )
    rows = []
    for emax, mix in zip(spec.emax_list, mixes):
        res = estimate_mixture(case, frame, ch, mix, spec.sim_config())
        row = _provenance(spec, case, k, p11, p01)
        row.update(
            row_kind="constrained", emax=emax,
            lambda_minus=mix.lam_minus, lambda_plus=mix.lam_plus, q=mix.q,
            energy_minus=mix.energy_minus, energy_plus=mix.energy_plus,
            aoi_analytic=mix.analytic_aoi(), energy_analytic=mix.analytic_energy(),
            aoi_mc=res.avg_aoi, energy_mc=res.avg_energy, aoi_mc_se=res.aoi_se,
        )
        rows.append(row)
    rows.append(_unconstrained_point(spec, case, k, p11, p01, mixes[budgets.index(1.0)]))
    return rows


def _unconstrained_point(spec: ExperimentSpec, case: Case, k: int, p11: float, p01: float,
                         mix) -> dict:
    """The unconstrained row from the single-policy mixture of price 0."""
    frame, ch = FrameSpec(k), ChannelModel(p11, p01)
    aoi, energy = mix.aoi_minus, mix.energy_minus
    res = simulate(case, frame, ch, mix.pi_minus, spec.sim_config())
    row = _provenance(spec, case, k, p11, p01)
    row.update(
        row_kind="unconstrained", emax="",
        lambda_minus=0.0, lambda_plus=0.0, q=1.0,
        energy_minus=energy, energy_plus=energy,
        aoi_analytic=aoi, energy_analytic=energy,
        aoi_mc=res.avg_aoi, energy_mc=res.avg_energy, aoi_mc_se=res.aoi_se,
    )
    return row


def _greedy_point(job) -> list[dict]:
    """One (K, channel) curve's rows: both cases' mixtures against the
    greedy baseline, one row per budget."""
    spec, k, p11, p01 = job
    frame, ch = FrameSpec(k), ChannelModel(p11, p01)
    cfg = spec.sim_config()
    cases = (Case.NO_SENSING, Case.DELAYED_SENSING)
    mixes = {
        case: bisect_lambda(
            case, frame, ch, TruncationBound(spec.bound_n), spec.emax_list,
            eps=spec.eps, eps_lam=spec.eps_lambda,
        )
        for case in cases
    }
    rows = []
    for i, emax in enumerate(spec.emax_list):
        aoi = {case: estimate_mixture(case, frame, ch, mixes[case][i], cfg).avg_aoi
               for case in cases}
        greedy = simulate_greedy(Case.NO_SENSING, frame, ch, emax, cfg).avg_aoi
        row = {"emax": emax, "frame_k": k, "p11": p11, "p01": p01,
               "bound_n": spec.bound_n, "eps": spec.eps, "eps_lambda": spec.eps_lambda,
               "seed": spec.seed, "horizon": spec.horizon, "warmup": spec.warmup}
        row.update(
            aoi_no_sensing=aoi[Case.NO_SENSING],
            aoi_delayed=aoi[Case.DELAYED_SENSING],
            aoi_greedy=greedy,
            gap_no_sensing=greedy - aoi[Case.NO_SENSING],
            gap_delayed=greedy - aoi[Case.DELAYED_SENSING],
        )
        rows.append(row)
    return rows


def _row_sort_key(row: dict):
    return (
        row["case"], row["frame_k"], row["p11"], row["p01"],
        row["row_kind"], row["emax"] if row["emax"] != "" else -1.0,
    )


def run_tradeoff_sweep(spec: ExperimentSpec) -> list[dict]:
    """AoI/energy tradeoff rows over the budget sweep, plus, per channel and
    case, the unconstrained optimum; one job per (case, K, channel) curve."""
    jobs = [
        (spec, case, k, p11, p01)
        for case in spec.cases()
        for k in spec.frame_k_list
        for p11, p01 in spec.pairs
    ]
    rows = _map_points(_constrained_point, jobs, spec.workers)
    rows.sort(key=_row_sort_key)
    return rows


def run_greedy_comparison(spec: ExperimentSpec) -> list[dict]:
    """Optimal mixtures of both cases against the greedy baseline, matched
    seeds, one row per frame length, channel pair and budget; one job per
    (K, channel) curve."""
    jobs = [(spec, k, p11, p01) for k in spec.frame_k_list for p11, p01 in spec.pairs]
    rows = _map_points(_greedy_point, jobs, spec.workers)
    rows.sort(key=lambda r: (r["frame_k"], r["p11"], r["p01"], r["emax"]))
    return rows


# ---------------------------------------------------------------------------
# single solve


def _solve_rows(spec: ExperimentSpec, case: Case, lam: float | None) -> list[dict]:
    frame = FrameSpec(spec.frame_k_list[0])
    p11, p01 = spec.pairs[0]
    ch = ChannelModel(p11, p01)
    bound = TruncationBound(spec.bound_n)
    solver = rvi_threshold_no_sensing if case is Case.NO_SENSING else rvi_threshold_delayed
    if lam is not None:
        space, kern = build_case(case, frame, ch, bound)
        report = solver(space, kern, lam, eps=spec.eps)
        aoi, energy = policy_averages(kern, report.policy)
        print(
            f"# {case.value}: lam={lam} gain={report.gain:.9f} "
            f"aoi={aoi:.9f} energy={energy:.9f} sweeps={report.iterations}",
            file=sys.stderr,
        )
        components = [("priced", report.policy.as_threshold())]
    else:
        [mix] = bisect_lambda(case, frame, ch, bound, spec.emax_list[:1],
                              eps=spec.eps, eps_lam=spec.eps_lambda)
        print(
            f"# {case.value}: emax={spec.emax_list[0]} q={mix.q:.6f} "
            f"lam_minus={mix.lam_minus:.6f} lam_plus={mix.lam_plus:.6f} "
            f"aoi={mix.analytic_aoi():.9f} energy={mix.analytic_energy():.9f}",
            file=sys.stderr,
        )
        components = [("minus", mix.pi_minus), ("plus", mix.pi_plus)]
    columns = SOLVE_COLUMNS_BELIEF if case is Case.NO_SENSING else SOLVE_COLUMNS_AOI
    return [
        dict(zip(columns, (case.value, name, *key, policy.thresholds[key])))
        for name, policy in components
        for key in sorted(policy.thresholds)
    ]


# ---------------------------------------------------------------------------
# property suite


def _suite_instances(seed: int) -> list[dict]:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(9,))))
    instances = [
        # ties by construction: a dead bad state prices suspension and a
        # zero-belief transmission identically at lam=0
        {"K": 2, "p11": 0.6, "p01": 0.0, "lam": 0.0, "N": 8},
    ]
    while len(instances) < 6:
        k = int(rng.integers(2, 4))
        p11 = round(float(rng.uniform(0.55, 0.95)), 3)
        p01 = round(float(rng.uniform(0.05, p11)), 3)
        lam = round(float(rng.choice([0.0, 0.5, 1.5, 4.0])), 3)
        n = int(rng.integers(8, 15))
        if (p11 - p01) ** n > 0.02:
            # keep the truncation's boundary layer negligible: a cap far
            # below the channel mixing time distorts the model wholesale
            # and the structural claims only hold in the large-cap limit
            continue
        instances.append({"K": k, "p11": p11, "p01": p01, "lam": lam, "N": n})
    return instances


def _check(report: list, name: str, instance, fn) -> None:
    try:
        detail = fn()
        passed, detail = (True, detail) if not isinstance(detail, tuple) else detail
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    report.append({
        "name": name,
        "instance": instance,
        "passed": bool(passed),
        "detail": detail if isinstance(detail, str) else "",
    })


def run_property_suite(spec: ExperimentSpec, inject_tie_break_bug: bool = False) -> dict:
    """Structural checks on solved instances, downscaled to desk size.

    Covers threshold structure of converged policies, equivalence of the
    structure-aware sweeps with the plain sweep, discounted-value
    monotonicity and mixing bounds, the AoI-cutoff ordering across channel
    states, comparative statics in the energy price, truncation convergence,
    and the dual gap. The tie-break bug flag flips the tie handling inside
    the threshold sweeps only, which must break the equivalence check on the
    tie-bearing instance.
    """
    checks: list[dict] = []
    beta = 0.95
    threshold_tie = "transmit" if inject_tie_break_bug else "suspend"

    for inst in _suite_instances(spec.seed):
        tag = f"K={inst['K']} p11={inst['p11']} p01={inst['p01']} lam={inst['lam']} N={inst['N']}"
        frame = FrameSpec(inst["K"])
        ch = ChannelModel(inst["p11"], inst["p01"])
        bound = TruncationBound(inst["N"])
        lam = inst["lam"]
        ns_space, ns_kern = build_case(Case.NO_SENSING, frame, ch, bound)
        d_space, d_kern = build_case(Case.DELAYED_SENSING, frame, ch, bound)

        plain_ns = rvi_plain(ns_space, ns_kern, lam, eps=spec.eps)
        plain_d = rvi_plain(d_space, d_kern, lam, eps=spec.eps)

        def structure():
            extract_threshold_belief(ns_space, plain_ns.policy.actions)
            return ""

        _check(checks, "threshold_structure", tag, structure)

        def equivalence():
            thr_ns = rvi_threshold_no_sensing(
                ns_space, ns_kern, lam, eps=spec.eps, tie_break=threshold_tie
            )
            thr_d = rvi_threshold_delayed(
                d_space, d_kern, lam, eps=spec.eps, tie_break=threshold_tie
            )
            same_ns = bool(np.array_equal(thr_ns.policy.actions, plain_ns.policy.actions))
            same_d = bool(np.array_equal(thr_d.policy.actions, plain_d.policy.actions))
            mism = int(np.sum(thr_ns.policy.actions != plain_ns.policy.actions)) + int(
                np.sum(thr_d.policy.actions != plain_d.policy.actions)
            )
            return (same_ns and same_d, "" if same_ns and same_d else f"{mism} action mismatches")

        _check(checks, "threshold_equivalence", tag, equivalence)

        v_ns, discounted_ns = discounted_vi(ns_space, ns_kern, lam, beta)
        v_d, _ = discounted_vi(d_space, d_kern, lam, beta)

        _check(checks, "lemma_monotone_aoi", tag,
               lambda: _violations_detail(aoi_monotonicity_violations(ns_space, v_ns)))
        _check(checks, "lemma_monotone_belief", tag,
               lambda: _violations_detail(belief_monotonicity_violations(ns_space, v_ns)))
        _check(checks, "lemma_mix_inequality", tag,
               lambda: _violations_detail(belief_mix_inequality_violations(ns_space, v_ns, lam)))

        def discounted_threshold():
            extract_threshold_belief(ns_space, discounted_ns.actions)
            return ""

        _check(checks, "lemma_discounted_threshold", tag, discounted_threshold)
        _check(checks, "lemma_delayed_monotone_aoi", tag,
               lambda: _violations_detail(aoi_monotonicity_violations(d_space, v_d)))

        def ordering():
            thr = plain_d.policy.as_threshold()
            return _violations_detail(threshold_ordering_violations(thr))

        _check(checks, "delta_star_ordering", tag, ordering)

        def statics():
            gains, aois, energies = [], [], []
            warm = None
            for price in (0.0, 0.5, 1.5, 4.0):
                rep = rvi_plain(ns_space, ns_kern, price, eps=spec.eps, h_init=warm)
                warm = rep.bias
                aoi, energy = policy_averages(ns_kern, rep.policy)
                gains.append(rep.gain)
                aois.append(aoi)
                energies.append(energy)
            # averages come from the stationary law (1e-10 residual); gains
            # carry the value-iteration tolerance
            gain_slack = max(1e-8, 10.0 * spec.eps)
            ok = all(a2 >= a1 - 1e-8 for a1, a2 in zip(aois, aois[1:]))
            ok &= all(e2 <= e1 + 1e-8 for e1, e2 in zip(energies, energies[1:]))
            ok &= all(g2 >= g1 - gain_slack for g1, g2 in zip(gains, gains[1:]))
            return (ok, "" if ok else f"aoi={aois} energy={energies} gain={gains}")

        _check(checks, "comparative_statics", tag, statics)

    def truncation():
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        diffs = []
        for lam in (0.0, 1.0):
            gains = []
            for n in (8, 16, 32, 64):
                space, kern = build_case(Case.NO_SENSING, frame, ch, TruncationBound(n))
                gains.append(rvi_plain(space, kern, lam, eps=1e-9).gain)
            diffs.append([abs(b - a) for a, b in zip(gains, gains[1:])])
        ok = all(d2 <= d1 + 1e-9 for seq in diffs for d1, d2 in zip(seq, seq[1:]))
        return (ok, f"downscaled ladder N in 8..64, diffs={diffs}" if not ok else
                "downscaled ladder N in 8..64")

    _check(checks, "truncation_convergence", "K=3 p11=0.7 p01=0.3", truncation)

    def dual_gap():
        mix, dual = _primal_and_dual(
            Case.NO_SENSING, FrameSpec(2), ChannelModel(0.7, 0.3), TruncationBound(12), 0.4
        )
        primal = mix.analytic_aoi()
        gap = abs(primal - dual)
        # weak duality: a dual above the primal by more than the solvers'
        # error means one of the two is wrong
        ok = gap <= 1e-2 and dual <= primal + 1e-6
        return (ok, f"primal={primal:.6f} dual={dual:.6f} gap={gap:.2e}")

    _check(checks, "dual_gap", "K=2 p11=0.7 p01=0.3 N=12 emax=0.4", dual_gap)

    return {"all_passed": all(c["passed"] for c in checks), "checks": checks}


def _primal_and_dual(case: Case, frame: FrameSpec, ch: ChannelModel, bound: TruncationBound,
                     e_max: float):
    """The budget's optimal mixture and the dual's maximum over the prices 0, 0.01, ..., 12.

    The dual is concave in the price and peaks at the critical price, which
    the mixture's prices bracket, so its grid maximum lies at a grid price
    within one step of [lam_minus, lam_plus]; only those are solved, and the
    last grid price alone when the bracket lies past the grid. By weak
    duality a wrong bracket can only lower the dual, never raise it.
    """
    [mix] = bisect_lambda(case, frame, ch, bound, (e_max,), eps=1e-8, eps_lam=1e-5)
    grid = np.arange(0.0, 12.0001, 0.01)
    lo = min(int(np.searchsorted(grid, mix.lam_minus - 0.01)), grid.size - 1)
    hi = max(int(np.searchsorted(grid, mix.lam_plus + 0.01, side="right")), lo + 1)
    sweep = dual_value_sweep(case, frame, ch, bound, e_max, grid[lo:hi], eps=1e-8)
    return mix, max(v for _lam, v in sweep)


def _violations_detail(violations: list):
    if not violations:
        return (True, "")
    return (False, f"{len(violations)} violations, first: {violations[0]!r}")


# ---------------------------------------------------------------------------
# argument handling


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_").lower()] = value.strip()
    return values


_FLAG_DEFAULTS = {
    "case": "both",
    "frame_k": "3",
    "p11": None,
    "p01": None,
    "emax": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "bound_n": "1000",
    "eps": "1e-6",
    "eps_lambda": "1e-4",
    "horizon": "100000",
    "seed": "1",
    "warmup": "1000",
    "out": None,
    "workers": "1",
}
_COMMAND_DEFAULTS = {
    "framelength": {"frame_k": "2,3,4,5,6,7,8", "emax": "0.3"},
    "greedy-compare": {"emax": "0.1,0.2,0.3,0.4,0.5,0.6", "p11": "0.7", "p01": "0.3"},
    "solve": {"emax": "0.3", "p11": "0.7", "p01": "0.3", "case": "no_sensing"},
    "properties": {"bound_n": "12"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoisched",
        description="Schedule status updates over a two-state fading channel: "
        "solve, simulate, and sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("tradeoff", "AoI/energy tradeoff sweep over energy budgets"),
        ("framelength", "average AoI against the frame length"),
        ("greedy-compare", "optimal policies against the greedy baseline"),
        ("properties", "structural property checks, desk-scale"),
        ("solve", "solve one instance and dump its policy cutoffs"),
    ]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--case", choices=["no_sensing", "delayed_sensing", "both"])
        p.add_argument("--frame-K", dest="frame_k", help="frame length, or comma list for sweeps")
        p.add_argument("--p11", type=float)
        p.add_argument("--p01", type=float)
        p.add_argument("--emax", help="energy budget, or comma list for sweeps")
        p.add_argument("--bound-N", dest="bound_n", type=int)
        p.add_argument("--eps", type=float)
        p.add_argument("--eps-lambda", dest="eps_lambda", type=float)
        p.add_argument("--horizon", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--warmup", type=int)
        p.add_argument("--out")
        p.add_argument("--workers", type=int)
        p.add_argument("--config", help="key = value file; explicit flags win")
        if name == "properties":
            p.add_argument("--inject-tie-break-bug", action="store_true",
                           help="flip the threshold-sweep tie break; the "
                           "equivalence check must then fail")
        if name == "solve":
            p.add_argument("--lam", type=float,
                           help="solve at this fixed energy price instead of "
                           "bisecting to --emax")
    return parser


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    merged = dict(_FLAG_DEFAULTS)
    merged.update(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        config = _load_config(args.config)
        unknown = set(config) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(config)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = str(value)

    if (merged["p11"] is None) != (merged["p01"] is None):
        raise ValueError("give both --p11 and --p01 or neither")
    if merged["p11"] is not None:
        pairs = ((float(merged["p11"]), float(merged["p01"])),)
    else:
        pairs = DEFAULT_PAIRS

    return ExperimentSpec(
        case=merged["case"],
        frame_k_list=_int_list(merged["frame_k"]),
        pairs=pairs,
        emax_list=_float_list(merged["emax"]),
        bound_n=int(merged["bound_n"]),
        eps=float(merged["eps"]),
        eps_lambda=float(merged["eps_lambda"]),
        horizon=int(merged["horizon"]),
        seed=int(merged["seed"]),
        warmup=int(merged["warmup"]),
        out=merged["out"],
        workers=int(merged["workers"]),
    )


def _cmd_tradeoff(spec: ExperimentSpec, args) -> int:
    _write_csv(spec.out, TRADEOFF_COLUMNS, run_tradeoff_sweep(spec))
    return EXIT_OK


def _cmd_greedy(spec: ExperimentSpec, args) -> int:
    if spec.case != "both":
        raise ValueError("greedy-compare always compares both cases; drop --case "
                         "or give --case both")
    _write_csv(spec.out, GREEDY_COLUMNS, run_greedy_comparison(spec))
    return EXIT_OK


def _cmd_properties(spec: ExperimentSpec, args) -> int:
    report = run_property_suite(spec, inject_tie_break_bug=args.inject_tie_break_bug)
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        line = f"[{mark}] {check['name']} ({check['instance']})"
        if check["detail"]:
            line += f" :: {check['detail']}"
        print(line)
    print(f"all_passed={report['all_passed']}")
    if spec.out:
        with open(spec.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return EXIT_OK if report["all_passed"] else EXIT_PROPERTY


def _cmd_solve(spec: ExperimentSpec, args) -> int:
    if spec.case == "both":
        raise ValueError("solve dumps one cutoff table; pick --case no_sensing "
                         "or delayed_sensing")
    if len(spec.frame_k_list) > 1 or len(spec.emax_list) > 1:
        raise ValueError("solve dumps one cutoff table; give one --frame-K and one --emax")
    case = spec.cases()[0]
    rows = _solve_rows(spec, case, args.lam)
    columns = SOLVE_COLUMNS_BELIEF if case is Case.NO_SENSING else SOLVE_COLUMNS_AOI
    _write_csv(spec.out, columns, rows)
    return EXIT_OK


_COMMANDS = {
    "tradeoff": _cmd_tradeoff,
    "framelength": _cmd_tradeoff,
    "greedy-compare": _cmd_greedy,
    "properties": _cmd_properties,
    "solve": _cmd_solve,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _build_spec(args)
        return _COMMANDS[args.command](spec, args)
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ThresholdStructureError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
