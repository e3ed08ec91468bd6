"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The module-scoped fixtures share the expensive solve/simulate grids
between criteria.
"""

import numpy as np
import pytest

from aoisched.channel import ChannelModel
from aoisched.mdp import Case, FrameSpec, TruncationBound, build_case
from aoisched.sim import SimConfig, estimate_mixture, simulate_greedy
from aoisched.solver import (
    aoi_monotonicity_violations,
    belief_mix_inequality_violations,
    belief_monotonicity_violations,
    bisect_lambda,
    discounted_vi,
    dual_value_sweep,
    extract_threshold_aoi,
    extract_threshold_belief,
    policy_averages,
    rvi_plain,
    rvi_threshold_delayed,
    rvi_threshold_no_sensing,
    threshold_ordering_violations,
)
from oracles import enumerate_and_evaluate, enumerate_threshold_optimum, expected_bias

SEED = 20250809
PAIRS = [(0.7, 0.3), (0.9, 0.3), (0.9, 0.5)]
EMAXES = [round(0.1 * i, 1) for i in range(1, 11)]
GRID_N = 100
SIM = SimConfig(horizon=101_000, seed=SEED, warmup=1000)  # 1e5 averaged slots


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


@pytest.fixture(scope="module")
def tradeoff_grid():
    """Solved mixtures plus matched-seed simulations for criteria 6, 7, 8."""
    frame = FrameSpec(3)
    grid = {}
    for case in (Case.NO_SENSING, Case.DELAYED_SENSING):
        for pair in PAIRS:
            ch = ChannelModel(*pair)
            mixes = bisect_lambda(
                case, frame, ch, TruncationBound(GRID_N), EMAXES, eps=1e-7, eps_lam=1e-4,
            )
            for emax, mix in zip(EMAXES, mixes):
                res = estimate_mixture(case, frame, ch, mix, SIM)
                grid[(case, pair, emax)] = {
                    "aoi": mix.analytic_aoi(),
                    "energy": mix.analytic_energy(),
                    "aoi_mc": res.avg_aoi,
                    "energy_mc": res.avg_energy,
                    "se": res.aoi_se,
                }
    return grid


@pytest.fixture(scope="module")
def solver_grid():
    """Plain and structure-aware solves on a 12-point grid (criteria 3, 4)."""
    points = [
        (K, p11, p01, lam)
        for K in (2, 3)
        for (p11, p01) in ((0.7, 0.3), (0.9, 0.5), (0.8, 0.2))
        for lam in (0.0, 1.5)
    ]
    rows = []
    for K, p11, p01, lam in points:
        frame, ch, bound = FrameSpec(K), ChannelModel(p11, p01), TruncationBound(9)
        ns_space, ns_kern = build_case(Case.NO_SENSING, frame, ch, bound)
        d_space, d_kern = build_case(Case.DELAYED_SENSING, frame, ch, bound)
        rows.append({
            "point": (K, p11, p01, lam),
            "ns_plain": rvi_plain(ns_space, ns_kern, lam, eps=1e-7),
            "ns_fast": rvi_threshold_no_sensing(ns_space, ns_kern, lam, eps=1e-7),
            "d_plain": rvi_plain(d_space, d_kern, lam, eps=1e-7),
            "d_fast": rvi_threshold_delayed(d_space, d_kern, lam, eps=1e-7),
        })
    return rows


def test_criterion_1_energy_anchor():
    frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
    space, kern = build_case(Case.NO_SENSING, frame, ch, TruncationBound(200))
    policy = rvi_plain(space, kern, 0.0, eps=1e-8).policy
    energy = policy_averages(kern, policy)[1]
    assert 0.6067 <= energy <= 0.6267
    res = estimate_mixture(
        Case.NO_SENSING, frame, ch,
        bisect_lambda(Case.NO_SENSING, frame, ch, TruncationBound(200), (1.0,), eps=1e-8)[0],
        SIM,
    )
    assert abs(res.avg_energy - energy) <= 0.01
    report(1, f"unconstrained energy {energy:.4f} analytic, {res.avg_energy:.4f} simulated")


ORACLE_INSTANCES = [
    # (case, p11, p01, N, lam); every space has at most 14 states at K=2
    (Case.DELAYED_SENSING, 0.7, 0.3, 3, 0.0),
    (Case.DELAYED_SENSING, 0.7, 0.3, 5, 0.7),
    (Case.DELAYED_SENSING, 0.9, 0.2, 4, 1.3),
    (Case.DELAYED_SENSING, 0.8, 0.6, 5, 0.4),
    (Case.DELAYED_SENSING, 0.55, 0.5, 3, 2.1),
    (Case.DELAYED_SENSING, 0.95, 0.35, 5, 0.9),
    (Case.DELAYED_SENSING, 0.85, 0.15, 4, 0.0),
    (Case.NO_SENSING, 0.5, 0.5, 3, 0.6),
    (Case.NO_SENSING, 0.3, 0.3, 4, 1.1),
    (Case.NO_SENSING, 0.8, 0.8, 5, 0.25),
]


def test_criterion_2_oracle_equivalence():
    checked = 0
    for case, p11, p01, n, lam in ORACLE_INSTANCES:
        frame, ch, bound = FrameSpec(2), ChannelModel(p11, p01), TruncationBound(n)
        space, kern = build_case(case, frame, ch, bound)
        assert space.n <= 14, f"instance {case} {p11},{p01} N={n} has {space.n} states"
        gain, _policy = enumerate_and_evaluate(space, kern, lam, cap=14)
        solved = rvi_plain(space, kern, lam, eps=1e-9)
        assert solved.gain == pytest.approx(gain, abs=1e-6)
        thr_gain, thr_policy = enumerate_threshold_optimum(space, kern, lam, cap=14)
        assert thr_gain == pytest.approx(gain, abs=1e-9)
        thr_policy.as_threshold()  # cutoff-rule form must extract cleanly
        checked += 1
    assert checked >= 10
    report(2, f"{checked} instances: brute force == cutoff rules == solver gain")


def test_criterion_3_structure_equivalence(solver_grid):
    for row in solver_grid:
        for plain_key, fast_key in (("ns_plain", "ns_fast"), ("d_plain", "d_fast")):
            plain, fast = row[plain_key], row[fast_key]
            assert np.array_equal(plain.policy.actions, fast.policy.actions), row["point"]
            assert fast.gain == pytest.approx(plain.gain, abs=1e-7)
            assert fast.argmin_evals < plain.argmin_evals, row["point"]
    saved = [
        1 - row[k].argmin_evals / row[p].argmin_evals
        for row in solver_grid for p, k in (("ns_plain", "ns_fast"), ("d_plain", "d_fast"))
    ]
    report(3, f"12-point grid, argmin comparisons cut by {100 * min(saved):.0f}% or more")


def test_criterion_4_threshold_ordering(solver_grid):
    for row in solver_grid:
        policy = row["d_fast"].policy.as_threshold()
        assert threshold_ordering_violations(policy) == [], row["point"]
    report(4, "good-state AoI cutoff never exceeds the bad-state one, all grid points")


def test_criterion_5_truncation_convergence():
    frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
    for lam in (0.0, 1.0, 5.0):
        gains = []
        for n in (25, 50, 100, 200, 400):
            space, kern = build_case(Case.NO_SENSING, frame, ch, TruncationBound(n))
            gains.append(rvi_plain(space, kern, lam, eps=1e-9).gain)
        diffs = [abs(b - a) for a, b in zip(gains, gains[1:])]
        # 1e-9 additive slack: the late differences sit at the solve
        # tolerance, where ordering would otherwise compare pure noise
        assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(diffs, diffs[1:])), (lam, diffs)
        assert diffs[-1] < 1e-3, (lam, diffs)
    report(5, "priced optimum stabilized along N in {25,50,100,200,400} at three prices")


def test_criterion_6_constraints_and_comparative_statics(tradeoff_grid):
    for (case, pair, emax), cell in tradeoff_grid.items():
        assert cell["energy"] <= emax + 1e-9, (case, pair, emax)
        assert cell["energy_mc"] <= emax + 0.01, (case, pair, emax)
    for case in (Case.NO_SENSING, Case.DELAYED_SENSING):
        for pair in PAIRS:
            cells = [tradeoff_grid[(case, pair, e)] for e in EMAXES]
            for a, b in zip(cells, cells[1:]):
                assert b["aoi"] <= a["aoi"] + 1e-3, (case, pair)
                two_sigma = 2 * (a["se"] ** 2 + b["se"] ** 2) ** 0.5
                assert b["aoi_mc"] <= a["aoi_mc"] + two_sigma, (case, pair)
        # larger p11 at fixed p01, then larger p01 at fixed p11
        for low, high in [((0.7, 0.3), (0.9, 0.3)), ((0.9, 0.3), (0.9, 0.5))]:
            for emax in EMAXES:
                a = tradeoff_grid[(case, low, emax)]
                b = tradeoff_grid[(case, high, emax)]
                assert b["aoi"] <= a["aoi"] + 1e-3, (case, low, high, emax)
                two_sigma = 2 * (a["se"] ** 2 + b["se"] ** 2) ** 0.5
                assert b["aoi_mc"] <= a["aoi_mc"] + two_sigma, (case, low, high, emax)
    report(6, "budgets respected; AoI non-increasing in the budget and in p11, p01")


def test_criterion_7_greedy_dominance(tradeoff_grid):
    frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
    gaps = []
    for emax in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]:
        greedy = simulate_greedy(Case.NO_SENSING, frame, ch, emax, SIM).avg_aoi
        for case in (Case.NO_SENSING, Case.DELAYED_SENSING):
            optimal = tradeoff_grid[(case, (0.7, 0.3), emax)]["aoi_mc"]
            assert optimal <= greedy, (case, emax, optimal, greedy)
        gaps.append(greedy - tradeoff_grid[(Case.NO_SENSING, (0.7, 0.3), emax)]["aoi_mc"])
    # the advantage narrows as the budget loosens: rank correlation, not
    # strict per-row monotonicity, since both columns carry sampling noise
    ranks = np.argsort(np.argsort(gaps))
    x = np.arange(len(gaps))
    spearman = np.corrcoef(x, ranks)[0, 1]
    assert spearman < 0, gaps
    report(7, f"optimal beats greedy on all rows; gap shrinks {gaps[0]:.2f} -> {gaps[-1]:.2f}")


def test_criterion_8_case_dominance(tradeoff_grid):
    for pair in PAIRS:
        for emax in EMAXES:
            ns = tradeoff_grid[(Case.NO_SENSING, pair, emax)]
            de = tradeoff_grid[(Case.DELAYED_SENSING, pair, emax)]
            two_sigma = 2 * (ns["se"] ** 2 + de["se"] ** 2) ** 0.5
            assert de["aoi_mc"] <= ns["aoi_mc"] + two_sigma, (pair, emax)
            assert de["aoi"] <= ns["aoi"] + 1e-3, (pair, emax)
    report(8, "delayed sensing never worse than no sensing, all grid points")


def test_criterion_9_discounted_value_properties():
    beta = 0.95
    frame, ch, bound = FrameSpec(3), ChannelModel(0.7, 0.3), TruncationBound(60)
    ns_space, ns_kern = build_case(Case.NO_SENSING, frame, ch, bound)
    d_space, d_kern = build_case(Case.DELAYED_SENSING, frame, ch, bound)
    for lam in (0.0, 1.0, 5.0):
        v, policy = discounted_vi(ns_space, ns_kern, lam, beta)
        assert aoi_monotonicity_violations(ns_space, v) == []
        assert belief_monotonicity_violations(ns_space, v) == []
        assert belief_mix_inequality_violations(ns_space, v, lam) == []
        q0 = ns_kern.delta + beta * expected_bias(ns_kern, v, 0)
        q1 = ns_kern.delta + lam + beta * expected_bias(ns_kern, v, 1)
        acts = ((q1 < q0) & ns_kern.admissible).astype(np.int8)
        assert np.array_equal(policy.actions, acts)
        extract_threshold_belief(ns_space, acts)  # single switch per (delta, k)

        vd, d_table = discounted_vi(d_space, d_kern, lam, beta)
        assert aoi_monotonicity_violations(d_space, vd) == []
        qd0 = d_kern.delta + beta * expected_bias(d_kern, vd, 0)
        qd1 = d_kern.delta + lam + beta * expected_bias(d_kern, vd, 1)
        d_acts = ((qd1 < qd0) & d_kern.admissible).astype(np.int8)
        assert np.array_equal(d_table.actions, d_acts)
        d_policy = extract_threshold_aoi(d_space, d_acts)
        assert threshold_ordering_violations(d_policy) == []
    report(9, "discounted values monotone, mixing bound holds, cutoff structure intact")


def test_criterion_10_duality_spot_check():
    frame, ch, bound = FrameSpec(2), ChannelModel(0.7, 0.3), TruncationBound(30)
    e_max = 0.4
    sweep = dual_value_sweep(
        Case.NO_SENSING, frame, ch, bound, e_max,
        np.arange(0.0, 20.0001, 0.01), eps=1e-8,
    )
    dual = max(value for _lam, value in sweep)
    [mix] = bisect_lambda(Case.NO_SENSING, frame, ch, bound, (e_max,), eps=1e-8, eps_lam=1e-5)
    gap = abs(mix.analytic_aoi() - dual)
    assert gap <= 1e-2
    report(10, f"dual maximum {dual:.6f} vs constrained optimum {mix.analytic_aoi():.6f}")
