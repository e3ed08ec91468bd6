"""Planning algorithms for the average-cost scheduling problem.

Contains relative value iteration (plain and threshold-aware variants for
both CSI cases), discounted value iteration used by the structural property
checks, policy evaluation by damped power iteration on the induced chain and
exactly by AoI layers, bisection on the energy price with the two-policy
mixture construction, and a dual-objective sweep.

The price search decides each price's feasibility on the exact energy of its
policy. Power iteration, whose averages the reported mixture carries, runs
only for the two reported components and for decisions whose exact energy
lies within ``_EXACT_MARGIN`` of the budget, which is far above power
iteration's error; so the search takes every decision power iteration would.
One search serves all budgets of a tradeoff curve and runs each solve their
searches have in common once.

All relative value iteration runs through one loop over the vectorised
Bellman step, which discounted value iteration shares. Both carry a price
axis: a single solve is a batch of one price, and the dual sweep solves its
grid in batches, each price exactly as it would be solved alone. A
threshold-aware variant solves one price and only supplies the mask of
states its cutoff rule places above the cutoff; its ``argmin_evals`` counts
the comparisons the rule still needs, the paper's complexity measure, not
work that is skipped.

The step reads the kernel's branch-major rows: one ``np.take`` gathers the
bias at the successors of every (action, branch) row, and every later
operation, the cutoff masks' included, writes with ``out=`` into work arrays
made once per solve. Power-iteration rounds likewise write into arrays made
once per evaluation. Each sum keeps the order of the expression it computes,
so the loops give the same bits as the textbook expressions.

Relative value iteration damps every update by a fixed factor of 0.5. The
slot index cycles deterministically with the frame, so every induced chain
is periodic and the literal synchronous update oscillates instead of
settling; averaging the new iterate with the old one removes the periodicity
while keeping the same fixed point, optimal policy, and average cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .mdp import Case, CompiledKernel, DelayedSpace, FrameSpec, NoSensingSpace, TruncationBound, build_case
from .channel import ChannelModel

__all__ = [
    "MixturePolicy",
    "NonConvergenceError",
    "PolicyUndefinedError",
    "PriceStep",
    "SolveReport",
    "TabularPolicy",
    "ThresholdPolicyAoI",
    "ThresholdPolicyBelief",
    "ThresholdStructureError",
    "bisect_lambda",
    "belief_mix_inequality_violations",
    "belief_monotonicity_violations",
    "aoi_monotonicity_violations",
    "discounted_vi",
    "dual_value_sweep",
    "extract_threshold_aoi",
    "extract_threshold_belief",
    "policy_averages",
    "randomization_factor",
    "rvi_plain",
    "rvi_threshold_delayed",
    "rvi_threshold_no_sensing",
    "stationary_distribution",
    "threshold_ordering_violations",
]


# Aperiodicity damping of relative value iteration: each sweep moves the bias
# this fraction of the way to the Bellman update (Puterman 1994, 8.5.4).
_RELAXATION = 0.5
# Sweeps relative value iteration makes before it gives up.
_RVI_SWEEPS = 200_000
# Power iteration stops once the L1 change of one round is at most this
# residual, and gives up after this many rounds.
_POWER_TOL = 1e-10
_POWER_ROUNDS = 200_000
# Slack of a belief compared against its cutoff (see ThresholdPolicyBelief).
_BELIEF_TOL = 1e-9
# Price doublings a budget search tries before it gives up.
_MAX_DOUBLINGS = 60
# A price search decision whose exact energy lies this close to the budget is
# taken on power iteration's energy, which the reported mixture carries.
_EXACT_MARGIN = 1e-6
# Most cap-layer states the exact evaluator eliminates as one dense matrix,
# and most states whose branches it reads from the kernel at once.
_CORE_WIDTH = 1024
_CHUNK = 1024


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted before the tolerance was met."""

    def __init__(self, message: str, span: float):
        super().__init__(message)
        self.span = span


class ThresholdStructureError(RuntimeError):
    """A converged policy is not of threshold type where it must be."""


class PolicyUndefinedError(KeyError):
    """A policy was queried at a state outside its table; enumeration and
    clamping of the space it was solved on do not cover the query."""


# ---------------------------------------------------------------------------
# policies


@dataclass(eq=False)
class TabularPolicy:
    """Action per enumerated state. The solver-facing policy form."""

    space: object | None
    actions: np.ndarray

    def as_threshold(self):
        if self.space is None:
            raise ValueError("cannot extract thresholds without a state space")
        if self.space.case is Case.NO_SENSING:
            return extract_threshold_belief(self.space, self.actions)
        return extract_threshold_aoi(self.space, self.actions)


@dataclass(eq=False)
class ThresholdPolicyBelief:
    """Transmit at (delta, k) exactly when the belief reaches the cutoff.

    AoI values beyond the truncation cap reuse the cap row of the same slot
    index, and belief comparisons carry a small tolerance so that beliefs
    recomputed incrementally during simulation cannot fall on the wrong side
    of a cutoff they define.
    """

    frame_k: int
    cap: int
    thresholds: Mapping[tuple[int, int], float]
    actions: np.ndarray | None = None

    def cutoff(self, delta: int, k: int) -> float:
        if delta < self.frame_k:
            return np.inf
        key = (delta, k)
        if key not in self.thresholds:
            if delta < self.cap:
                raise PolicyUndefinedError(
                    f"no cutoff for state (delta={delta}, k={k}); "
                    "the queried AoI is incompatible with the solved space"
                )
            key = (self.cap, k)
        return self.thresholds[key]

    def action(self, delta: int, k: int, omega: float) -> int:
        return int(omega >= self.cutoff(delta, k) - _BELIEF_TOL)


@dataclass(eq=False)
class ThresholdPolicyAoI:
    """Transmit at (k, g) exactly when the AoI reaches the cutoff."""

    frame_k: int
    thresholds: Mapping[tuple[int, int], float]
    actions: np.ndarray | None = None

    def action(self, delta: int, k: int, g: int) -> int:
        if delta < self.frame_k:
            return 0
        try:
            cutoff = self.thresholds[(k, g)]
        except KeyError as exc:
            raise PolicyUndefinedError(f"no cutoff for slot (k={k}, g={g})") from exc
        return int(delta >= cutoff)


@dataclass(frozen=True)
class PriceStep:
    """One solve of a price search: the price, its RVI sweeps, the energy its
    feasibility was decided on and the evaluator that gave it, ``"exact"``
    (by AoI layers) or ``"power"`` (power iteration)."""

    lam: float
    sweeps: int
    energy: float
    evaluator: str


@dataclass(eq=False)
class MixturePolicy:
    """Randomized mixture of two priced policies meeting the energy budget.

    The scheduler draws one of the two component policies once at the start
    (the minus component with probability q) and follows it forever.
    ``steps`` holds the search's solves in order.
    """

    pi_minus: object
    pi_plus: object
    q: float
    lam_minus: float
    lam_plus: float
    energy_minus: float
    energy_plus: float
    aoi_minus: float
    aoi_plus: float
    steps: tuple[PriceStep, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"mixing weight must be in [0, 1], got {self.q}")

    def analytic_energy(self) -> float:
        return self.q * self.energy_minus + (1.0 - self.q) * self.energy_plus

    def analytic_aoi(self) -> float:
        return self.q * self.aoi_minus + (1.0 - self.q) * self.aoi_plus


@dataclass(eq=False)
class SolveReport:
    """Converged solve: average cost, bias values, greedy policy, counters.

    ``span_history`` holds the sup-norm change of the bias after every sweep;
    its last entry is ``span`` and sits at or below the requested tolerance.
    """

    gain: float
    bias: np.ndarray
    policy: TabularPolicy
    iterations: int
    span: float
    argmin_evals: int
    span_history: list[float]


# ---------------------------------------------------------------------------
# value iteration


class _Bellman:
    """The Bellman step over a batch of prices, and its work arrays.

    The bias h and the transmit cost hold one column per price, (n, m) for
    m prices. One ``np.take`` gathers the bias rows at every kernel row's
    successors, and every later operation writes with ``out=`` in the order
    of q_u = delta + lam*u + sum over u's branches of p*h, so the values are
    those of ``kern.expected_bias`` bit for bit. Rows whose probability is 1
    at every state (suspension without sensing) skip the multiply, and the
    transmit cost is +inf where transmission is inadmissible; neither moves
    a bit. With a discount ``beta`` the expectation is scaled before the
    cost is added. Work arrays are made once per solve for the widest batch,
    and m prices use the front of each, so a sweep allocates nothing.
    """

    def __init__(self, kern: CompiledKernel, width: int, beta: float | None = None):
        self.kern = kern
        self.beta = beta
        self.delta = kern.delta[:, None]
        self.prob = kern.prob[:, :, None]
        # probabilities are at most 1, so a row's minimum is 1 only on unit rows
        bounds = np.flatnonzero(np.diff(np.r_[0, kern.prob.min(axis=1) < 1.0, 0]))
        self.scaled = [slice(a, b) for a, b in zip(bounds[::2], bounds[1::2])]
        self.terms = np.empty(kern.prob.size * width)
        self.q = np.empty(2 * kern.n * width)
        self.views: dict[int, tuple] = {}

    def transmit_cost(self, lams: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (n, len(lams)) cost of transmitting, +inf where inadmissible.
        Every price must be finite and non-negative."""
        bad = lams[~((lams >= 0.0) & (lams < np.inf))]
        if len(bad):
            raise ValueError(f"energy price must be finite and non-negative, got {bad[0]}")
        cost = np.add(self.delta, lams, out=out)
        cost[~self.kern.admissible] = np.inf
        return cost

    def _views(self, m: int) -> tuple:
        """The work-array views that a step over m prices writes into."""
        kern = self.kern
        terms = _front(self.terms, kern.prob.shape + (m,))
        scaled = [(terms[rows], self.prob[rows]) for rows in self.scaled]
        q = tuple(_front(self.q, (2, kern.n, m)))
        sums = [
            [terms[r] for r in range(rows.start, rows.stop)]
            for rows in (kern.rows(0), kern.rows(1))
        ]
        return terms, scaled, sums, q

    def __call__(self, h: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Action values (q0, q1) at the (n, m) bias h, each (n, m), with
        ``cost`` the transmit cost of the same m prices."""
        m = h.shape[1]
        views = self.views.get(m)
        if views is None:
            views = self.views[m] = self._views(m)
        terms, scaled, sums, q = views
        np.take(h, self.kern.succ, axis=0, out=terms, mode="clip")
        for part, prob in scaled:
            np.multiply(part, prob, out=part)
        for branches, cost_u, q_u in zip(sums, (self.delta, cost), q):
            expect = branches[0] if len(branches) == 1 else np.add(*branches, out=q_u)
            if self.beta is not None:
                expect = np.multiply(expect, self.beta, out=q_u)
            np.add(cost_u, expect, out=q_u)
        return q


def _front(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading part of a flat buffer, as a C-contiguous array of ``shape``."""
    return buffer[: math.prod(shape)].reshape(shape)


def _transmit_beats(q0: np.ndarray, q1: np.ndarray, tie_break: str, out=None) -> np.ndarray:
    return np.less(q1, q0, out=out) if tie_break == "suspend" else np.less_equal(q1, q0, out=out)


def _rvi(space, kern, lams, eps, h_init, tie_break, above=None):
    """The one relative-value-iteration loop behind every solver: one
    ``SolveReport`` per price of ``lams``, in that order.

    A sweep is elementwise across prices or reduces within one price's
    column, so each price is solved exactly as alone, from ``h_init`` (the
    zero function by default), each sweep damped by ``_RELAXATION``. A price
    leaves the batch at the first sweep where its own span is at most
    ``eps``, its report read at that iterate, and the running prices close
    up; a finished bias is not written again. ``NonConvergenceError`` after
    ``_RVI_SWEEPS`` sweeps.

    ``above`` (one price only) maps the action values (q0, q1) of a sweep to
    the admissible states a cutoff rule already places above their cutoff.
    Those take q1 as they are, and ``argmin_evals`` counts only the
    comparisons the rule still needs, the paper's complexity measure.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {eps}")
    lams = np.array(lams, dtype=float)
    if tie_break not in ("suspend", "transmit"):
        raise ValueError(f"unknown tie break {tie_break!r}")
    m, n = len(lams), kern.n
    step = _Bellman(kern, m)
    # h, its successor and the transmit cost are fronts of flat buffers
    h_buf, new_buf, cost_buf = np.zeros(n * m), np.empty(n * m), np.empty(n * m)
    h, h_new, cost = _front(h_buf, (n, m)), _front(new_buf, (n, m)), _front(cost_buf, (n, m))
    step.transmit_cost(lams, out=cost)
    if h_init is not None:
        h.T[:] = h_init
    ref = kern.reference_index
    ref_value, span = np.empty(m), np.empty(m)
    n_argmin, skipped = int(kern.admissible.sum()), 0
    price = list(range(m))  # the position in lams of each column
    spans: list[list[float]] = [[] for _ in range(m)]
    reports: list[SolveReport | None] = [None] * m
    for _it in range(_RVI_SWEEPS):
        q0, q1 = step(h, cost)
        up = None if above is None else above(q0[:, 0], q1[:, 0])
        v = np.minimum(q0, q1, out=q0)
        if up is not None:
            np.copyto(v[:, 0], q1[:, 0], where=up)
            skipped += int(np.count_nonzero(up))
        # h_new = h + _RELAXATION * (v - v[ref] - h); q1 then takes the change
        np.copyto(ref_value, v[ref])
        np.subtract(v, ref_value, out=v)
        np.subtract(v, h, out=v)
        np.multiply(_RELAXATION, v, out=v)
        np.add(h, v, out=h_new)
        np.subtract(h_new, h, out=q1)
        np.maximum.reduce(np.abs(q1, out=q1), axis=0, out=span)
        now = span.tolist()
        for history, s in zip(spans, now):
            history.append(s)
        h, h_new, h_buf, new_buf = h_new, h, new_buf, h_buf
        # min() skips a NaN span unless it comes first, so no finished price is missed
        if min(now) > eps:
            continue
        done = span <= eps
        finished, kept = np.flatnonzero(done), np.flatnonzero(~done)
        if len(kept):
            h_done, cost_done = h[:, finished], cost[:, finished]
        else:
            h_done, cost_done = h, cost
        q0, q1 = step(h_done, cost_done)
        for col, j in enumerate(finished):
            history = spans[j]
            actions = _transmit_beats(q0[:, col], q1[:, col], tie_break).astype(np.int8)
            reports[price[j]] = SolveReport(
                float(np.minimum(q0[ref, col], q1[ref, col])), h_done[:, col],
                TabularPolicy(space, actions), len(history), history[-1],
                n_argmin * len(history) - skipped, history,
            )
        if not len(kept):
            return reports
        m = len(kept)
        h_kept, cost_kept = h[:, kept], cost[:, kept]
        h, h_new, cost = _front(h_buf, (n, m)), _front(new_buf, (n, m)), _front(cost_buf, (n, m))
        h[:], cost[:] = h_kept, cost_kept
        ref_value, span = ref_value[:m], span[:m]
        price, spans = [price[j] for j in kept], [spans[j] for j in kept]
    last = spans[0][-1]  # columns keep the order of lams
    raise NonConvergenceError(
        f"relative value iteration did not reach span {eps} in {_RVI_SWEEPS} sweeps "
        f"(last span {last})",
        last,
    )


def rvi_plain(
    space,
    kern: CompiledKernel,
    lam: float,
    eps: float = 1e-6,
    h_init: np.ndarray | None = None,
    tie_break: str = "suspend",
) -> SolveReport:
    """Relative value iteration anchored at the reference state.

    One sweep evaluates both actions at every admissible state, takes the
    minimum, subtracts the reference value, and moves halfway toward the
    result.
    Ties between equal action values resolve to suspension so that all
    solver variants agree action for action.
    """
    return _rvi(space, kern, [lam], eps, h_init, tie_break)[0]


class _FirstBeating:
    """Per group, the smallest key at which transmission beats suspension,
    read back at every state; written into arrays made once per solve."""

    def __init__(self, key: np.ndarray, group: np.ndarray, n_groups: int):
        self.key, self.group = key.astype(np.float64, copy=False), group
        self.first = np.empty(n_groups)
        self.work = np.empty(len(key))

    def __call__(self, beats: np.ndarray) -> np.ndarray:
        self.work.fill(np.inf)
        np.copyto(self.work, self.key, where=beats)
        self.first.fill(np.inf)
        np.minimum.at(self.first, self.group, self.work)
        return np.take(self.first, self.group, out=self.work, mode="clip")


def _runs(keys: tuple[np.ndarray, ...], along: np.ndarray) -> list[np.ndarray]:
    """State indices grouped by equal key columns, each group sorted along
    one column; groups come in ascending key order, first column first."""
    order = np.lexsort((along,) + keys[::-1])
    cut = np.zeros(len(order) - 1, dtype=bool)
    for key in keys:
        cut |= np.diff(key[order]) != 0
    return np.split(order, np.flatnonzero(cut) + 1)


def _cutoff_runs(space) -> list[np.ndarray]:
    """The groups a cutoff rule acts on, in ascending cutoff variable:
    (k, delta) along the belief, or (k, g) along the AoI."""
    if space.case is Case.NO_SENSING:
        return _runs((space.k, space.delta), space.omega)
    return _runs((space.k, space.g), space.delta)


def rvi_threshold_no_sensing(
    space: NoSensingSpace,
    kern: CompiledKernel,
    lam: float,
    eps: float = 1e-6,
    tie_break: str = "suspend",
) -> SolveReport:
    """Structure-aware sweep for the belief MDP.

    The cutoff rule is a mask over the vectorised Bellman step. Per sweep and
    (delta, k) group, the cutoff is the smallest belief at which transmission
    beats suspension under the full two-action comparison; every larger
    belief of the group transmits without the comparison. Beliefs within a
    group are distinct after deduplication, so this equals visiting the group
    in ascending belief order with a per-sweep cutoff. Beliefs at the
    unobserved-step cap are exempt: the boundary clamp hands them a free
    belief upgrade on suspension, which can break the single crossing at
    exactly those symbols, so they always get the full comparison and never
    set a cutoff. Converges to the same fixed point as the plain sweep while
    counting strictly fewer comparisons whenever any group transmits above
    its lowest belief.
    """
    free = kern.admissible & (space.steps < space.bound.cap)
    group = (space.k - 1) * (space.bound.cap + 1) + space.delta
    omega = space.omega
    cutoff = _FirstBeating(omega, group, space.frame.K * (space.bound.cap + 1))
    beats, up = np.empty(kern.n, dtype=bool), np.empty(kern.n, dtype=bool)

    def above(q0, q1):
        np.logical_and(free, _transmit_beats(q0, q1, tie_break, out=beats), out=beats)
        np.greater(omega, cutoff(beats), out=up)
        return np.logical_and(free, up, out=up)

    return _rvi(space, kern, [lam], eps, None, tie_break, above)[0]


def rvi_threshold_delayed(
    space: DelayedSpace,
    kern: CompiledKernel,
    lam: float,
    eps: float = 1e-6,
    tie_break: str = "suspend",
) -> SolveReport:
    """Structure-aware sweep for the delayed-CSI MDP.

    The cutoff rule is a mask over the vectorised Bellman step. Per sweep,
    d_g is the smallest AoI of slot k and last state g at which transmission
    beats suspension; states above it transmit without the comparison. The
    good-state cutoff can never exceed the bad-state one, so a good-state
    AoI at or above d_0 transmits as well.
    """
    group = 2 * (space.k - 1) + space.g
    delta = space.delta
    good = space.g == 1
    own = _FirstBeating(delta, group, 2 * space.frame.K)
    bad_group, bad = group - space.g, np.empty(kern.n)
    beats, up = np.empty(kern.n, dtype=bool), np.empty(kern.n, dtype=bool)

    def above(q0, q1):
        np.logical_and(kern.admissible, _transmit_beats(q0, q1, tie_break, out=beats), out=beats)
        first = own(beats)
        np.take(own.first, bad_group, out=bad, mode="clip")
        np.greater_equal(delta, bad, out=beats)
        np.logical_and(good, beats, out=beats)
        np.greater(delta, first, out=up)
        return np.logical_or(up, beats, out=up)

    return _rvi(space, kern, [lam], eps, None, tie_break, above)[0]


def discounted_vi(
    space,
    kern: CompiledKernel,
    lam: float,
    beta: float,
    n_iters: int | None = None,
) -> np.ndarray:
    """Discounted value iteration from the zero function.

    Runs exactly ``n_iters`` sweeps when given, otherwise iterates until the
    sup-norm change drops below (1-beta) * 1e-8. Used by the structural
    property checks, which need value functions, not policies.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"discount factor must be in (0, 1), got {beta}")
    if n_iters is not None and n_iters < 0:
        raise ValueError(f"sweep count must be non-negative, got {n_iters}")
    tol = (1.0 - beta) * 1e-8
    step = _Bellman(kern, 1, beta)
    cost = step.transmit_cost(np.array([lam], dtype=float))
    v, v_new = np.zeros((kern.n, 1)), np.empty((kern.n, 1))
    limit = n_iters if n_iters is not None else 10_000_000
    for _ in range(limit):
        q0, q1 = step(v, cost)
        np.minimum(q0, q1, out=v_new)
        np.subtract(v_new, v, out=q1)
        change = float(np.abs(q1, out=q1).max())
        v, v_new = v_new, v
        if n_iters is None and change < tol:
            break
    else:
        if n_iters is None:
            raise NonConvergenceError("discounted value iteration stalled", change)
    return v[:, 0]


# ---------------------------------------------------------------------------
# policy evaluation


def _checked_actions(n: int, policy) -> np.ndarray:
    """The action table (an array, or a policy's ``actions``) as int8, after
    checking it has one 0 or 1 for each of the n states."""
    actions = policy if isinstance(policy, np.ndarray) else getattr(policy, "actions", None)
    if actions is None:
        raise TypeError(f"cannot read an action table from {type(policy).__name__}")
    actions = np.asarray(actions)
    if actions.shape != (n,):
        raise ValueError(
            f"action table must have one entry per state ({n}), got shape {actions.shape}"
        )
    if not np.all((actions == 0) | (actions == 1)):
        raise ValueError("action table entries must be 0 (suspend) or 1 (transmit)")
    return actions.astype(np.int8)


def stationary_distribution(kern: CompiledKernel, actions: np.ndarray) -> np.ndarray:
    """Stationary law of the chain induced by a deterministic policy.

    Damped power iteration (half lazy) because the frame structure makes
    every induced chain periodic; the lazy chain shares its stationary law.
    The policy's successors and probabilities are laid out state by state,
    branch by branch, so ``np.bincount`` adds each state's mass in one fixed
    order; every round writes into arrays made once per call.
    """
    actions = _checked_actions(kern.n, actions)
    n = kern.n
    blocks = [kern.rows(u) for u in (0, 1)]
    width = max(rows.stop - rows.start for rows in blocks)
    succ, prob = np.zeros((n, width), dtype=np.int64), np.zeros((width, n))
    for u, rows in enumerate(blocks):
        at, m = actions == u, rows.stop - rows.start
        succ[at, :m] = kern.succ[rows, at].T
        prob[:m, at] = kern.prob[rows, at]
    flat_succ = succ.ravel()
    pi, pi_new = np.full(n, 1.0 / n), np.empty(n)
    weights = np.empty((n, width))
    for _ in range(_POWER_ROUNDS):
        np.multiply(pi, prob, out=weights.T)
        pushed = np.bincount(flat_succ, weights=weights.ravel(), minlength=n)
        # pi_new = 0.5 * pi + 0.5 * pushed; pushed then takes the change
        np.multiply(0.5, pi, out=pi_new)
        np.multiply(0.5, pushed, out=pushed)
        np.add(pi_new, pushed, out=pi_new)
        np.subtract(pi_new, pi, out=pushed)
        residual = float(np.abs(pushed, out=pushed).sum())
        pi, pi_new = pi_new, pi
        if residual <= _POWER_TOL:
            return pi
    raise NonConvergenceError(
        f"power iteration residual {residual} above {_POWER_TOL} after {_POWER_ROUNDS} rounds",
        residual,
    )


def policy_averages(kern: CompiledKernel, policy) -> tuple[float, float]:
    """Long-run (average AoI, average energy) of a deterministic policy."""
    actions = _checked_actions(kern.n, policy)
    if np.any(actions[~kern.admissible] == 1):
        raise ValueError("policy transmits at a state where transmission is inadmissible")
    pi = stationary_distribution(kern, actions)
    return float(pi @ kern.delta), float(pi @ actions)


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with a @ x = b for a small dense a, by Gaussian elimination with
    partial pivoting; None if a pivot is zero or not finite. Written in
    elementwise numpy: ``np.linalg.solve`` on the 177-state cap layer raised
    the process's peak memory by about 1 MB of LAPACK work buffers."""
    a, x = a.copy(), b.copy()
    n = len(a)
    for i in range(n):
        p = i + int(np.argmax(np.abs(a[i:, i])))
        if not 0.0 < abs(a[p, i]) < np.inf:
            return None
        if p != i:
            a[[i, p]], x[[i, p]] = a[[p, i]], x[[p, i]]
        f = a[i + 1 :, i, None] / a[i, i]
        a[i + 1 :, i:] -= f * a[i, i:]
        x[i + 1 :] -= f * x[i]
    for i in range(n - 1, -1, -1):
        x[i] /= a[i, i]
        x[:i] -= a[:i, i, None] * x[i]
    return x


def _cap_mass(prob: np.ndarray, dest: np.ndarray, inflow: np.ndarray) -> np.ndarray | None:
    """The cap layer's mass M = inflow + P^T M, (width, columns), with P read
    from the layer's (state, branch) arrays of probability and destination,
    a destination below the width being the cap state the branch stays at.

    None if a cap state can never deliver, which leaves a closed class in the
    layer, or the solve fails. A state whose incoming branches all come from
    solved states is solved by pushing its mass on, in rounds; only the
    states downstream of a cycle go into one dense elimination, and None if
    there are more than ``_CORE_WIDTH`` of them.
    """
    w = len(inflow)
    stays = (prob > 0.0) & (dest < w)
    src, dst, p = np.nonzero(stays)[0], dest[stays], prob[stays]
    reach = ((prob > 0.0) & ~stays).any(axis=1)
    while True:
        more = reach[dst] & ~reach[src]
        if not more.any():
            break
        reach[src[more]] = True
    if not reach.all():
        return None
    M, waiting = inflow.copy(), np.bincount(dst, minlength=w)
    solved, ready = np.zeros(w, dtype=bool), waiting == 0
    while ready.any():
        solved |= ready
        out = ready[src]
        np.add.at(M, dst[out], p[out, None] * M[src[out]])
        waiting -= np.bincount(dst[out], minlength=w)
        ready = (waiting == 0) & ~solved
    core = np.flatnonzero(~solved)
    if len(core) > _CORE_WIDTH:
        return None
    if len(core):
        # every branch left comes from the core and stays in it
        local, r, inner = np.cumsum(~solved) - 1, len(core), ~solved[src]
        stay = np.bincount(local[dst[inner]] * r + local[src[inner]], p[inner], minlength=r * r)
        solution = _eliminate(np.eye(r) - stay.reshape(r, r), M[core])
        if solution is None:
            return None
        M[core] = solution
    return M


class _AoiLayers:
    """Exact long-run averages of deterministic policies, by AoI layers.

    Every transition either raises the AoI by one, clamped at the cap, or
    delivers, which resets it to one of at most K target states. So the
    stationary law is renewal reward at deliveries (Puterman 1994, 8.2):
    unit inflow at each target is pushed forward one layer at a time, the cap
    layer, whose growth stays in the layer, is solved by ``_cap_mass``, and
    the delivery rates solve a fixed point over the targets with the law's
    normalisation. Only one layer's (width, targets) mass is held at a time,
    and the policy's branches are read from the kernel for at most
    ``_CHUNK`` states at a time. The layering is built per evaluation, so
    nothing the size of the state space outlives it while RVI solves run.

    ``averages`` returns None where the chain may have another recurrent
    class than the one through the targets, so that power iteration's law is
    not determined by them, or where a solve fails: a cap-layer state that
    can never deliver (a policy that never transmits, an absorbing bad
    state), targets with several closed classes, a cap-layer cycle core
    wider than ``_CORE_WIDTH``, or a zero or non-finite pivot.
    """

    def __init__(self, kern: CompiledKernel):
        self.kern = kern
        delta = kern.delta
        self.order = np.lexsort((delta,))
        cut = np.flatnonzero(np.diff(delta[self.order])) + 1
        starts = np.r_[0, cut]
        self.widths = np.diff(np.r_[starts, kern.n])
        # the width of the layer each layer grows into; the cap grows into itself
        self.next_widths = np.r_[self.widths[1:], self.widths[-1]]
        self.starts = starts.tolist() + [kern.n]
        self.values = delta[self.order[starts]]
        self.cap = self.values[-1]
        self.pos = np.empty(kern.n, dtype=np.int64)
        self.pos[self.order] = np.arange(kern.n) - np.repeat(starts, self.widths)
        # any successor that does not grow the AoI is a delivery target
        grown, target = np.minimum(delta + 1.0, self.cap), np.zeros(kern.n, dtype=bool)
        for succ, prob in zip(kern.succ, kern.prob):
            target[succ[(prob > 0.0) & (delta[succ] != grown)]] = True
        self.targets = np.flatnonzero(target)
        self.usable = len(self.targets) > 0 and np.array_equal(
            self.values, np.arange(self.values[0], self.cap + 1.0)
        )
        # runs of whole layers below the cap, each of at most _CHUNK states
        self.chunks, first = [], 0
        for layer in range(1, len(self.values)):
            if layer == len(self.values) - 1 or self.starts[layer + 1] - self.starts[first] > _CHUNK:
                self.chunks.append((first, layer))
                first = layer

    def _branches(self, acts: np.ndarray, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The policy's branches at layers [first, stop), as (state, branch)
        arrays of weight and destination, states in layer order. A branch's
        destination is its growth successor's position in the next layer, or
        past that layer's width the target it delivers to. Three branches
        follow that only count, into the bins after the targets', each
        state's mass, AoI times mass and transmitting mass."""
        kern, T = self.kern, len(self.targets)
        lo, hi = self.starts[first], self.starts[stop]
        blocks = (kern.rows(0), kern.rows(1))
        width = max(rows.stop - rows.start for rows in blocks)
        prob = np.zeros((hi - lo, width + 3))
        dest = np.zeros(prob.shape, dtype=np.int64)
        next_width = np.repeat(self.next_widths[first:stop], self.widths[first:stop])
        for u, rows in enumerate(blocks):
            at = np.flatnonzero(acts[lo:hi] == u)
            src = self.order[lo + at]
            grown = np.minimum(kern.delta[src] + 1.0, self.cap)
            for b, r in enumerate(range(rows.start, rows.stop)):
                succ, p = kern.succ[r, src], kern.prob[r, src]
                target = np.searchsorted(self.targets, succ).clip(max=T - 1)
                to = np.where(kern.delta[succ] == grown, self.pos[succ], next_width[at] + target)
                prob[at, b], dest[at, b] = p, np.where(p > 0.0, to, 0)
        prob[:, width], prob[:, width + 1], prob[:, width + 2] = 1.0, kern.delta[self.order[lo:hi]], acts[lo:hi]
        dest[:, width:] = next_width[:, None] + np.arange(T, T + 3)
        return prob, dest

    def averages(self, actions: np.ndarray) -> tuple[float, float] | None:
        """(average AoI, average energy) of an admissible action table, or None."""
        if not self.usable:
            return None
        T, last = len(self.targets), len(self.values) - 1
        acts = actions[self.order]
        inject: dict[int, list[tuple[int, int]]] = {}
        for j, t in enumerate(self.targets):
            layer = int(np.searchsorted(self.values, self.kern.delta[t]))
            inject.setdefault(layer, []).append((int(self.pos[t]), j))
        columns = np.arange(T)
        # per unit inflow at each target (columns): the deliveries into each
        # target, then the mass, AoI times mass and transmitting mass
        totals = np.zeros((T + 3) * T)
        M = np.zeros((int(self.widths[0]), T))
        next_widths = self.next_widths.tolist()
        for first, stop in self.chunks + [(last, last + 1)]:
            prob, dest = self._branches(acts, first, stop)
            # the bin of each (state, branch, column) triple
            bins = dest[:, :, None] * T + columns
            for layer in range(first, stop):
                for i, j in inject.get(layer, ()):
                    M[i, j] += 1.0
                if layer == last:
                    M = _cap_mass(prob[:, :-3], dest[:, :-3], M)
                    if M is None:
                        return None
                s, e = self.starts[layer] - self.starts[first], self.starts[layer + 1] - self.starts[first]
                w_next = next_widths[layer]
                out = np.bincount(
                    bins[s:e].ravel(), (prob[s:e, :, None] * M[:, None, :]).ravel(),
                    minlength=(w_next + T + 3) * T,
                )
                totals += out[w_next * T :]
                M = out[: w_next * T].reshape(w_next, T)
        sums = totals.reshape(T + 3, T)
        # rates[j, t]: deliveries into target t per unit inflow at target j
        rates = sums[:T].T
        closure = (rates > 0.0) | np.eye(T, dtype=bool)
        for _ in range(T):
            closure = (closure[:, :, None] & closure[None, :, :]).any(axis=1)
        if not closure.all(axis=0).any():
            return None
        system = (rates - np.eye(T)).T
        system[-1] = sums[T]
        x = _eliminate(system, np.eye(T)[:, -1:])
        if x is None:
            return None
        found = (float((x[:, 0] * sums[T + 1]).sum()), float((x[:, 0] * sums[T + 2]).sum()))
        return found if np.isfinite(found).all() else None


# ---------------------------------------------------------------------------
# constrained solve: bisection on the energy price and the policy mixture


def randomization_factor(e_max: float, e_minus: float, e_plus: float) -> float:
    """Weight on the minus component making the mixture spend e_max exactly."""
    if e_minus == e_plus:
        return 1.0
    q = (e_max - e_plus) / (e_minus - e_plus)
    if not -1e-9 <= q <= 1.0 + 1e-9:
        raise ValueError(
            f"energies {e_minus}, {e_plus} do not bracket the budget {e_max}"
        )
    return min(max(q, 0.0), 1.0)


def bisect_lambda(
    case: Case,
    frame: FrameSpec,
    ch: ChannelModel,
    bound: TruncationBound,
    budgets: Sequence[float],
    eps: float = 1e-6,
    eps_lam: float = 1e-4,
) -> list[MixturePolicy]:
    """Smallest energy price meeting each budget, plus the two-policy mixture:
    one ``MixturePolicy`` per budget of ``budgets``, in that order.

    For each budget the search doubles the price from 1 until the priced
    optimum is feasible, then bisects down to width ``eps_lam``, every
    bisection solve warm-started from the last infeasible price's bias. The
    mixture pairs the last infeasible price's policy with the last feasible
    one and mixes them so that the average energy equals the budget exactly.
    A feasible unpriced optimum short-circuits to a single-policy mixture.

    The budgets share one state space and one tree of solves. Budgets whose
    decisions have agreed so far wait on the same price and warm start, so
    they share its solve, and a solve that some find feasible and others not
    splits them in two branches. The tree is walked depth first, keeping only
    the warm starts of pending branches, so each budget makes exactly the
    solves and decisions of its search alone, and each solve runs once.

    Feasibility is decided on each policy's exact energy, evaluated by AoI
    layers once per distinct action table; a policy whose exact energy lies
    within ``_EXACT_MARGIN`` of a budget, or that the layers cannot evaluate,
    is decided for that budget on power iteration's energy instead. Power
    iteration's error is far below the margin, so every decision is the one
    power iteration would take. The reported components carry power
    iteration's averages (``policy_averages``), once per distinct table.
    Each mixture's ``steps`` records its budget's solves, shared ones
    included: price, sweeps, deciding energy and evaluator.
    """
    budgets = tuple(budgets)
    if not budgets:
        raise ValueError("at least one energy budget is needed")
    for e_max in budgets:
        if not 0.0 < e_max <= 1.0:
            raise ValueError(f"energy budget must lie in (0, 1], got {e_max}")
    if not 0.0 < eps_lam < np.inf:
        raise ValueError(f"eps_lam must be finite and positive, got {eps_lam}")
    space, kern = build_case(case, frame, ch, bound)
    exact: dict[bytes, float | None] = {}
    averages: dict[bytes, tuple[float, float]] = {}
    steps: list[list[PriceStep]] = [[] for _ in budgets]
    mixes: list[MixturePolicy | None] = [None] * len(budgets)

    def reported(policy: TabularPolicy) -> tuple[float, float]:
        key = np.packbits(policy.actions).tobytes()
        if key not in averages:
            averages[key] = policy_averages(kern, policy)
        return averages[key]

    def solve(lam: float, warm: SolveReport | None, group):
        """The solve at ``lam`` from ``warm``'s bias, and the budgets of
        ``group`` it leaves feasible and infeasible."""
        report = rvi_plain(space, kern, lam, eps=eps, h_init=None if warm is None else warm.bias)
        key = np.packbits(report.policy.actions).tobytes()
        if key not in exact:
            found = _AoiLayers(kern).averages(report.policy.actions)
            exact[key] = None if found is None else found[1]
        fits, over = [], []
        for b in group:
            energy, evaluator = exact[key], "exact"
            if energy is None or abs(energy - budgets[b]) <= _EXACT_MARGIN:
                energy, evaluator = reported(report.policy)[1], "power"
            steps[b].append(PriceStep(lam, report.iterations, energy, evaluator))
            # no policy transmits in more than every slot: an energy above 1
            # is rounding, and budget 1 never binds
            (fits if min(energy, 1.0) <= budgets[b] else over).append(b)
        return report, fits, over

    report, fits, over = solve(0.0, None, range(len(budgets)))
    if fits:
        single = report.policy.as_threshold()
        aoi0, energy0 = reported(report.policy)
        for b in fits:
            mixes[b] = MixturePolicy(
                single, single, 1.0, 0.0, 0.0, energy0, energy0, aoi0, aoi0, tuple(steps[b])
            )
    # a branch: its budgets, the last infeasible price and its solve, then
    # the price to double to (no feasible policy yet) or the last feasible
    # price and its policy
    branches = [(over, 0.0, report, 1.0, None)] if over else []
    while branches:
        group, lo, report_lo, hi, policy_hi = branches.pop()
        if policy_hi is not None and hi - lo <= eps_lam:
            aoi_lo, energy_lo = reported(report_lo.policy)
            aoi_hi, energy_hi = reported(policy_hi)
            qs = [randomization_factor(budgets[b], energy_lo, energy_hi) for b in group]
            minus, plus = report_lo.policy.as_threshold(), policy_hi.as_threshold()
            for b, q in zip(group, qs):
                mixes[b] = MixturePolicy(
                    minus, plus, q, lo, hi, energy_lo, energy_hi, aoi_lo, aoi_hi, tuple(steps[b])
                )
            continue
        price = hi if policy_hi is None else 0.5 * (lo + hi)
        report, fits, over = solve(price, report_lo, group)
        if over and policy_hi is None and price >= 2.0 ** _MAX_DOUBLINGS:
            raise NonConvergenceError(
                f"no feasible price found below {price} after {_MAX_DOUBLINGS} doublings",
                steps[over[0]][-1].energy - budgets[over[0]],
            )
        if fits:
            branches.append((fits, lo, report_lo, price, report.policy))
        if over:
            branches.append((over, price, report, 2.0 * price if policy_hi is None else hi, policy_hi))
    return mixes


# prices times states solved at once by one batch of ``dual_value_sweep``
_DUAL_BATCH = 2 ** 14


def dual_value_sweep(
    case: Case,
    frame: FrameSpec,
    ch: ChannelModel,
    bound: TruncationBound,
    e_max: float,
    lam_grid,
    eps: float = 1e-8,
) -> list[tuple[float, float]]:
    """Dual objective (priced optimum minus priced budget) along a price grid.

    Its maximum lower-bounds the constrained optimum and matches it when the
    grid resolves the optimal price. The grid is solved in batches, each
    price from the zero function, so every value is bit for bit
    ``rvi_plain(...).gain - lam * e_max`` of that price alone.
    """
    if not 0.0 < e_max <= 1.0:
        raise ValueError(f"energy budget must lie in (0, 1], got {e_max}")
    grid = [float(lam) for lam in lam_grid]
    if not grid or not all(0.0 <= lam < np.inf for lam in grid):
        raise ValueError("price grid must be non-empty, finite and non-negative")
    space, kern = build_case(case, frame, ch, bound)
    size = max(1, _DUAL_BATCH // kern.n)
    out = []
    for start in range(0, len(grid), size):
        batch = grid[start : start + size]
        reports = _rvi(space, kern, batch, eps, None, "suspend")
        out.extend((lam, report.gain - lam * e_max) for lam, report in zip(batch, reports))
    return out


# ---------------------------------------------------------------------------
# threshold extraction and structural checks


def extract_threshold_belief(space: NoSensingSpace, actions) -> ThresholdPolicyBelief:
    """Belief cutoffs of a policy on the belief MDP.

    Fails if any (delta, k) group switches action more than once along
    ascending beliefs; the converged optimum never does, except possibly at
    the belief symbols sitting at the unobserved-step cap, whose suspension
    successor is moved by the boundary clamp. Those symbols are left out of
    the pattern check and the cutoff, mirroring the interior-state scoping of
    the value-function checks; the exact action table is kept regardless.
    """
    acts = _checked_actions(space.n, actions)
    thresholds: dict[tuple[int, int], float] = {}
    omega = space.omega
    uncapped = space.steps < space.bound.cap
    for idxs in _cutoff_runs(space):
        delta, k = int(space.delta[idxs[0]]), int(space.k[idxs[0]])
        if delta < space.frame.K:
            if np.any(acts[idxs] == 1):
                raise ThresholdStructureError(
                    f"policy transmits at inadmissible (delta={delta}, k={k})"
                )
            continue
        interior = idxs[uncapped[idxs]]
        pattern = acts[interior]
        switches = np.flatnonzero(np.diff(pattern.astype(np.int8)))
        if pattern.max(initial=0) == 1 and (len(switches) > 1 or pattern[-1] == 0):
            raise ThresholdStructureError(
                f"actions at (delta={delta}, k={k}) are not of threshold type: "
                f"{pattern.tolist()} along ascending beliefs"
            )
        first = np.flatnonzero(pattern)
        thresholds[(delta, k)] = float(omega[interior[first[0]]]) if len(first) else np.inf
    return ThresholdPolicyBelief(
        frame_k=space.frame.K, cap=space.bound.cap, thresholds=thresholds, actions=acts
    )


def extract_threshold_aoi(space: DelayedSpace, actions) -> ThresholdPolicyAoI:
    """AoI cutoffs of a policy on the delayed-CSI MDP, one per (k, g)."""
    acts = _checked_actions(space.n, actions)
    thresholds: dict[tuple[int, int], float] = {}
    for idxs in _cutoff_runs(space):
        k, g = int(space.k[idxs[0]]), int(space.g[idxs[0]])
        pattern, deltas = acts[idxs], space.delta[idxs]
        first = np.flatnonzero(pattern)
        if len(first) and np.any((pattern == 0) & (deltas >= max(deltas[first[0]], space.frame.K))):
            raise ThresholdStructureError(
                f"actions at (k={k}, g={g}) are not of threshold type: "
                f"{pattern.tolist()} along ascending AoI"
            )
        thresholds[(k, g)] = int(deltas[first[0]]) if len(first) else np.inf
    return ThresholdPolicyAoI(frame_k=space.frame.K, thresholds=thresholds, actions=acts)


def threshold_ordering_violations(policy: ThresholdPolicyAoI) -> list[tuple]:
    """Slots where the good-state cutoff exceeds the bad-state cutoff."""
    out = []
    ks = sorted({k for (k, _g) in policy.thresholds})
    for k in ks:
        good = policy.thresholds.get((k, 1), np.inf)
        bad = policy.thresholds.get((k, 0), np.inf)
        if good > bad:
            out.append((k, good, bad))
    return out


# Rounding error the value-function checks forgive.
_SLACK = 1e-7


def _interior_mask(space) -> np.ndarray:
    """States whose successors are untouched by the truncation clamps."""
    cap = space.bound.cap
    mask = space.delta < cap
    if space.case is Case.NO_SENSING:
        mask &= space.steps < cap
    return mask


def aoi_monotonicity_violations(space, values: np.ndarray) -> list[tuple]:
    """Pairs of interior states equal but for a larger AoI where the value
    drops by more than ``_SLACK``."""
    runs = _runs((space.k, space.sym), space.delta)
    return _neighbour_violations(
        space, runs, _interior_mask(space), values, lambda lo, hi: hi < lo - _SLACK
    )


def _neighbour_violations(space, runs, keep, values, worse) -> list[tuple]:
    """Neighbours (a, b) within a run, both kept, where worse(V(a), V(b)),
    each state given by its (k, delta, sym) columns."""
    cols = np.column_stack((space.k, space.delta, space.sym))
    out = []
    for idxs in runs:
        a, b = idxs[:-1], idxs[1:]
        hit = keep[a] & keep[b] & worse(values[a], values[b])
        out.extend(
            (tuple(cols[i].tolist()), tuple(cols[j].tolist()), values[i], values[j])
            for i, j in zip(a[hit], b[hit])
        )
    return out


def belief_monotonicity_violations(space: NoSensingSpace, values: np.ndarray) -> list[tuple]:
    """Interior belief pairs at one (delta, k) where a larger belief costs
    more by more than ``_SLACK``."""
    return _neighbour_violations(
        space, _cutoff_runs(space), _interior_mask(space), values,
        lambda lo, hi: hi > lo + _SLACK,
    )


def belief_mix_inequality_violations(
    space: NoSensingSpace, values: np.ndarray, lam: float
) -> list[tuple]:
    """Violations of the mixing bound on value functions.

    For interior beliefs y <= z <= x at one (delta, k) and the weight w with
    z = w*x + (1-w)*y, checks (1-w)*lam + w*V(x) + (1-w)*V(y) >= V(z) - ``_SLACK``.
    """
    keep = _interior_mask(space)
    omega = space.omega
    out = []
    for idxs in _cutoff_runs(space):
        delta, k = int(space.delta[idxs[0]]), int(space.k[idxs[0]])
        idxs = idxs[keep[idxs]]
        if len(idxs) < 3:
            continue
        w_vals = omega[idxs]
        v_vals = values[idxs]
        # ascending beliefs: x runs above z, y below
        for zi in range(1, len(idxs) - 1):
            hi = np.arange(zi + 1, len(idxs))
            lo = np.arange(0, zi)
            span = w_vals[hi][:, None] - w_vals[lo][None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                w = (w_vals[zi] - w_vals[lo][None, :]) / span
            lhs = (1.0 - w) * lam + w * v_vals[hi][:, None] + (1.0 - w) * v_vals[lo][None, :]
            bad = (span > 0) & (lhs < v_vals[zi] - _SLACK)
            for hi_i, lo_i in zip(*np.nonzero(bad)):
                out.append(
                    (
                        (delta, k),
                        omega[idxs[hi[hi_i]]],
                        omega[idxs[lo[lo_i]]],
                        w_vals[zi],
                        float(lhs[hi_i, lo_i]),
                        float(v_vals[zi]),
                    )
                )
    return out
