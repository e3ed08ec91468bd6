"""Planning algorithms for the average-cost scheduling problem.

Contains relative value iteration (plain and threshold-aware variants for
both CSI cases), discounted value iteration used by the structural property
checks, policy evaluation by damped power iteration on the induced chain and
exactly by AoI layers, bisection on the energy price with the two-policy
mixture construction, and a dual-objective sweep.

Both evaluators work on the states a policy enters, those that a
positive-probability branch of its own actions leads into (``_entered``).
Every other state is a transient that the chain leaves at once and never
re-enters (Kemeny and Snell 1960); a solved policy at N=1000 without
sensing enters about 1,100 of 58,276 states. The exact evaluator holds the
mass of all entered states, one column per delivery target, in one array,
which it fills one AoI layer at a time.

The price search decides each price's feasibility on the exact energy of its
policy. Power iteration, whose averages the reported mixture carries, runs
only for the two reported components and for decisions whose exact energy
lies within ``_EXACT_MARGIN`` of the budget, which is far above power
iteration's error; so the search takes every decision power iteration would.
One search serves all budgets of a tradeoff curve and runs each solve their
searches have in common once.

All relative value iteration runs through one loop over the vectorised
Bellman step, which discounted value iteration shares. Each solve is of one
price; the dual sweep solves each price of its grid from the zero function.
A threshold-aware variant only supplies the mask of states its cutoff rule
places above the cutoff; its ``argmin_evals`` counts the comparisons the
rule still needs, the paper's complexity measure, not work that is skipped.
Each group a cutoff acts on, a (k, delta) layer without sensing and a slot's
column of the (layer, g) view with delayed sensing, is a run of the state
order that the space records as it numbers its states, so one
``np.minimum.reduceat`` per sweep finds every cutoff, and the extractors
read the same runs.

The step reads the kernel's branch-major rows. A delivery resets the AoI
to the slot index, so transmit success leads all admissible states of a
slot to one state, whose bias the step reads once per slot instead of
gathering it at every state. It gathers the bias at the successors of the
other (action, branch) rows, and every operation writes with ``out=`` into
work arrays made once per solve. Its sums keep the order of the expression
they compute, so a sweep gives the same bits as the textbook expression.
Power-iteration rounds likewise write into arrays made once per
evaluation, sized to the entered states.

Relative value iteration damps every update by a fixed factor of 0.5. The
slot index cycles deterministically with the frame, so every induced chain
is periodic and the literal synchronous update oscillates instead of
settling; averaging the new iterate with the old one removes the periodicity
while keeping the same fixed point, optimal policy, and average cost.
"""

from __future__ import annotations

import itertools
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
# Sweeps discounted value iteration makes before it gives up.
_DISCOUNTED_SWEEPS = 10_000_000
# Price doublings a budget search tries before it gives up.
_MAX_DOUBLINGS = 60
# A price search decision whose exact energy lies this close to the budget is
# taken on power iteration's energy, which the reported mixture carries.
_EXACT_MARGIN = 1e-6
# Most cap-layer states the exact evaluator eliminates as one dense matrix.
_CORE_WIDTH = 1024


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

    ``iterations`` counts the sweeps, and ``span`` is the sup-norm change of
    the bias in the last one, at or below the requested tolerance.
    """

    gain: float
    bias: np.ndarray
    policy: TabularPolicy
    iterations: int
    span: float
    argmin_evals: int


# ---------------------------------------------------------------------------
# value iteration


class _Bellman:
    """The Bellman step at one price, and its work arrays.

    The terms p*h of every (action, branch) row go into the matching row of
    one work array, and every operation writes with ``out=`` in the order of
    q_u = delta + lam*u + sum over u's branches of p*h, so the values are
    those of the textbook sum (``expected_bias`` in ``tests/oracles.py``)
    bit for bit. Transmit success leads each slot block of ``kern.delivery``
    to one state, so that state's bias fills the block; ``take`` gathers the
    bias at the other rows' successors. The rows are then multiplied by their
    probabilities, except rows whose probability is 1 at every state
    (suspension without sensing), and each action's first row takes the sum
    and becomes q_u. The transmit cost, made once, is +inf where
    transmission is inadmissible, so what the blocks give a slot's barred
    states moves no bit. With a discount ``beta``
    the expectation is scaled before the cost is added. The work arrays are
    made once, so a step allocates nothing. The price must be finite and
    non-negative.
    """

    def __init__(self, kern: CompiledKernel, lam: float, beta: float | None = None):
        if not 0.0 <= lam < np.inf:
            raise ValueError(f"energy price must be finite and non-negative, got {lam}")
        self.beta = beta
        # both work arrays before their views, whose small allocations would
        # otherwise sit between large ones and raise the peak memory
        terms, cost = np.empty(kern.prob.shape), kern.delta + lam
        cost[~kern.admissible] = np.inf
        self.costs = (kern.delta, cost)
        d = kern.pairs.index((1, 0)) if kern.delivery else -1
        gathered = [r != d for r in range(len(kern.pairs))]
        # probabilities are at most 1, so a row's minimum is 1 only on unit rows
        scaled = (kern.prob.min(axis=1) < 1.0).tolist()
        self.gathers = [(kern.succ[a:b], terms[a:b]) for a, b in _row_runs(gathered)]
        self.fills = [(terms[d, a:b], j) for a, b, j in kern.delivery]
        self.scaled = [(terms[a:b], kern.prob[a:b]) for a, b in _row_runs(scaled)]
        blocks = (kern.rows(0), kern.rows(1))
        self.q = tuple(terms[rows.start] for rows in blocks)
        self.sums = [
            (terms[rows.start], terms[r]) for rows in blocks for r in range(rows.start + 1, rows.stop)
        ]

    def step(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Action values (q0, q1) at the bias h, in the step's work arrays."""
        for succ, out in self.gathers:
            h.take(succ, out=out, mode="clip")
        for out, j in self.fills:
            out.fill(h[j])
        for out, prob in self.scaled:
            np.multiply(out, prob, out=out)
        for q_u, part in self.sums:
            np.add(q_u, part, out=q_u)
        for cost_u, q_u in zip(self.costs, self.q):
            if self.beta is not None:
                np.multiply(q_u, self.beta, out=q_u)
            np.add(cost_u, q_u, out=q_u)
        return self.q


def _row_runs(keep: list[bool]) -> list[tuple[int, int]]:
    """The runs of consecutive kept rows, as (first, end)."""
    runs, first = [], 0
    for kept, rows in itertools.groupby(keep):
        end = first + len(list(rows))
        if kept:
            runs.append((first, end))
        first = end
    return runs


def _transmit_beats(q0: np.ndarray, q1: np.ndarray, tie_break: str, out=None) -> np.ndarray:
    return np.less(q1, q0, out=out) if tie_break == "suspend" else np.less_equal(q1, q0, out=out)


def _rvi(space, kern, lam, eps, h_init, tie_break, above=None):
    """The one relative-value-iteration loop behind every solver: one
    ``SolveReport`` for the price ``lam``.

    It starts from ``h_init`` (one finite value per state; the zero function
    by default) and damps each sweep by ``_RELAXATION``. The solve is done at
    the first sweep whose span is at most ``eps``; its report is read from
    the action values of one more step at that iterate.
    ``NonConvergenceError`` after ``_RVI_SWEEPS`` sweeps.

    ``above`` maps the action values (q0, q1) of a sweep to the admissible
    states a cutoff rule already places above their cutoff. Those take q1 as
    they are, and ``argmin_evals`` counts only the comparisons the rule
    still needs, the paper's complexity measure.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {eps}")
    if tie_break not in ("suspend", "transmit"):
        raise ValueError(f"unknown tie break {tie_break!r}")
    n = kern.n
    bellman = _Bellman(kern, lam)
    h, h_new = np.zeros(n), np.empty(n)
    if h_init is not None:
        h_init = np.asarray(h_init, dtype=float)
        if h_init.shape != (n,) or not np.isfinite(h_init).all():
            raise ValueError(f"h_init must hold one finite value for each of the {n} states")
        h[:] = h_init
    ref = kern.reference_index
    n_argmin, skipped = int(kern.admissible.sum()), 0
    for sweeps in range(1, _RVI_SWEEPS + 1):
        q0, q1 = bellman.step(h)
        up = None if above is None else above(q0, q1)
        v = np.minimum(q0, q1, out=q0)
        if up is not None:
            np.copyto(v, q1, where=up)
            skipped += int(np.count_nonzero(up))
        # h_new = h + _RELAXATION * (v - v[ref] - h); q1 then takes the change
        np.subtract(v, v[ref], out=v)
        np.subtract(v, h, out=v)
        np.multiply(_RELAXATION, v, out=v)
        np.add(h, v, out=h_new)
        np.subtract(h_new, h, out=q1)
        span = float(max(np.maximum.reduce(q1), -np.minimum.reduce(q1)))
        h, h_new = h_new, h
        if span <= eps:
            q0, q1 = bellman.step(h)
            actions = _transmit_beats(q0, q1, tie_break).astype(np.int8)
            return SolveReport(
                float(np.minimum(q0[ref], q1[ref])), h, TabularPolicy(space, actions),
                sweeps, span, n_argmin * sweeps - skipped,
            )
    raise NonConvergenceError(
        f"relative value iteration did not reach span {eps} in {_RVI_SWEEPS} sweeps "
        f"(last span {span})",
        span,
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
    return _rvi(space, kern, lam, eps, h_init, tie_break)


def _belief_rank(space: NoSensingSpace) -> np.ndarray:
    """Each state's belief rank. Beliefs are distinct, so the ranks order a
    layer's states as their beliefs do."""
    rank = np.argsort(np.argsort(space.beliefs.value)).astype(np.int32)
    return rank[space.sym]


def rvi_threshold_no_sensing(
    space: NoSensingSpace,
    kern: CompiledKernel,
    lam: float,
    eps: float = 1e-6,
    tie_break: str = "suspend",
) -> SolveReport:
    """Structure-aware sweep for the belief MDP.

    Per sweep and (delta, k) group, the cutoff is the smallest belief at
    which transmission beats suspension under the full two-action
    comparison; every larger belief of the group transmits without the
    comparison. A group is a run of the state order and its beliefs are
    distinct, so each sweep finds every cutoff by one ``np.minimum.reduceat``
    over the belief ranks, and this equals visiting the group in ascending
    belief order with a per-sweep cutoff. Beliefs at the unobserved-step cap
    are exempt: the boundary clamp hands them a free belief upgrade on
    suspension, which can break the single crossing at exactly those
    symbols, so they always get the full comparison and never set a cutoff.
    Converges to the same fixed point as the plain sweep while counting
    strictly fewer comparisons whenever any group transmits above its lowest
    belief.
    """
    free = kern.admissible & (space.steps < space.bound.cap)
    rank, starts, sizes = _belief_rank(space), space.layer_start, space.layer_size
    beats, up = np.empty(kern.n, dtype=bool), np.empty(kern.n, dtype=bool)

    def above(q0, q1):
        np.logical_and(free, _transmit_beats(q0, q1, tie_break, out=beats), out=beats)
        # a rank past every belief's where no state of the group beats
        cutoff = np.minimum.reduceat(np.where(beats, rank, space.n_sym), starts)
        np.greater(rank, np.repeat(cutoff, sizes), out=up)
        return np.logical_and(free, up, out=up)

    return _rvi(space, kern, lam, eps, None, tie_break, above)


def rvi_threshold_delayed(
    space: DelayedSpace,
    kern: CompiledKernel,
    lam: float,
    eps: float = 1e-6,
    tie_break: str = "suspend",
) -> SolveReport:
    """Structure-aware sweep for the delayed-CSI MDP.

    Per sweep, d_g is the smallest AoI of slot k and last state g at which
    transmission beats suspension; states above it transmit without the
    comparison. Column g of a slot's run in the (layer, g) view holds its
    (k, g) group in ascending AoI, so one ``np.minimum.reduceat`` over the
    view gives every d_g. The good-state cutoff can never exceed the
    bad-state one, so a good-state AoI at or above d_0 transmits as well.
    """
    delta = space.delta.reshape(-1, 2)
    starts, sizes = space.slot_layer, space.slot_size
    beats = np.empty(kern.n, dtype=bool)

    def above(q0, q1):
        np.logical_and(kern.admissible, _transmit_beats(q0, q1, tie_break, out=beats), out=beats)
        lowest = np.minimum.reduceat(np.where(beats, space.delta, np.inf).reshape(-1, 2), starts)
        first = np.repeat(lowest, sizes, axis=0)
        up = delta > first
        up[:, 1] |= delta[:, 1] >= first[:, 0]
        return up.ravel()

    return _rvi(space, kern, lam, eps, None, tie_break, above)


def discounted_vi(
    space,
    kern: CompiledKernel,
    lam: float,
    beta: float,
) -> tuple[np.ndarray, TabularPolicy]:
    """Discounted value iteration from the zero function: the values and
    their greedy policy.

    Iterates until the sup-norm change drops below (1-beta) * 1e-8. As in
    ``_rvi``, the policy is read from the action values of one more step at
    the converged values, and ties go to suspension. Used by the structural
    property checks, which test the values and the policy's cutoff form.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"discount factor must be in (0, 1), got {beta}")
    tol = (1.0 - beta) * 1e-8
    bellman = _Bellman(kern, lam, beta)
    v, v_new = np.zeros(kern.n), np.empty(kern.n)
    for _ in range(_DISCOUNTED_SWEEPS):
        q0, q1 = bellman.step(v)
        np.minimum(q0, q1, out=v_new)
        np.subtract(v_new, v, out=q1)
        change = float(max(np.maximum.reduce(q1), -np.minimum.reduce(q1)))
        v, v_new = v_new, v
        if change < tol:
            q0, q1 = bellman.step(v)
            return v, TabularPolicy(space, _transmit_beats(q0, q1, "suspend").astype(np.int8))
    raise NonConvergenceError(
        f"discounted value iteration did not reach a change below {tol} in "
        f"{_DISCOUNTED_SWEEPS} sweeps (last change {change})",
        change,
    )


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


def _entered(kern: CompiledKernel, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states a policy enters and its chain on them.

    A state is entered when a positive-probability branch of the policy's
    own action at some state leads into it. No branch leads into any other
    state, so the chain leaves it at the first step for good, and the
    entered states are closed and hold every recurrent class. Returns the entered states,
    ascending, then the policy's branches from them as (state, branch)
    arrays of successor, renumbered to positions among the entered states,
    and probability; branch b is row b of the action's block, and a zero
    branch points at position 0.
    """
    blocks = [kern.rows(u) for u in (0, 1)]
    entered = np.zeros(kern.n, dtype=bool)
    for u, rows in enumerate(blocks):
        at = actions == u
        for r in range(rows.start, rows.stop):
            entered[kern.succ[r, at & (kern.prob[r] > 0.0)]] = True
    states = np.flatnonzero(entered)
    width = max(rows.stop - rows.start for rows in blocks)
    succ, prob = np.zeros((len(states), width), dtype=np.int64), np.zeros((len(states), width))
    acts = actions[states]
    for u, rows in enumerate(blocks):
        at = np.flatnonzero(acts == u)
        src = states[at]
        for b, r in enumerate(range(rows.start, rows.stop)):
            p = kern.prob[r, src]
            prob[at, b] = p
            succ[at, b] = np.where(p > 0.0, np.searchsorted(states, kern.succ[r, src]), 0)
    return states, succ, prob


def stationary_distribution(kern: CompiledKernel, actions: np.ndarray) -> np.ndarray:
    """Stationary law of the chain induced by a deterministic policy.

    Damped power iteration (half lazy) from the uniform law, because the
    frame structure makes every induced chain periodic; the lazy chain
    shares its stationary law. The rounds run over the states the policy
    enters (``_entered``). A state it never enters receives nothing, so
    after r rounds it holds 1/n halved r times, one scalar for all such
    states, computed by the same halvings; their mass reaches the entered
    states through one inflow vector scaled by that scalar, and their change
    joins the residual. So each round is a round over the whole space, which
    stops on the same round, and the never-entered entries of the law are
    those of the whole-space iteration bit for bit. The branches are laid
    out state by state, so ``np.bincount`` adds each state's mass in one
    fixed order; every round writes into arrays made once per call.
    """
    actions = _checked_actions(kern.n, actions)
    n = kern.n
    states, succ, prob = _entered(kern, actions)
    m = len(states)
    # the branches of the never-entered states, summed per entered successor
    never = np.ones(n, dtype=bool)
    never[states] = False
    inflow = np.zeros(m)
    for u in (0, 1):
        rows = kern.rows(u)
        at = never & (actions == u)
        for r in range(rows.start, rows.stop):
            hit = at & (kern.prob[r] > 0.0)
            inflow += np.bincount(
                np.searchsorted(states, kern.succ[r, hit]), kern.prob[r, hit], minlength=m
            )
    flat_succ = succ.ravel()
    # rest states are never entered, and each holds mass c
    rest, c = n - m, 1.0 / n
    pi, pi_new = np.full(m, c), np.empty(m)
    weights, fed = np.empty(succ.shape), np.empty(m)
    for _ in range(_POWER_ROUNDS):
        np.multiply(pi[:, None], prob, out=weights)
        pushed = np.bincount(flat_succ, weights=weights.ravel(), minlength=m)
        np.multiply(c, inflow, out=fed)
        np.add(pushed, fed, out=pushed)
        # pi_new = 0.5 * pi + 0.5 * pushed; pushed then takes the change
        np.multiply(0.5, pi, out=pi_new)
        np.multiply(0.5, pushed, out=pushed)
        np.add(pi_new, pushed, out=pi_new)
        np.subtract(pi_new, pi, out=pushed)
        c_new = 0.5 * c
        residual = float(np.abs(pushed, out=pushed).sum()) + rest * (c - c_new)
        pi, pi_new, c = pi_new, pi, c_new
        if residual <= _POWER_TOL:
            law = np.full(n, c)
            law[states] = pi
            return law
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


def _aoi_averages(kern: CompiledKernel, actions: np.ndarray) -> tuple[float, float] | None:
    """Exact long-run (average AoI, average energy) of an admissible action
    table, by AoI layers, or None.

    Every transition either raises the AoI by one, clamped at the cap, or
    delivers, which resets it to one of at most K target states. So the
    stationary law is renewal reward at deliveries (Puterman 1994, 8.2): one
    (states, targets) array holds the mass of every state the policy enters
    (``_entered``; the others receive none) per unit inflow at each target.
    The growth branches, sorted by source AoI, push it forward one layer at a
    time, the last layer, whose growth stays in the layer, is solved in
    place by ``_cap_mass``, and the delivery rates solve a fixed point over
    the targets with the law's normalisation. A layer whose states all
    deliver passes no mass to the next, so the layers need not be contiguous
    in the AoI.

    None where the chain may have another recurrent class than the one
    through the targets, so that power iteration's law is not determined by
    them, or where a solve fails: an entered cap-layer state that can never
    deliver (a policy that never transmits, an absorbing bad state), targets
    with several closed classes, a cap-layer cycle core wider than
    ``_CORE_WIDTH``, or a zero or non-finite pivot.
    """
    states, succ, prob = _entered(kern, actions)
    delta, acts, m = kern.delta[states], actions[states], len(states)
    # a branch that does not grow the AoI delivers to a target
    grown = np.minimum(delta + 1.0, kern.delta.max())[:, None]
    delivers = (prob > 0.0) & (delta[succ] != grown)
    target = np.zeros(m, dtype=bool)
    target[succ[delivers]] = True
    targets = np.flatnonzero(target)
    T = len(targets)
    if not T:
        return None
    # mass[s, j]: the mass at state s per unit inflow at target j
    mass = np.zeros((m, T))
    mass[targets, np.arange(T)] = 1.0
    # the growth branches below the last layer in ascending source AoI: a
    # layer's mass is complete once the layer below it has pushed
    cap = delta == delta.max()
    src, b = np.nonzero((prob > 0.0) & ~delivers & ~cap[:, None])
    ascending = np.argsort(delta[src], kind="stable")
    src, dst, p = src[ascending], succ[src, b][ascending], prob[src, b][ascending, None]
    bounds = np.r_[0, np.flatnonzero(np.diff(delta[src])) + 1, len(src)].tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.add.at(mass, dst[lo:hi], p[lo:hi] * mass[src[lo:hi]])
    # the last layer's growth stays in it, at a position among its states;
    # a delivery leaves it
    width = int(cap.sum())
    stays_at = np.where(delivers[cap], width, (np.cumsum(cap) - 1)[succ[cap]])
    capped = _cap_mass(prob[cap], stays_at, mass[cap])
    if capped is None:
        return None
    mass[cap] = capped
    # rates[j, t]: deliveries into target t per unit inflow at target j
    src, b = np.nonzero(delivers)
    rates = np.zeros((T, T))
    np.add.at(rates.T, np.searchsorted(targets, succ[src, b]), prob[src, b, None] * mass[src])
    closure = (rates > 0.0) | np.eye(T, dtype=bool)
    for _ in range(T):
        closure = (closure[:, :, None] & closure[None, :, :]).any(axis=1)
    if not closure.all(axis=0).any():
        return None
    system = (rates - np.eye(T)).T
    system[-1] = mass.sum(axis=0)
    x = _eliminate(system, np.eye(T)[:, -1:])
    if x is None:
        return None
    aoi, energy = (delta[:, None] * mass).sum(axis=0), mass[acts == 1].sum(axis=0)
    found = (float((x[:, 0] * aoi).sum()), float((x[:, 0] * energy).sum()))
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
            found = _aoi_averages(kern, report.policy.actions)
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
    grid resolves the optimal price. Each price is solved on its own from the
    zero function, so every value is bit for bit ``rvi_plain(...).gain - lam
    * e_max`` of that price. A caller may therefore pass only the grid prices
    beside the bracket of the budget's critical price: the objective is
    concave in the price, so its grid maximum lies there, and each value is
    the one the whole grid gives.
    """
    if not 0.0 < e_max <= 1.0:
        raise ValueError(f"energy budget must lie in (0, 1], got {e_max}")
    grid = [float(lam) for lam in lam_grid]
    if not grid or not all(0.0 <= lam < np.inf for lam in grid):
        raise ValueError("price grid must be non-empty, finite and non-negative")
    space, kern = build_case(case, frame, ch, bound)
    return [(lam, _rvi(space, kern, lam, eps, None, "suspend").gain - lam * e_max) for lam in grid]


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

    The groups are the runs of ``rvi_threshold_no_sensing``, so one pass of
    reductions over them finds each group's lowest transmitting and highest
    suspending interior belief by rank, without sorting the states: the
    group is of threshold type unless the second lies above the first.
    """
    acts = _checked_actions(space.n, actions)
    K = space.frame.K
    rank, starts, sizes = _belief_rank(space), space.layer_start, space.layer_size
    interior = (space.beliefs.steps < space.bound.cap)[space.sym]
    # a belief rank past every symbol's where none transmits, below every
    # symbol's where none suspends
    lowest = np.minimum.reduceat(np.where(interior & (acts == 1), rank, space.n_sym), starts)
    highest = np.maximum.reduceat(np.where(interior & (acts == 0), rank, -1), starts)
    deltas, ks = space.delta[starts], space.k[starts]
    barred = deltas < K
    wrong = np.where(barred, np.maximum.reduceat(acts, starts) == 1, highest > lowest)
    if wrong.any():
        g = int(np.argmax(wrong))
        delta, k = int(deltas[g]), int(ks[g])
        if barred[g]:
            raise ThresholdStructureError(f"policy transmits at inadmissible (delta={delta}, k={k})")
        group = np.arange(starts[g], starts[g] + sizes[g])
        group = group[interior[group]]
        pattern = acts[group[np.argsort(rank[group])]]
        raise ThresholdStructureError(
            f"actions at (delta={delta}, k={k}) are not of threshold type: "
            f"{pattern.tolist()} along ascending beliefs"
        )
    cutoffs = np.r_[np.sort(space.beliefs.value), np.inf][lowest[~barred]]
    thresholds = dict(zip(zip(deltas[~barred].tolist(), ks[~barred].tolist()), cutoffs.tolist()))
    return ThresholdPolicyBelief(
        frame_k=K, cap=space.bound.cap, thresholds=thresholds, actions=acts
    )


def extract_threshold_aoi(space: DelayedSpace, actions) -> ThresholdPolicyAoI:
    """AoI cutoffs of a policy on the delayed-CSI MDP, one per (k, g), read
    by reductions over ``rvi_threshold_delayed``'s runs. Fails where a group
    transmits at an AoI below the frame length, or suspends at an AoI at or
    above its cutoff."""
    acts = _checked_actions(space.n, actions)
    starts, sizes = space.slot_layer, space.slot_size
    delta, transmits = space.delta.reshape(-1, 2), acts.reshape(-1, 2) == 1
    lowest = np.minimum.reduceat(np.where(transmits, delta, np.inf), starts)
    highest = np.maximum.reduceat(np.where(transmits, -1, delta), starts)
    ks = range(1, space.frame.K + 1)
    barred = lowest < space.frame.K
    wrong = barred | (highest >= lowest)
    if wrong.any():
        run, g = divmod(int(np.argmax(wrong)), 2)
        if barred[run, g]:
            raise ThresholdStructureError(
                f"policy transmits at inadmissible (delta={int(lowest[run, g])}, k={ks[run]}, g={g})"
            )
        pattern = acts.reshape(-1, 2)[starts[run] : starts[run] + sizes[run], g]
        raise ThresholdStructureError(
            f"actions at (k={ks[run]}, g={g}) are not of threshold type: "
            f"{pattern.tolist()} along ascending AoI"
        )
    thresholds = {
        (k, g): int(cutoff) if cutoff < np.inf else np.inf
        for k, row in zip(ks, lowest.tolist())
        for g, cutoff in enumerate(row)
    }
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
    """Pairs of interior states equal but for the next larger AoI of their
    slot where the value drops by more than ``_SLACK``. A slot's AoIs step
    by the frame length up to the cap, so one pass pairs every interior
    state with its neighbour, for both cases."""
    keep = _interior_mask(space)
    a = np.flatnonzero(keep)
    grown = np.minimum(space.delta[a] + space.frame.K, space.bound.cap)
    b = space.locate(space.k[a], grown, space.sym[a])
    hit = keep[b] & (values[b] < values[a] - _SLACK)
    return _state_pairs(space, a[hit], b[hit], values)


def _state_pairs(space, a: np.ndarray, b: np.ndarray, values: np.ndarray) -> list[tuple]:
    """Each pair of states (a, b) by their (k, delta, sym) columns, with
    their values."""
    cols = np.column_stack((space.k, space.delta, space.sym)).tolist()
    return [(tuple(cols[i]), tuple(cols[j]), values[i], values[j]) for i, j in zip(a, b)]


def _ascending_beliefs(space: NoSensingSpace) -> np.ndarray:
    """The states of each (k, delta) layer in ascending belief, layers in
    state order."""
    return np.lexsort((_belief_rank(space), np.repeat(space.layer_start, space.layer_size)))


def belief_monotonicity_violations(space: NoSensingSpace, values: np.ndarray) -> list[tuple]:
    """Interior belief pairs at one (delta, k), neighbours in ascending
    belief, where the larger belief costs more by more than ``_SLACK``."""
    order = _ascending_beliefs(space)
    keep = _interior_mask(space)
    a, b = order[:-1], order[1:]
    # no pair spans two layers
    within = np.ones(len(a), dtype=bool)
    within[space.layer_start[1:] - 1] = False
    hit = within & keep[a] & keep[b] & (values[b] > values[a] + _SLACK)
    return _state_pairs(space, a[hit], b[hit], values)


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
    for idxs in np.split(_ascending_beliefs(space), space.layer_start[1:]):
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
