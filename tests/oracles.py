"""Reference implementations the tests compare the runtime package against.

Nothing under ``src/`` imports this module. Each oracle writes out the rule
it checks on its own instead of borrowing the runtime's code for it, so a
wrong rule in the runtime cannot pass a comparison with its oracle:

* ``m_step_update``: the belief after m unobserved steps, by iterating the
  one-step map written out;
* ``kernel_no_sensing`` and ``kernel_delayed``: the successor distribution of
  one truncated transition, state by state, with the AoI clamp and the
  step-cap clamp spelled out;
* ``exact_average_cost``: the average cost of a finite chain through its
  recurrent classes, by dense linear algebra;
* ``enumerate_and_evaluate`` and ``enumerate_threshold_optimum``: the exact
  optimum over every deterministic admissible policy, or over every cutoff
  rule, with the cutoff groups built state by state;
* ``power_iteration_full`` and ``FullKernelLayers``: the two policy
  evaluators over every state of the space, where the runtime's work only on
  the states a policy enters. The layering borrows the runtime's cap-layer
  solve and elimination, since what it checks is the restriction;
* ``threshold_belief_by_group`` and ``threshold_aoi_by_group``: the belief
  cutoffs of a no-sensing policy, one (delta, k) group at a time, and the
  AoI cutoffs of a delayed-sensing policy, one (k, g) group at a time;
* ``expected_bias``: the expectation inside the Bellman step, as the
  textbook sum over an action's rows, which the runtime's step must equal
  bit for bit;
* ``aoi_monotonicity_by_state``, ``belief_monotonicity_by_state`` and
  ``belief_mix_by_state``: the value-function lemma checks, neighbours and
  triples taken one group at a time, where the runtime pairs states by
  index arithmetic and reads the threshold solvers' belief runs;
* ``dual_grid_maximum``: the dual objective's maximum over every price of
  the property suite's grid, where the runtime solves only the prices
  beside the budget's critical price.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from aoisched.channel import ChannelModel, belief_table
from aoisched.mdp import Case, CompiledKernel, FrameSpec, StateDelayed, StateNoSensing, TruncationBound
from aoisched.solver import (
    TabularPolicy,
    ThresholdStructureError,
    _SLACK,
    _cap_mass,
    _eliminate,
    dual_value_sweep,
)


class CapExceededError(ValueError):
    """Brute-force enumeration would exceed the configured size cap."""


# ---------------------------------------------------------------------------
# channel


def m_step_update(ch: ChannelModel, omega: float, m: int) -> float:
    """Belief after m consecutive unobserved transitions (m=0 returns omega)."""
    if m < 0:
        raise ValueError(f"step count must be non-negative, got {m}")
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {omega}")
    value = omega
    for _ in range(m):
        value = value * ch.p11 + (1.0 - value) * ch.p01
    return value


# ---------------------------------------------------------------------------
# per-state kernels


def _check_action(delta: int, frame: FrameSpec, u: int) -> None:
    if u not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {u}")
    if u == 1 and delta < frame.K:
        raise ValueError(
            f"transmission inadmissible at AoI {delta} < K={frame.K}: "
            "the update of this frame was already delivered"
        )


def kernel_no_sensing(
    frame: FrameSpec,
    ch: ChannelModel,
    bound: TruncationBound,
    s: StateNoSensing,
    u: int,
) -> list[tuple[StateNoSensing, float]]:
    """Successor distribution of one truncated belief-MDP transition.

    Suspension moves deterministically to the one-step-updated belief; a
    transmission succeeds with probability equal to the current belief and
    restarts the belief from the observed state. Zero-probability branches
    are dropped.
    """
    _check_action(s.delta, frame, u)
    table = belief_table(ch, bound.cap)
    k_next = s.k % frame.K + 1
    grown = min(s.delta + 1, bound.cap)
    # canon[origin, steps]: a symbol's rank, its origin the channel state
    # last observed (0 bad, 1 good)
    canon = table.canon
    if u == 0:
        origin, steps = int(table.origin[s.sym]), int(table.steps[s.sym])
        if steps + 1 > bound.cap:
            # one more step would land strictly inside the gap between the
            # two N-step limits; the truncation moves it up to the good one
            suspended = canon[1, bound.cap]
        else:
            suspended = canon[origin, steps + 1]
        return [(StateNoSensing(grown, k_next, int(suspended)), 1.0)]
    w = float(table.value[s.sym])
    out = []
    if w > 0.0:
        out.append((StateNoSensing(s.k, k_next, int(canon[1, 0])), w))
    if w < 1.0:
        out.append((StateNoSensing(grown, k_next, int(canon[0, 0])), 1.0 - w))
    return out


def kernel_delayed(
    frame: FrameSpec,
    ch: ChannelModel,
    bound: TruncationBound,
    s: StateDelayed,
    u: int,
) -> list[tuple[StateDelayed, float]]:
    """Successor distribution of one truncated delayed-CSI transition."""
    _check_action(s.delta, frame, u)
    k_next = s.k % frame.K + 1
    grown = min(s.delta + 1, bound.cap)
    p_good = ch.p11 if s.g == 1 else ch.p01
    out = []
    if u == 1:
        if p_good > 0.0:
            out.append((StateDelayed(s.k, k_next, 1), p_good))
        if p_good < 1.0:
            out.append((StateDelayed(grown, k_next, 0), 1.0 - p_good))
        return out
    if p_good < 1.0:
        out.append((StateDelayed(grown, k_next, 0), 1.0 - p_good))
    if p_good > 0.0:
        out.append((StateDelayed(grown, k_next, 1), p_good))
    return out


def expected_bias(kern: CompiledKernel, h: np.ndarray, u: int) -> np.ndarray:
    """The expected bias after action u at every state: the sum over u's
    rows, in row order, of the branch probability times the bias at the
    branch's successor."""
    rows = kern.rows(u)
    return (kern.prob[rows] * h[kern.succ[rows]]).sum(axis=0)


# ---------------------------------------------------------------------------
# brute force over policies


def _reachable_from(kern: CompiledKernel, start: int) -> list[int]:
    moves = kern.prob > 0.0
    moves[kern.rows(1)] &= kern.admissible
    seen = np.zeros(kern.n, dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        reached = np.zeros(kern.n, dtype=bool)
        reached[kern.succ[:, frontier][moves[:, frontier]]] = True
        frontier = reached & ~seen
        seen |= reached
    return np.flatnonzero(seen).tolist()


def exact_average_cost(P: np.ndarray, cost: np.ndarray, start: int) -> float:
    """Average cost from ``start`` of a finite chain, via its recurrent classes."""
    n = P.shape[0]
    reach = (P > 0.0) | np.eye(n, dtype=bool)
    for _ in range(max(1, int(np.ceil(np.log2(n))) + 1)):
        reach = reach | (reach @ reach)
    recurrent = np.all(~reach | reach.T, axis=1)

    classes: list[np.ndarray] = []
    assigned = np.full(n, -1)
    for i in np.flatnonzero(recurrent):
        if assigned[i] < 0:
            members = np.flatnonzero(reach[i] & reach[:, i])
            assigned[members] = len(classes)
            classes.append(members)

    gains = []
    for members in classes:
        sub = P[np.ix_(members, members)]
        m = len(members)
        a = sub.T - np.eye(m)
        a[-1, :] = 1.0
        b = np.zeros(m)
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
        gains.append(float(pi @ cost[members]))

    if recurrent[start]:
        return gains[int(assigned[start])]

    transient = np.flatnonzero(~recurrent)
    ptt = P[np.ix_(transient, transient)]
    rhs = np.zeros((len(transient), len(classes)))
    for c, members in enumerate(classes):
        rhs[:, c] = P[np.ix_(transient, members)].sum(axis=1)
    absorb = np.linalg.solve(np.eye(len(transient)) - ptt, rhs)
    return float(absorb[np.searchsorted(transient, start)] @ np.array(gains))


class _OracleEnumeration:
    """Shared machinery for the brute-force sweeps over all policies.

    Only the states reachable from the reference matter for the average cost
    from the reference; actions elsewhere are fixed to suspension.
    """

    def __init__(self, space, kern: CompiledKernel, lam: float, cap: int):
        self.space = space
        self.kern = kern
        self.lam = lam
        reachable = _reachable_from(kern, kern.reference_index)
        self.free = [g for g in reachable if kern.admissible[g]]
        if len(self.free) > cap:
            raise CapExceededError(
                f"{len(self.free)} free states exceed the cap of {cap} "
                f"(2**{len(self.free)} policies)"
            )
        nr = len(reachable)
        local = np.full(kern.n, -1)
        local[reachable] = np.arange(nr)
        self.start = int(local[kern.reference_index])
        self.base_cost = kern.delta[reachable]
        # rows[1] is only read at the free states, where transmission is admissible
        self.rows = {}
        for u in (0, 1):
            succ = kern.succ[kern.rows(u)][:, reachable]
            p = kern.prob[kern.rows(u)][:, reachable]
            b, i = np.nonzero(p > 0.0)
            self.rows[u] = np.zeros((nr, nr))
            np.add.at(self.rows[u], (i, local[succ[b, i]]), p[b, i])
        self.free_local = local[self.free]

    def gain_of(self, bits) -> float:
        P = self.rows[0].copy()
        cost = self.base_cost.copy()
        for pos, bit in zip(self.free_local, bits):
            if bit:
                P[pos] = self.rows[1][pos]
                cost[pos] += self.lam
        return exact_average_cost(P, cost, self.start)

    def gains(self):
        for bits in itertools.product((0, 1), repeat=len(self.free)):
            yield self.gain_of(bits), bits

    def materialize(self, bits: tuple[int, ...]) -> np.ndarray:
        actions = np.zeros(self.kern.n, dtype=np.int8)
        actions[self.free] = bits
        return actions


def enumerate_and_evaluate(
    space, kern: CompiledKernel, lam: float, cap: int = 14
) -> tuple[float, TabularPolicy]:
    """Exact minimizer over all deterministic admissible policies.

    Evaluates every induced chain exactly through its recurrent classes.
    Independent of the value-iteration machinery; intended as the ground
    truth for it. Ties keep the first policy in enumeration order.
    """
    sweep = _OracleEnumeration(space, kern, lam, cap)
    best_gain = np.inf
    best_bits: tuple[int, ...] | None = None
    for gain, bits in sweep.gains():
        if gain < best_gain - 1e-15:
            best_gain = gain
            best_bits = bits
    return best_gain, TabularPolicy(space, sweep.materialize(best_bits))


def _groups(keys, along: list) -> list[np.ndarray]:
    """State indices grouped by equal keys, one key per state, each group in
    ascending ``along`` and the groups in ascending key order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [
        np.array(sorted(members, key=lambda i: along[i]), dtype=np.int64)
        for _key, members in sorted(groups.items())
    ]


def cutoff_groups(space) -> list[np.ndarray]:
    """The states a cutoff rule acts on together, state by state: each
    (k, delta) group in ascending belief, or each (k, g) group in ascending
    AoI, the groups in ascending key order."""
    if space.case is Case.NO_SENSING:
        return _groups(zip(space.k.tolist(), space.delta.tolist()), space.omega.tolist())
    return _groups(zip(space.k.tolist(), space.g.tolist()), space.delta.tolist())


def enumerate_threshold_optimum(
    space, kern: CompiledKernel, lam: float, cap: int = 14
) -> tuple[float, TabularPolicy]:
    """Exact minimizer over cutoff rules only.

    A cutoff rule transmits at a (delta, k) group exactly from some belief
    upward, or at a (k, g) group from some AoI upward. When its best gain
    matches ``enumerate_and_evaluate``, restricting the search to threshold
    policies provably loses nothing on that instance. The comparison cannot
    be made through arbitrary minimizers: the average cost is flat across
    states the optimal chain never revisits, so brute-force ties are free to
    look non-threshold there.
    """
    sweep = _OracleEnumeration(space, kern, lam, cap)
    groups = [idxs[kern.admissible[idxs]] for idxs in cutoff_groups(space)]

    n_rules = math.prod(len(idxs) + 1 for idxs in groups)
    if n_rules > 2 ** cap:
        raise CapExceededError(f"{n_rules} cutoff rules exceed the cap of 2**{cap}")

    best_gain, best_actions = np.inf, None
    seen: set[tuple[int, ...]] = set()
    for choice in itertools.product(*[range(len(idxs) + 1) for idxs in groups]):
        actions = np.zeros(kern.n, dtype=np.int8)
        for idxs, start in zip(groups, choice):
            actions[idxs[start:]] = 1
        bits = tuple(int(actions[g]) for g in sweep.free)
        if bits in seen:
            continue
        seen.add(bits)
        gain = sweep.gain_of(bits)
        if gain < best_gain - 1e-15:
            best_gain, best_actions = gain, actions
    return best_gain, TabularPolicy(space, best_actions)


# ---------------------------------------------------------------------------
# policy evaluation over the whole space


def power_iteration_full(kern: CompiledKernel, actions: np.ndarray, tol: float, rounds: int) -> np.ndarray:
    """Stationary law of a deterministic policy by damped (half lazy) power
    iteration from the uniform law over every state of the space, to an L1
    residual of ``tol``; ``RuntimeError`` after ``rounds`` rounds. Each round
    adds every state's mass branch by branch, states in index order."""
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
    for _ in range(rounds):
        np.multiply(pi, prob, out=weights.T)
        pushed = np.bincount(flat_succ, weights=weights.ravel(), minlength=n)
        np.multiply(0.5, pi, out=pi_new)
        np.multiply(0.5, pushed, out=pushed)
        np.add(pi_new, pushed, out=pi_new)
        np.subtract(pi_new, pi, out=pushed)
        residual = float(np.abs(pushed, out=pushed).sum())
        pi, pi_new = pi_new, pi
        if residual <= tol:
            return pi
    raise RuntimeError(f"power iteration residual {residual} above {tol} after {rounds} rounds")


class FullKernelLayers:
    """Exact long-run averages of deterministic policies by AoI layers, over
    every state of the kernel: the targets are the successors of either
    action that do not grow the AoI, and one (states, targets) array holds
    the mass of every state, whether the policy enters it or not, per unit
    inflow at each target. Each layer's growth branches are pushed into the
    next, branch by branch, in ascending AoI."""

    def __init__(self, kern: CompiledKernel):
        self.kern = kern
        delta = kern.delta
        self.values = np.unique(delta)
        self.cap = self.values[-1]
        grown, target = np.minimum(delta + 1.0, self.cap), np.zeros(kern.n, dtype=bool)
        for succ, prob in zip(kern.succ, kern.prob):
            target[succ[(prob > 0.0) & (delta[succ] != grown)]] = True
        self.targets = np.flatnonzero(target)
        self.usable = len(self.targets) > 0 and np.array_equal(
            self.values, np.arange(self.values[0], self.cap + 1.0)
        )

    def averages(self, actions):
        if not self.usable:
            return None
        kern, T, delta = self.kern, len(self.targets), self.kern.delta
        # the policy's branches, (branch, state)
        blocks = (kern.rows(0), kern.rows(1))
        width = max(rows.stop - rows.start for rows in blocks)
        succ, prob = np.zeros((width, kern.n), dtype=np.int64), np.zeros((width, kern.n))
        for u, rows in enumerate(blocks):
            at, m = actions == u, rows.stop - rows.start
            succ[:m, at] = kern.succ[rows, at]
            prob[:m, at] = kern.prob[rows, at]
        grows = (prob > 0.0) & (delta[succ] == np.minimum(delta + 1.0, self.cap))
        mass = np.zeros((kern.n, T))
        mass[self.targets, np.arange(T)] = 1.0
        for value in self.values[:-1]:
            for b in range(width):
                src = np.flatnonzero((delta == value) & grows[b])
                np.add.at(mass, succ[b, src], prob[b, src, None] * mass[src])
        cap = np.flatnonzero(delta == self.cap)
        local = np.full(kern.n, len(cap))
        local[cap] = np.arange(len(cap))
        dest = np.where(grows[:, cap], local[succ[:, cap]], len(cap))
        solved = _cap_mass(prob[:, cap].T, dest.T, mass[cap])
        if solved is None:
            return None
        mass[cap] = solved
        rates = np.zeros((T, T))
        for b in range(width):
            src = np.flatnonzero((prob[b] > 0.0) & ~grows[b])
            into = np.searchsorted(self.targets, succ[b, src])
            np.add.at(rates.T, into, prob[b, src, None] * mass[src])
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
        aoi, energy = delta @ mass, actions @ mass
        found = (float(x[:, 0] @ aoi), float(x[:, 0] @ energy))
        return found if np.isfinite(found).all() else None


# ---------------------------------------------------------------------------
# threshold extraction


def threshold_belief_by_group(space, actions: np.ndarray) -> dict[tuple[int, int], float]:
    """The belief cutoffs of a no-sensing action table, keyed (delta, k) in
    ascending (k, delta) order, one group at a time along ascending beliefs.
    A group below the frame length must not transmit; above it, the actions
    at beliefs short of the step cap must switch from 0 to 1 at most once
    and end in 1 if they transmit at all. ``ThresholdStructureError`` names
    the first group that breaks its rule."""
    thresholds: dict[tuple[int, int], float] = {}
    omega = space.omega
    uncapped = space.steps < space.bound.cap
    for idxs in cutoff_groups(space):
        delta, k = int(space.delta[idxs[0]]), int(space.k[idxs[0]])
        if delta < space.frame.K:
            if np.any(actions[idxs] == 1):
                raise ThresholdStructureError(
                    f"policy transmits at inadmissible (delta={delta}, k={k})"
                )
            continue
        interior = idxs[uncapped[idxs]]
        pattern = actions[interior]
        switches = np.flatnonzero(np.diff(pattern.astype(np.int8)))
        if pattern.max(initial=0) == 1 and (len(switches) > 1 or pattern[-1] == 0):
            raise ThresholdStructureError(
                f"actions at (delta={delta}, k={k}) are not of threshold type: "
                f"{pattern.tolist()} along ascending beliefs"
            )
        first = np.flatnonzero(pattern)
        thresholds[(delta, k)] = float(omega[interior[first[0]]]) if len(first) else np.inf
    return thresholds


def threshold_aoi_by_group(space, actions: np.ndarray) -> dict[tuple[int, int], float]:
    """The AoI cutoffs of a delayed-sensing action table, keyed (k, g) in
    ascending order, one group at a time along ascending AoI: the first
    transmitting AoI, an int, or ``np.inf`` where the group never transmits.
    The cutoff must reach the frame length, and the group must transmit at
    every AoI from the cutoff on; ``ThresholdStructureError`` names the first
    group that breaks either rule."""
    thresholds: dict[tuple[int, int], float] = {}
    for idxs in cutoff_groups(space):
        k, g = int(space.k[idxs[0]]), int(space.g[idxs[0]])
        deltas, pattern = space.delta[idxs].tolist(), actions[idxs].tolist()
        cutoff = next((d for d, a in zip(deltas, pattern) if a == 1), np.inf)
        if cutoff < space.frame.K:
            raise ThresholdStructureError(
                f"policy transmits at inadmissible (delta={cutoff}, k={k}, g={g})"
            )
        if any(a == 0 and d >= cutoff for d, a in zip(deltas, pattern)):
            raise ThresholdStructureError(
                f"actions at (k={k}, g={g}) are not of threshold type: "
                f"{pattern} along ascending AoI"
            )
        thresholds[(k, g)] = cutoff
    return thresholds


# ---------------------------------------------------------------------------
# value-function lemmas


def _interior_states(space) -> list[bool]:
    """Per state: below the AoI cap and, without sensing, below the
    unobserved-step cap, so that no truncation clamp moves a successor."""
    cap = space.bound.cap
    steps = space.steps.tolist() if space.case is Case.NO_SENSING else [0] * space.n
    return [delta < cap and m < cap for delta, m in zip(space.delta.tolist(), steps)]


def _columns(space, i: int) -> tuple[int, int, int]:
    return int(space.k[i]), int(space.delta[i]), int(space.sym[i])


def aoi_monotonicity_by_state(space, values: np.ndarray) -> list[tuple]:
    """State by state, each interior state and the next larger AoI of its
    (k, sym) group, also interior, where the value drops by more than
    ``_SLACK``: their (k, delta, sym) columns and values."""
    interior = _interior_states(space)
    out = []
    for group in _groups(zip(space.k.tolist(), space.sym.tolist()), space.delta.tolist()):
        for i, j in zip(group.tolist(), group[1:].tolist()):
            if interior[i] and interior[j] and values[j] < values[i] - _SLACK:
                out.append((_columns(space, i), _columns(space, j), values[i], values[j]))
    return out


def belief_monotonicity_by_state(space, values: np.ndarray) -> list[tuple]:
    """State by state, each interior state and the next larger belief of
    its (k, delta) group, also interior, where the value rises by more than
    ``_SLACK``: their (k, delta, sym) columns and values."""
    interior = _interior_states(space)
    out = []
    for group in cutoff_groups(space):
        for i, j in zip(group.tolist(), group[1:].tolist()):
            if interior[i] and interior[j] and values[j] > values[i] + _SLACK:
                out.append((_columns(space, i), _columns(space, j), values[i], values[j]))
    return out


def belief_mix_by_state(space, values: np.ndarray, lam: float) -> list[tuple]:
    """Every triple of interior beliefs y < z < x of one (delta, k) group,
    and the weight w = (z - y) / (x - y), where
    (1-w)*lam + w*V(x) + (1-w)*V(y) < V(z) - ``_SLACK``: as
    ((delta, k), x, y, z, that left side, V(z))."""
    interior = _interior_states(space)
    omega = space.omega
    out = []
    for group in cutoff_groups(space):
        key = (int(space.delta[group[0]]), int(space.k[group[0]]))
        kept = [i for i in group.tolist() if interior[i]]
        for at, z in enumerate(kept):
            for y in kept[:at]:
                for x in kept[at + 1 :]:
                    w = (omega[z] - omega[y]) / (omega[x] - omega[y])
                    lhs = (1.0 - w) * lam + w * values[x] + (1.0 - w) * values[y]
                    if lhs < values[z] - _SLACK:
                        out.append((key, omega[x], omega[y], omega[z], float(lhs), float(values[z])))
    return out


# ---------------------------------------------------------------------------
# duality


def dual_grid_maximum(case: Case, frame: FrameSpec, ch: ChannelModel, bound: TruncationBound,
                      e_max: float) -> tuple[float, float]:
    """The price and value of the dual objective's maximum over all 1,201
    prices 0, 0.01, ..., 12, each solved from the zero function; the first
    such price on a tie."""
    sweep = dual_value_sweep(case, frame, ch, bound, e_max, np.arange(0.0, 12.0001, 0.01), eps=1e-8)
    return max(sweep, key=lambda entry: entry[1])
