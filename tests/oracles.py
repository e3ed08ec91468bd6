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
  rule, with the cutoff groups built state by state.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from aoisched.channel import ChannelModel, belief_table
from aoisched.mdp import Case, CompiledKernel, FrameSpec, StateDelayed, StateNoSensing, TruncationBound
from aoisched.solver import TabularPolicy


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
    k_next = frame.next_slot(s.k)
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
    k_next = frame.next_slot(s.k)
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


def cutoff_groups(space) -> list[np.ndarray]:
    """The states a cutoff rule acts on together, state by state: each
    (k, delta) group in ascending belief, or each (k, g) group in ascending
    AoI, the groups in ascending key order."""
    if space.case is Case.NO_SENSING:
        keys, along = zip(space.k.tolist(), space.delta.tolist()), space.omega.tolist()
    else:
        keys, along = zip(space.k.tolist(), space.g.tolist()), space.delta.tolist()
    groups: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [
        np.array(sorted(members, key=lambda i: along[i]), dtype=np.int64)
        for _key, members in sorted(groups.items())
    ]


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
