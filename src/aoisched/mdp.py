"""State spaces, transition kernels, and stage costs for both CSI cases.

Case NO_SENSING is the belief MDP over (aoi, slot, belief): the channel is
revealed only through ACK/NACK feedback after a transmission. Case
DELAYED_SENSING is the plain MDP over (aoi, slot, last-slot channel state).
Both are truncated to a finite space by capping the AoI and the unobserved
step count at N; AoI beyond the cap clamps to N and beliefs that would fall
strictly inside the unreachable gap between the two N-step limits clamp up
to the good-anchor limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .channel import Belief, BeliefOrigin, BeliefTable, ChannelModel, belief_table

__all__ = [
    "Case",
    "CompiledKernel",
    "DelayedSpace",
    "FrameSpec",
    "NoSensingSpace",
    "StateDelayed",
    "StateNoSensing",
    "TruncationBound",
    "aoi_step",
    "build_case",
    "enumerate_states_delayed",
    "enumerate_states_no_sensing",
    "kernel_delayed",
    "kernel_no_sensing",
    "stage_cost",
]


class Case(str, Enum):
    """Which channel-state information the scheduler sees."""

    NO_SENSING = "no_sensing"
    DELAYED_SENSING = "delayed_sensing"


@dataclass(frozen=True)
class FrameSpec:
    """Frame structure: K consecutive slots, one update generated per frame."""

    slots_per_frame: int

    def __post_init__(self):
        if self.slots_per_frame < 1:
            raise ValueError("frame length must be at least 1 slot")

    @property
    def K(self) -> int:
        return self.slots_per_frame

    def next_slot(self, k: int) -> int:
        return (k % self.K) + 1

    def prev_slot(self, k: int) -> int:
        return ((self.K + k - 2) % self.K) + 1

    def aoi_values(self, k: int, cap: int) -> list[int]:
        """Admissible AoI values at slot k up to the cap.

        The reachable values are congruent to prev_slot(k) mod K, except that
        the truncation cap itself appears at every slot index because the
        clamp breaks the congruence there.
        """
        base = self.prev_slot(k)
        values = list(range(base, cap, self.K))
        if not values or values[-1] != cap:
            values.append(cap)
        return values


@dataclass(frozen=True)
class TruncationBound:
    """Cap N on the AoI and on the unobserved-step count of beliefs."""

    cap: int

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("truncation cap must be positive")

    def validate_against(self, frame: FrameSpec) -> None:
        if self.cap <= frame.K:
            raise ValueError(
                f"truncation cap must exceed the frame length, got N={self.cap} K={frame.K}"
            )

    def clamp(self, aoi: int) -> int:
        return min(aoi, self.cap)


def aoi_step(frame: FrameSpec, delta: int, k: int, u: int, theta: int) -> int:
    """One-slot AoI recursion: reset to k on a delivery, otherwise grow by one.

    The congruence delta = prev_slot(k) mod K holds on reachable paths but is
    not enforced here; it is an invariant of the enumerated spaces.
    """
    if delta < 1:
        raise ValueError(f"AoI must be positive, got {delta}")
    if not 1 <= k <= frame.K:
        raise ValueError(f"slot index must be in 1..{frame.K}, got {k}")
    if (u, theta) == (1, 1):
        return k
    if (u, theta) in ((1, 0), (0, 0)):
        return delta + 1
    raise ValueError(f"invalid action/observation pair (u={u}, theta={theta})")


def stage_cost(state_or_delta, u: int, lam: float) -> float:
    """Priced one-slot cost: the AoI plus lam per transmission.

    Accepts a state tuple or a bare AoI value.
    """
    if lam < 0:
        raise ValueError(f"energy price must be non-negative, got {lam}")
    if u not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {u}")
    delta = getattr(state_or_delta, "delta", state_or_delta)
    return float(delta) + lam * u


@dataclass(frozen=True)
class StateNoSensing:
    delta: int
    k: int
    belief: Belief


@dataclass(frozen=True)
class StateDelayed:
    delta: int
    k: int
    g: int


def _belief_bound(delta: int, cap: int) -> int:
    # Strictly below the cap the unobserved-step count is limited by the AoI
    # (at most delta-1 suspensions since the last observation). At the cap the
    # clamp keeps AoI frozen while time passes, so counts up to N occur.
    return cap if delta == cap else min(delta - 1, cap)


@lru_cache(maxsize=None)
def enumerate_states_no_sensing(
    frame: FrameSpec, ch: ChannelModel, bound: TruncationBound
) -> tuple[StateNoSensing, ...]:
    """All truncated belief-MDP states, ordered by (k, delta, origin, steps)."""
    bound.validate_against(frame)
    table = belief_table(ch, bound.cap)
    states = []
    for k in range(1, frame.K + 1):
        for delta in frame.aoi_values(k, bound.cap):
            for b in table.symbols_up_to(_belief_bound(delta, bound.cap)):
                states.append(StateNoSensing(delta, k, b))
    states.sort(key=lambda s: (s.k, s.delta, s.belief.sort_key()))
    return tuple(states)


@lru_cache(maxsize=None)
def enumerate_states_delayed(
    frame: FrameSpec, ch: ChannelModel, bound: TruncationBound
) -> tuple[StateDelayed, ...]:
    """All truncated delayed-CSI states, ordered by (k, delta, g)."""
    bound.validate_against(frame)
    states = [
        StateDelayed(delta, k, g)
        for k in range(1, frame.K + 1)
        for delta in frame.aoi_values(k, bound.cap)
        for g in (0, 1)
    ]
    states.sort(key=lambda s: (s.k, s.delta, s.g))
    return tuple(states)


def _suspend_successor(table: BeliefTable, b: Belief, cap: int) -> Belief:
    if b.steps + 1 > cap:
        # The next value would fall strictly inside the gap between the two
        # N-step limits; clamp up to the good-anchor limit.
        return table.canonical(BeliefOrigin.FROM_GOOD, cap)
    return table.canonical(b.origin, b.steps + 1)


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
    grown = bound.clamp(s.delta + 1)
    if u == 0:
        return [(StateNoSensing(grown, k_next, _suspend_successor(table, s.belief, bound.cap)), 1.0)]
    w = s.belief.value
    out = []
    if w > 0.0:
        out.append((StateNoSensing(s.k, k_next, table.after_observation(1)), w))
    if w < 1.0:
        out.append((StateNoSensing(grown, k_next, table.after_observation(0)), 1.0 - w))
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
    grown = bound.clamp(s.delta + 1)
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


class _SpaceBase:
    """Indexed state list plus the arrays shared by the solvers."""

    case: Case

    def __init__(self, frame: FrameSpec, ch: ChannelModel, bound: TruncationBound):
        self.frame = frame
        self.channel = ch
        self.bound = bound
        self.states = self._enumerate()
        self.index = {s: i for i, s in enumerate(self.states)}
        self.n = len(self.states)
        self.delta = np.array([s.delta for s in self.states], dtype=np.float64)
        self.k = np.array([s.k for s in self.states], dtype=np.int64)
        self.admissible = np.array([s.delta >= frame.K for s in self.states], dtype=bool)
        self.reference_index = self.index[self.reference_state()]

    def __len__(self) -> int:
        return self.n

    def _enumerate(self):
        raise NotImplementedError

    def reference_state(self):
        raise NotImplementedError


class NoSensingSpace(_SpaceBase):
    case = Case.NO_SENSING

    def _enumerate(self):
        self.beliefs = belief_table(self.channel, self.bound.cap)
        return enumerate_states_no_sensing(self.frame, self.channel, self.bound)

    def reference_state(self) -> StateNoSensing:
        return StateNoSensing(
            self.frame.K, 1, self.beliefs.canonical(BeliefOrigin.FROM_GOOD, 0)
        )

    @property
    def omega(self) -> np.ndarray:
        if not hasattr(self, "_omega"):
            self._omega = np.array([s.belief.value for s in self.states])
        return self._omega

    @property
    def steps(self) -> np.ndarray:
        if not hasattr(self, "_steps"):
            self._steps = np.array([s.belief.steps for s in self.states], dtype=np.int64)
        return self._steps

    def kernel(self, s: StateNoSensing, u: int):
        return kernel_no_sensing(self.frame, self.channel, self.bound, s, u)


class DelayedSpace(_SpaceBase):
    case = Case.DELAYED_SENSING

    def _enumerate(self):
        return enumerate_states_delayed(self.frame, self.channel, self.bound)

    def reference_state(self) -> StateDelayed:
        return StateDelayed(self.frame.K, 1, 1)

    @property
    def g(self) -> np.ndarray:
        if not hasattr(self, "_g"):
            self._g = np.array([s.g for s in self.states], dtype=np.int64)
        return self._g

    def kernel(self, s: StateDelayed, u: int):
        return kernel_delayed(self.frame, self.channel, self.bound, s, u)


@dataclass
class CompiledKernel:
    """Per-state successor arrays: succ[i, u, branch] with prob[i, u, branch].

    Rows for an inadmissible transmission duplicate the suspension row; the
    solvers mask them out. Unused branches carry probability zero.
    """

    succ: np.ndarray
    prob: np.ndarray
    admissible: np.ndarray
    delta: np.ndarray
    reference_index: int

    @property
    def n(self) -> int:
        return self.succ.shape[0]

    def expected_bias(self, h: np.ndarray, u: int) -> np.ndarray:
        s, p = self.succ, self.prob
        return p[:, u, 0] * h[s[:, u, 0]] + p[:, u, 1] * h[s[:, u, 1]]


def _compile(space: _SpaceBase) -> CompiledKernel:
    n = space.n
    succ = np.zeros((n, 2, 2), dtype=np.int64)
    prob = np.zeros((n, 2, 2), dtype=np.float64)
    for i, s in enumerate(space.states):
        for u in (0, 1):
            if u == 1 and not space.admissible[i]:
                succ[i, 1] = succ[i, 0]
                prob[i, 1] = prob[i, 0]
                continue
            for branch, (s_next, p) in enumerate(space.kernel(s, u)):
                succ[i, u, branch] = space.index[s_next]
                prob[i, u, branch] = p
    return CompiledKernel(
        succ=succ,
        prob=prob,
        admissible=space.admissible.copy(),
        delta=space.delta.copy(),
        reference_index=space.reference_index,
    )


def build_case(
    case: Case, frame: FrameSpec, ch: ChannelModel, bound: TruncationBound
) -> tuple[_SpaceBase, CompiledKernel]:
    """Construct the enumerated space and its compiled kernel for one case."""
    space: _SpaceBase
    if case is Case.NO_SENSING:
        space = NoSensingSpace(frame, ch, bound)
    elif case is Case.DELAYED_SENSING:
        space = DelayedSpace(frame, ch, bound)
    else:
        raise ValueError(f"unknown case {case!r}")
    return space, _compile(space)
