"""State spaces and transition kernels for both CSI cases.

Case NO_SENSING is the belief MDP over (aoi, slot, belief): the channel is
revealed only through ACK/NACK feedback after a transmission. Case
DELAYED_SENSING is the plain MDP over (aoi, slot, last-slot channel state).
Both are truncated to a finite space by capping the AoI and the unobserved
step count at N; AoI beyond the cap clamps to N and beliefs that would fall
strictly inside the unreachable gap between the two N-step limits clamp up
to the good-anchor limit.

Spaces are built directly as integer columns; a belief is the rank of its
symbol in the ``channel.BeliefTable`` arrays, and its value, step count and
suspension successor are read from those arrays by rank. This module alone
decides the state order, (k, delta, sym): a space records the runs of that
order that the solvers group by, each (k, delta) layer and each slot, and
its kernel's delivery runs are the slot blocks. The per-state
dataclasses and their enumerators are test oracles that no runtime path
calls; they stay here, unexported, only because the benchmark's tracer
patches the two enumerators. The scalar per-state kernels live with the
other oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .channel import ChannelModel, belief_table

__all__ = [
    "Case",
    "CompiledKernel",
    "DelayedSpace",
    "FrameSpec",
    "NoSensingSpace",
    "TruncationBound",
    "build_case",
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

    def prev_slot(self, k: int) -> int:
        return ((self.K + k - 2) % self.K) + 1

    def aoi_values(self, k: int, cap: int) -> list[int]:
        """Admissible AoI values at slot k up to the cap.

        The reachable values are congruent to prev_slot(k) mod K, except that
        the truncation cap itself appears at every slot index because the
        clamp breaks the congruence there.
        """
        base = self.prev_slot(k)
        return [*range(base, cap, self.K), cap]


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


# Kept in the package only for the benchmark tracer's enumerator patch sites.
@dataclass(frozen=True)
class StateNoSensing:
    delta: int
    k: int
    sym: int


@dataclass(frozen=True)
class StateDelayed:
    delta: int
    k: int
    g: int


def _belief_bound(delta, cap: int):
    # Strictly below the cap the unobserved-step count is limited by the AoI
    # (at most delta-1 suspensions since the last observation). At the cap the
    # clamp keeps AoI frozen while time passes, so counts up to N occur.
    # delta, a value or an array, is never above the cap.
    return delta - 1 + (delta == cap)


def enumerate_states_no_sensing(
    frame: FrameSpec, ch: ChannelModel, bound: TruncationBound
) -> tuple[StateNoSensing, ...]:
    """All truncated belief-MDP states, ordered by (k, delta, sym), where sym
    is the belief symbol's rank in the ``BeliefTable``."""
    bound.validate_against(frame)
    steps = belief_table(ch, bound.cap).steps.tolist()
    states = []
    for k in range(1, frame.K + 1):
        for delta in frame.aoi_values(k, bound.cap):
            for sym, m in enumerate(steps):
                if m <= _belief_bound(delta, bound.cap):
                    states.append(StateNoSensing(delta, k, sym))
    states.sort(key=lambda s: (s.k, s.delta, s.sym))
    return tuple(states)


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


class _SpaceBase:
    """The states as integer columns ``k``, ``delta`` and ``sym`` (the belief
    symbol's rank in the ``BeliefTable``, or the last channel state g),
    built directly: each AoI value of ``frame.aoi_values`` at each slot with
    every symbol whose step count ``_belief_bound`` allows, in (k, delta, sym)
    order, so the key ``(k*(N+1) + delta)*n_sym + sym`` increases and a binary
    search finds any state. A case gives ``_symbol_steps`` (each symbol's step
    count) and ``_branches`` (per action, successor branches as AoI, symbol
    and probability columns).

    The groups a policy's cutoffs act on are runs of that order, recorded as
    the states are numbered: ``layer_start`` and ``layer_size`` give each
    (k, delta) layer's first state and its number of states (never zero:
    every layer keeps the step-0 symbols), and ``slot_layer`` and
    ``slot_size`` give each slot's first layer and its number of layers."""

    case: Case

    def __init__(self, frame: FrameSpec, ch: ChannelModel, bound: TruncationBound):
        bound.validate_against(frame)
        self.frame = frame
        self.channel = ch
        self.bound = bound
        aoi = [frame.aoi_values(k, bound.cap) for k in range(1, frame.K + 1)]
        self.slot_size = np.array([len(values) for values in aoi])
        self.slot_layer = np.cumsum(self.slot_size) - self.slot_size
        k_of, delta_of = np.repeat(np.arange(1, frame.K + 1), self.slot_size), np.concatenate(aoi)
        # row-major order over (k, delta) x symbol is the (k, delta, sym) order
        kept = self._symbol_steps() <= _belief_bound(delta_of, bound.cap)[:, None]
        layer, self.sym = np.divmod(np.flatnonzero(kept), kept.shape[1])
        self.k, self.delta = k_of[layer], delta_of[layer]
        self.layer_size = np.count_nonzero(kept, axis=1)
        self.layer_start = np.cumsum(self.layer_size) - self.layer_size
        self.n = len(self.sym)
        self._key = self._key_of(self.k, self.delta, self.sym)
        self.admissible = self.delta >= frame.K
        self.reference_index = int(self.locate(1, frame.K, self.reference_sym))

    def _symbol_steps(self) -> np.ndarray:
        raise NotImplementedError

    def _key_of(self, k, delta, sym):
        return (k * (self.bound.cap + 1) + delta) * self.n_sym + sym

    def locate(self, k, delta, sym) -> np.ndarray:
        """Indices of the states with these columns, or ``KeyError``."""
        want = self._key_of(k, delta, sym)
        pos = np.minimum(np.searchsorted(self._key, want), self.n - 1)
        if np.any(self._key[pos] != want):
            raise KeyError("successor state outside the enumerated space")
        return pos


class NoSensingSpace(_SpaceBase):
    case = Case.NO_SENSING

    def _symbol_steps(self) -> np.ndarray:
        table = self.beliefs = belief_table(self.channel, self.bound.cap)
        cap = self.bound.cap
        self.n_sym = len(table.steps)
        self.reference_sym, self._failed_sym = int(table.canon[1, 0]), int(table.canon[0, 0])
        # each symbol after one more unobserved step; at the cap that value
        # would fall strictly inside the gap between the two N-step limits,
        # so it clamps up to the good-anchor limit
        origin = np.where(table.steps == cap, 1, table.origin)
        self._sym_suspended = table.canon[origin, np.minimum(table.steps + 1, cap)]
        return table.steps

    @property
    def omega(self) -> np.ndarray:
        return self.beliefs.value[self.sym]

    @property
    def steps(self) -> np.ndarray:
        return self.beliefs.steps[self.sym]

    def _branches(self, grown: np.ndarray):
        omega = self.omega
        return (
            [(grown, self._sym_suspended[self.sym], 1.0)],
            [(self.k, self.reference_sym, omega), (grown, self._failed_sym, 1.0 - omega)],
        )


class DelayedSpace(_SpaceBase):
    case = Case.DELAYED_SENSING
    n_sym = 2
    reference_sym = 1

    def _symbol_steps(self) -> np.ndarray:
        # the last channel state is observed, so no step goes unobserved
        return np.zeros(2, dtype=np.int64)

    @property
    def g(self) -> np.ndarray:
        return self.sym

    def _branches(self, grown: np.ndarray):
        p_good = np.where(self.sym == 1, self.channel.p11, self.channel.p01)
        return (
            [(grown, 0, 1.0 - p_good), (grown, 1, p_good)],
            [(self.k, 1, p_good), (grown, 0, 1.0 - p_good)],
        )


@dataclass
class CompiledKernel:
    """Successor tables stored branch-major: row r belongs to the (action,
    branch) pair ``pairs[r]``, and ``succ[r, i]`` is state i's successor on
    that branch with probability ``prob[r, i]``. A pair gets a row only if its
    probability is non-zero at some state, so suspension keeps one row without
    sensing (it is deterministic) and two with delayed sensing; transmission
    keeps two. Rows come in action order and, within an action, in the branch
    order of the per-state kernels in ``tests/oracles.py``. Where transmission
    is inadmissible its rows repeat the suspension branches, with zero beyond
    them; the solvers mask those states out.

    ``delivery`` is the transmit-success row (pair (1, 0)) as runs of the
    state order, (first state, end, successor), one per slot block. A
    delivery resets the AoI to the slot index, so every admissible state of
    slot k leads to (k mod K + 1, k, delivered). A slot's barred states sit
    in its run too; their transmit rows repeat suspension, and the solvers
    mask them out. ``delivery`` is empty without that pair. The Bellman step
    over the rows is ``solver._Bellman``'s, which the tests check against
    the textbook sum, ``expected_bias`` in ``tests/oracles.py``.
    """

    succ: np.ndarray
    prob: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    admissible: np.ndarray
    delta: np.ndarray
    reference_index: int
    delivery: list[tuple[int, int, int]]

    @property
    def n(self) -> int:
        return self.succ.shape[1]

    def rows(self, u: int) -> slice:
        """The contiguous block of rows that belongs to action u."""
        actions = [a for a, _b in self.pairs]
        return slice(actions.index(u), len(actions) - actions[::-1].index(u))


def _compile(space: _SpaceBase) -> CompiledKernel:
    """Successor rows by index arithmetic over the state columns. Rows keep
    the branch order of the per-state kernels in ``tests/oracles.py``, zero
    entries point at in-space states, and a pair whose probability is zero
    everywhere is dropped, so sums over the kept rows match the per-state
    kernels term for term."""
    k_next = space.k % space.frame.K + 1
    grown = np.minimum(space.delta + 1, space.bound.cap)
    n = space.n
    table = [
        [(space.locate(k_next, delta, sym), np.broadcast_to(p, (n,))) for delta, sym, p in branches]
        for branches in space._branches(grown)
    ]
    suspend, transmit = table
    barred = ~space.admissible
    for b, (succ, prob) in enumerate(transmit):
        succ0, prob0 = suspend[b] if b < len(suspend) else (succ, 0.0)
        transmit[b] = (np.where(barred, succ0, succ), np.where(barred, prob0, prob))
    pairs = tuple(
        (u, b) for u, branches in enumerate(table) for b, (_s, p) in enumerate(branches) if p.any()
    )
    slots = np.arange(1, space.frame.K + 1)
    bounds = np.r_[space.layer_start[space.slot_layer], n].tolist()
    targets = space.locate(slots % space.frame.K + 1, slots, space.reference_sym).tolist()
    return CompiledKernel(
        succ=np.array([table[u][b][0] for u, b in pairs], dtype=np.int64),
        prob=np.array([table[u][b][1] for u, b in pairs], dtype=np.float64),
        pairs=pairs,
        admissible=space.admissible.copy(),
        delta=space.delta.astype(np.float64),
        reference_index=space.reference_index,
        delivery=list(zip(bounds[:-1], bounds[1:], targets)) if (1, 0) in pairs else [],
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
