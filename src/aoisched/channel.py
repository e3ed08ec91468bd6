"""Two-state Gilbert-Elliott channel model and belief-state algebra.

The channel is a good/bad Markov chain. A transmission succeeds exactly when
the true state is good. When the channel is unobserved, the probability that
it is good (the belief) evolves by the one-step map
``T(w) = w*p11 + (1-w)*p01``. Beliefs are carried symbolically as an origin
(last observed state) plus a count of unobserved steps, so state spaces built
on top of them are exactly enumerable; numeric values are cached alongside.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

__all__ = [
    "DEDUPE_TOL",
    "Belief",
    "BeliefOrigin",
    "BeliefTable",
    "ChannelModel",
    "belief_table",
    "one_step_update",
    "stationary_good_probability",
]

# Symbolic beliefs whose numeric values are closer than this are merged.
DEDUPE_TOL = 1e-12


class BeliefOrigin(IntEnum):
    """Anchor of a symbolic belief: the channel state last observed."""

    FROM_BAD = 0
    FROM_GOOD = 1


@dataclass(frozen=True)
class ChannelModel:
    """Gilbert-Elliott chain parameters.

    p11 is the good-to-good transition probability, p01 the bad-to-good one.
    Positive correlation (p11 >= p01) is assumed throughout. The fully
    deterministic chain (p11=1, p01=0) is rejected: it splits into two
    absorbing classes and long-run averages stop being state-independent.
    """

    p11: float
    p01: float

    def __post_init__(self):
        if not (0.0 <= self.p01 <= self.p11 <= 1.0):
            raise ValueError(
                f"need 0 <= p01 <= p11 <= 1, got p11={self.p11}, p01={self.p01}"
            )
        if self.p11 == 1.0 and self.p01 == 0.0:
            raise ValueError("degenerate chain: p11=1 and p01=0 has two absorbing classes")

    @property
    def memory(self) -> float:
        """Channel memory, the spectral gap complement p11 - p01 in [0, 1)."""
        return self.p11 - self.p01


def one_step_update(ch: ChannelModel, omega: float) -> float:
    """Belief after one unobserved transition. Affine and monotone in omega."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {omega}")
    return omega * ch.p11 + (1.0 - omega) * ch.p01


def stationary_good_probability(ch: ChannelModel) -> float:
    """Long-run probability of the good state, the fixed point of the belief map."""
    denom = 1.0 - ch.memory
    if denom <= 0.0:
        raise ValueError("degenerate chain: memory 1 has no unique stationary law")
    return ch.p01 / denom


@dataclass(frozen=True)
class Belief:
    """Symbolic belief: origin plus unobserved-step count, with cached value."""

    origin: BeliefOrigin
    steps: int
    value: float

    def sort_key(self) -> tuple[int, int]:
        return (int(self.origin), self.steps)


class BeliefTable:
    """Deduplicated belief symbols for unobserved-step counts 0..max_steps.

    Values from the bad anchor are non-decreasing in the step count and
    values from the good anchor are non-increasing (enforced against 1-ulp
    rounding wobble), both converging to the stationary probability. Symbols
    whose values differ by less than ``DEDUPE_TOL`` are merged into one canonical
    symbol, keeping the smallest step count (good anchor on exact ties, so
    the p11 reference belief survives the memory-zero collapse).
    """

    def __init__(self, ch: ChannelModel, max_steps: int):
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        self.channel = ch
        self.max_steps = max_steps

        values = {BeliefOrigin.FROM_GOOD: [ch.p11], BeliefOrigin.FROM_BAD: [ch.p01]}
        for _ in range(max_steps):
            good = one_step_update(ch, values[BeliefOrigin.FROM_GOOD][-1])
            bad = one_step_update(ch, values[BeliefOrigin.FROM_BAD][-1])
            values[BeliefOrigin.FROM_GOOD].append(min(good, values[BeliefOrigin.FROM_GOOD][-1]))
            values[BeliefOrigin.FROM_BAD].append(max(bad, values[BeliefOrigin.FROM_BAD][-1]))
        self._values = values

        kept_values: list[float] = []
        kept_symbols: list[Belief] = []
        canon: dict[tuple[BeliefOrigin, int], Belief] = {}
        for m in range(max_steps + 1):
            for origin in (BeliefOrigin.FROM_GOOD, BeliefOrigin.FROM_BAD):
                v = values[origin][m]
                near = self._nearest(kept_values, v)
                if near is not None and abs(kept_values[near] - v) < DEDUPE_TOL:
                    canon[(origin, m)] = kept_symbols[near]
                else:
                    symbol = Belief(origin, m, v)
                    pos = bisect.bisect_left(kept_values, v)
                    kept_values.insert(pos, v)
                    kept_symbols.insert(pos, symbol)
                    canon[(origin, m)] = symbol
        self._canon = canon
        self.symbols = tuple(sorted(kept_symbols, key=Belief.sort_key))

    @staticmethod
    def _nearest(sorted_values: list[float], v: float) -> int | None:
        if not sorted_values:
            return None
        pos = bisect.bisect_left(sorted_values, v)
        candidates = [i for i in (pos - 1, pos) if 0 <= i < len(sorted_values)]
        return min(candidates, key=lambda i: abs(sorted_values[i] - v))

    def canonical(self, origin: BeliefOrigin, steps: int) -> Belief:
        return self._canon[(origin, steps)]

    def raw_value(self, origin: BeliefOrigin, steps: int) -> float:
        """Table value before deduplication (monotone-clamped iteration)."""
        return self._values[origin][steps]

    def after_observation(self, theta: int) -> Belief:
        origin = BeliefOrigin.FROM_GOOD if theta == 1 else BeliefOrigin.FROM_BAD
        return self.canonical(origin, 0)

    def symbols_up_to(self, max_m: int) -> list[Belief]:
        return [s for s in self.symbols if s.steps <= max_m]


@lru_cache(maxsize=None)
def belief_table(ch: ChannelModel, max_steps: int) -> BeliefTable:
    return BeliefTable(ch, max_steps)
