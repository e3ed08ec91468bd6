"""Two-state Gilbert-Elliott channel model and belief-state algebra.

The channel is a good/bad Markov chain. A transmission succeeds exactly when
the true state is good. When the channel is unobserved, the probability that
it is good (the belief) evolves by the one-step map
``T(w) = w*p11 + (1-w)*p01``. A belief is a symbol, the last observed state
(its origin) plus a count of unobserved steps, so state spaces built on top of
them are exactly enumerable. ``BeliefTable`` holds the symbols as integer
arrays, with their numeric values alongside, and a state space refers to a
symbol by its rank in that table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DEDUPE_TOL",
    "BeliefTable",
    "ChannelModel",
    "belief_table",
    "one_step_update",
    "stationary_good_probability",
]

# Belief symbols whose numeric values are closer than this are merged.
DEDUPE_TOL = 1e-12


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


class BeliefTable:
    """Deduplicated belief symbols for unobserved-step counts 0..max_steps.

    A symbol is an origin (0: last observed bad, 1: last observed good) and a
    count of unobserved steps since. ``raw[origin, steps]`` holds the values
    of the monotone-clamped iteration: from the bad anchor non-decreasing in
    the step count, from the good anchor non-increasing (enforced against
    1-ulp rounding wobble), both converging to the stationary probability.
    Symbols whose values differ by less than ``DEDUPE_TOL`` merge into one
    kept symbol, the one with the smallest step count (good anchor on exact
    ties, so the p11 reference belief survives the memory-zero collapse).
    The kept symbols are ``origin``, ``steps`` and ``value``, in (origin,
    steps) order, and a symbol's rank is its index there; ``canon[origin,
    steps]`` is the rank each symbol merges into.
    """

    def __init__(self, ch: ChannelModel, max_steps: int):
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        bad, good = [ch.p01], [ch.p11]
        for _ in range(max_steps):
            good.append(min(one_step_update(ch, good[-1]), good[-1]))
            bad.append(max(one_step_update(ch, bad[-1]), bad[-1]))
        self.raw = np.array([bad, good])

        # kept symbols by ascending value, each as its flat index
        # origin*(max_steps+1) + steps into raw
        kept_values: list[float] = []
        kept_flat: list[int] = []
        merged_flat = np.empty((2, max_steps + 1), dtype=np.int64)
        for m in range(max_steps + 1):
            for origin, v in ((1, good[m]), (0, bad[m])):
                pos = bisect.bisect_left(kept_values, v)
                near = [i for i in (pos - 1, pos) if 0 <= i < len(kept_values)]
                i = min(near, key=lambda j: abs(kept_values[j] - v), default=None)
                if i is not None and abs(kept_values[i] - v) < DEDUPE_TOL:
                    merged_flat[origin, m] = kept_flat[i]
                else:
                    merged_flat[origin, m] = own = origin * (max_steps + 1) + m
                    kept_values.insert(pos, v)
                    kept_flat.insert(pos, own)
        flat = np.array(sorted(kept_flat))
        self.origin, self.steps = np.divmod(flat, max_steps + 1)
        self.value = self.raw.ravel()[flat]
        self.canon = np.searchsorted(flat, merged_flat)


@lru_cache(maxsize=None)
def belief_table(ch: ChannelModel, max_steps: int) -> BeliefTable:
    return BeliefTable(ch, max_steps)
