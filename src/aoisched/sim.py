"""Trajectory-level Monte-Carlo simulation of channel, scheduler, and AoI.

The true channel evolves independently of the scheduler. In the no-sensing
case the scheduler tracks a belief that only feedback from its own
transmissions can reset; in the delayed-sensing case it sees the previous
slot's true state. A run is bit-reproducible from its seed: the channel noise
draws from one keyed stream of a counter-based generator, Philox4x64-10 keyed
by ``SeedSequence(seed, spawn_key=(0,))``, so the channel path is identical
across policies and cases at a matched seed. ``_philox`` computes that stream
in numpy integer arithmetic: the same doubles numpy's ``Generator.random``
returns, without importing ``numpy.random``. A two-policy
mixture is read as one coin flipped at the start: each component runs on the
same path and their averages are weighted by the mixing probability.

A run gets its whole channel path before the first decision. The path is
drawn in fixed-size, counter-aligned blocks of the channel stream (the same
doubles slot-by-slot draws would give), once per distinct (channel, seed,
horizon) in a process: the last path drawn is kept, and every run walks a
fresh copy of it. A loop on plain integers walks that copy and marks in it
the slots that transmit, one walk per case; the AoI samples and the energy
are read off the marked path afterwards.

Decisions are cached. Without sensing the scheduler starts from the
channel's stationary belief, ``channel.stationary_good_probability``, and
observes nothing between its transmissions, so the slot of its next
transmission follows from the last reset alone: the AoI and the belief's
origin (start of run, last delivery or last failed transmission). The
loop caches that offset per reset and runs once per transmission. With
delayed sensing it runs once per slot and caches each decision on the AoI
and the last channel state. ``policy.action`` is called only the first
time a state occurs, so it must be a pure function of (delta, k,
observation): the belief value without sensing, the last channel state
with delayed sensing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._philox import philox_key, uniforms
from .channel import ChannelModel, stationary_good_probability
from .mdp import Case, FrameSpec
from .solver import MixturePolicy, PolicyUndefinedError

__all__ = [
    "SimConfig",
    "SimResult",
    "estimate_mixture",
    "simulate",
    "simulate_greedy",
]

# Channel draws per block of the pre-drawn path, a multiple of the four
# doubles of a Philox block; a block's temporaries stay small whatever the
# horizon.
_BLOCK = 8192
# Most keys one run caches: resets without sensing, states with delayed
# sensing. Keys grow with the horizon when a policy lets the AoI run away;
# past the limit the loop calls ``policy.action`` at every slot it walks.
_CACHE_LIMIT = 1 << 12
# Belief origins: after a failed transmission, after a delivery, run start.
_BAD, _GOOD, _INITIAL = 0, 1, 2


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    seed: int
    warmup: int = 1000

    def __post_init__(self):
        for name in ("horizon", "seed", "warmup"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one slot")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("warmup must be shorter than the horizon")


@dataclass
class SimResult:
    """Post-warmup averages of one run, and the batch-means standard error
    of its AoI average."""

    avg_aoi: float
    avg_energy: float
    aoi_se: float


def _batch_se(samples: np.ndarray, n_batches: int = 50) -> float:
    if len(samples) < 2 * n_batches:
        n_batches = max(2, len(samples) // 2)
    if len(samples) < 2:
        return 0.0
    size = len(samples) // n_batches
    means = samples[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def _channel_path(ch: ChannelModel, seed: int, horizon: int) -> bytearray:
    """Channel states h_0..h_horizon of one run, one byte each, in a fresh
    copy that the caller may mark.

    h_0 is drawn from the stationary law and h_t = [U_t < p11 if h_{t-1}
    else p01], with U_0, U_1, ... the doubles of Philox4x64-10 keyed by
    ``SeedSequence(seed, spawn_key=(0,))`` (numpy's ``Generator.random``
    stream, computed by ``_philox``), so the path depends on nothing else.
    Since p01 <= p11, h_t is 1 where U_t < p01, 0 where U_t >= p11 and
    h_{t-1} in between, so each block is one forward fill that carries the
    last state of the block before. The path is drawn once per distinct
    (p11, p01, seed, horizon) in a row of calls: ``_draw_path`` keeps the
    last one.
    """
    return bytearray(_draw_path(ch, seed, horizon))


@lru_cache(maxsize=1)
def _draw_path(ch: ChannelModel, seed: int, horizon: int) -> bytes:
    key = philox_key(seed, (0,))
    states = np.empty(horizon + 1, dtype=np.uint8)
    for start in range(0, horizon + 1, _BLOCK):
        draws = uniforms(key, start, min(_BLOCK, horizon + 1 - start))
        if start == 0:
            states[0] = draws[0] < stationary_good_probability(ch)
            start, draws = 1, draws[1:]
        good = draws < ch.p01
        # index into states[start - 1:]: 0 carries the previous state
        source = np.where(good | (draws >= ch.p11), np.arange(1, len(draws) + 1), 0)
        np.maximum.accumulate(source, out=source)
        known = np.empty(len(draws) + 1, dtype=np.uint8)
        known[0] = states[start - 1]
        known[1:] = good
        states[start:start + len(draws)] = known[source]
    return states.tobytes()


def _no_sensing_slots(frame, ch, policy, path) -> None:
    """The no-sensing walk, from one transmission to the next.

    Between its transmissions the scheduler observes nothing, so after a
    reset to AoI d0 and a belief origin, the offset of its next transmission
    depends on that key alone. The first time a key occurs, the walk steps
    the belief slot by slot from the origin, calling ``policy.action`` at
    each slot, until the policy transmits or the run ends; the offset found
    is cached, and the walk jumps to it.
    """
    K = frame.K
    horizon = len(path) - 1
    p11, p01 = ch.p11, ch.p01
    origin_value = (p01, p11, stationary_good_probability(ch))
    cache: dict = {}
    get = cache.get
    # the last reset: AoI d0 at slot t0 and the belief origin
    d0, t0, origin = K, 1, _INITIAL
    while True:
        key = 3 * d0 + origin
        off = get(key)
        if off is None:
            off, w = 0, origin_value[origin]
            while True:
                t = t0 + off
                if t > horizon:
                    return
                u = policy.action(d0 + off, (t - 1) % K + 1, w)
                if u not in (0, 1):
                    raise PolicyUndefinedError(f"policy returned {u!r} at slot {t}")
                if u:
                    break
                w = w * p11 + (1.0 - w) * p01
                off += 1
            if len(cache) < _CACHE_LIMIT:
                cache[key] = off
        t = t0 + off
        if t > horizon:
            return
        h = path[t]
        path[t] = h | 2
        if h:
            d0, origin = (t - 1) % K + 1, _GOOD
        else:
            d0, origin = d0 + off + 1, _BAD
        t0 = t + 1


def _delayed_slots(frame, policy, path) -> None:
    """The delayed-sensing walk, one slot at a time; each decision is cached
    on (AoI, last channel state)."""
    K = frame.K
    cache: dict = {}
    get = cache.get
    delta = K
    # path[:-1] is a copy: the walk marks path as it goes
    for t, g in enumerate(path[:-1], 1):
        key = 2 * delta + g
        u = get(key)
        if u is None:
            u = policy.action(delta, (t - 1) % K + 1, g)
            if u not in (0, 1):
                raise PolicyUndefinedError(f"policy returned {u!r} at slot {t}")
            if len(cache) < _CACHE_LIMIT:
                cache[key] = u
        if u:
            h = path[t]
            path[t] = h | 2
            delta = (t - 1) % K + 1 if h else delta + 1
        else:
            delta += 1


def _greedy_slots(frame, e_max, path) -> None:
    """Walk the slots under the greedy baseline and mark each transmitting
    slot t by setting bit 1 of ``path[t]``.

    The running average counts from the first slot and is 0.0 there (the
    spend before slot 1 is 0, so ``spent / 1`` gives it).
    """
    K = frame.K
    spent, delta = 0, K
    for t in range(1, len(path)):
        if delta >= K and spent / (t - 1 or 1) < e_max:
            spent += 1
            h = path[t]
            path[t] = h | 2
            delta = (t - 1) % K + 1 if h else delta + 1
        else:
            delta += 1


def _aoi_path(states: np.ndarray, K: int) -> np.ndarray:
    """AoI at slots 1..horizon of a walked path (delivery where a state is 3).

    The AoI in slot t is t minus the slot at which the freshest delivered
    update was generated: the first slot of the frame of its delivery, or
    1 - K before the first delivery. That slot is a forward fill, done in
    blocks.
    """
    horizon = len(states) - 1
    dtype = np.int32 if horizon + K < 2**31 else np.int64
    aoi = np.empty(horizon, dtype=dtype)
    generated = 1 - K
    for start in range(0, horizon, _BLOCK):
        stop = min(start + _BLOCK, horizon)
        # deliveries in slots start..stop-1 set the AoI of slots start+1..stop
        slots = np.arange(start, stop, dtype=dtype)
        fresh = np.where(states[start:stop] == 3, slots - (slots - 1) % K, generated)
        np.maximum.accumulate(fresh, out=fresh)
        slots += 1
        np.subtract(slots, fresh, out=aoi[start:stop])
        generated = int(fresh[-1])
    return aoi


def _result(path, warmup: int, K: int) -> SimResult:
    """Averages of a walked path past the warmup: bit 0 of ``path[t]`` is
    the channel state in slot t, bit 1 the action."""
    states = np.frombuffer(path, dtype=np.uint8)
    energy = int(np.count_nonzero(states[warmup + 1:] >= 2))
    samples = _aoi_path(states, K)[warmup:]
    # Integer samples give the float64 means of per-slot float samples
    # exactly while every partial sum stays below 2**53; past that, the
    # sums must round as float sums do.
    if len(samples) * int(samples.max()) >= 2**53:
        samples = samples.astype(np.float64)
    return SimResult(
        avg_aoi=float(samples.mean()),
        avg_energy=energy / len(samples),
        aoi_se=_batch_se(samples),
    )


def simulate(
    case: Case,
    frame: FrameSpec,
    ch: ChannelModel,
    policy,
    cfg: SimConfig,
) -> SimResult:
    """Run one policy for the configured horizon and average past the warmup.

    No-sensing policies consume (delta, k, belief) with the belief maintained
    from the scheduler's own feedback; delayed-sensing policies consume
    (delta, k, last-slot channel state). Each walk marks the transmitting
    slots in the channel path. Decisions are cached per state, so
    ``policy.action`` must be a pure function of its arguments.
    """
    if case is Case.NO_SENSING:
        path = _channel_path(ch, cfg.seed, cfg.horizon)
        _no_sensing_slots(frame, ch, policy, path)
    elif case is Case.DELAYED_SENSING:
        path = _channel_path(ch, cfg.seed, cfg.horizon)
        _delayed_slots(frame, policy, path)
    else:
        raise ValueError(f"unknown case {case!r}")
    return _result(path, cfg.warmup, frame.K)


def simulate_greedy(
    case: Case,
    frame: FrameSpec,
    ch: ChannelModel,
    e_max: float,
    cfg: SimConfig,
) -> SimResult:
    """Run the budget-tracking greedy baseline: transmit whenever the running
    average energy is under the budget e_max in (0, 1] and the frame's update
    is still undelivered, oblivious of the channel state.

    The running average counts from the first slot (warmup included) and is
    defined as zero at t=1, so the first slot transmits whenever its frame's
    update is undelivered.
    """
    if case is not Case.NO_SENSING and case is not Case.DELAYED_SENSING:
        raise ValueError(f"unknown case {case!r}")
    if not 0.0 < e_max <= 1.0:
        raise ValueError(f"energy budget must lie in (0, 1], got {e_max}")
    path = _channel_path(ch, cfg.seed, cfg.horizon)
    _greedy_slots(frame, e_max, path)
    return _result(path, cfg.warmup, frame.K)


def estimate_mixture(
    case: Case,
    frame: FrameSpec,
    ch: ChannelModel,
    mixture: MixturePolicy,
    cfg: SimConfig,
) -> SimResult:
    """Empirical averages of a two-policy mixture, read as one coin flipped
    at the start.

    Simulates each component on the same channel path and combines the
    averages with the mixing weight.
    """
    q = mixture.q
    if q == 1.0:
        return simulate(case, frame, ch, mixture.pi_minus, cfg)
    if q == 0.0:
        return simulate(case, frame, ch, mixture.pi_plus, cfg)

    r_minus = simulate(case, frame, ch, mixture.pi_minus, cfg)
    r_plus = simulate(case, frame, ch, mixture.pi_plus, cfg)
    return SimResult(
        avg_aoi=q * r_minus.avg_aoi + (1.0 - q) * r_plus.avg_aoi,
        avg_energy=q * r_minus.avg_energy + (1.0 - q) * r_plus.avg_energy,
        aoi_se=q * r_minus.aoi_se + (1.0 - q) * r_plus.aoi_se,
    )
