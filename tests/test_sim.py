from collections import Counter

import numpy as np
import pytest

from aoisched import sim
from aoisched.channel import ChannelModel, one_step_update, stationary_good_probability
from aoisched.mdp import Case, FrameSpec, TruncationBound, build_case
from aoisched.sim import (
    CHANNEL_STREAM,
    SimConfig,
    SimResult,
    estimate_mixture,
    make_stream,
    simulate,
    simulate_greedy,
    stationary_belief_value,
)
from aoisched.solver import (
    MixturePolicy,
    PolicyUndefinedError,
    bisect_lambda,
    rvi_plain,
)


class FrameStartPolicy:
    """Transmit at the first slot of every frame, never elsewhere."""

    def __init__(self, frame_k):
        self.frame_k = frame_k

    def action(self, delta, k, omega):
        return 1 if (k == 1 and delta >= self.frame_k) else 0


class NeverTransmit:
    def action(self, delta, k, obs):
        return 0


class BrokenPolicy:
    def action(self, delta, k, obs):
        return 2


class HashPolicy:
    """Transmits on an arbitrary but pure function of the exact arguments.

    The hash of a float depends on every bit, so a belief off by one ulp
    gives another hash and often another decision.
    """

    def __init__(self, frame_k, salt):
        self.frame_k, self.salt = frame_k, salt

    def action(self, delta, k, obs):
        return int(delta >= self.frame_k and hash((delta, k, obs, self.salt)) % 3 != 0)


class RecordingPolicy:
    """Records the arguments of every call of a wrapped policy, in order."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def action(self, delta, k, obs):
        self.seen.append((delta, k, obs))
        return self.inner.action(delta, k, obs)


class CountingPolicy:
    """Counts the calls of a wrapped policy per argument tuple."""

    def __init__(self, inner):
        self.inner, self.calls = inner, Counter()

    def action(self, delta, k, obs):
        self.calls[(delta, k, obs)] += 1
        return self.inner.action(delta, k, obs)


# ---------------------------------------------------------------------------
# the slot-by-slot simulator the integer loop replaced, kept as its oracle


def _oracle_batch_se(samples, n_batches=50):
    if len(samples) < 2 * n_batches:
        n_batches = max(2, len(samples) // 2)
    if len(samples) < 2:
        return 0.0
    size = len(samples) // n_batches
    means = samples[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def _oracle_run(case, frame, ch, decide, cfg, record_trace, policy_name, meta_extra=None):
    """Common slot loop. ``decide(t, delta, k, omega, g)`` picks the action."""
    rng = make_stream(cfg.seed, CHANNEL_STREAM)
    pi_star = stationary_good_probability(ch)
    h_prev = 1 if rng.random() < pi_star else 0

    delta, k = frame.K, 1
    omega = stationary_belief_value(ch)
    hist: Counter = Counter()
    aoi_samples = np.empty(cfg.horizon - cfg.warmup)
    energy = 0
    delivered = 0
    trace = [] if record_trace else None

    for t in range(1, cfg.horizon + 1):
        u = decide(t, delta, k, omega, h_prev)
        if u not in (0, 1):
            raise PolicyUndefinedError(f"policy returned {u!r} at slot {t}")
        p_good = ch.p11 if h_prev == 1 else ch.p01
        h = 1 if rng.random() < p_good else 0
        theta = 1 if (u == 1 and h == 1) else 0

        if t > cfg.warmup:
            aoi_samples[t - cfg.warmup - 1] = delta
            hist[delta] += 1
            energy += u
            delivered += theta
        if record_trace:
            trace.append((t, delta, k, u, theta, h))

        delta = k if theta == 1 else delta + 1
        omega = ch.p11 if theta == 1 else (ch.p01 if u == 1 else one_step_update(ch, omega))
        k = frame.next_slot(k)
        h_prev = h

    n = cfg.horizon - cfg.warmup
    meta = sim._metadata(case, frame, ch, cfg, policy_name, **(meta_extra or {}))
    return SimResult(
        avg_aoi=float(aoi_samples.mean()),
        avg_energy=energy / n,
        aoi_histogram=dict(hist),
        delivered_count=delivered,
        aoi_se=_oracle_batch_se(aoi_samples),
        metadata=meta,
        trace=trace,
    )


def oracle_simulate(case, frame, ch, policy, cfg, record_trace=False):
    if case is Case.NO_SENSING:
        decide = lambda t, delta, k, omega, g: policy.action(delta, k, omega)
    else:
        decide = lambda t, delta, k, omega, g: policy.action(delta, k, g)
    return _oracle_run(case, frame, ch, decide, cfg, record_trace, type(policy).__name__)


def oracle_greedy(case, frame, ch, e_max, cfg, record_trace=False):
    spent = 0

    def decide(t, delta, k, omega, g):
        nonlocal spent
        e_bar = 0.0 if t == 1 else spent / (t - 1)
        u = 1 if (e_bar < e_max and delta >= frame.K) else 0
        spent += u
        return u

    return _oracle_run(
        case, frame, ch, decide, cfg, record_trace, "GreedyPolicy", {"e_max": e_max}
    )


def oracle_mixture(case, frame, ch, mixture, cfg):
    """The start-of-run coin: both components on the same path, weighted."""
    q = mixture.q
    lo = oracle_simulate(case, frame, ch, mixture.pi_minus, cfg)
    hi = oracle_simulate(case, frame, ch, mixture.pi_plus, cfg)

    def weigh(a, b):
        return q * a + (1.0 - q) * b

    hist = {
        v: weigh(lo.aoi_histogram.get(v, 0), hi.aoi_histogram.get(v, 0))
        for v in lo.aoi_histogram.keys() | hi.aoi_histogram.keys()
    }
    meta = sim._metadata(
        case, frame, ch, cfg, "MixturePolicy", q=q, mode="initial_randomization",
        components=[lo.metadata["policy"], hi.metadata["policy"]],
    )
    return SimResult(
        avg_aoi=weigh(lo.avg_aoi, hi.avg_aoi),
        avg_energy=weigh(lo.avg_energy, hi.avg_energy),
        aoi_histogram=hist,
        delivered_count=weigh(lo.delivered_count, hi.delivered_count),
        aoi_se=weigh(lo.aoi_se, hi.aoi_se),
        metadata=meta,
    )


def assert_same_result(got, want):
    assert vars(got) == vars(want)
    assert {k: type(v) for k, v in vars(got).items()} == {k: type(v) for k, v in vars(want).items()}
    assert {type(v) for v in got.aoi_histogram} == {int}
    if got.trace is not None:
        assert {type(v) for row in got.trace for v in row} == {int}


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon=100, seed=1, warmup=100)

    @pytest.mark.parametrize("kwargs, field", [
        ({"horizon": 100.0, "seed": 1, "warmup": 0}, "horizon"),
        ({"horizon": True, "seed": 1, "warmup": 0}, "horizon"),
        ({"horizon": "100", "seed": 1, "warmup": 0}, "horizon"),
        ({"horizon": 100, "seed": 1, "warmup": 0.0}, "warmup"),
        ({"horizon": 100, "seed": 1, "warmup": False}, "warmup"),
        ({"horizon": 100, "seed": -1, "warmup": 0}, "seed"),
        ({"horizon": 100, "seed": 1.5, "warmup": 0}, "seed"),
        ({"horizon": 100, "seed": 1.0, "warmup": 0}, "seed"),
        ({"horizon": 100, "seed": None, "warmup": 0}, "seed"),
    ])
    def test_rejects_non_integers_and_negative_seed(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SimConfig(**kwargs)


class TestDeterminism:
    def test_equal_seeds_reproduce_bit_for_bit(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=5000, seed=42, warmup=100)
        policy = FrameStartPolicy(3)
        a = simulate(Case.NO_SENSING, frame, ch, policy, cfg)
        b = simulate(Case.NO_SENSING, frame, ch, policy, cfg)
        assert a.avg_aoi == b.avg_aoi
        assert a.avg_energy == b.avg_energy
        assert a.aoi_histogram == b.aoi_histogram
        assert a.delivered_count == b.delivered_count

    def test_different_seeds_differ(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        policy = FrameStartPolicy(3)
        a = simulate(Case.NO_SENSING, frame, ch, policy, SimConfig(5000, 1, 100))
        b = simulate(Case.NO_SENSING, frame, ch, policy, SimConfig(5000, 2, 100))
        assert a.aoi_histogram != b.aoi_histogram

    def test_channel_path_shared_across_cases(self):
        # matched seeds must expose both cases to the same channel draws
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=2000, seed=9, warmup=0)
        a = simulate(Case.NO_SENSING, frame, ch, NeverTransmit(), cfg, record_trace=True)
        b = simulate(Case.DELAYED_SENSING, frame, ch, NeverTransmit(), cfg, record_trace=True)
        assert [t[5] for t in a.trace] == [t[5] for t in b.trace]


class TestDeterministicSawtooth:
    def test_always_good_channel_frame_start_policy(self):
        # delivery at every frame start: ages cycle 1..K, one transmission per frame
        frame, ch = FrameSpec(4), ChannelModel(1.0, 1.0)
        cfg = SimConfig(horizon=8004, seed=3, warmup=4)
        res = simulate(Case.NO_SENSING, frame, ch, FrameStartPolicy(4), cfg)
        assert res.avg_aoi == pytest.approx(2.5, abs=1e-12)
        assert res.avg_energy == pytest.approx(0.25, abs=1e-12)
        assert res.delivered_count == 2000
        assert res.aoi_histogram == {1: 2000, 2: 2000, 3: 2000, 4: 2000}

    def test_greedy_unconstrained_matches_whenever_admissible(self):
        frame, ch = FrameSpec(4), ChannelModel(1.0, 1.0)
        cfg = SimConfig(horizon=8004, seed=3, warmup=4)
        res = simulate_greedy(Case.NO_SENSING, frame, ch, 1.0, cfg)
        # with a perfect channel the update lands at the frame start and the
        # rest of the frame is forced idle
        assert res.avg_aoi == pytest.approx(2.5, abs=1e-12)
        assert res.avg_energy == pytest.approx(0.25, abs=1e-12)


class TestNeverTransmit:
    def test_energy_zero_and_aoi_grows(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=10_000, seed=5, warmup=0)
        res = simulate(Case.NO_SENSING, frame, ch, NeverTransmit(), cfg)
        assert res.avg_energy == 0.0
        assert res.delivered_count == 0
        # AoI ramps linearly from K, so the average is near half the horizon
        assert res.avg_aoi == pytest.approx(cfg.horizon / 2 + 3, abs=2)


class TestSamplePathValidity:
    def test_aoi_increments_and_resets_match_acks(self):
        frame, ch = FrameSpec(3), ChannelModel(0.8, 0.4)
        space, kern = build_case(Case.NO_SENSING, frame, ch, TruncationBound(40))
        policy = rvi_plain(space, kern, 1.0, eps=1e-7).policy.as_threshold()
        cfg = SimConfig(horizon=20_000, seed=17, warmup=0)
        res = simulate(Case.NO_SENSING, frame, ch, policy, cfg, record_trace=True)
        resets = 0
        for prev, cur in zip(res.trace, res.trace[1:]):
            _t, delta, k, u, theta, _h = prev
            delta_next = cur[1]
            if theta == 1:
                assert delta_next == k
                resets += 1
            else:
                assert delta_next == delta + 1
        acks = sum(t[4] for t in res.trace[:-1])
        assert resets == acks

    def test_histogram_mass_is_post_warmup_slots(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=5000, seed=11, warmup=500)
        res = simulate(Case.NO_SENSING, frame, ch, FrameStartPolicy(3), cfg)
        assert sum(res.aoi_histogram.values()) == 4500

    def test_channel_transition_frequencies(self):
        frame, ch = FrameSpec(2), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=100_000, seed=23, warmup=0)
        res = simulate(Case.NO_SENSING, frame, ch, NeverTransmit(), cfg, record_trace=True)
        states = [t[5] for t in res.trace]
        trans = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
        for a, b in zip(states, states[1:]):
            trans[(a, b)] += 1
        n1 = trans[(1, 1)] + trans[(1, 0)]
        n0 = trans[(0, 1)] + trans[(0, 0)]
        for (phat, p, n) in [(trans[(1, 1)] / n1, 0.7, n1), (trans[(0, 1)] / n0, 0.3, n0)]:
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(phat - p) <= 3 * sigma


class TestSlotDynamics:
    """What the policy is shown in each slot, against the recorded trace.
    With no decision cached, ``policy.action`` is called once per slot, in
    slot order. A trace row is (t, aoi, k, u, delivered, channel state)."""

    def run(self, monkeypatch, case):
        monkeypatch.setattr(sim, "_CACHE_LIMIT", 0)
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        policy = RecordingPolicy(HashPolicy(3, 4))
        res = simulate(case, frame, ch, policy, SimConfig(3000, 29, 0), record_trace=True)
        assert len(policy.seen) == len(res.trace)
        return ch, policy.seen, res.trace

    def next_slots(self, monkeypatch, case, keep):
        """(this slot's trace row, next slot's shown arguments and trace row)
        for the slots ``keep`` selects; at least one slot is kept."""
        ch, seen, trace = self.run(monkeypatch, case)
        pairs = [
            (row, shown, nxt)
            for row, shown, nxt in zip(trace, seen[1:], trace[1:])
            if keep(row)
        ]
        assert pairs
        return ch, pairs

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_policy_sees_the_traced_aoi_and_slot(self, monkeypatch, case):
        _ch, seen, trace = self.run(monkeypatch, case)
        assert [(delta, k) for delta, k, _obs in seen] == [row[1:3] for row in trace]

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_delivery_iff_transmission_in_good_state(self, monkeypatch, case):
        _ch, _seen, trace = self.run(monkeypatch, case)
        assert all(delivered == (u & h) for _t, _d, _k, u, delivered, h in trace)
        assert any(row[4] for row in trace) and any(row[3] and not row[4] for row in trace)

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_delivery_resets_to_slot_index(self, monkeypatch, case):
        _ch, pairs = self.next_slots(monkeypatch, case, lambda row: row[4])
        assert all(nxt[1] == row[2] for row, _shown, nxt in pairs)

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_failure_grows(self, monkeypatch, case):
        _ch, pairs = self.next_slots(monkeypatch, case, lambda row: row[3] and not row[4])
        assert all(nxt[1] == row[1] + 1 for row, _shown, nxt in pairs)

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_suspension_grows(self, monkeypatch, case):
        _ch, pairs = self.next_slots(monkeypatch, case, lambda row: not row[3])
        assert all(nxt[1] == row[1] + 1 for row, _shown, nxt in pairs)

    def test_ack_resets_belief_to_p11(self, monkeypatch):
        ch, pairs = self.next_slots(monkeypatch, Case.NO_SENSING, lambda row: row[4])
        assert {shown[2] for _row, shown, _nxt in pairs} == {ch.p11}

    def test_nack_resets_belief_to_p01(self, monkeypatch):
        ch, pairs = self.next_slots(
            monkeypatch, Case.NO_SENSING, lambda row: row[3] and not row[4]
        )
        assert {shown[2] for _row, shown, _nxt in pairs} == {ch.p01}

    def test_suspension_applies_one_step(self, monkeypatch):
        ch, seen, trace = self.run(monkeypatch, Case.NO_SENSING)
        assert seen[0][2] == stationary_belief_value(ch)
        stepped = [
            (after[2], one_step_update(ch, before[2]))
            for before, after, row in zip(seen, seen[1:], trace)
            if not row[3]
        ]
        assert stepped
        assert all(got == want for got, want in stepped)

    def test_delayed_sensing_shows_the_last_channel_state(self, monkeypatch):
        _ch, pairs = self.next_slots(monkeypatch, Case.DELAYED_SENSING, lambda row: True)
        assert all(shown[2] == row[5] for row, shown, _nxt in pairs)


class TestGreedy:
    def test_budget_respected_up_to_one_slot(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=50_000, seed=29, warmup=0)
        for e_max in (0.1, 0.35, 0.6):
            res = simulate_greedy(Case.NO_SENSING, frame, ch, e_max, cfg)
            assert res.avg_energy <= e_max + 1.0 / cfg.horizon

    def test_rejects_bad_budget(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the channel path was drawn before the budget was checked")

        monkeypatch.setattr(sim, "_channel_path", refuse)
        frame, ch, cfg = FrameSpec(3), ChannelModel(0.7, 0.3), SimConfig(horizon=100, seed=1, warmup=0)
        for e_max in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="energy budget must lie in"):
                simulate_greedy(Case.NO_SENSING, frame, ch, e_max, cfg)

    def test_first_slot_transmits(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=10, seed=1, warmup=0)
        res = simulate_greedy(Case.NO_SENSING, frame, ch, 0.2, cfg, record_trace=True)
        assert res.trace[0][3] == 1  # initial AoI K >= K and running average 0


class TestMixtureEstimation:
    def make_mixture(self, q):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        space, kern = build_case(Case.NO_SENSING, frame, ch, TruncationBound(30))
        lo = rvi_plain(space, kern, 0.0, eps=1e-7).policy.as_threshold()
        hi = rvi_plain(space, kern, 6.0, eps=1e-7).policy.as_threshold()
        return frame, ch, MixturePolicy(lo, hi, q, 0.0, 6.0, 0.61, 0.2, 3.6, 6.5)

    def test_degenerate_weights_reduce_to_components(self):
        frame, ch, mix1 = self.make_mixture(1.0)
        cfg = SimConfig(horizon=3000, seed=31, warmup=100)
        alone = simulate(Case.NO_SENSING, frame, ch, mix1.pi_minus, cfg)
        combined = estimate_mixture(Case.NO_SENSING, frame, ch, mix1, cfg)
        assert combined.avg_aoi == alone.avg_aoi
        _frame, _ch, mix0 = self.make_mixture(0.0)
        alone_plus = simulate(Case.NO_SENSING, frame, ch, mix0.pi_plus, cfg)
        combined0 = estimate_mixture(Case.NO_SENSING, frame, ch, mix0, cfg)
        assert combined0.avg_aoi == alone_plus.avg_aoi

    def test_weighted_average_identity(self):
        frame, ch, mix = self.make_mixture(0.4)
        cfg = SimConfig(horizon=4000, seed=37, warmup=100)
        res = estimate_mixture(Case.NO_SENSING, frame, ch, mix, cfg)
        lo = simulate(Case.NO_SENSING, frame, ch, mix.pi_minus, cfg)
        hi = simulate(Case.NO_SENSING, frame, ch, mix.pi_plus, cfg)
        assert res.avg_energy == pytest.approx(0.4 * lo.avg_energy + 0.6 * hi.avg_energy, abs=1e-12)
        assert res.avg_aoi == pytest.approx(0.4 * lo.avg_aoi + 0.6 * hi.avg_aoi, abs=1e-12)

    def test_bisected_mixture_meets_budget_in_simulation(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        [mix] = bisect_lambda(
            Case.NO_SENSING, frame, ch, TruncationBound(60), (0.3,), eps=1e-7
        )
        cfg = SimConfig(horizon=100_000, seed=41, warmup=1000)
        res = estimate_mixture(Case.NO_SENSING, frame, ch, mix, cfg)
        # the budget binds here, so the simulated spend sits on it both ways
        assert mix.q < 1.0
        assert abs(res.avg_energy - 0.3) <= 0.01
        # sawtooth floor: even instant delivery every frame cannot beat it
        assert res.avg_aoi >= (frame.K + 1) / 2 - 0.01

class TestErrors:
    def test_broken_policy_signalled(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        with pytest.raises(PolicyUndefinedError):
            simulate(Case.NO_SENSING, frame, ch, BrokenPolicy(), SimConfig(10, 1, 0))

    def test_case_must_be_a_case_member(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        with pytest.raises(ValueError, match="unknown case"):
            simulate("no_sensing", frame, ch, NeverTransmit(), SimConfig(10, 1, 0))

    def test_greedy_case_must_be_a_case_member(self, monkeypatch):
        # rejected before the channel path is drawn
        monkeypatch.setattr(sim, "_channel_path", None)
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        with pytest.raises(ValueError, match="unknown case"):
            simulate_greedy("no_sensing", frame, ch, 0.5, SimConfig(10, 1, 0))


class TestAnalyticAgreement:
    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_simulation_matches_stationary_averages(self, case):
        from aoisched.solver import policy_averages

        frame, ch = FrameSpec(3), ChannelModel(0.8, 0.4)
        space, kern = build_case(case, frame, ch, TruncationBound(60))
        report = rvi_plain(space, kern, 1.2, eps=1e-8)
        aoi, energy = policy_averages(kern, report.policy)
        res = simulate(
            case, frame, ch, report.policy.as_threshold(),
            SimConfig(horizon=200_000, seed=53, warmup=2000),
        )
        assert res.avg_aoi == pytest.approx(aoi, abs=4 * res.aoi_se + 1e-6)
        assert res.avg_energy == pytest.approx(energy, abs=0.01)


class TestStreams:
    def test_streams_are_independent(self):
        a = make_stream(7, 0).random(4)
        b = make_stream(7, 1).random(4)
        assert not np.allclose(a, b)

    def test_stationary_belief_value(self):
        ch = ChannelModel(0.7, 0.3)
        assert stationary_belief_value(ch) == pytest.approx(
            stationary_good_probability(ch), abs=1e-11
        )

    def test_metadata_records_provenance(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=100, seed=77, warmup=10)
        res = simulate(Case.NO_SENSING, frame, ch, NeverTransmit(), cfg)
        meta = res.metadata
        assert meta["seed"] == 77
        assert meta["generator"] == "philox-4x64"
        assert meta["case"] == "no_sensing"
        assert meta["p11"] == 0.7 and meta["p01"] == 0.3


# ---------------------------------------------------------------------------
# the integer loop against the slot-by-slot oracle

IDENTITY_CHANNELS = [(0.7, 0.3), (0.9, 0.2), (0.6, 0.0), (1.0, 0.4), (0.999, 0.001),
                     (0.5, 0.5), (1.0, 1.0)]
# (K, horizon, warmup): the longer run spans two path blocks and ends mid-block
IDENTITY_RUNS = [(1, 2001, 0), (3, sim._BLOCK + 917, 613)]


@pytest.mark.parametrize("p11, p01", IDENTITY_CHANNELS)
@pytest.mark.parametrize("K, horizon, warmup", IDENTITY_RUNS)
class TestOracleIdentity:
    def test_policy_runs_and_traces(self, p11, p01, K, horizon, warmup):
        frame, ch = FrameSpec(K), ChannelModel(p11, p01)
        cfg = SimConfig(horizon, 11, warmup)
        for case in Case:
            policy = HashPolicy(K, 1)
            assert_same_result(
                simulate(case, frame, ch, policy, cfg, record_trace=True),
                oracle_simulate(case, frame, ch, policy, cfg, record_trace=True),
            )

    def test_greedy(self, p11, p01, K, horizon, warmup):
        frame, ch = FrameSpec(K), ChannelModel(p11, p01)
        cfg = SimConfig(horizon, 13, warmup)
        for e_max in (0.1, 0.5, 1.0):
            assert_same_result(
                simulate_greedy(Case.NO_SENSING, frame, ch, e_max, cfg, record_trace=True),
                oracle_greedy(Case.NO_SENSING, frame, ch, e_max, cfg, record_trace=True),
            )

    def test_start_coin_mixture(self, p11, p01, K, horizon, warmup):
        frame, ch = FrameSpec(K), ChannelModel(p11, p01)
        cfg = SimConfig(horizon, 17, warmup)
        mix = MixturePolicy(HashPolicy(K, 2), HashPolicy(K, 3), 0.3, 0, 0, 0, 0, 0, 0)
        for case in Case:
            assert_same_result(
                estimate_mixture(case, frame, ch, mix, cfg),
                oracle_mixture(case, frame, ch, mix, cfg),
            )

class TestOracleIdentitySolved:
    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_solved_threshold_policies(self, case):
        frame, ch = FrameSpec(3), ChannelModel(0.8, 0.4)
        space, kern = build_case(case, frame, ch, TruncationBound(30))
        cfg = SimConfig(30_000, 19, 1000)
        for lam in (0.5, 4.0):
            policy = rvi_plain(space, kern, lam, eps=1e-7).policy.as_threshold()
            assert_same_result(
                simulate(case, frame, ch, policy, cfg),
                oracle_simulate(case, frame, ch, policy, cfg),
            )

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_runs_past_the_cache_limit(self, case):
        # the AoI runs away, so most states are never cached
        frame, ch = FrameSpec(2), ChannelModel(0.7, 0.3)
        cfg = SimConfig(3 * sim._CACHE_LIMIT, 23, 100)
        assert_same_result(
            simulate(case, frame, ch, NeverTransmit(), cfg, record_trace=True),
            oracle_simulate(case, frame, ch, NeverTransmit(), cfg, record_trace=True),
        )


def scalar_path(ch, seed, horizon):
    rng = make_stream(seed, CHANNEL_STREAM)
    h = 1 if rng.random() < stationary_good_probability(ch) else 0
    path = [h]
    for _ in range(horizon):
        h = 1 if rng.random() < (ch.p11 if h else ch.p01) else 0
        path.append(h)
    return path


class TestChannelPath:
    @pytest.mark.parametrize("p11, p01", [(0.7, 0.0), (1.0, 0.4), (0.5, 0.5), (0.9, 0.2)])
    @pytest.mark.parametrize("horizon", [1, sim._BLOCK - 1, sim._BLOCK, sim._BLOCK + 1])
    def test_block_path_matches_scalar_recurrence(self, p11, p01, horizon):
        ch = ChannelModel(p11, p01)
        assert list(sim._channel_path(ch, 29, horizon)) == scalar_path(ch, 29, horizon)


def visited_keys(case, trace, h0):
    """The states a run's decisions depend on, read off its trace: (AoI,
    belief origin, steps since the last transmission) without sensing and
    (AoI, last channel state) with delayed sensing."""
    keys = set()
    origin, steps, g = "initial", 0, h0
    for _t, delta, _k, u, theta, h in trace:
        keys.add((delta, origin, steps) if case is Case.NO_SENSING else (delta, g))
        if u:
            origin, steps = ("good" if theta else "bad"), 0
        else:
            steps += 1
        g = h
    return keys


class TestDecisionCache:
    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_action_called_once_per_state(self, case):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(20_000, 31, 0)
        h0 = scalar_path(ch, cfg.seed, 0)[0]
        policy = CountingPolicy(HashPolicy(3, 4))
        trace = simulate(case, frame, ch, policy, cfg, record_trace=True).trace
        keys = visited_keys(case, trace, h0)
        assert len(keys) < sim._CACHE_LIMIT
        assert sum(policy.calls.values()) == len(keys)

    def test_cache_does_not_grow_with_the_horizon(self):
        import tracemalloc

        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)

        def loop_peak(horizon):
            # every slot of a never-transmitting run is a new state
            path = sim._channel_path(ch, 43, horizon)
            tracemalloc.start()
            try:
                sim._policy_slots(Case.NO_SENSING, frame, ch, NeverTransmit(), path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loop_peak(10)  # warm up
        assert loop_peak(8 * sim._CACHE_LIMIT) < 2 * loop_peak(2 * sim._CACHE_LIMIT)

    @pytest.mark.parametrize("policy_kind", ["never", "threshold"])
    def test_peak_memory_not_above_oracle(self, policy_kind):
        import tracemalloc

        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        if policy_kind == "never":
            policy = NeverTransmit()
        else:
            space, kern = build_case(Case.NO_SENSING, frame, ch, TruncationBound(100))
            policy = rvi_plain(space, kern, 1.0, eps=1e-7).policy.as_threshold()
        cfg = SimConfig(100_000, 41, 0)

        def peak(run):
            run(Case.NO_SENSING, frame, ch, policy, SimConfig(100, 41, 0))  # warm up
            tracemalloc.start()
            try:
                run(Case.NO_SENSING, frame, ch, policy, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(simulate) <= peak(oracle_simulate)
