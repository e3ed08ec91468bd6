import hashlib
from collections import Counter

import numpy as np
import pytest

from aoisched import _philox, sim
from aoisched.channel import ChannelModel, one_step_update, stationary_good_probability
from aoisched.mdp import Case, FrameSpec, TruncationBound, build_case
from aoisched.sim import (
    SimConfig,
    SimResult,
    estimate_mixture,
    simulate,
    simulate_greedy,
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


def channel_stream(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))


def _oracle_run(frame, ch, decide, cfg, rows):
    """Common slot loop. ``decide(t, delta, k, omega, g)`` picks the action.
    Each slot's row (t, aoi, k, u, delivered, channel state) is appended to
    ``rows`` unless it is None."""
    rng = channel_stream(cfg.seed)
    pi_star = stationary_good_probability(ch)
    h_prev = 1 if rng.random() < pi_star else 0

    delta, k = frame.K, 1
    omega = pi_star
    aoi_samples = np.empty(cfg.horizon - cfg.warmup)
    energy = 0

    for t in range(1, cfg.horizon + 1):
        u = decide(t, delta, k, omega, h_prev)
        if u not in (0, 1):
            raise PolicyUndefinedError(f"policy returned {u!r} at slot {t}")
        p_good = ch.p11 if h_prev == 1 else ch.p01
        h = 1 if rng.random() < p_good else 0
        theta = 1 if (u == 1 and h == 1) else 0

        if t > cfg.warmup:
            aoi_samples[t - cfg.warmup - 1] = delta
            energy += u
        if rows is not None:
            rows.append((t, delta, k, u, theta, h))

        delta = k if theta == 1 else delta + 1
        omega = ch.p11 if theta == 1 else (ch.p01 if u == 1 else one_step_update(ch, omega))
        k = k % frame.K + 1
        h_prev = h

    return SimResult(
        avg_aoi=float(aoi_samples.mean()),
        avg_energy=energy / (cfg.horizon - cfg.warmup),
        aoi_se=_oracle_batch_se(aoi_samples),
    )


def oracle_simulate(case, frame, ch, policy, cfg, rows=None):
    if case is Case.NO_SENSING:
        decide = lambda t, delta, k, omega, g: policy.action(delta, k, omega)
    else:
        decide = lambda t, delta, k, omega, g: policy.action(delta, k, g)
    return _oracle_run(frame, ch, decide, cfg, rows)


def oracle_greedy(frame, ch, e_max, cfg, rows=None):
    spent = 0

    def decide(t, delta, k, omega, g):
        nonlocal spent
        e_bar = 0.0 if t == 1 else spent / (t - 1)
        u = 1 if (e_bar < e_max and delta >= frame.K) else 0
        spent += u
        return u

    return _oracle_run(frame, ch, decide, cfg, rows)


def oracle_mixture(case, frame, ch, mixture, cfg):
    """The start-of-run coin: both components on the same path, weighted."""
    q = mixture.q
    lo = oracle_simulate(case, frame, ch, mixture.pi_minus, cfg)
    hi = oracle_simulate(case, frame, ch, mixture.pi_plus, cfg)

    def weigh(a, b):
        return q * a + (1.0 - q) * b

    return SimResult(
        avg_aoi=weigh(lo.avg_aoi, hi.avg_aoi),
        avg_energy=weigh(lo.avg_energy, hi.avg_energy),
        aoi_se=weigh(lo.aoi_se, hi.aoi_se),
    )


def assert_same_result(got, want):
    assert vars(got) == vars(want)
    assert {k: type(v) for k, v in vars(got).items()} == {k: type(v) for k, v in vars(want).items()}


# ---------------------------------------------------------------------------
# the slot rows a run averages, rebuilt from the simulator's own steps


def walked_rows(path, K):
    """One row (t, aoi, k, u, delivered, channel state) per slot of a walked
    path: bit 0 of ``path[t]`` is the channel state in slot t, bit 1 the
    action."""
    states = np.frombuffer(path, dtype=np.uint8)
    walked = states[1:]
    return list(zip(
        range(1, len(states)), sim._aoi_path(states, K).tolist(),
        (np.arange(len(walked)) % K + 1).tolist(),
        (walked >> 1).tolist(), (walked == 3).astype(np.uint8).tolist(),
        (walked & 1).tolist(),
    ))


def policy_rows(case, frame, ch, policy, cfg):
    """The slot rows of ``simulate(case, frame, ch, policy, cfg)``."""
    path = sim._channel_path(ch, cfg.seed, cfg.horizon)
    if case is Case.NO_SENSING:
        sim._no_sensing_slots(frame, ch, policy, path)
    else:
        sim._delayed_slots(frame, policy, path)
    return walked_rows(path, frame.K)


def greedy_rows(frame, ch, e_max, cfg):
    """The slot rows of ``simulate_greedy(case, frame, ch, e_max, cfg)``."""
    path = sim._channel_path(ch, cfg.seed, cfg.horizon)
    sim._greedy_slots(frame, e_max, path)
    return walked_rows(path, frame.K)


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
        assert vars(a) == vars(b)

    def test_different_seeds_differ(self):
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        policy = FrameStartPolicy(3)
        a = simulate(Case.NO_SENSING, frame, ch, policy, SimConfig(5000, 1, 100))
        b = simulate(Case.NO_SENSING, frame, ch, policy, SimConfig(5000, 2, 100))
        assert a.avg_aoi != b.avg_aoi

    def test_channel_path_shared_across_cases(self):
        # matched seeds must expose both cases to the same channel draws
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=2000, seed=9, warmup=0)
        a = policy_rows(Case.NO_SENSING, frame, ch, NeverTransmit(), cfg)
        b = policy_rows(Case.DELAYED_SENSING, frame, ch, NeverTransmit(), cfg)
        assert [row[5] for row in a] == [row[5] for row in b]


class TestDeterministicSawtooth:
    def test_always_good_channel_frame_start_policy(self):
        # delivery at every frame start: ages cycle 1..K, one transmission per frame
        frame, ch = FrameSpec(4), ChannelModel(1.0, 1.0)
        cfg = SimConfig(horizon=8004, seed=3, warmup=4)
        res = simulate(Case.NO_SENSING, frame, ch, FrameStartPolicy(4), cfg)
        assert res.avg_aoi == pytest.approx(2.5, abs=1e-12)
        assert res.avg_energy == pytest.approx(0.25, abs=1e-12)
        rows = policy_rows(Case.NO_SENSING, frame, ch, FrameStartPolicy(4), cfg)[cfg.warmup:]
        assert [row[1] for row in rows] == [4, 1, 2, 3] * 2000
        assert sum(row[4] for row in rows) == 2000

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
        # AoI ramps linearly from K, so the average is near half the horizon
        assert res.avg_aoi == pytest.approx(cfg.horizon / 2 + 3, abs=2)


class TestSamplePathValidity:
    def test_aoi_increments_and_resets_match_acks(self):
        frame, ch = FrameSpec(3), ChannelModel(0.8, 0.4)
        space, kern = build_case(Case.NO_SENSING, frame, ch, TruncationBound(40))
        policy = rvi_plain(space, kern, 1.0, eps=1e-7).policy.as_threshold()
        cfg = SimConfig(horizon=20_000, seed=17, warmup=0)
        rows = policy_rows(Case.NO_SENSING, frame, ch, policy, cfg)
        resets = 0
        for prev, cur in zip(rows, rows[1:]):
            _t, delta, k, u, theta, _h = prev
            delta_next = cur[1]
            if theta == 1:
                assert delta_next == k
                resets += 1
            else:
                assert delta_next == delta + 1
        acks = sum(row[4] for row in rows[:-1])
        assert resets == acks

    def test_channel_transition_frequencies(self):
        frame, ch = FrameSpec(2), ChannelModel(0.7, 0.3)
        cfg = SimConfig(horizon=100_000, seed=23, warmup=0)
        states = [row[5] for row in policy_rows(Case.NO_SENSING, frame, ch, NeverTransmit(), cfg)]
        trans = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
        for a, b in zip(states, states[1:]):
            trans[(a, b)] += 1
        n1 = trans[(1, 1)] + trans[(1, 0)]
        n0 = trans[(0, 1)] + trans[(0, 0)]
        for (phat, p, n) in [(trans[(1, 1)] / n1, 0.7, n1), (trans[(0, 1)] / n0, 0.3, n0)]:
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(phat - p) <= 3 * sigma


class TestSlotDynamics:
    """What the policy is shown in each slot, against the walked path's slot
    rows. With no decision cached, ``policy.action`` is called once per slot,
    in slot order. A row is (t, aoi, k, u, delivered, channel state)."""

    def run(self, monkeypatch, case):
        monkeypatch.setattr(sim, "_CACHE_LIMIT", 0)
        frame, ch = FrameSpec(3), ChannelModel(0.7, 0.3)
        policy = RecordingPolicy(HashPolicy(3, 4))
        rows = policy_rows(case, frame, ch, policy, SimConfig(3000, 29, 0))
        assert len(policy.seen) == len(rows)
        return ch, policy.seen, rows

    def next_slots(self, monkeypatch, case, keep):
        """(this slot's row, next slot's shown arguments and row) for the
        slots ``keep`` selects; at least one slot is kept."""
        ch, seen, rows = self.run(monkeypatch, case)
        pairs = [
            (row, shown, nxt)
            for row, shown, nxt in zip(rows, seen[1:], rows[1:])
            if keep(row)
        ]
        assert pairs
        return ch, pairs

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_policy_sees_the_walked_aoi_and_slot(self, monkeypatch, case):
        _ch, seen, rows = self.run(monkeypatch, case)
        assert [(delta, k) for delta, k, _obs in seen] == [row[1:3] for row in rows]

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_delivery_iff_transmission_in_good_state(self, monkeypatch, case):
        _ch, _seen, rows = self.run(monkeypatch, case)
        assert all(delivered == (u & h) for _t, _d, _k, u, delivered, h in rows)
        assert any(row[4] for row in rows) and any(row[3] and not row[4] for row in rows)

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
        ch, seen, rows = self.run(monkeypatch, Case.NO_SENSING)
        assert seen[0][2] == stationary_good_probability(ch)
        stepped = [
            (after[2], one_step_update(ch, before[2]))
            for before, after, row in zip(seen, seen[1:], rows)
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
        assert greedy_rows(frame, ch, 0.2, cfg)[0][3] == 1  # initial AoI K >= K and running average 0


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


# ---------------------------------------------------------------------------
# the integer loop against the slot-by-slot oracle

IDENTITY_CHANNELS = [(0.7, 0.3), (0.9, 0.2), (0.6, 0.0), (1.0, 0.4), (0.999, 0.001),
                     (0.5, 0.5), (1.0, 1.0)]
# (K, horizon, warmup): the longer run spans two path blocks and ends mid-block
IDENTITY_RUNS = [(1, 2001, 0), (3, sim._BLOCK + 917, 613)]


@pytest.mark.parametrize("p11, p01", IDENTITY_CHANNELS)
@pytest.mark.parametrize("K, horizon, warmup", IDENTITY_RUNS)
class TestOracleIdentity:
    def test_policy_runs_and_slot_rows(self, p11, p01, K, horizon, warmup):
        frame, ch = FrameSpec(K), ChannelModel(p11, p01)
        cfg = SimConfig(horizon, 11, warmup)
        for case in Case:
            policy, rows = HashPolicy(K, 1), []
            assert_same_result(
                simulate(case, frame, ch, policy, cfg),
                oracle_simulate(case, frame, ch, policy, cfg, rows),
            )
            assert policy_rows(case, frame, ch, policy, cfg) == rows

    def test_greedy(self, p11, p01, K, horizon, warmup):
        frame, ch = FrameSpec(K), ChannelModel(p11, p01)
        cfg = SimConfig(horizon, 13, warmup)
        for e_max in (0.1, 0.5, 1.0):
            rows = []
            assert_same_result(
                simulate_greedy(Case.NO_SENSING, frame, ch, e_max, cfg),
                oracle_greedy(frame, ch, e_max, cfg, rows),
            )
            assert greedy_rows(frame, ch, e_max, cfg) == rows

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
        rows = []
        assert_same_result(
            simulate(case, frame, ch, NeverTransmit(), cfg),
            oracle_simulate(case, frame, ch, NeverTransmit(), cfg, rows),
        )
        assert policy_rows(case, frame, ch, NeverTransmit(), cfg) == rows

    @pytest.mark.parametrize("case", [Case.NO_SENSING, Case.DELAYED_SENSING])
    def test_failures_past_the_cache_limit(self, case, monkeypatch):
        # on a mostly bad channel each failure resets to a larger AoI, a new
        # key, so a cache of four keys is soon full and keys recur uncached
        monkeypatch.setattr(sim, "_CACHE_LIMIT", 4)
        frame, ch = FrameSpec(3), ChannelModel(0.35, 0.1)
        cfg = SimConfig(20_000, 37, 100)
        policy, rows = CountingPolicy(HashPolicy(3, 5)), []
        assert_same_result(
            simulate(case, frame, ch, policy, cfg),
            oracle_simulate(case, frame, ch, HashPolicy(3, 5), cfg, rows),
        )
        assert max(policy.calls.values()) > 1
        assert policy_rows(case, frame, ch, HashPolicy(3, 5), cfg) == rows


# repr((avg_aoi, avg_energy, aoi_se)) and the sha256 of the slot rows of the
# identity runs above, recorded before the rows left SimResult: HashPolicy
# (salt 1, seed 11) per case, greedy (seed 13) per budget, the q=0.3 mixture
# (seed 17, both components' rows) per case and the solved threshold
# policies per case and price. The oracle changed with the simulator, so
# these are what guard both against a shared mistake. The no-sensing
# HashPolicy and mixture entries were re-recorded when a run's start belief
# became the closed-form stationary probability: a hash policy reads every
# bit of the belief.
SIM_PINS = {
    ("hash", "no_sensing", 0.7, 0.3, 1): ("(3.8275862068965516, 0.8575712143928036, 0.264077485536626)",
        "55f2dd13800a4d754fa886c3e49ff7cfbd76df635840b7e376e7d14cc2ee8f90"),
    ("hash", "delayed_sensing", 0.7, 0.3, 1): ("(3.1294352823588207, 0.8035982008995503, 0.20057098341423943)",
        "b6f94dedc66fc45aaee255f825c301ede8a74bd70accd9153985ec92a90f06ac"),
    ("greedy", 0.1, 0.7, 0.3, 1): ("(14.39880059970015, 0.09995002498750624, 1.4799124370815224)",
        "a11448e6e6babd395dd5d8c532c92d140a34a1483942246f12ebcc67c522942d"),
    ("greedy", 0.5, 0.7, 0.3, 1): ("(3.7041479260369816, 0.49975012493753124, 0.17406380779379)",
        "434bda1bacbb306b63db4ff4eca824a2542759636175230fa1401a146bb416eb"),
    ("greedy", 1.0, 0.7, 0.3, 1): ("(2.549225387306347, 0.9995002498750625, 0.12427013449148035)",
        "196d9848375a7e02c41bf82ec17ff1ae9261e7a800cfd57106979a749629a041"),
    ("mixture", "no_sensing", 0.7, 0.3, 1): ("(3.4927036481759117, 0.708295852073963, 0.1929562908562762)",
        "e211f977088e5a2e8306c54e5954598ac2d26115b800b7570d5969eeae445edf"),
    ("mixture", "delayed_sensing", 0.7, 0.3, 1): ("(3.275512243878061, 0.8457271364317841, 0.1785192477589613)",
        "919b795eb6874cf36de76baa639339c1dd25074ac4af818a49be78c0753d9b56"),
    ("hash", "no_sensing", 0.9, 0.2, 1): ("(3.0209895052473765, 0.7991004497751124, 0.26753557840834125)",
        "39ac872bda336a759a800512f259d0d4fa4a05828ba530f20098540ac1006184"),
    ("hash", "delayed_sensing", 0.9, 0.2, 1): ("(2.9095452273863067, 0.8690654672663668, 0.25741875080363924)",
        "6cef9ed07751b843ee1545b56cb05e7d2fc1904270adb9d11cccec452280bed7"),
    ("greedy", 0.1, 0.9, 0.2, 1): ("(9.046476761619191, 0.09995002498750624, 0.7152557734325332)",
        "d6764587ea73841b1e54da0789d8b1c391481f2f9124c8d619dd99716d263a0d"),
    ("greedy", 0.5, 0.9, 0.2, 1): ("(3.0634682658670664, 0.49975012493753124, 0.19102581565039306)",
        "28e01453bd7f25951e7ca00d72bd455e34485bf4ffbcccc477339b4aabe2d977"),
    ("greedy", 1.0, 0.9, 0.2, 1): ("(2.4047976011994003, 0.9995002498750625, 0.17045899919969984)",
        "f0def8f0c2835a9626a2771e81f8655c53d36dee63ae278fe1b56ead1b34cdb5"),
    ("mixture", "no_sensing", 0.9, 0.2, 1): ("(2.81744127936032, 0.9708145927036482, 0.31563800636006756)",
        "eca123a1cc842632c26358294d800a025046e90650c85f01a97366f875bd1739"),
    ("mixture", "delayed_sensing", 0.9, 0.2, 1): ("(2.9889555222388804, 0.8872563718140929, 0.30981607917462944)",
        "9716c83282c59fcdc604bf2606293ce47a569026b001fed88ca472ae33794949"),
    ("hash", "no_sensing", 0.6, 0.0, 1): ("(1001.0, 0.6646676661669165, 82.4621125123532)",
        "45231f200941b99bb6ace1edc50a5d2554326c951bf479548f90124db70f0bb9"),
    ("hash", "delayed_sensing", 0.6, 0.0, 1): ("(1001.0, 0.6646676661669165, 82.4621125123532)",
        "45231f200941b99bb6ace1edc50a5d2554326c951bf479548f90124db70f0bb9"),
    ("greedy", 0.1, 0.6, 0.0, 1): ("(1001.0, 0.09995002498750624, 82.4621125123532)",
        "ca63a970b08f32bad03fbaabfd677479e2ceea85ed3936566177353a89c468a7"),
    ("greedy", 0.5, 0.6, 0.0, 1): ("(1001.0, 0.49975012493753124, 82.4621125123532)",
        "b46efe6dabcb24f0793e19e13b1938d5c7a0e356cca37ff11baf53c0c7ff23a0"),
    ("greedy", 1.0, 0.6, 0.0, 1): ("(1001.0, 0.9995002498750625, 82.4621125123532)",
        "c2bcc5cdb2545a88dc63edd1ffb4e2e3ac55dd0edc17fd9e48985dc049b5bd68"),
    ("mixture", "no_sensing", 0.6, 0.0, 1): ("(1001.0, 0.6842578710644677, 82.4621125123532)",
        "0421699af6f5adda0ed914224a4c149e0beccc655679d8389c180950120f98e5"),
    ("mixture", "delayed_sensing", 0.6, 0.0, 1): ("(1001.0, 0.6842578710644677, 82.4621125123532)",
        "0421699af6f5adda0ed914224a4c149e0beccc655679d8389c180950120f98e5"),
    ("hash", "no_sensing", 1.0, 0.4, 1): ("(1.0, 1.0, 0.0)",
        "f9767a60e2ab20a585abd461d7493a956fa6cb3a75f7fe875a16ab4f988ddfb9"),
    ("hash", "delayed_sensing", 1.0, 0.4, 1): ("(1.0, 1.0, 0.0)",
        "f9767a60e2ab20a585abd461d7493a956fa6cb3a75f7fe875a16ab4f988ddfb9"),
    ("greedy", 0.1, 1.0, 0.4, 1): ("(5.498250874562719, 0.09995002498750624, 0.003499999999999996)",
        "19db0dc9e47ee1802d0445d8d7748841396ee9b69c7ec8c83cb65fd3e3542ca8"),
    ("greedy", 0.5, 1.0, 0.4, 1): ("(1.5002498750624689, 0.49975012493753124, 0.0004999999999999982)",
        "c684e7df1f25e2d98fd1a05ba8f80ffe7a69d7f9fc8d844c510f79962d02331c"),
    ("greedy", 1.0, 1.0, 0.4, 1): ("(1.0004997501249375, 0.9995002498750625, 0.0004999999999999982)",
        "7381fc07791814cbabd2e4f3be9622131bb84aba1c4c7887df3ad8868322b53e"),
    ("mixture", "no_sensing", 1.0, 0.4, 1): ("(1.0, 1.0, 0.0)",
        "e75785cbec177805af25e37af18928f2abf499835dc406c8db93c7efba0683fc"),
    ("mixture", "delayed_sensing", 1.0, 0.4, 1): ("(1.0, 1.0, 0.0)",
        "e75785cbec177805af25e37af18928f2abf499835dc406c8db93c7efba0683fc"),
    ("hash", "no_sensing", 0.999, 0.001, 1): ("(500.2458770614693, 0.7811094452773614, 65.79205243118004)",
        "ad7de714efaf36e27d805a215d9e9ca633295bd02d5855c96af92679fd609713"),
    ("hash", "delayed_sensing", 0.999, 0.001, 1): ("(500.2458770614693, 0.7691154422788605, 65.79205243118004)",
        "c540af3da804afca31fa9bd9a17dfa0e4ab46e24459bd6f575dc3a97d2100c80"),
    ("greedy", 0.1, 0.999, 0.001, 1): ("(238.6616691654173, 0.09995002498750624, 43.30318962665263)",
        "c3ba6369fff25b27ee620b0bcd84e5c31bedccfb68960be5f6efe6bf4fc64a1e"),
    ("greedy", 0.5, 0.999, 0.001, 1): ("(235.63818090954524, 0.49975012493753124, 43.5083641928744)",
        "964e32a0fd5c9ce27f6f2052fce0a4a2ebc0681c43c4d62a674eaff71de060a0"),
    ("greedy", 1.0, 0.999, 0.001, 1): ("(234.89705147426287, 0.9995002498750625, 43.53706078522442)",
        "d6cccfa54bcd8c4585c882eaab24e37ba2bca7f1203ced6ed27c77a34a1f9bea"),
    ("mixture", "no_sensing", 0.999, 0.001, 1): ("(388.0355822088955, 0.6613193403298351, 44.60921557466771)",
        "ba6ede9c45c168885cab3d51032f3328ab4059f014d6bff2793683c850d2d79b"),
    ("mixture", "delayed_sensing", 0.999, 0.001, 1): ("(387.17486256871564, 0.7118940529735132, 44.60010117280033)",
        "300399bb0f9aa9167de3fafd460941b6bc73e5736ced6e69944e8124aa49f52b"),
    ("hash", "no_sensing", 0.5, 0.5, 1): ("(2.5742128935532236, 0.7811094452773614, 0.08146302529243508)",
        "a755aa469c4653fad5a3ea85d4b56c2d988cb5127764178af95920a90c13a7fb"),
    ("hash", "delayed_sensing", 0.5, 0.5, 1): ("(2.5742128935532236, 0.7806096951524237, 0.08146302529243508)",
        "7522f959045e0441e8ca452a513578a3a01a5d5a6f378d06b3b69815e0089335"),
    ("greedy", 0.1, 0.5, 0.5, 1): ("(12.954522738630684, 0.09995002498750624, 0.9551814684943913)",
        "609b3c0b77ecabef6f81ff0e31d0c051a943bbfab9feeadac6c27e6a82357dd0"),
    ("greedy", 0.5, 0.5, 0.5, 1): ("(3.3513243378310844, 0.49975012493753124, 0.10832267085152655)",
        "a1d09e0fa0922e06699590d9a05f8f40ce8360e7d54c68f0c00857f102662b4e"),
    ("greedy", 1.0, 0.5, 0.5, 1): ("(2.0399800099950025, 0.9995002498750625, 0.06232686222730967)",
        "43ee4c412a18c535114d2e35da7ac9359864dffe41f87b0c3fc93e8a9d0115c1"),
    ("mixture", "no_sensing", 0.5, 0.5, 1): ("(2.4362818590704647, 0.9411294352823587, 0.13119610591153713)",
        "5e3343592d01535710ec1eaa498144928f40c8859c744c9d58999d9c1b2e40b2"),
    ("mixture", "delayed_sensing", 0.5, 0.5, 1): ("(2.6955022488755622, 0.8784107946026986, 0.11821771616891019)",
        "ecc277f3d131b250a03ac51ad3ba17943668b566bb9ffbe43e586cd0717ccae8"),
    ("hash", "no_sensing", 1.0, 1.0, 1): ("(1.0, 1.0, 0.0)",
        "f9767a60e2ab20a585abd461d7493a956fa6cb3a75f7fe875a16ab4f988ddfb9"),
    ("hash", "delayed_sensing", 1.0, 1.0, 1): ("(1.0, 1.0, 0.0)",
        "f9767a60e2ab20a585abd461d7493a956fa6cb3a75f7fe875a16ab4f988ddfb9"),
    ("greedy", 0.1, 1.0, 1.0, 1): ("(5.498250874562719, 0.09995002498750624, 0.003499999999999996)",
        "19db0dc9e47ee1802d0445d8d7748841396ee9b69c7ec8c83cb65fd3e3542ca8"),
    ("greedy", 0.5, 1.0, 1.0, 1): ("(1.5002498750624689, 0.49975012493753124, 0.0004999999999999982)",
        "c684e7df1f25e2d98fd1a05ba8f80ffe7a69d7f9fc8d844c510f79962d02331c"),
    ("greedy", 1.0, 1.0, 1.0, 1): ("(1.0004997501249375, 0.9995002498750625, 0.0004999999999999982)",
        "7381fc07791814cbabd2e4f3be9622131bb84aba1c4c7887df3ad8868322b53e"),
    ("mixture", "no_sensing", 1.0, 1.0, 1): ("(1.0, 1.0, 0.0)",
        "e75785cbec177805af25e37af18928f2abf499835dc406c8db93c7efba0683fc"),
    ("mixture", "delayed_sensing", 1.0, 1.0, 1): ("(1.0, 1.0, 0.0)",
        "e75785cbec177805af25e37af18928f2abf499835dc406c8db93c7efba0683fc"),
    ("hash", "no_sensing", 0.7, 0.3, 3): ("(4.75388418079096, 0.4950564971751412, 0.09907810705568593)",
        "9830b208e72d279560624305047bc499018da7889a55428ecef20ac3b26ceefd"),
    ("hash", "delayed_sensing", 0.7, 0.3, 3): ("(3.987641242937853, 0.5202448210922788, 0.07206366882872464)",
        "3f38b3d17119ba78cada1cb392ecc64f04dc0622b04db0f3d7c706dcd9e7d5dc"),
    ("greedy", 0.1, 0.7, 0.3, 3): ("(15.532485875706215, 0.09992937853107345, 0.8393586076743078)",
        "f4ef7bd21fe8c9a4ed2c0c31074d6be38d3974b96d7224e4a55611e8005790ac"),
    ("greedy", 0.5, 0.7, 0.3, 3): ("(4.3375706214689265, 0.5, 0.10106215459768159)",
        "eb6b61751d6a51d68a465b3f6dc129f41f90c382e9da3f95d06d6d1737725e32"),
    ("greedy", 1.0, 0.7, 0.3, 3): ("(3.6317090395480225, 0.6131120527306968, 0.05706872201093128)",
        "778e74b870f5a081dd155f70a3cf2071b275672f2620e1a063ae9f6af21566d9"),
    ("mixture", "no_sensing", 0.7, 0.3, 3): ("(4.260628531073446, 0.5481756120527307, 0.0896316350758792)",
        "75a2c5b43eaf7667bdcdeeb65652256cc80669df8a51b2c15b9374c8503471d1"),
    ("mixture", "delayed_sensing", 0.7, 0.3, 3): ("(4.653283898305085, 0.4525659133709981, 0.09236561541038368)",
        "482390075be739a11692c36d5dd3dd468734f3e5afc20569e0d8e202ee54b3aa"),
    ("hash", "no_sensing", 0.9, 0.2, 3): ("(4.5607344632768365, 0.4917608286252354, 0.1479304905128997)",
        "3958bed74b71ef23eddcadc380f03eb8b85438ac8a259ff26589d972c87183ee"),
    ("hash", "delayed_sensing", 0.9, 0.2, 3): ("(3.8926553672316384, 0.4606873822975518, 0.1555612360853576)",
        "d5e83ccac866c433f1445e22c557481087c7c3e1d24e0ead3611fc80c4ead7a7"),
    ("greedy", 0.1, 0.9, 0.2, 3): ("(10.999293785310735, 0.09992937853107345, 0.35700209643631686)",
        "b270b9d9b2c00236b3daaaf385fc0487a85064231ddf3ee9272b6ad1a976020f"),
    ("greedy", 0.5, 0.9, 0.2, 3): ("(3.7528248587570623, 0.5018832391713748, 0.11307410187108853)",
        "136be704c42ead7b289d5f14a52503ef82d1807977f8d3f8eaa4a8438b1530fa"),
    ("greedy", 1.0, 0.9, 0.2, 3): ("(3.599223163841808, 0.5283662900188324, 0.10247664070768994)",
        "13decb76806cc02c5779c0d4e6f238b92c550db6b6fe046318d266a8ac7eb9bb"),
    ("mixture", "no_sensing", 0.9, 0.2, 3): ("(4.136370056497174, 0.407909604519774, 0.14520455628177795)",
        "c02b156a732a5060ae84392566abe453f52507b2d1f0119c7c772a51ca78f783"),
    ("mixture", "delayed_sensing", 0.9, 0.2, 3): ("(4.468043785310734, 0.41237052730696794, 0.12921784794569247)",
        "e3e37bd1a1848c299ffa0486278f342a23a7a4ec36d4cfb373752554040e9c27"),
    ("hash", "no_sensing", 0.6, 0.0, 3): ("(4863.5, 0.6681967984934086, 348.4024253646923)",
        "fa5e0222bf9b76e06e7b87302422a8fc3be63dee72235ef2f0ca6848c76a807c"),
    ("hash", "delayed_sensing", 0.6, 0.0, 3): ("(4863.5, 0.6681967984934086, 348.4024253646923)",
        "fa5e0222bf9b76e06e7b87302422a8fc3be63dee72235ef2f0ca6848c76a807c"),
    ("greedy", 0.1, 0.6, 0.0, 3): ("(4863.5, 0.09992937853107345, 348.4024253646923)",
        "bf629aefc7f04f13d24c61e95aac8a117f50676a6b2e42a254cc29caa9c5acbb"),
    ("greedy", 0.5, 0.6, 0.0, 3): ("(4863.5, 0.5, 348.4024253646923)",
        "b2c2bc046e354757c4267df0d10c31ba93902a4daf2beeb5f6d0d9489c1ce7fa"),
    ("greedy", 1.0, 0.6, 0.0, 3): ("(4863.5, 1.0, 348.4024253646923)",
        "7652f0e228d58e29fbca988db55938fcc455ff4f538d9b00bcbfee9e826da2a1"),
    ("mixture", "no_sensing", 0.6, 0.0, 3): ("(4863.5, 0.6646186440677966, 348.40242536469225)",
        "01512bc75272c2c9ebe85e96b3f9d47e1ec182ac3c08d63768c366f5d45cb88a"),
    ("mixture", "delayed_sensing", 0.6, 0.0, 3): ("(4863.5, 0.6646186440677966, 348.40242536469225)",
        "01512bc75272c2c9ebe85e96b3f9d47e1ec182ac3c08d63768c366f5d45cb88a"),
    ("hash", "no_sensing", 1.0, 0.4, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("hash", "delayed_sensing", 1.0, 0.4, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("greedy", 0.1, 1.0, 0.4, 3): ("(6.5, 0.09992937853107345, 0.005405323444366542)",
        "445e749df168663109d385d708c49497586f878b0193cc5bd982a9f872cd255d"),
    ("greedy", 0.5, 1.0, 0.4, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("greedy", 1.0, 1.0, 0.4, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("mixture", "no_sensing", 1.0, 0.4, 3): ("(2.5999999999999996, 0.3333333333333333, 0.0006865237702196718)",
        "5f7302d9a324cc902221938de8e543a6b25a8591184dbe521e6eb0132979cca2"),
    ("mixture", "delayed_sensing", 1.0, 0.4, 3): ("(2.5999999999999996, 0.3333333333333333, 0.0006865237702196718)",
        "5f7302d9a324cc902221938de8e543a6b25a8591184dbe521e6eb0132979cca2"),
    ("hash", "no_sensing", 0.999, 0.001, 3): ("(201.7521186440678, 0.4449152542372881, 48.221189290058675)",
        "64cb62ba68ce5bc12d39848496e457f44233663f3ee72f7e229ade8d2d50a44d"),
    ("hash", "delayed_sensing", 0.999, 0.001, 3): ("(201.8382768361582, 0.4413841807909605, 48.22070704099039)",
        "1b2955c726419c4f98104d18c66515593d618fbaa4868ae781575f41e5c20a7f"),
    ("greedy", 0.1, 0.999, 0.001, 3): ("(219.1013418079096, 0.09992937853107345, 55.28367223425288)",
        "84409d51343211e3bdc379b14c1e4778d5d289f1d0a0d6a87f57f2594bc9c1b3"),
    ("greedy", 0.5, 0.999, 0.001, 3): ("(213.43608757062148, 0.4766949152542373, 55.140733114352344)",
        "fa525c64453c21b7fde0ac1ed2c489f936d56d99e173167fa47dd373bb94d14d"),
    ("greedy", 1.0, 0.999, 0.001, 3): ("(213.13276836158192, 0.558027306967985, 55.05811801058809)",
        "7613d9165215850a3220e02d637c7c1078317e07a80b20751f4fbf7678bdbeff"),
    ("mixture", "no_sensing", 0.999, 0.001, 3): ("(890.4875353107343, 0.5888300376647835, 117.95940973824032)",
        "fc6bf5dbf23617daf1b1439d741bb7ab83bfd0087a439b6cbb6793a4d0b33ad3"),
    ("mixture", "delayed_sensing", 0.999, 0.001, 3): ("(890.2936793785311, 0.5999293785310734, 117.9761149851707)",
        "1b0292b721bbe60ea3e6fc5dcc7a678eb3752611de1c499cf70780fd4c833a9b"),
    ("hash", "no_sensing", 0.5, 0.5, 3): ("(3.5095338983050848, 0.507768361581921, 0.051453588366238194)",
        "6befed18c655940c2d8601d124a297a57511c6d122f3a4211087bcaed31eb535"),
    ("hash", "delayed_sensing", 0.5, 0.5, 3): ("(3.406779661016949, 0.5163606403013182, 0.04937926384683661)",
        "f3f7d8e90ddf9dc6176cf9e239f9bb07a0592d924c15608ae1b57dd8c16a69bf"),
    ("greedy", 0.1, 0.5, 0.5, 3): ("(15.062853107344633, 0.09992937853107345, 0.5120179339551338)",
        "13d1194edfcacf88250e4944857528b8392e9431fb448538ec0f1010f0490e06"),
    ("greedy", 0.5, 0.5, 0.5, 3): ("(3.7951977401129944, 0.5, 0.0856863643102718)",
        "116675a9939e59b451f95b094fd0b434006d3014b02535965dba16106ba1819f"),
    ("greedy", 1.0, 0.5, 0.5, 3): ("(2.9887005649717513, 0.5796845574387948, 0.027404250939895312)",
        "65e9ab47c40100972aeeaa127edaa15e4472d1277203a4520939a2ccbef4d19a"),
    ("mixture", "no_sensing", 0.5, 0.5, 3): ("(3.3550494350282487, 0.5582509416195857, 0.047828518247215804)",
        "0ad7d7e045b6fc506636bbf4a9a98616ce4717a8884aaed09f19dfc3fe94f643"),
    ("mixture", "delayed_sensing", 0.5, 0.5, 3): ("(4.175812146892655, 0.46179378531073445, 0.05994142616158374)",
        "6b58895e381de80e73374275e19fb67e7f49f154877b0737dc05e70e49c3172f"),
    ("hash", "no_sensing", 1.0, 1.0, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("hash", "delayed_sensing", 1.0, 1.0, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("greedy", 0.1, 1.0, 1.0, 3): ("(6.5, 0.09992937853107345, 0.005405323444366542)",
        "445e749df168663109d385d708c49497586f878b0193cc5bd982a9f872cd255d"),
    ("greedy", 0.5, 1.0, 1.0, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("greedy", 1.0, 1.0, 1.0, 3): ("(2.0, 0.3333333333333333, 0.000686523770219668)",
        "0fe33a84dd4215ca33761c2cfa45e06f590d2cf72fc04974eb1d9afe8939f76a"),
    ("mixture", "no_sensing", 1.0, 1.0, 3): ("(2.5999999999999996, 0.3333333333333333, 0.0006865237702196718)",
        "5f7302d9a324cc902221938de8e543a6b25a8591184dbe521e6eb0132979cca2"),
    ("mixture", "delayed_sensing", 1.0, 1.0, 3): ("(2.5999999999999996, 0.3333333333333333, 0.0006865237702196718)",
        "5f7302d9a324cc902221938de8e543a6b25a8591184dbe521e6eb0132979cca2"),
    ("solved", "no_sensing", 0.5): ("(2.8278620689655174, 0.5084137931034483, 0.020387624210458668)",
        "d95fbafb7b0aef4bc519baf7ea3b2ac4229135cce1217f2837ac21ed2c3db9b9"),
    ("solved", "no_sensing", 4.0): ("(3.1961379310344826, 0.37510344827586206, 0.022645291799838815)",
        "0bde21b9d6f4b09e430e3a5e9758a15c0f499cdbab69e2d1f765a88ed2d2fa47"),
    ("solved", "delayed_sensing", 0.5): ("(2.8278620689655174, 0.5084137931034483, 0.020387624210458668)",
        "d95fbafb7b0aef4bc519baf7ea3b2ac4229135cce1217f2837ac21ed2c3db9b9"),
    ("solved", "delayed_sensing", 4.0): ("(3.325448275862069, 0.3410344827586207, 0.022406297669471824)",
        "6b29bdef723b9563c3636f4901cab3fe91a452a422c267fd9939986e76c610a9"),
}


def rows_digest(*runs):
    digest = hashlib.sha256()
    for rows in runs:
        digest.update(np.asarray(rows, dtype=np.int64).tobytes())
    return digest.hexdigest()


def pinned_run(key):
    """The result and slot rows of the run a SIM_PINS key names."""
    if key[0] == "solved":
        _kind, case, lam = key
        frame, ch, case = FrameSpec(3), ChannelModel(0.8, 0.4), Case(case)
        space, kern = build_case(case, frame, ch, TruncationBound(30))
        policy = rvi_plain(space, kern, lam, eps=1e-7).policy.as_threshold()
        cfg = SimConfig(30_000, 19, 1000)
        return simulate(case, frame, ch, policy, cfg), [policy_rows(case, frame, ch, policy, cfg)]
    kind, arg, p11, p01, K = key
    frame, ch = FrameSpec(K), ChannelModel(p11, p01)
    [(horizon, warmup)] = [run[1:] for run in IDENTITY_RUNS if run[0] == K]
    if kind == "greedy":
        cfg = SimConfig(horizon, 13, warmup)
        return simulate_greedy(Case.NO_SENSING, frame, ch, arg, cfg), [greedy_rows(frame, ch, arg, cfg)]
    case = Case(arg)
    if kind == "hash":
        cfg, policy = SimConfig(horizon, 11, warmup), HashPolicy(K, 1)
        return simulate(case, frame, ch, policy, cfg), [policy_rows(case, frame, ch, policy, cfg)]
    cfg = SimConfig(horizon, 17, warmup)
    mix = MixturePolicy(HashPolicy(K, 2), HashPolicy(K, 3), 0.3, 0, 0, 0, 0, 0, 0)
    components = [policy_rows(case, frame, ch, pi, cfg) for pi in (mix.pi_minus, mix.pi_plus)]
    return estimate_mixture(case, frame, ch, mix, cfg), components


@pytest.mark.parametrize("key", list(SIM_PINS), ids=lambda key: "-".join(map(str, key)))
def test_run_matches_its_pin(key):
    res, runs = pinned_run(key)
    triple, digest = SIM_PINS[key]
    assert repr((res.avg_aoi, res.avg_energy, res.aoi_se)) == triple
    assert rows_digest(*runs) == digest


def scalar_path(ch, seed, horizon):
    rng = channel_stream(seed)
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

    def test_each_call_returns_an_independent_copy(self):
        # a run marks its path in place; the next run must see it unmarked
        ch = ChannelModel(0.7, 0.3)
        first = sim._channel_path(ch, 47, 1000)
        first[:] = bytes([3]) * len(first)
        second = sim._channel_path(ch, 47, 1000)
        assert second is not first
        assert list(second) == scalar_path(ch, 47, 1000)


STREAM_LENGTHS = [1, 4, 5, sim._BLOCK - 1, sim._BLOCK, sim._BLOCK + 1, 3 * sim._BLOCK + 7]


class TestChannelStream:
    """The in-package stream against numpy's own Philox generator."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 + 11])
    @pytest.mark.parametrize("spawn_key", [(0,), (9,)])
    @pytest.mark.parametrize("n", STREAM_LENGTHS)
    def test_doubles_equal_numpy_generator(self, seed, spawn_key, n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))
        want = rng.random(n)
        got = _philox.uniforms(_philox.philox_key(seed, spawn_key), 0, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("start", [1, 3, 4, sim._BLOCK - 1, sim._BLOCK])
    def test_reads_from_any_position(self, start):
        key = _philox.philox_key(7, (0,))
        whole = channel_stream(7).random(start + 11)
        assert _philox.uniforms(key, start, 11).tobytes() == whole[start:].tobytes()


def visited_keys(case, rows, h0):
    """The states a run's decisions depend on, read off its slot rows: (AoI,
    belief origin, steps since the last transmission) without sensing and
    (AoI, last channel state) with delayed sensing."""
    keys = set()
    origin, steps, g = "initial", 0, h0
    for _t, delta, _k, u, theta, h in rows:
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
        keys = visited_keys(case, policy_rows(case, frame, ch, policy, cfg), h0)
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
                sim._no_sensing_slots(frame, ch, NeverTransmit(), path)
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
