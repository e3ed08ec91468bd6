import math

import pytest

from aoisched.channel import (
    Belief,
    BeliefOrigin,
    BeliefTable,
    ChannelModel,
    belief_table,
    one_step_update,
    stationary_good_probability,
)
from oracles import m_step_update


def iterate_to_fixpoint(ch, omega, tol=1e-12, limit=10_000_000):
    """Independent oracle: apply the one-step map until it stops moving."""
    for _ in range(limit):
        nxt = one_step_update(ch, omega)
        if abs(nxt - omega) < tol:
            return nxt
        omega = nxt
    raise AssertionError("fixed point not reached")


class TestChannelModel:
    def test_memory(self):
        assert ChannelModel(0.7, 0.3).memory == pytest.approx(0.4)
        assert ChannelModel(0.4, 0.4).memory == 0.0

    def test_rejects_negative_correlation(self):
        with pytest.raises(ValueError):
            ChannelModel(0.3, 0.7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelModel(1.2, 0.3)
        with pytest.raises(ValueError):
            ChannelModel(0.7, -0.1)

    def test_rejects_two_absorbing_classes(self):
        with pytest.raises(ValueError):
            ChannelModel(1.0, 0.0)

    def test_boundary_models_allowed(self):
        assert ChannelModel(1.0, 1.0).memory == 0.0
        assert ChannelModel(1.0, 0.5).memory == 0.5
        assert ChannelModel(0.0, 0.0).p11 == 0.0


class TestOneStepUpdate:
    def test_fixed_point_when_rates_sum_to_one(self):
        ch = ChannelModel(0.7, 0.3)
        assert one_step_update(ch, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_certain_good_maps_to_p11(self):
        assert one_step_update(ChannelModel(0.7, 0.3), 1.0) == 0.7

    def test_direct_evaluation(self):
        # 0.4*0.9 + 0.6*0.2
        assert one_step_update(ChannelModel(0.9, 0.2), 0.4) == pytest.approx(0.48, abs=1e-15)

    def test_rejects_belief_outside_unit_interval(self):
        ch = ChannelModel(0.7, 0.3)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                one_step_update(ch, bad)


class TestMStepUpdate:
    def test_zero_steps_is_identity(self):
        ch = ChannelModel(0.9, 0.2)
        assert m_step_update(ch, 0.123, 0) == 0.123

    def test_converges_to_stationary(self):
        ch = ChannelModel(0.7, 0.3)
        limit = iterate_to_fixpoint(ch, 1.0)
        assert limit == pytest.approx(0.3 / 0.6, abs=1e-12)
        assert m_step_update(ch, 1.0, 400) == pytest.approx(limit, abs=1e-12)

    def test_memoryless_collapse_in_one_step(self):
        ch = ChannelModel(0.4, 0.4)
        assert m_step_update(ch, 0.9, 1) == pytest.approx(0.4, abs=1e-15)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            m_step_update(ChannelModel(0.7, 0.3), 0.5, -1)


class TestStationary:
    @pytest.mark.parametrize(
        "p11,p01,expected",
        [(0.7, 0.3, 0.5), (0.9, 0.9, 0.9), (0.8, 0.2, 0.5)],
    )
    def test_matches_fixed_point_iteration(self, p11, p01, expected):
        ch = ChannelModel(p11, p01)
        value = stationary_good_probability(ch)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(iterate_to_fixpoint(ch, p11), abs=1e-11)
        assert one_step_update(ch, value) == pytest.approx(value, abs=1e-15)


class TestBeliefTable:
    def test_symbolic_numeric_agreement_long_horizon(self):
        ch = ChannelModel(0.95, 0.4)
        table = BeliefTable(ch, 10_000)
        for m in (0, 1, 7, 100, 10_000):
            assert table.raw_value(BeliefOrigin.FROM_BAD, m) == pytest.approx(
                m_step_update(ch, ch.p01, m), abs=1e-12
            )
            assert table.raw_value(BeliefOrigin.FROM_GOOD, m) == pytest.approx(
                m_step_update(ch, ch.p11, m), abs=1e-12
            )

    def test_monotone_approach(self):
        table = BeliefTable(ChannelModel(0.8, 0.25), 500)
        bad = [table.raw_value(BeliefOrigin.FROM_BAD, m) for m in range(501)]
        good = [table.raw_value(BeliefOrigin.FROM_GOOD, m) for m in range(501)]
        assert all(b2 >= b1 for b1, b2 in zip(bad, bad[1:]))
        assert all(g2 <= g1 for g1, g2 in zip(good, good[1:]))

    def test_memoryless_chain_collapses_to_one_symbol(self):
        table = BeliefTable(ChannelModel(0.4, 0.4), 10)
        assert len(table.symbols) == 1
        kept = table.symbols[0]
        assert kept.steps == 0
        assert kept.origin is BeliefOrigin.FROM_GOOD
        assert table.canonical(BeliefOrigin.FROM_BAD, 5) is kept

    def test_dedupe_keeps_smaller_step_count(self):
        table = BeliefTable(ChannelModel(0.7, 0.3), 200)
        for (origin, m), symbol in table._canon.items():
            assert symbol.steps <= m
            assert abs(symbol.value - table.raw_value(origin, m)) < 1e-12

    def test_distinct_symbols_separated(self):
        table = BeliefTable(ChannelModel(0.7, 0.3), 200)
        values = sorted(s.value for s in table.symbols)
        assert all(b - a >= 1e-12 for a, b in zip(values, values[1:]))

    def test_cache_returns_same_object(self):
        ch = ChannelModel(0.7, 0.3)
        assert belief_table(ch, 50) is belief_table(ch, 50)

    def test_sort_key_orders_origin_then_steps(self):
        b1 = Belief(BeliefOrigin.FROM_BAD, 2, 0.4)
        b2 = Belief(BeliefOrigin.FROM_GOOD, 0, 0.7)
        assert b1.sort_key() < b2.sort_key()
