"""Property tests for the algebraic invariants of the model layers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aoisched.channel import (
    BeliefTable,
    ChannelModel,
    one_step_update,
)
from aoisched.mdp import Case, FrameSpec, TruncationBound, build_case
from aoisched.solver import _Bellman, randomization_factor
from oracles import m_step_update

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


@st.composite
def channels(draw):
    p11 = draw(probabilities)
    p01 = draw(st.floats(min_value=0.0, max_value=p11, width=64))
    assume(not (p11 == 1.0 and p01 == 0.0))
    return ChannelModel(p11, p01)


@given(channels(), probabilities, probabilities, probabilities)
def test_one_step_update_is_affine(ch, w1, w2, alpha):
    mixed = alpha * w1 + (1 - alpha) * w2
    lhs = one_step_update(ch, mixed)
    rhs = alpha * one_step_update(ch, w1) + (1 - alpha) * one_step_update(ch, w2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(channels(), probabilities, probabilities)
def test_one_step_update_monotone(ch, w1, w2):
    lo, hi = min(w1, w2), max(w1, w2)
    assert one_step_update(ch, lo) <= one_step_update(ch, hi) + 1e-15


@given(channels(), probabilities, probabilities)
def test_one_step_update_contracts_by_memory(ch, w1, w2):
    gap = abs(one_step_update(ch, w1) - one_step_update(ch, w2))
    assert gap == pytest.approx(ch.memory * abs(w1 - w2), abs=1e-12)


@given(channels(), probabilities)
def test_one_step_update_stays_in_band(ch, w):
    out = one_step_update(ch, w)
    assert ch.p01 - 1e-15 <= out <= ch.p11 + 1e-15


@given(channels(), probabilities, st.integers(min_value=0, max_value=300))
def test_m_step_matches_repeated_one_step(ch, w, m):
    value = w
    for _ in range(m):
        value = one_step_update(ch, value)
    assert m_step_update(ch, w, m) == pytest.approx(value, abs=1e-12)


@given(channels(), st.integers(min_value=1, max_value=60))
def test_belief_table_canonical_contract(ch, max_steps):
    table = BeliefTable(ch, max_steps)
    for origin in (0, 1):
        for m in range(max_steps + 1):
            kept = table.canon[origin, m]
            assert table.steps[kept] <= m
            assert abs(table.value[kept] - table.raw[origin, m]) < 1e-12
    values = sorted(table.value.tolist())
    assert all(b - a >= 1e-12 for a, b in zip(values, values[1:]))


@st.composite
def small_instances(draw):
    K = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=K + 1, max_value=K + 5))
    p11 = draw(st.floats(min_value=0.05, max_value=1.0, width=64))
    p01 = draw(st.floats(min_value=0.0, max_value=p11, width=64))
    assume(not (p11 == 1.0 and p01 == 0.0))
    return FrameSpec(K), ChannelModel(p11, p01), TruncationBound(n)


@settings(max_examples=40, deadline=None)
@given(small_instances(), st.sampled_from(list(Case)))
def test_compiled_kernels_stochastic_and_closed(instance, case):
    frame, ch, bound = instance
    space, kern = build_case(case, frame, ch, bound)
    sums0 = kern.prob[kern.rows(0)].sum(axis=0)
    assert np.allclose(sums0, 1.0, atol=1e-12)
    adm = kern.admissible
    assert np.allclose(kern.prob[kern.rows(1)][:, adm].sum(axis=0), 1.0, atol=1e-12)
    assert kern.succ.min() >= 0 and kern.succ.max() < kern.n
    assert np.all(kern.prob.any(axis=1))


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_reference_state_always_enumerated(instance):
    frame, ch, bound = instance
    for case in Case:
        space, _kern = build_case(case, frame, ch, bound)
        i = space.reference_index
        assert space.delta[i] == frame.K and space.k[i] == 1
        assert space.sym[i] == space.reference_sym


@settings(max_examples=40, deadline=None)
@given(
    small_instances(),
    st.sampled_from(list(Case)),
    st.floats(min_value=0.0, max_value=100.0, width=64),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bellman_step_decomposes(instance, case, lam, seed):
    # q_u = delta + lam*u + expected successor bias, bit for bit
    frame, ch, bound = instance
    _space, kern = build_case(case, frame, ch, bound)
    h = np.random.default_rng(seed).normal(size=kern.n)
    q0, q1 = _Bellman(kern, lam).step(h)
    assert np.array_equal(q0, kern.delta + kern.expected_bias(h, 0))
    adm = kern.admissible
    want = (kern.delta + lam) + kern.expected_bias(h, 1)
    assert np.array_equal(q1[adm], want[adm])
    assert np.all(np.isposinf(q1[~adm]))


@given(
    st.floats(min_value=0.01, max_value=1.0, width=64),
    st.floats(min_value=0.0, max_value=1.0, width=64),
    st.floats(min_value=0.0, max_value=1.0, width=64),
)
def test_randomization_factor_hits_budget(e_max, a, b):
    e_plus, e_minus = min(a, b), max(a, b)
    assume(e_plus <= e_max <= e_minus)
    q = randomization_factor(e_max, e_minus, e_plus)
    assert 0.0 <= q <= 1.0
    assert q * e_minus + (1 - q) * e_plus == pytest.approx(e_max, abs=1e-9)
