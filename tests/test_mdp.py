import hashlib
import itertools

import numpy as np
import pytest

from aoisched import mdp
from aoisched.channel import ChannelModel, belief_table
from aoisched.mdp import (
    Case,
    FrameSpec,
    StateDelayed,
    StateNoSensing,
    TruncationBound,
    build_case,
    enumerate_states_delayed,
    enumerate_states_no_sensing,
)
from aoisched.solver import rvi_plain
from oracles import kernel_delayed, kernel_no_sensing

# belief origins, the channel state last observed: rows of BeliefTable.canon
BAD, GOOD = 0, 1


class TestFrameSpec:
    def test_slot_cycle(self):
        frame = FrameSpec(4)
        assert [frame.prev_slot(k) for k in (1, 2, 3, 4)] == [4, 1, 2, 3]

    def test_single_slot_frame(self):
        frame = FrameSpec(1)
        assert frame.prev_slot(1) == 1
        assert frame.aoi_values(1, 5) == [1, 2, 3, 4, 5]

    def test_aoi_values_congruent_plus_cap(self):
        frame = FrameSpec(3)
        assert frame.aoi_values(1, 10) == [3, 6, 9, 10]
        assert frame.aoi_values(2, 10) == [1, 4, 7, 10]
        assert frame.aoi_values(3, 10) == [2, 5, 8, 10]

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            FrameSpec(0)


def bfs_reachable(frame, ch, bound):
    """Independent enumeration oracle: walk the clamped dynamics from the
    reference state, tracking beliefs symbolically through the channel ops."""
    table = belief_table(ch, bound.cap)
    canon, origins, steps = table.canon.tolist(), table.origin.tolist(), table.steps.tolist()
    start = (frame.K, 1, canon[GOOD][0])
    seen = {start}
    frontier = [start]
    while frontier:
        delta, k, sym = frontier.pop()
        k_next = k % frame.K + 1
        grown = min(delta + 1, bound.cap)
        successors = []
        if steps[sym] + 1 > bound.cap:
            suspended = canon[GOOD][bound.cap]
        else:
            suspended = canon[origins[sym]][steps[sym] + 1]
        successors.append((grown, k_next, suspended))
        if delta >= frame.K:
            successors.append((k, k_next, canon[GOOD][0]))
            successors.append((grown, k_next, canon[BAD][0]))
        for nxt in successors:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class TestEnumerateNoSensing:
    def test_small_instance_count_and_reachability(self):
        frame, ch, bound = FrameSpec(2), ChannelModel(0.7, 0.3), TruncationBound(3)
        states = enumerate_states_no_sensing(frame, ch, bound)
        assert len(states) == 22
        reachable = bfs_reachable(frame, ch, bound)
        assert len(reachable) == 16
        enumerated = {(s.delta, s.k, s.sym) for s in states}
        assert reachable <= enumerated

    def test_reference_state_present(self):
        frame, ch, bound = FrameSpec(3), ChannelModel(0.8, 0.2), TruncationBound(7)
        table = belief_table(ch, 7)
        states = enumerate_states_no_sensing(frame, ch, bound)
        ref = StateNoSensing(3, 1, int(table.canon[GOOD, 0]))
        assert ref in states

    def test_deterministic_lexicographic_order(self):
        frame, ch, bound = FrameSpec(2), ChannelModel(0.7, 0.3), TruncationBound(4)
        states = enumerate_states_no_sensing(frame, ch, bound)
        table = belief_table(ch, 4)
        keys = [(s.k, s.delta, table.origin[s.sym], table.steps[s.sym]) for s in states]
        assert keys == sorted(keys)
        assert states == enumerate_states_no_sensing(frame, ch, bound)

    def test_state_invariants(self):
        frame, ch, bound = FrameSpec(3), ChannelModel(0.9, 0.4), TruncationBound(11)
        steps = belief_table(ch, 11).steps
        for s in enumerate_states_no_sensing(frame, ch, bound):
            assert 1 <= s.delta <= bound.cap
            assert s.delta % frame.K == frame.prev_slot(s.k) % frame.K or s.delta == bound.cap
            assert steps[s.sym] <= bound.cap
            if s.delta < bound.cap:
                assert steps[s.sym] < s.delta

    def test_belief_interval_invariant(self):
        frame, ch, bound = FrameSpec(2), ChannelModel(0.85, 0.25), TruncationBound(9)
        table = belief_table(ch, 9)
        low_cut = table.raw[BAD, 9]
        high_cut = table.raw[GOOD, 9]
        for s in enumerate_states_no_sensing(frame, ch, bound):
            w = table.value[s.sym]
            assert (ch.p01 <= w <= low_cut + 1e-12) or (high_cut - 1e-12 <= w <= ch.p11)

    def test_memoryless_collapse(self):
        states = enumerate_states_no_sensing(
            FrameSpec(2), ChannelModel(0.6, 0.6), TruncationBound(5)
        )
        distinct = {s.sym for s in states}
        assert len(distinct) <= 3

    def test_rejects_cap_not_above_frame(self):
        args = FrameSpec(3), ChannelModel(0.7, 0.3), TruncationBound(3)
        with pytest.raises(ValueError):
            enumerate_states_no_sensing(*args)
        for case in Case:
            with pytest.raises(ValueError, match="must exceed the frame length"):
                build_case(case, *args)


class TestEnumerateDelayed:
    def test_small_instance(self):
        states = enumerate_states_delayed(FrameSpec(2), ChannelModel(0.7, 0.3), TruncationBound(3))
        assert len(states) == 8
        assert {(s.delta, s.k, s.g) for s in states} == {
            (2, 1, 0), (2, 1, 1), (3, 1, 0), (3, 1, 1),
            (1, 2, 0), (1, 2, 1), (3, 2, 0), (3, 2, 1),
        }
        keys = [(s.k, s.delta, s.g) for s in states]
        assert keys == sorted(keys)


class TestKernelNoSensing:
    def setup_method(self):
        self.frame = FrameSpec(4)
        self.ch = ChannelModel(0.7, 0.3)
        self.bound = TruncationBound(10)
        self.canon = belief_table(self.ch, 10).canon.tolist()

    def test_transmission_branches(self):
        s = StateNoSensing(7, 3, self.canon[GOOD][1])  # value 0.58
        rows = kernel_no_sensing(self.frame, self.ch, self.bound, s, 1)
        assert len(rows) == 2
        (succ_state, p_succ), (fail_state, p_fail) = rows
        assert succ_state == StateNoSensing(3, 4, self.canon[GOOD][0])
        assert p_succ == pytest.approx(0.58)
        assert fail_state == StateNoSensing(8, 4, self.canon[BAD][0])
        assert p_fail == pytest.approx(0.42)

    def test_aoi_clamped_at_cap(self):
        s = StateNoSensing(10, 2, self.canon[BAD][0])
        [(nxt, p)] = kernel_no_sensing(self.frame, self.ch, self.bound, s, 0)
        assert nxt.delta == 10
        assert p == 1.0

    def test_gap_belief_clamps_to_good_limit(self):
        bad_limit, good_limit = self.canon[BAD][10], self.canon[GOOD][10]
        s = StateNoSensing(10, 1, bad_limit)
        [(nxt, _p)] = kernel_no_sensing(self.frame, self.ch, self.bound, s, 0)
        assert nxt.sym == good_limit

    def test_rejects_transmission_after_delivery(self):
        s = StateNoSensing(3, 4, self.canon[GOOD][0])
        with pytest.raises(ValueError):
            kernel_no_sensing(self.frame, self.ch, self.bound, s, 1)

    @pytest.mark.parametrize("p11,p01,K,N", [(0.7, 0.3, 2, 5), (0.9, 0.2, 3, 7), (0.6, 0.6, 2, 4)])
    def test_rows_stochastic_and_closed(self, p11, p01, K, N):
        frame, ch, bound = FrameSpec(K), ChannelModel(p11, p01), TruncationBound(N)
        states = enumerate_states_no_sensing(frame, ch, bound)
        state_set = set(states)
        for s in states:
            actions = (0, 1) if s.delta >= K else (0,)
            for u in actions:
                rows = kernel_no_sensing(frame, ch, bound, s, u)
                assert sum(p for _s, p in rows) == pytest.approx(1.0, abs=1e-12)
                for nxt, p in rows:
                    assert p > 0
                    assert nxt in state_set


class TestKernelDelayed:
    def setup_method(self):
        self.frame = FrameSpec(3)
        self.ch = ChannelModel(0.7, 0.3)
        self.bound = TruncationBound(6)

    def test_good_state_transmission(self):
        s = StateDelayed(6, 3, 1)
        rows = dict()
        for nxt, p in kernel_delayed(self.frame, self.ch, self.bound, s, 1):
            rows[(nxt.delta, nxt.k, nxt.g)] = p
        assert rows[(3, 1, 1)] == pytest.approx(0.7)
        assert rows[(6, 1, 0)] == pytest.approx(0.3)

    def test_bad_state_suspension(self):
        s = StateDelayed(4, 2, 0)
        rows = {(n.delta, n.k, n.g): p for n, p in kernel_delayed(self.frame, self.ch, self.bound, s, 0)}
        assert rows[(5, 3, 1)] == pytest.approx(0.3)
        assert rows[(5, 3, 0)] == pytest.approx(0.7)

    def test_rows_stochastic(self):
        states = enumerate_states_delayed(self.frame, self.ch, self.bound)
        for s in states:
            actions = (0, 1) if s.delta >= 3 else (0,)
            for u in actions:
                rows = kernel_delayed(self.frame, self.ch, self.bound, s, u)
                assert sum(p for _n, p in rows) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_transmission_after_delivery(self):
        with pytest.raises(ValueError):
            kernel_delayed(self.frame, self.ch, self.bound, StateDelayed(1, 2, 1), 1)


def branch_of(case, s, u, t) -> int:
    """Branch index of successor t under the kernels' order: no sensing
    suspends on one branch and transmits to success, then failure; delayed
    sensing suspends to the bad, then the good state and transmits to
    success (good), then failure (bad)."""
    if case is Case.NO_SENSING:
        return 0 if u == 0 or t.delta == s.k else 1
    return t.g if u == 0 else 1 - t.g


# (K, N) with K=1 and N=K+1, channels with p01=0, p11=p01, p11=1, a sticky
# one, and an always-good one whose failure and bad-state branches have
# probability zero at every state
ORACLE_FRAMES = [(1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 10)]
ORACLE_CHANNELS = [(0.8, 0.3), (0.6, 0.0), (0.5, 0.5), (1.0, 0.4), (0.999, 0.001), (1.0, 1.0)]


DELIVERY_CHANNELS = [(0.7, 0.3), (0.0, 0.0), (0.4, 0.4), (1.0, 0.3), (1.0, 1.0)]


def oracle_states(case, frame, ch, bound):
    if case is Case.NO_SENSING:
        return enumerate_states_no_sensing(frame, ch, bound)
    return enumerate_states_delayed(frame, ch, bound)


class TestCompiledKernel:
    def test_compiled_matches_per_state_kernels(self):
        for (k, n), (p11, p01), case in itertools.product(ORACLE_FRAMES, ORACLE_CHANNELS, Case):
            frame, ch, bound = FrameSpec(k), ChannelModel(p11, p01), TruncationBound(n)
            space, kern = build_case(case, frame, ch, bound)
            tag = (case, k, n, p11, p01)
            # the columns hold the oracle's states, in the oracle's order
            states = oracle_states(case, frame, ch, bound)
            index = {s: i for i, s in enumerate(states)}
            assert space.n == len(states), tag
            assert space.k.tolist() == [s.k for s in states], tag
            assert space.delta.tolist() == [s.delta for s in states], tag
            if case is Case.NO_SENSING:
                table = belief_table(ch, n)
                assert space.sym.tolist() == [s.sym for s in states], tag
                assert space.omega.tolist() == [table.value[s.sym] for s in states], tag
                assert space.steps.tolist() == [table.steps[s.sym] for s in states], tag
            else:
                assert space.sym.tolist() == space.g.tolist() == [s.g for s in states], tag
            kernel = kernel_no_sensing if case is Case.NO_SENSING else kernel_delayed
            # per (action, branch) pair, the per-state kernels' successor and
            # probability at every state; an inadmissible transmission
            # repeats the suspension branches
            expected = {pair: {} for pair in itertools.product((0, 1), (0, 1))}
            for i, s in enumerate(states):
                for u in (0, 1):
                    shown = u if s.delta >= frame.K else 0
                    for t, p in kernel(frame, ch, bound, s, shown):
                        expected[u, branch_of(case, s, shown, t)][i] = (index[t], p)
            # a pair is stored exactly when its probability is non-zero at
            # some state, so every pair the compile dropped is zero everywhere
            assert kern.pairs == tuple(pair for pair in expected if expected[pair]), tag
            assert kern.succ.shape == kern.prob.shape == (len(kern.pairs), space.n), tag
            for r, pair in enumerate(kern.pairs):
                assert kern.rows(pair[0]).start <= r < kern.rows(pair[0]).stop, tag
                for i in range(space.n):
                    want = expected[pair].get(i)
                    if want is None:
                        assert kern.prob[r, i] == 0.0, (tag, pair, states[i])
                    else:
                        got = (int(kern.succ[r, i]), float(kern.prob[r, i]))
                        assert got == want, (tag, pair, states[i])

    def test_admissible_mask(self):
        frame, ch, bound = FrameSpec(3), ChannelModel(0.7, 0.3), TruncationBound(7)
        for case in Case:
            _space, kern = build_case(case, frame, ch, bound)
            states = oracle_states(case, frame, ch, bound)
            assert kern.admissible.tolist() == [s.delta >= 3 for s in states]

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("p11, p01", DELIVERY_CHANNELS)
    def test_delivery_runs_one_per_slot(self, p11, p01, K):
        # transmit success resets the AoI to the slot index: every admissible
        # state of a slot leads to the one state (next slot, AoI k, delivered),
        # and each run is its slot's whole block, barred first layer included
        for case in Case:
            space, kern = build_case(case, FrameSpec(K), ChannelModel(p11, p01), TruncationBound(9))
            if (1, 0) not in kern.pairs:
                assert kern.delivery == []
                continue
            starts, ends, targets = map(np.array, zip(*kern.delivery))
            assert starts[0] == 0 and ends[-1] == space.n and np.array_equal(starts[1:], ends[:-1])
            assert len(kern.delivery) == K
            succ = kern.succ[kern.pairs.index((1, 0))]
            for (a, b, j), k in zip(kern.delivery, range(1, K + 1)):
                run = np.arange(a, b)
                assert set(space.k[run].tolist()) == {k}
                assert np.all(succ[run[space.admissible[run]]] == j)
                assert (space.k[j], space.delta[j], space.sym[j]) == (k % K + 1, k, space.reference_sym)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("p11, p01", DELIVERY_CHANNELS)
def test_space_runs_are_those_of_its_columns(p11, p01, K):
    # the layer and slot runs the space records as it numbers its states
    # are the runs of its (k, delta) columns
    for case, N in itertools.product(Case, (K + 1, 9, 40)):
        space, _kern = build_case(case, FrameSpec(K), ChannelModel(p11, p01), TruncationBound(N))
        starts = np.flatnonzero(np.r_[True, (np.diff(space.k) != 0) | (np.diff(space.delta) != 0)])
        assert space.layer_start.tolist() == starts.tolist()
        assert space.layer_size.tolist() == np.diff(np.r_[starts, space.n]).tolist()
        slots = np.flatnonzero(np.r_[True, np.diff(space.k[starts]) != 0])
        assert space.slot_layer.tolist() == slots.tolist()
        assert space.slot_size.tolist() == np.diff(np.r_[slots, len(starts)]).tolist()


# sha256 of each no-sensing space's symbol columns and compiled successor
# tables at K=3, recorded before the belief table became arrays: memoryless,
# near-memoryless, sticky, p01=0, p11=1 and a regular channel, at small to
# large caps. The compiled-kernel comparison above checks the space against
# enumerators that read the same belief table, so these are what guard the
# dedupe itself.
SPACE_DIGESTS = {
    ((0.4, 0.4), 4): "aae958ecee996738692038ed663a1acc8a38b2e855c3eb43dd6852f2eafae3b0",
    ((0.4, 0.4), 12): "7b8095b686d201ae1f3599dffb31a43f0a3fb5682ae6fe71e6bdc470e9235ad3",
    ((0.4, 0.4), 200): "77942c3fececd9c0175091d28352d88f0292cd072412501d9844cf14aa2a7289",
    ((0.4, 0.4), 1000): "dadeab2f12721333109393b3c60b5d1379c79fd966b657c852281359f537f141",
    ((0.5, 0.49999999999), 4): "88e60f8decb1f0c97acd57d01832b6c83b1821de2fcaf4b98ac5fd5f90848eb7",
    ((0.5, 0.49999999999), 12): "70b47b7c8fdc0c9ea593b3965d825c06dac24e595801aeef4bc3ba4f175bcf4d",
    ((0.5, 0.49999999999), 200): "337afcf6ac9659d6fea151c70c01967250b5cc2fecc7084f8e3cb1551081c0a1",
    ((0.5, 0.49999999999), 1000): "3763787f9dceb268909c5f738ef7ab4434cfaba0ecba5d58a107d4ad6e565061",
    ((0.999, 0.001), 4): "68c798ea95cac904b4da9924ec06b874e84921a391d8c0c06da6292fbced4a50",
    ((0.999, 0.001), 12): "4a7d9785c013d0f818c86b415301591ffb7bd9dad6c648020a96e157b9f3cc37",
    ((0.999, 0.001), 200): "430dbb73ddcfbb5b7b73389b104ee2108d0b0ba3b130c328f3adb8d06e96fe91",
    ((0.999, 0.001), 1000): "acdcac8c1fedb6a7e04c6f1a120fb0041dca04a0708a60de1c31c6095fcb18a1",
    ((0.6, 0.0), 4): "1888791032bad2f1e7abc8a8c2ce3307778d0e8c6006476876a81b7995f437ee",
    ((0.6, 0.0), 12): "2d20a56d05b8042f3b4d6e8c65d6d21276dcc4161a629d3470578b646aa201d4",
    ((0.6, 0.0), 200): "526ffe30bb13870485f8787f91b05e648eb228670edae0277258b2927d580176",
    ((0.6, 0.0), 1000): "d45b12a249396c2f1bf640b278c5adb748aa69b8a4a9dae8a3828a5e187cd838",
    ((1.0, 0.3), 4): "703e960c42cac81740d3650e4a6d5e639d8fb873079973631a95f1d5a02932d4",
    ((1.0, 0.3), 12): "c9c31993545ef3b0eb5f12c4ffc6c656036b32c2c2a057c6b661f947b6d16b40",
    ((1.0, 0.3), 200): "14c3b3684300af6b6a61a88a8fd3855b47c16cb24aa31db8c490cf5dcca2a143",
    ((1.0, 0.3), 1000): "9b50293b50780046cca66b9cdac2f6a267b0f8559422ab67ff814ac648845dc9",
    ((0.7, 0.3), 4): "025b3255502f1cb13b3bcdd1bc0129b4cc8adc106307aa08888e215e60981f62",
    ((0.7, 0.3), 12): "2a26663116072d37eaa2c0d56b75f8a4fab5d1d40725bab46c0328a2307ba1e1",
    ((0.7, 0.3), 200): "dc073ef97a57b987a92da7a2097ccd0f49b82cc9671209d868301504cb41becf",
    ((0.7, 0.3), 1000): "ffe4b4e0e9e04891b14b37e64c00a19b4d494998dcdb45426de86ab622631a31",
}


def space_digest(space, kern) -> str:
    h = hashlib.sha256()
    columns = [(space.sym, "<i8"), (space.omega, "<f8"), (space.steps, "<i8"),
               (kern.succ, "<i8"), (kern.prob, "<f8")]
    for column, dtype in columns:
        column = np.ascontiguousarray(column, dtype=dtype)
        h.update(repr(column.shape).encode())
        h.update(column.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("channel,cap", list(SPACE_DIGESTS))
def test_no_sensing_space_digest_on_edge_channels(channel, cap):
    space, kern = build_case(Case.NO_SENSING, FrameSpec(3), ChannelModel(*channel), TruncationBound(cap))
    assert space_digest(space, kern) == SPACE_DIGESTS[channel, cap]


def test_runtime_path_calls_no_oracle(monkeypatch):
    """Building a space and solving it never touches the per-state oracles
    that stay in ``mdp``; the others live in ``tests/oracles.py``."""

    def banned(*args, **kwargs):
        raise AssertionError("a per-state oracle was called on the runtime path")

    for name in ("enumerate_states_no_sensing", "enumerate_states_delayed",
                 "StateNoSensing", "StateDelayed"):
        monkeypatch.setattr(mdp, name, banned)
    for case in Case:
        space, kern = build_case(case, FrameSpec(3), ChannelModel(0.75, 0.25), TruncationBound(13))
        report = rvi_plain(space, kern, 1.0, eps=1e-7)
        assert report.policy.actions.any() and not report.policy.actions.all()
