"""Tests for arrangements, MOVE, overlap accounting, and MCR (Figs. 5-7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.net.cluster import sun4_cluster
from repro.partition.arrangement import (
    RedistributionCostModel,
    brute_force_arrangement,
    message_count,
    minimize_cost_redistribution,
    move,
    overlap_elements,
    redistribution_gain,
    transfer_matrix,
)
from repro.partition.intervals import IntervalPartition, partition_list

# The paper's Sec. 3.4 example.
OLD_CAP = [0.27, 0.18, 0.34, 0.07, 0.14]
NEW_CAP = [0.10, 0.13, 0.29, 0.24, 0.24]


COST_MODELS = (
    RedistributionCostModel(),
    RedistributionCostModel(message_weight=0.0),
    RedistributionCostModel(element_weight=0.0),
    RedistributionCostModel.from_network(sun4_cluster(3).make_network(), 8),
)


def scalar_mcr(old_arrangement, old_caps, new_caps, n, cost_model):
    """The Fig. 6 greedy scored by building every candidate partition.

    Test oracle for :func:`minimize_cost_redistribution`: each candidate is
    a full :func:`partition_list`, and its gain comes from the segment
    accounting of :func:`overlap_elements` and :func:`message_count`.
    Returns (arrangement, gain of the arrangement).
    """
    old_part = partition_list(n, old_caps, old_arrangement)

    def gain_of(arr):
        cand = partition_list(n, new_caps, arr)
        return cost_model.element_weight * overlap_elements(
            old_part, cand
        ) - cost_model.message_weight * message_count(old_part, cand)

    old_arr = np.asarray(old_arrangement, dtype=np.intp)
    list_out = old_arr.copy()
    for element in old_arr.tolist():
        current = int(np.flatnonzero(list_out == element)[0])
        best_j, best_gain = current, gain_of(list_out)
        for j in range(old_arr.size):
            if j == current:
                continue
            gain = gain_of(move(list_out, element, j))
            if gain > best_gain:
                best_gain, best_j = gain, j
        if best_j != current:
            list_out = move(list_out, element, best_j)
    return list_out, gain_of(list_out)


@st.composite
def capabilities(draw, p):
    """Capability vectors as ``decide`` passes them: zeros allowed."""
    kind = draw(st.sampled_from(["random", "equal", "zeros"]))
    if kind == "equal":
        return [1.0] * p
    low = 0.0 if kind == "zeros" else 1e-3
    return draw(
        st.lists(
            st.one_of(st.just(low), st.floats(1e-3, 1.0)),
            min_size=p, max_size=p,
        ).filter(lambda c: sum(c) > 0)
    )


@st.composite
def partitions_with_empty_blocks(draw, n, p):
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
    owners = draw(st.permutations(range(p)))
    return IntervalPartition(np.array([0, *cuts, n]), np.array(owners))


class TestMove:
    def test_paper_example(self):
        np.testing.assert_array_equal(
            move([1, 3, 5, 4, 6], 5, 0), [5, 1, 3, 4, 6]
        )

    def test_move_to_end(self):
        np.testing.assert_array_equal(move([0, 1, 2], 0, 2), [1, 2, 0])

    def test_move_in_place(self):
        np.testing.assert_array_equal(move([0, 1, 2], 1, 1), [0, 1, 2])

    def test_move_right_to_left(self):
        np.testing.assert_array_equal(move([0, 1, 2, 3], 3, 1), [0, 3, 1, 2])

    def test_missing_element(self):
        with pytest.raises(PartitionError):
            move([0, 1, 2], 9, 0)

    def test_bad_location(self):
        with pytest.raises(PartitionError):
            move([0, 1, 2], 1, 3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_move_is_permutation(self, data):
        n = data.draw(st.integers(1, 8))
        arr = data.draw(st.permutations(list(range(n))))
        c = data.draw(st.sampled_from(list(arr)))
        loc = data.draw(st.integers(0, n - 1))
        out = move(arr, c, loc)
        assert sorted(out.tolist()) == list(range(n))
        assert out[loc] == c


class TestOverlapAndTransfers:
    def test_identity_partitions_full_overlap(self):
        part = partition_list(100, OLD_CAP)
        assert overlap_elements(part, part) == 100
        assert message_count(part, part) == 0
        assert transfer_matrix(part, part) == []

    def test_paper_identity_numbers(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP)
        # Paper reports 29 overlap / 5 messages; exact proportional
        # rounding gives 31 / 6 (same shape; see docs/benchmarks.md).
        assert overlap_elements(old, new) == 31
        assert message_count(old, new) == 6

    def test_paper_good_arrangement_numbers(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP, [0, 3, 1, 2, 4])
        # Paper: 65 overlap / 3 messages; rounding gives 64 / 5.
        assert overlap_elements(old, new) == 64
        assert message_count(old, new) == 5

    def test_transfers_partition_the_moved_elements(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP)
        transfers = transfer_matrix(old, new)
        moved = sum(t.count for t in transfers)
        assert moved == 100 - overlap_elements(old, new)
        # Slabs are disjoint and ordered.
        for a, b in zip(transfers, transfers[1:]):
            assert a.hi <= b.lo

    def test_transfers_source_dest_correct(self):
        old = partition_list(10, [0.5, 0.5])
        new = partition_list(10, [0.2, 0.8])
        (t,) = transfer_matrix(old, new)
        assert (t.source, t.dest, t.lo, t.hi) == (0, 1, 2, 5)

    def test_mismatched_sizes_rejected(self):
        a = partition_list(10, [1.0, 1.0])
        b = partition_list(12, [1.0, 1.0])
        with pytest.raises(PartitionError):
            overlap_elements(a, b)

    def test_mismatched_processor_counts_rejected(self):
        a = partition_list(10, [1.0, 1.0])
        b = partition_list(10, [1.0, 1.0, 1.0])
        with pytest.raises(PartitionError):
            overlap_elements(a, b)

    def test_gain_tradeoff(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP)
        g_free = redistribution_gain(old, new, RedistributionCostModel(1.0, 0.0))
        g_priced = redistribution_gain(old, new, RedistributionCostModel(1.0, 10.0))
        assert g_free == 31
        assert g_priced == 31 - 60

    def test_cost_model_validation(self):
        with pytest.raises(PartitionError):
            RedistributionCostModel(element_weight=-1.0)

    def test_cost_model_from_network(self):
        from repro.net.network import PointToPointNetwork

        net = PointToPointNetwork(latency=1e-3, bandwidth=1e6,
                                  per_message_overhead=5e-4)
        cm = RedistributionCostModel.from_network(net, 8)
        assert cm.element_weight == pytest.approx(8e-6)
        assert cm.message_weight == pytest.approx(1.5e-3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_overlap_symmetry_and_bounds(self, data):
        n = data.draw(st.integers(1, 500))
        p = data.draw(st.integers(1, 6))
        caps_a = data.draw(st.lists(st.floats(0.05, 3.0), min_size=p, max_size=p))
        caps_b = data.draw(st.lists(st.floats(0.05, 3.0), min_size=p, max_size=p))
        a = partition_list(n, caps_a)
        b = partition_list(n, caps_b)
        ov = overlap_elements(a, b)
        assert 0 <= ov <= n
        assert ov == overlap_elements(b, a)
        moved = sum(t.count for t in transfer_matrix(a, b))
        assert moved == n - ov

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_message_per_moving_segment(self, data):
        p = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(0, 40))
        a = data.draw(partitions_with_empty_blocks(n, p))
        b = data.draw(partitions_with_empty_blocks(n, p))
        cuts = sorted(set(a.bounds.tolist()) | set(b.bounds.tolist()))
        moving = sum(
            a.owner_of(lo) != b.owner_of(lo)
            for lo, hi in zip(cuts, cuts[1:])
            if hi > lo
        )
        transfers = transfer_matrix(a, b)
        assert message_count(a, b) == len(transfers) == moving
        for t, u in zip(transfers, transfers[1:]):
            assert not (t.hi == u.lo and (t.source, t.dest) == (u.source, u.dest))
        for cm in COST_MODELS:
            expected = cm.element_weight * overlap_elements(
                a, b
            ) - cm.message_weight * message_count(a, b)
            assert redistribution_gain(a, b, cm) == expected


class TestMCR:
    def test_recovers_paper_arrangement(self):
        arr = minimize_cost_redistribution(np.arange(5), OLD_CAP, NEW_CAP, 100)
        np.testing.assert_array_equal(arr, [0, 3, 1, 2, 4])

    def test_result_is_permutation(self):
        arr = minimize_cost_redistribution(np.arange(5), OLD_CAP, NEW_CAP, 100)
        assert sorted(arr.tolist()) == list(range(5))

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(7)
        cm = RedistributionCostModel(message_weight=0.0)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            oc = rng.dirichlet(np.ones(p)) + 0.02
            nc = rng.dirichlet(np.ones(p)) + 0.02
            old = partition_list(400, oc)
            arr = minimize_cost_redistribution(
                np.arange(p), oc, nc, 400, cost_model=cm
            )
            chosen = partition_list(400, nc, arr)
            identity = partition_list(400, nc)
            assert overlap_elements(old, chosen) >= overlap_elements(
                old, identity
            )

    def test_close_to_brute_force(self):
        rng = np.random.default_rng(3)
        cm = RedistributionCostModel(message_weight=1.0)
        ratios = []
        for _ in range(15):
            p = int(rng.integers(3, 6))
            oc = rng.dirichlet(np.ones(p)) + 0.02
            nc = rng.dirichlet(np.ones(p)) + 0.02
            old = partition_list(600, oc)
            greedy = minimize_cost_redistribution(
                np.arange(p), oc, nc, 600, cost_model=cm
            )
            best, _ = brute_force_arrangement(
                np.arange(p), oc, nc, 600, cost_model=cm
            )
            g = overlap_elements(old, partition_list(600, nc, greedy))
            b = overlap_elements(old, partition_list(600, nc, best))
            ratios.append(g / max(b, 1))
        assert np.mean(ratios) > 0.9  # "good suboptimal results"

    def test_no_adaptation_keeps_arrangement(self):
        caps = [0.4, 0.3, 0.3]
        arr = minimize_cost_redistribution(np.arange(3), caps, caps, 300)
        np.testing.assert_array_equal(arr, [0, 1, 2])

    def test_nonidentity_start_arrangement(self):
        start = np.array([2, 0, 1])
        arr = minimize_cost_redistribution(start, [1, 1, 1], [1, 1, 1], 90)
        np.testing.assert_array_equal(arr, start)

    def test_capability_length_mismatch(self):
        with pytest.raises(PartitionError):
            minimize_cost_redistribution(np.arange(3), [1, 1], [1, 1, 1], 10)

    def test_negative_elements_rejected(self):
        with pytest.raises(PartitionError):
            minimize_cost_redistribution(np.arange(2), [1, 1], [1, 1], -5)

    def test_brute_force_p_limit(self):
        with pytest.raises(PartitionError):
            brute_force_arrangement(np.arange(10), np.ones(10), np.ones(10), 10)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_mcr_gain_at_least_identity_gain(self, data):
        p = data.draw(st.integers(2, 5))
        oc = data.draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p))
        nc = data.draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p))
        n = data.draw(st.integers(p, 300))
        cm = RedistributionCostModel(message_weight=2.0)
        old = partition_list(n, oc)
        arr = minimize_cost_redistribution(np.arange(p), oc, nc, n, cost_model=cm)
        g_chosen = redistribution_gain(old, partition_list(n, nc, arr), cm)
        g_ident = redistribution_gain(old, partition_list(n, nc), cm)
        assert g_chosen >= g_ident - 1e-9

    def test_shares_just_under_an_integer(self):
        # n * c / sum(c) lands just below 31259 and 62518: both floors drop
        # one, so the largest-remainder step hands out p items.
        caps = np.array([0.2, 0.4])
        assert np.floor(93777 * caps / caps.sum()).sum() == 93777 - 2
        for cm in COST_MODELS:
            want, _ = scalar_mcr([1, 0], [0.5, 0.5], caps, 93777, cm)
            got = minimize_cost_redistribution(
                [1, 0], [0.5, 0.5], caps, 93777, cost_model=cm
            )
            np.testing.assert_array_equal(got, want)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, data):
        p = data.draw(st.integers(1, 9))
        start = data.draw(st.permutations(range(p)))
        old_caps = data.draw(capabilities(p))
        new_caps = data.draw(capabilities(p))
        n = data.draw(
            st.one_of(
                st.just(0),
                st.integers(0, p - 1),
                st.integers(0, 2_000),
                st.integers(10**5, 10**7),
            )
        )
        cm = data.draw(st.sampled_from(COST_MODELS))
        want, want_gain = scalar_mcr(start, old_caps, new_caps, n, cm)
        got = minimize_cost_redistribution(
            start, old_caps, new_caps, n, cost_model=cm
        )
        np.testing.assert_array_equal(got, want)
        gain = redistribution_gain(
            partition_list(n, old_caps, start), partition_list(n, new_caps, got), cm
        )
        assert gain == want_gain
