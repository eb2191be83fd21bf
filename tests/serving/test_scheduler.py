"""Batch schedulers — DP optimality (Algorithm 3) and baselines."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    DPBatchScheduler,
    FixedPadScheduler,
    NaiveBatchScheduler,
    NoBatchScheduler,
    PrunedDPBatchScheduler,
    Request,
    contiguous_optimal_makespan,
    schedule_makespan,
    throughput_of_schedule,
)

from .partition_oracle import set_partition_optimum, set_partitions


def reqs(lengths):
    return [Request(req_id=i, seq_len=l, arrival_s=0.0) for i, l in enumerate(lengths)]


def affine_cost(fixed=0.5, per_token=0.05, alpha=0.9):
    def cost(seq_len, batch):
        return fixed + per_token * seq_len * batch ** alpha
    return cost


def all_set_partitions(items):
    """Every partition of a list into non-empty groups (Bell number many)."""
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for partition in all_set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


class TestDPScheduler:
    def test_covers_every_request_once(self):
        requests = reqs([17, 18, 52, 63, 77])
        batches = DPBatchScheduler().schedule(requests, affine_cost(), 20)
        scheduled = [r.req_id for b in batches for r in b.requests]
        assert sorted(scheduled) == list(range(5))

    def test_respects_max_batch(self):
        requests = reqs([10] * 50)
        batches = DPBatchScheduler().schedule(requests, affine_cost(), 8)
        assert all(b.size <= 8 for b in batches)

    def test_matches_contiguous_brute_force(self):
        requests = reqs([17, 18, 52, 63, 77, 4, 91, 33])
        dp = DPBatchScheduler()
        got = dp.optimal_makespan(requests, affine_cost(), 20)
        want = contiguous_optimal_makespan(requests, affine_cost(), 20)
        assert got == pytest.approx(want)

    def test_optimal_over_all_set_partitions(self):
        """With cost monotone in length, the sorted-contiguous DP optimum
        is globally optimal over every partition of the request set."""
        lengths = [17, 18, 52, 63, 77, 30]
        requests = reqs(lengths)
        cost = affine_cost()
        dp_makespan = DPBatchScheduler().optimal_makespan(requests, cost, 20)
        best = math.inf
        for partition in all_set_partitions(lengths):
            total = sum(cost(max(group), len(group)) for group in partition)
            best = min(best, total)
        assert dp_makespan == pytest.approx(best)

    def test_identical_lengths_fill_batches(self):
        """Equal lengths have zero padding cost: batching always wins under
        sub-linear batch scaling, so the DP should fill max_batch."""
        requests = reqs([50] * 12)
        batches = DPBatchScheduler().schedule(requests, affine_cost(), 6)
        assert sorted(b.size for b in batches) == [6, 6]

    def test_extreme_length_gap_splits(self):
        """A tiny and a huge request shouldn't share a batch when the cost
        is dominated by padded length."""
        cost = affine_cost(fixed=0.001, per_token=1.0, alpha=1.0)
        batches = DPBatchScheduler().schedule(reqs([5, 500]), cost, 20)
        assert len(batches) == 2

    def test_strong_fixed_cost_merges(self):
        """A huge per-batch fixed cost forces one batch."""
        cost = affine_cost(fixed=1000.0, per_token=0.001)
        batches = DPBatchScheduler().schedule(reqs([5, 500]), cost, 20)
        assert len(batches) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DPBatchScheduler().schedule([], affine_cost(), 20)

    @given(
        st.lists(st.integers(1, 500), min_size=1, max_size=12),
        st.floats(0.01, 5.0),
        st.floats(0.001, 0.2),
        st.floats(0.5, 1.0),
        st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_dp_never_worse_than_baselines(self, lengths, fixed, per_token,
                                           alpha, max_batch):
        """Property: DP <= naive and DP <= no-batch for any workload/cost."""
        requests = reqs(lengths)
        cost = affine_cost(fixed, per_token, alpha)
        dp = schedule_makespan(
            DPBatchScheduler().schedule(requests, cost, max_batch), cost
        )
        naive = schedule_makespan(
            NaiveBatchScheduler().schedule(requests, cost, max_batch), cost
        )
        nobatch = schedule_makespan(
            NoBatchScheduler().schedule(requests, cost, max_batch), cost
        )
        assert dp <= naive + 1e-9
        assert dp <= nobatch + 1e-9

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_dp_matches_brute_force_property(self, lengths):
        requests = reqs(lengths)
        cost = affine_cost()
        got = DPBatchScheduler().optimal_makespan(requests, cost, 20)
        want = contiguous_optimal_makespan(requests, cost, 20)
        assert got == pytest.approx(want)


LENGTH_GRID = (16, 32, 48, 64, 80, 96)


@st.composite
def length_monotone_costs(draw, max_batch=7):
    """An integer cost table, non-decreasing in length for every batch
    size and arbitrary across batch sizes.  Integer costs sum exactly,
    so optimality is checked with ``==``."""
    table = {}
    for batch in range(1, max_batch + 1):
        cost = draw(st.integers(1, 50))
        for length in LENGTH_GRID:
            cost += draw(st.integers(0, 20))
            table[length, batch] = cost
    return lambda seq_len, batch: table[seq_len, batch]


class TestSetPartitionOracle:
    """Algorithm 3 against every set partition, not its own recurrence."""

    @pytest.mark.parametrize("n, max_batch, count", [
        (1, 1, 1), (4, 4, 15), (5, 5, 52), (7, 7, 877),  # Bell numbers
        (4, 2, 10), (5, 1, 1), (6, 3, 166),  # 203 less 37 with a block > 3
    ])
    def test_enumeration_counts(self, n, max_batch, count):
        partitions = list(set_partitions(list(range(n)), max_batch))
        assert len(partitions) == count
        canonical = {tuple(sorted(tuple(sorted(g)) for g in p))
                     for p in partitions}
        assert len(canonical) == count
        assert all(len(g) <= max_batch for p in partitions for g in p)

    @given(st.lists(st.sampled_from(LENGTH_GRID), min_size=1, max_size=7),
           length_monotone_costs(), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_dp_is_exactly_optimal_under_length_monotone_cost(
            self, lengths, cost, max_batch):
        want = set_partition_optimum(lengths, cost, max_batch)
        assert DPBatchScheduler().optimal_makespan(
            reqs(lengths), cost, max_batch) == want
        pruned = PrunedDPBatchScheduler().schedule(reqs(lengths), cost,
                                                   max_batch)
        assert schedule_makespan(pruned, cost) == want

    def test_oracle_sees_past_sorted_contiguity(self):
        """Under a cost that is not monotone in length, the best
        partition can pair the shortest and longest requests, which no
        contiguous partition of the sorted queue does."""
        table = {(10, 1): 100, (20, 1): 1, (30, 1): 100,
                 (20, 2): 100, (30, 2): 1}

        def cost(seq_len, batch):
            return table[seq_len, batch]

        assert set_partition_optimum([10, 20, 30], cost, 2) == 2
        assert contiguous_optimal_makespan(reqs([10, 20, 30]), cost, 2) == 101
        assert DPBatchScheduler().optimal_makespan(
            reqs([10, 20, 30]), cost, 2) == 101

    @pytest.mark.parametrize("requests,max_batch,match", [
        ([], 4, "empty request list"),
        ([], None, "empty request list"),
        ([10, 20], 0, "max_batch must be positive"),
        ([10, 20], -1, "max_batch must be positive"),
    ])
    def test_contiguous_reference_rejects_what_schedulers_reject(
            self, requests, max_batch, match):
        """No ``inf`` for a zero cap and no ``0.0`` for an empty queue:
        the reference refuses both, with the schedulers' messages."""
        with pytest.raises(ValueError, match=match):
            contiguous_optimal_makespan(reqs(requests), affine_cost(),
                                        max_batch)


class TestBaselineSchedulers:
    def test_nobatch_singletons(self):
        batches = NoBatchScheduler().schedule(reqs([1, 2, 3]), affine_cost(), 20)
        assert [b.size for b in batches] == [1, 1, 1]

    def test_naive_single_batch(self):
        batches = NaiveBatchScheduler().schedule(reqs([10, 20, 30]), affine_cost(), 20)
        assert len(batches) == 1
        assert batches[0].padded_len == 30

    def test_naive_chunks_at_max_batch(self):
        batches = NaiveBatchScheduler().schedule(reqs([10] * 45), affine_cost(), 20)
        assert [b.size for b in batches] == [20, 20, 5]

    def test_fixed_pad_static_shape(self):
        scheduler = FixedPadScheduler(pad_len=500, batch_size=8)
        batches = scheduler.schedule(reqs([10, 20, 30]), affine_cost(), 20)
        assert len(batches) == 1
        assert batches[0].padded_len == 500
        assert batches[0].cost_batch_size == 8

    def test_fixed_pad_rejects_overlong(self):
        scheduler = FixedPadScheduler(pad_len=100, batch_size=4)
        with pytest.raises(ValueError, match="longer than"):
            scheduler.schedule(reqs([150]), affine_cost(), 20)

    def test_throughput_metric(self):
        cost = affine_cost()
        batches = NoBatchScheduler().schedule(reqs([10, 10]), cost, 20)
        rps = throughput_of_schedule(batches, cost)
        assert rps == pytest.approx(2 / (2 * cost(10, 1)))
