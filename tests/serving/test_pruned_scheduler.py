"""PrunedDPBatchScheduler: identical partitions to the reference DP."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    DPBatchScheduler,
    FixedPadScheduler,
    NaiveBatchScheduler,
    NoBatchScheduler,
    PackedBatchScheduler,
    PrunedDPBatchScheduler,
    Request,
    batch_execution_cost,
    schedule_makespan,
)

from .partition_oracle import set_partition_optimum


def reqs(lengths):
    return [Request(req_id=i, seq_len=l, arrival_s=0.0)
            for i, l in enumerate(lengths)]


def monotone_cost(seq_len, batch):
    return (1.0 + 0.002 * seq_len) * (0.3 + 0.1 * batch) * 1e-3


def affine_cost(seq_len, batch):
    return 0.5 + 0.05 * seq_len * batch ** 0.9


def jagged_cost(seq_len, batch):
    """Deliberately NOT monotone in batch size."""
    return 1.0 + 0.01 * seq_len + (0.3 if batch % 3 == 0 else 1.0) * batch


def partition(batches):
    return [[r.req_id for r in b.requests] for b in batches]


class TestIdenticalPartitions:
    def test_random_monotone_workloads(self):
        rng = random.Random(7)
        for trial in range(150):
            lengths = [rng.randrange(1, 33) * 16
                       for _ in range(rng.randrange(1, 40))]
            max_batch = rng.randrange(1, 17)
            reference = DPBatchScheduler().schedule(
                reqs(lengths), monotone_cost, max_batch)
            pruned = PrunedDPBatchScheduler().schedule(
                reqs(lengths), monotone_cost, max_batch)
            assert partition(pruned) == partition(reference), \
                f"trial {trial}: lengths={lengths} max_batch={max_batch}"

    def test_non_monotone_cost_stays_exact(self):
        rng = random.Random(13)
        scheduler = PrunedDPBatchScheduler()
        for trial in range(100):
            lengths = [rng.randrange(1, 200)
                       for _ in range(rng.randrange(1, 25))]
            max_batch = rng.randrange(1, 9)
            reference = DPBatchScheduler().schedule(
                reqs(lengths), jagged_cost, max_batch)
            pruned = scheduler.schedule(reqs(lengths), jagged_cost, max_batch)
            assert partition(pruned) == partition(reference), \
                f"trial {trial}: lengths={lengths} max_batch={max_batch}"

    def test_brute_force_certification(self):
        rng = random.Random(3)
        for _ in range(60):
            lengths = [rng.randrange(1, 100)
                       for _ in range(rng.randrange(1, 9))]
            max_batch = rng.randrange(1, 5)
            batches = PrunedDPBatchScheduler().schedule(
                reqs(lengths), affine_cost, max_batch)
            got = schedule_makespan(batches, affine_cost)
            want = set_partition_optimum(lengths, affine_cost, max_batch)
            assert abs(got - want) < 1e-9


class TestIncrementalReuse:
    """Cost rows are memoised across rounds and dropped when the cost
    function or ``max_batch`` changes."""

    def test_reset_on_cost_fn_change(self):
        scheduler = PrunedDPBatchScheduler()
        lengths = [16, 32, 48, 64]
        scheduler.schedule(reqs(lengths), monotone_cost, 4)
        # New cost function: memoized rows must not leak across.
        got = scheduler.schedule(reqs(lengths), affine_cost, 4)
        want = DPBatchScheduler().schedule(reqs(lengths), affine_cost, 4)
        assert partition(got) == partition(want)

    def test_reset_on_max_batch_change(self):
        scheduler = PrunedDPBatchScheduler()
        lengths = [16, 16, 32, 32, 48, 48]
        scheduler.schedule(reqs(lengths), monotone_cost, 2)
        got = scheduler.schedule(reqs(lengths), monotone_cost, 6)
        want = DPBatchScheduler().schedule(reqs(lengths), monotone_cost, 6)
        assert partition(got) == partition(want)

    def test_cost_fn_raising_midway_leaves_a_consistent_memo(self):
        """A round whose cost_fn raises partway through a new row stores
        no row for it and counts none of its calls; the next round prices
        the row afresh and equals the reference."""
        fail = {"armed": True}

        def flaky_cost(seq_len, batch):
            if (seq_len, batch) == (40, 3) and fail["armed"]:
                fail["armed"] = False
                raise RuntimeError("profiling gap")
            return monotone_cost(seq_len, batch)

        scheduler = PrunedDPBatchScheduler()
        scheduler.schedule(reqs([16, 32, 48, 64, 80]), flaky_cost, 4)
        before = scheduler.stats()
        gapped = [16, 32, 40, 48]
        with pytest.raises(RuntimeError):
            scheduler.schedule(reqs(gapped), flaky_cost, 4)
        after = scheduler.stats()
        assert 40 not in scheduler._rows
        assert after["cost_calls"] == before["cost_calls"] == 5 * 4
        assert after["distinct_lengths"] == before["distinct_lengths"] == 5
        got = scheduler.schedule(reqs(gapped), flaky_cost, 4)
        want = DPBatchScheduler().schedule(reqs(gapped), flaky_cost, 4)
        assert partition(got) == partition(want)
        assert scheduler.stats()["cost_calls"] == 6 * 4


class TestGenerationCostTable:
    def test_identical_partitions_on_generation_costs(self):
        """Property test with a cost table built from *generation* costs
        (prefill + decode through GenerationRuntime) rather than a
        closed-form stand-in — the table the request-level generation
        server schedules with.  Pruned DP must emit the identical
        partition."""
        from repro.gpusim import RTX_2060
        from repro.models import (
            build_decode_step_graph,
            build_prefill_graph,
            tiny_gpt,
        )
        from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
        from repro.serving import request_level_cost_fn

        config = tiny_gpt()
        runtime = GenerationRuntime(build_prefill_graph(config),
                                    build_decode_step_graph(config),
                                    TURBO_CHARACTERISTICS, RTX_2060)
        gen_cost = request_level_cost_fn(runtime, est_new_tokens=8)

        rng = random.Random(23)
        pruned = PrunedDPBatchScheduler()
        for trial in range(40):
            lengths = [rng.randrange(1, 9) * 8
                       for _ in range(rng.randrange(1, 25))]
            max_batch = rng.randrange(1, 9)
            reference = DPBatchScheduler().schedule(
                reqs(lengths), gen_cost, max_batch)
            got = pruned.schedule(reqs(lengths), gen_cost, max_batch)
            assert partition(got) == partition(reference), \
                f"trial {trial}: lengths={lengths} max_batch={max_batch}"

    def test_generation_makespan_matches_brute_force(self):
        from repro.gpusim import RTX_2060
        from repro.models import (
            build_decode_step_graph,
            build_prefill_graph,
            tiny_gpt,
        )
        from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
        from repro.serving import request_level_cost_fn

        config = tiny_gpt()
        runtime = GenerationRuntime(build_prefill_graph(config),
                                    build_decode_step_graph(config),
                                    TURBO_CHARACTERISTICS, RTX_2060)
        gen_cost = request_level_cost_fn(runtime, est_new_tokens=4)
        lengths = [8, 8, 16, 24, 32, 40]
        batches = PrunedDPBatchScheduler().schedule(reqs(lengths), gen_cost, 3)
        got = schedule_makespan(batches, gen_cost)
        want = set_partition_optimum(lengths, gen_cost, 3)
        assert got == pytest.approx(want, rel=1e-12)


class TestStats:
    def test_counters_populated(self):
        scheduler = PrunedDPBatchScheduler()
        scheduler.schedule(reqs([16] * 20 + [32] * 20), monotone_cost, 8)
        stats = scheduler.stats()
        assert stats["rounds"] == 1
        assert stats["distinct_lengths"] == 2
        assert stats["cost_calls"] == 16  # 2 rows x max_batch

    def test_reset_clears_state(self):
        scheduler = PrunedDPBatchScheduler()
        scheduler.schedule(reqs([16, 32]), monotone_cost, 2)
        scheduler.reset()
        assert scheduler.stats()["distinct_lengths"] == 0


# -- differential property over sequences of rounds ---------------------------

LENGTH = st.integers(1, 30).map(lambda k: 16 * k)


def late_jagged_cost(seq_len, batch):
    """Monotone for short lengths, not monotone in batch size from 320
    up."""
    if seq_len < 320:
        return monotone_cost(seq_len, batch)
    return monotone_cost(seq_len, batch) * (0.5 if batch % 2 == 0 else 1.0)


def dip_cost(seq_len, batch):
    """Monotone in batch size, but long rows price *below* shorter ones."""
    scale = 0.4 if seq_len >= 400 else 1.0
    return monotone_cost(seq_len, batch) * scale


COSTS = (monotone_cost, affine_cost, jagged_cost, late_jagged_cost, dip_cost)

STEP = st.one_of(
    st.tuples(st.just("grow"), st.lists(LENGTH, min_size=1, max_size=8)),
    st.tuples(st.just("shrink"), st.integers(1, 8)),
    st.tuples(st.just("pop"), st.integers(1, 8)),
    st.tuples(st.just("repeat"), st.none()),
    st.tuples(st.just("fork"), st.integers(0, 12),
              st.lists(LENGTH, min_size=1, max_size=8)),
    st.tuples(st.just("cost"), st.integers(0, len(COSTS) - 1)),
    st.tuples(st.just("max_batch"), st.integers(1, 10)),
    st.tuples(st.just("reset"), st.none()),
    # A one-request round: None keeps the shortest queued length (the
    # previous round's sorted prefix), a drawn length usually breaks it.
    st.tuples(st.just("single"), st.one_of(st.none(), LENGTH)),
)


def batch_keys(batches):
    return [(tuple(r.req_id for r in b.requests), b.padded_len)
            for b in batches]


def apply_step(queue, step):
    """The queue's lengths (arrival order) after one step, or None when
    the step does not touch the queue."""
    kind = step[0]
    if kind == "grow":
        return queue + step[1]
    if kind == "shrink":  # drop the longest: the sorted prefix survives
        keep = sorted(range(len(queue)), key=lambda i: queue[i])
        keep = sorted(keep[:max(0, len(queue) - step[1])])
        return [queue[i] for i in keep]
    if kind == "pop":  # drop the oldest, like a round_limit drain
        return queue[step[1]:]
    if kind == "repeat":
        return list(queue)
    if kind == "fork":  # keep a sorted-length prefix, replace the rest
        return sorted(queue)[:step[1]] + step[2]
    if kind == "single":
        return [min(queue) if step[1] is None else step[1]]
    return None


class TestDifferentialRounds:
    @settings(max_examples=150, deadline=None)
    @given(initial=st.lists(LENGTH, min_size=1, max_size=10),
           steps=st.lists(STEP, min_size=1, max_size=25))
    def test_round_sequences_match_reference(self, initial, steps):
        """Every round of a stateful pruned scheduler (cost rows memoised
        across rounds, queues that share sorted prefixes, one-request
        rounds between longer ones) partitions exactly like a fresh
        reference DP."""
        pruned = PrunedDPBatchScheduler()
        reference = DPBatchScheduler()
        queue, cost_fn, max_batch = list(initial), monotone_cost, 4
        for round_no, step in enumerate([("repeat", None)] + steps):
            if step[0] == "cost":
                cost_fn = COSTS[step[1]]
            elif step[0] == "max_batch":
                max_batch = step[1]
            elif step[0] == "reset":
                pruned.reset()
            else:
                queue = apply_step(queue, step)
            if not queue:
                queue = [16]
            got = pruned.schedule(reqs(queue), cost_fn, max_batch)
            want = reference.schedule(reqs(queue), cost_fn, max_batch)
            assert batch_keys(got) == batch_keys(want), \
                f"round {round_no} after {step}: queue={queue}"


class TestStatsGolden:
    def test_fixed_seed_counters(self):
        """Fast-path counters of a fixed round sequence — growing and
        draining queues, then a cost function that stops being monotone
        partway, then a max_batch switch.  Two singleton-heavy phases
        follow (pinned before one-request rounds skipped the general DP):
        a lightly loaded server drains its whole queue each round, so
        most rounds hold one request, first over the memoised monotone
        rows, then under a fresh non-monotone cost."""
        rng = random.Random(2024)
        scheduler = PrunedDPBatchScheduler()
        queue = []
        phases = ((monotone_cost, 8), (late_jagged_cost, 8),
                  (monotone_cost, 5))
        snapshots = []
        for cost_fn, max_batch in phases:
            for _ in range(120):
                queue += [rng.randrange(1, 31) * 16
                          for _ in range(rng.randrange(0, 7))]
                if not queue:
                    continue
                scheduler.schedule(reqs(queue), cost_fn, max_batch)
                queue = queue[rng.randrange(0, len(queue) // 2 + 1):]
            snapshots.append(scheduler.stats())
        for cost_fn in (monotone_cost, dip_cost):
            for _ in range(200):
                queue = [rng.choice((16, 32, 48, 400, 416))
                         for _ in range(rng.choice((1, 1, 1, 2, 3)))]
                scheduler.schedule(reqs(queue), cost_fn, 5)
            snapshots.append(scheduler.stats())
        assert snapshots == STATS_GOLDEN


STATS_GOLDEN = [
    {"rounds": 120, "cost_calls": 240, "distinct_lengths": 30},
    {"rounds": 240, "cost_calls": 480, "distinct_lengths": 30},
    {"rounds": 360, "cost_calls": 630, "distinct_lengths": 30},
    {"rounds": 560, "cost_calls": 630, "distinct_lengths": 30},
    {"rounds": 760, "cost_calls": 655, "distinct_lengths": 5},
]


# -- partition(): the DP's own index ranges and row cells ---------------------


def random_cost(seq_len, batch):
    """Arbitrary positive floats, fixed per cell: no structure at all."""
    return random.Random(seq_len * 64 + batch).uniform(0.1, 10.0)


PARTITION_COSTS = (monotone_cost, jagged_cost, random_cost)


def slices(order, ends):
    """Request ids of each batch of a ``partition()`` result."""
    return [[r.req_id for r in order[lo:hi]]
            for lo, hi in zip([0] + ends, ends)]


class TestPartition:
    @settings(max_examples=150, deadline=None)
    @given(initial=st.lists(LENGTH, min_size=1, max_size=10),
           steps=st.lists(STEP, min_size=1, max_size=25),
           cost=st.integers(0, len(PARTITION_COSTS) - 1))
    def test_partition_matches_schedule(self, initial, steps, cost):
        """Over round streams that share sorted prefixes, ``partition``
        hands back the reference DP's batches as slices of ``order``,
        each priced bit for bit as ``batch_execution_cost`` prices it,
        and leaves the rows and counters exactly as ``schedule`` does."""
        cost_fn = PARTITION_COSTS[cost]
        by_partition = PrunedDPBatchScheduler()
        by_schedule = PrunedDPBatchScheduler()
        reference = DPBatchScheduler()
        queue, max_batch = list(initial), 4
        for round_no, step in enumerate([("repeat", None)] + steps):
            if step[0] == "max_batch":
                max_batch = step[1]
            elif step[0] == "reset":
                by_partition.reset()
                by_schedule.reset()
            elif step[0] != "cost":
                queue = apply_step(queue, step)
            if not queue:
                queue = [16]
            want = reference.schedule(reqs(queue), cost_fn, max_batch)
            got, ends, costs = by_partition.partition(reqs(queue), cost_fn,
                                                      max_batch)
            assert slices(got, ends) == partition(want), f"round {round_no}"
            assert costs == [batch_execution_cost(b, cost_fn)
                             for b in want], f"round {round_no}"
            assert batch_keys(by_schedule.schedule(
                reqs(queue), cost_fn, max_batch)) == batch_keys(want)
        assert by_partition.stats() == by_schedule.stats()
        assert by_partition._rows == by_schedule._rows

    @pytest.mark.parametrize("make", [
        DPBatchScheduler,
        NoBatchScheduler,
        NaiveBatchScheduler,
        lambda: FixedPadScheduler(pad_len=512, batch_size=4),
        lambda: PackedBatchScheduler(
            lambda lengths: 1e-3 * (1 + sum(lengths)), max_tokens=256),
    ], ids=["dp", "nobatch", "naive", "fixedpad", "packed"])
    def test_base_default_agrees_with_schedule(self, make):
        """The base class derives ``partition`` from ``schedule``: the
        same members in the same order, priced with ``cost_override``
        and a padded batch dimension where a batch has them."""
        rng = random.Random(5)
        for _ in range(40):
            queue = reqs([rng.randrange(1, 33) * 16
                          for _ in range(rng.randrange(1, 20))])
            max_batch = rng.randrange(1, 9)
            batches = make().schedule(queue, jagged_cost, max_batch)
            order, ends, costs = make().partition(queue, jagged_cost,
                                                  max_batch)
            assert slices(order, ends) == partition(batches)
            assert costs == [batch_execution_cost(b, jagged_cost)
                             for b in batches]


# -- the measured RTX 2060 table ------------------------------------------------


@pytest.fixture(scope="module")
def warmed_table():
    """BERT-base on the RTX 2060, warmed over the serving grid (lengths
    16..512 by 16, batches 1..20): the table the Fig. 12 server uses."""
    from repro.gpusim import RTX_2060
    from repro.models import bert_base, build_encoder_graph
    from repro.runtime import turbo_runtime, warmup_profile

    runtime = turbo_runtime(graph=build_encoder_graph(bert_base()),
                            device=RTX_2060)
    return warmup_profile(runtime, 20, range(16, 513, 16))


class TestWarmedTable:
    def test_seven_cells_break_monotonicity(self, warmed_table):
        """The measured table is not monotone: four batch sizes of the
        shortest bucket and three lengths at batch 1 price below their
        smaller neighbour.  A bound that prunes DP transitions is sound
        only under a cost monotone in batch and length, so on the
        serving path it would never fire; the DP scheduler has none."""
        cost, grid = warmed_table.cost, warmed_table.lengths
        in_batch = [(length, b) for length in grid for b in range(2, 21)
                    if cost(length, b) < cost(length, b - 1)]
        in_length = [(length, b) for shorter, length in zip(grid, grid[1:])
                     for b in range(1, 21)
                     if cost(length, b) < cost(shorter, b)]
        assert in_batch == [(16, 5), (16, 9), (16, 13), (16, 17)]
        assert in_length == [(80, 1), (144, 1), (208, 1)]

    def test_dp_is_optimal_over_every_set_partition(self, warmed_table):
        """Sorting and cutting contiguously is optimal only when cost is
        monotone in length; on this table it still found the optimum of
        every small instance.  The oracle adds its batches in another
        order, so the totals agree to rounding, not bit for bit."""
        cost = warmed_table.cost
        rng = random.Random(2060)
        scheduler = PrunedDPBatchScheduler()
        for trial in range(2000):
            lengths = [rng.randint(5, 500) for _ in range(rng.randint(1, 7))]
            max_batch = rng.randint(1, 7)
            _, _, costs = scheduler.partition(reqs(lengths), cost, max_batch)
            want = set_partition_optimum(lengths, cost, max_batch)
            assert math.isclose(sum(costs), want, rel_tol=1e-12), \
                f"trial {trial}: lengths={lengths} max_batch={max_batch}"
