"""Property-based tests: every allocator yields safe plans on random
workloads, footprints respect the peak-live lower bound, and Algorithm 1
planning is idempotent."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.memory import DeviceMemory
from repro.memory import (
    GsocAllocator,
    TensorUsageRecord,
    TurboAllocator,
    gsoc_offsets,
    peak_live_bytes,
    validate_plan,
)


@st.composite
def usage_records(draw, max_tensors=16, max_ops=12, max_size=50_000):
    n = draw(st.integers(1, max_tensors))
    records = []
    for i in range(n):
        first = draw(st.integers(0, max_ops - 1))
        last = draw(st.integers(first, max_ops - 1))
        size = draw(st.integers(1, max_size))
        records.append(TensorUsageRecord(f"t{i}", first, last, size))
    return records


class TestTurboAllocatorProperties:
    @given(usage_records())
    @settings(max_examples=100, deadline=None)
    def test_plan_never_aliases_live_tensors(self, records):
        allocator = TurboAllocator(chunk_size=16384)
        plan = allocator.plan(records)
        validate_plan(plan, records)

    @given(usage_records())
    @settings(max_examples=60, deadline=None)
    def test_footprint_at_least_peak_live(self, records):
        allocator = TurboAllocator(chunk_size=16384)
        allocator.plan(records)
        assert allocator.footprint_bytes >= peak_live_bytes(records)

    @given(st.lists(usage_records(max_tensors=10), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_replanning_stream_stays_safe(self, request_stream):
        """Chunk reuse across requests must never corrupt a later plan."""
        allocator = TurboAllocator(chunk_size=16384)
        for records in request_stream:
            plan = allocator.plan(records)
            validate_plan(plan, records)

    @given(usage_records())
    @settings(max_examples=60, deadline=None)
    def test_plan_deterministic(self, records):
        a = TurboAllocator(chunk_size=16384).plan(records)
        b = TurboAllocator(chunk_size=16384).plan(records)
        assert a.placements == b.placements
        assert a.chunk_sizes == b.chunk_sizes


class TestGsocProperties:
    @given(usage_records())
    @settings(max_examples=100, deadline=None)
    def test_offsets_never_alias_live_tensors(self, records):
        allocator = GsocAllocator()
        result = allocator.process_request(records)
        validate_plan(result.plan, records)

    @given(usage_records())
    @settings(max_examples=60, deadline=None)
    def test_arena_at_least_peak_live(self, records):
        _, arena = gsoc_offsets(records)
        assert arena >= peak_live_bytes(records)

    @given(usage_records())
    @settings(max_examples=60, deadline=None)
    def test_gsoc_arena_not_larger_than_turbo_footprint_much(self, records):
        """GSOC is the near-optimal packing reference: a fresh Turbo plan
        (chunked) should be within a constant factor of it."""
        _, arena = gsoc_offsets(records)
        turbo = TurboAllocator(chunk_size=16384)
        turbo.plan(records)
        # Chunk quantization can only add bounded slack per chunk.
        assert turbo.footprint_bytes <= max(3 * arena, arena + 16384 * 2)


def _placements(allocation):
    return {name: (p.chunk_id, p.offset)
            for name, p in allocation.plan.placements.items()}


def _chunks(allocator):
    return [(c.chunk_id, c.size) for c in allocator.chunks]


class TestPlanningIdempotent:
    """Re-planning the records of the last plan reproduces it and mallocs
    nothing; the runtime's deferred warm-up pass rests on this."""

    @given(history=st.lists(usage_records(max_size=40_000), max_size=2),
           records=usage_records(max_size=40_000),
           chunk_size=st.sampled_from([4096, 16384, 65536]),
           release_after=st.sampled_from([None] + list(range(10))),
           gap_search=st.sampled_from(["fast", "reference"]))
    @settings(max_examples=200, deadline=None)
    def test_second_plan_replays_the_first(self, history, records,
                                           chunk_size, release_after,
                                           gap_search):
        allocator = TurboAllocator(DeviceMemory(), chunk_size=chunk_size,
                                   release_after=release_after,
                                   gap_search=gap_search)
        for earlier in history:  # leaves chunks the records may not use
            allocator.process_request(earlier)
        first = allocator.process_request(records)
        want, before = _placements(first), _chunks(allocator)
        second = allocator.process_request(records)
        after = _chunks(allocator)
        assert second.new_bytes == 0
        assert _placements(second) == want
        assert second.plan.chunk_sizes == first.plan.chunk_sizes
        if not history:  # every chunk is in use: the list stays as it is
            assert after == before
        # Otherwise release bookkeeping may drop chunks neither plan uses.
        dropped = [c for c in before if c not in after]
        assert after == [c for c in before if c not in dropped]
        assert not {cid for cid, _ in dropped} & first.plan.chunk_sizes.keys()
