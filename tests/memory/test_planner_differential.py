"""Differential test: the lifetime-indexed Algorithm 1 planner against the
seed planner (``TurboAllocator(gap_search="reference")``).

Both serve the same stream of requests; after every plan they must agree
on placements, the chunk list, hit/miss/release counters, device stalls
and allocated bytes, and the published metrics.  The streams include an
empty request, one-op lifetimes, size and name ties and tensors larger
than a chunk, and a capacity-limited device on which both planners
must fail the same ``cudaMalloc`` and leave the same partial plan.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.memory import DeviceMemory, OutOfDeviceMemoryError
from repro.graph import tensor_usage_records
from repro.memory import TensorUsageRecord, TurboAllocator
from repro.observability import MetricsRegistry

CHUNK_SIZE = 256


@st.composite
def record_lists(draw):
    """0-12 records over 10 ops; small name and size pools make ties
    common, and sizes up to 400 exceed the 256-byte chunk."""
    records = []
    for _ in range(draw(st.integers(0, 12))):
        first = draw(st.integers(0, 9))
        last = draw(st.one_of(st.just(first), st.integers(first, 9)))
        size = draw(st.one_of(st.sampled_from([16, 64, 128, 256]),
                              st.integers(1, 400)))
        name = draw(st.sampled_from("abcdefgh"))
        records.append(TensorUsageRecord(name, first, last, size))
    return records


def _metrics_json(registry):
    if registry is None:
        return None
    return json.dumps(registry.to_dict(), sort_keys=True)


def _serve(allocator, records):
    """The request's allocation, or None if the device ran out."""
    try:
        return allocator.process_request(records)
    except OutOfDeviceMemoryError:
        return None


def _state(allocator, allocation, registry):
    device = allocator.device_memory
    return {
        "chunks": [(c.chunk_id, c.size) for c in allocator.chunks],
        "layout": allocator.chunk_layout(),
        "hits": allocator.plan_hits,
        "misses": allocator.plan_misses,
        "releases": allocator.chunks_released,
        "stall_s": device.stall_s,
        "total_alloc_bytes": device.total_alloc_bytes,
        "allocation": None if allocation is None else (
            allocation.new_bytes, allocation.footprint_bytes,
            allocation.peak_bytes, allocation.stall_s),
        "metrics": _metrics_json(registry),
    }


def _placements(plan):
    return {name: (p.chunk_id, p.offset)
            for name, p in plan.placements.items()}


class TestIndexedPlannerMatchesReference:
    @given(stream=st.lists(record_lists(), min_size=1, max_size=6),
           release_after=st.sampled_from([0, 1, 8, None]),
           with_metrics=st.booleans(),
           capacity=st.sampled_from([0, 0, 1024]))
    @settings(max_examples=200, deadline=None)
    def test_stream_identical_to_reference(self, stream, release_after,
                                           with_metrics, capacity):
        stream = stream + [[]] + stream  # an empty request, then replays
        ref_metrics = MetricsRegistry() if with_metrics else None
        fast_metrics = MetricsRegistry() if with_metrics else None
        reference = TurboAllocator(
            DeviceMemory(capacity_bytes=capacity), chunk_size=CHUNK_SIZE,
            release_after=release_after, metrics=ref_metrics,
            gap_search="reference")
        fast = TurboAllocator(
            DeviceMemory(capacity_bytes=capacity), chunk_size=CHUNK_SIZE,
            release_after=release_after, metrics=fast_metrics)
        want_placements = []
        fast_plans = []
        for records in stream:
            want = _serve(reference, records)
            got = _serve(fast, records)
            assert _state(fast, got, fast_metrics) == \
                _state(reference, want, ref_metrics)
            if want is not None:
                # Read the reference plan now, the fast one only after
                # every later plan() has run: a plan built on read keeps
                # its own placements.
                want_placements.append(_placements(want.plan))
                fast_plans.append(got.plan)
        for want, plan in zip(want_placements, fast_plans):
            assert _placements(plan) == want

    def test_gap_search_modes_identical_placements(self, bert_graph):
        fast = TurboAllocator(DeviceMemory())
        reference = TurboAllocator(DeviceMemory(), gap_search="reference")
        for batch, seq in [(1, 16), (3, 96), (6, 256)]:
            records = tensor_usage_records(bert_graph,
                                           {"batch": batch, "seq": seq})
            got = fast.process_request(records)
            want = reference.process_request(records)
            assert _placements(got.plan) == _placements(want.plan)

    def test_gap_search_validated(self):
        with pytest.raises(ValueError):
            TurboAllocator(DeviceMemory(), gap_search="bogus")
