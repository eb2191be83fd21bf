"""Deferred planning in the CostTable warm-up path.

A ``latency()`` miss may price its warm memory term in closed form and
defer the allocator's cold/warm planning pair until something reads the
allocator.  Differential test: a deferring runtime against one whose
allocator was read before the first call (which ends deferral, so it
plans every pass), over interleavings of ``latency()`` (single misses
and warm-up sweeps), ``infer()``, ``host_path_stats()``,
``invalidate_caches()`` and allocator reads, across every guard of the
closed form.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import allocator_state
from repro.gpusim import RTX_2060
from repro.gpusim.memory import DeviceMemory, OutOfDeviceMemoryError
from repro.memory import TurboAllocator
from repro.models import build_encoder_graph, tiny_bert
from repro.observability import MetricsRegistry
from repro.runtime import TURBO_CHARACTERISTICS, InferenceRuntime

GRAPH = build_encoder_graph(tiny_bert())

#: Small chunks, so shapes spread over many chunks and smaller shapes
#: leave some unused: the release bookkeeping the parity lemma is about.
CHUNK_BYTES = 32 * 1024

BATCHES = range(1, 5)
LENGTHS = (8, 16, 24, 40, 64, 100, 128)


def make_runtime(release_after, cap, registry):
    def factory():
        return TurboAllocator(
            DeviceMemory(capacity_bytes=cap), chunk_size=CHUNK_BYTES,
            release_after=release_after,
            metrics=MetricsRegistry() if registry else None)

    return InferenceRuntime(GRAPH, TURBO_CHARACTERISTICS, RTX_2060,
                            allocator_factory=factory)


def apply(runtime, op):
    """One observation of ``runtime``: a value or the OOM raised."""
    kind = op[0]
    try:
        if kind == "latency":
            return runtime.latency(op[1], op[2])
        if kind == "sweep":  # warmup_profile's order
            return [runtime.latency(b, s) for s in LENGTHS for b in BATCHES]
        if kind == "invalidate":
            return runtime.invalidate_caches()
        if kind == "infer":
            r = runtime.infer(op[1], op[2])
            return (r.latency_s, r.memory_overhead_s, r.allocation)
        if kind == "stats":
            return runtime.host_path_stats()
        return allocator_state(runtime)
    except OutOfDeviceMemoryError as exc:  # under a device cap
        return str(exc)


shapes = st.tuples(st.sampled_from(BATCHES), st.sampled_from(LENGTHS))
#: Mostly latency() misses, the deferrable call; the rest flush plans
#: (invalidate), end deferral (infer, an allocator read) or read the
#: host-path counters (stats).
ops = st.lists(st.one_of(
    *[shapes.map(lambda s: ("latency",) + s)] * 5,
    st.just(("sweep",)),
    st.just(("invalidate",)),
    shapes.map(lambda s: ("infer",) + s),
    st.just(("stats",)),
    st.just(("read",)),
), min_size=1, max_size=24)


class TestDeferredPlanning:
    @given(ops=ops,
           release_after=st.sampled_from([None] + list(range(10))),
           cap=st.sampled_from([0, 0, 0, 1 << 20]),
           registry=st.sampled_from([False, False, False, True]))
    @example(ops=[("latency", 1, 64), ("latency", 1, 8)], release_after=1,
             cap=0, registry=False)
    @example(ops=[("latency", 4, 128), ("latency", 1, 8)] * 5,
             release_after=7, cap=0, registry=False)
    @settings(max_examples=150, deadline=None)
    def test_matches_planning_runtime(self, ops, release_after, cap,
                                      registry):
        config = (release_after, cap, registry)
        deferring = make_runtime(*config)
        planning = make_runtime(*config)
        _ = planning.allocator  # ends deferral before the first plan
        for op in ops:
            assert apply(deferring, op) == apply(planning, op), op
        assert allocator_state(deferring) == allocator_state(planning)

    @pytest.mark.parametrize("release_after", [None, 0, 7, 8])
    def test_odd_release_after_frees_in_the_warm_pass(self, release_after):
        """The parity lemma's converse: with an odd ``release_after`` a
        warm pass does free chunks on this sweep, so the guard is
        load-bearing; with ``None`` or an even one it never does."""
        runtime = make_runtime(release_after, 0, False)
        allocator = runtime.allocator
        warm_frees = 0
        for seq in (128, 16, 128, 8) * 3:
            for batch in (4, 1, 2):
                records = runtime.usage_records(batch, seq)
                allocator.process_request(records)  # cold
                before = allocator.device_memory.free_calls
                allocator.process_request(records)  # warm
                warm_frees += allocator.device_memory.free_calls - before
        assert (warm_frees > 0) == (release_after == 7)

    def test_warm_up_runs_no_plan_until_the_allocator_is_read(self):
        runtime = make_runtime(8, 0, False)
        for seq in (16, 64, 128):
            runtime.latency(2, seq)
        assert runtime._deferred == [(2, 16), (2, 64), (2, 128)]
        assert runtime._allocator.requests_processed == 0
        assert runtime._allocator.plan_hits == 0
        allocator = runtime.allocator
        assert runtime._deferred is None
        assert allocator.requests_processed == 6
        # Each warm pass re-places every record of its cold pass.
        records = sum(len(runtime.usage_records(2, seq))
                      for seq in (16, 64, 128))
        assert allocator.plan_hits >= records
        hits = allocator.plan_hits
        runtime.latency(1, 16)  # deferral has ended: plans at once
        assert allocator.requests_processed == 8
        assert allocator.plan_hits > hits

    @pytest.mark.parametrize("config", [
        (7, 0, False),        # odd release_after
        (8, 1 << 20, False),  # device cap
        (1, 0, False),        # smallest odd release_after
        (8, 0, True),         # metrics registry
    ])
    def test_guards_plan_at_once(self, config):
        runtime = make_runtime(*config)
        runtime.latency(2, 64)
        assert runtime._deferred == []
        assert runtime._allocator.requests_processed == 2
