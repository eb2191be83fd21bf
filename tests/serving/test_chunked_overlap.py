"""Chunked prefill + dual-stream overlap in the continuous server.

The contract under test: ``chunk_tokens`` changes *timing only*.  Token
streams, completion sets and per-request generated counts must be
byte-identical to the unchunked loop; every emitted round schedule must
be race-free; and at saturating arrival rates the TTFT tail must flatten.
"""

from typing import List, Sequence, Tuple

import pytest

from repro.analysis.schedule_checks import check_emitted_schedules
from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.observability import MetricsRegistry, Tracer
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    generate_generation_requests,
    geometric_output_lengths,
    uniform_lengths,
)
from repro.serving.continuous import _window_overlap


def merged_busy_in_horizon(spans: Sequence[Tuple[float, float]],
                           horizon: float) -> float:
    """Busy seconds a set of ``(start, end)`` spans covers inside the
    horizon: merge the spans into disjoint intervals (concurrent streams
    are not double-counted, gaps are not credited), then clip each
    interval to the horizon.  The oracle for a round's one-window busy
    charge (``test_round_timing.py``)."""
    merged: List[List[float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return sum(_window_overlap(s, e - s, horizon) for s, e in merged)


CONFIG = tiny_gpt()
BPT = kv_bytes_per_token(CONFIG.num_layers, CONFIG.num_heads, CONFIG.head_size)


@pytest.fixture(scope="module")
def runtime():
    return GenerationRuntime(build_prefill_graph(CONFIG),
                             build_decode_step_graph(CONFIG),
                             TURBO_CHARACTERISTICS, RTX_2060, stride=1)


def make_arena(capacity_tokens=4096):
    return KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                        bytes_per_token=BPT, page_tokens=16)


def workload(rate=300.0, duration=0.5, seed=0):
    return generate_generation_requests(
        rate, duration, seed=seed,
        prompt_sampler=lambda rng, n: uniform_lengths(rng, n, lo=4, hi=32),
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=8.0, hi=32),
    )


def serve(runtime, chunk_tokens, rate=300.0, duration=0.5, seed=0,
          capacity_tokens=4096, **config_kw):
    requests = workload(rate, duration, seed)
    server = ContinuousBatchingServer(
        runtime, make_arena(capacity_tokens),
        ContinuousBatchingConfig(chunk_tokens=chunk_tokens, **config_kw),
    )
    metrics = server.serve(requests, duration_s=duration)
    return requests, server, metrics


def token_stream(requests):
    return [(r.req_id, r.state.name, r.generated, r.max_new_tokens)
            for r in sorted(requests, key=lambda r: r.req_id)]


class TestEquivalence:
    @pytest.mark.parametrize("chunk_tokens", [4, 8, 512])
    def test_token_streams_identical_to_unchunked(self, runtime,
                                                  chunk_tokens):
        base_reqs, _, base = serve(runtime, None)
        chunk_reqs, _, chunked = serve(runtime, chunk_tokens)
        assert token_stream(chunk_reqs) == token_stream(base_reqs)
        assert chunked.completed == base.completed
        assert chunked.tokens_generated == base.tokens_generated

    def test_identical_under_kv_pressure(self, runtime):
        # Preemption/restore path: a tight arena forces evictions.
        from repro.serving import KVPreemptionPolicy

        base_reqs, _, _ = serve(runtime, None, capacity_tokens=256,
                                preemption=KVPreemptionPolicy(2))
        chunk_reqs, _, _ = serve(runtime, 8, capacity_tokens=256,
                                 preemption=KVPreemptionPolicy(2))
        assert token_stream(chunk_reqs) == token_stream(base_reqs)

    def test_deterministic_across_runs(self, runtime):
        reqs_a, _, m_a = serve(runtime, 8)
        reqs_b, _, m_b = serve(runtime, 8)
        assert token_stream(reqs_a) == token_stream(reqs_b)
        assert m_a.ttft.p99_ms == m_b.ttft.p99_ms
        assert m_a.overlap_saved_s == m_b.overlap_saved_s
        assert m_a.prefill_chunks == m_b.prefill_chunks


class TestSchedules:
    def test_every_emitted_schedule_race_free(self, runtime):
        _, server, _ = serve(runtime, 8)
        assert server.emitted_schedules, "chunked run must emit schedules"
        assert check_emitted_schedules(server.emitted_schedules) == []

    def test_schedules_use_both_streams(self, runtime):
        _, server, _ = serve(runtime, 8)
        streams = {s for sched in server.emitted_schedules
                   for s in sched.streams()}
        assert "prefill" in streams
        assert "decode" in streams

    def test_unchunked_emits_one_program_per_prefill(self, runtime):
        # A serial pass is a round of one whole-pass chunk with no
        # overlapped decode step.
        _, server, m = serve(runtime, None)
        schedules = server.emitted_schedules
        assert len(schedules) == m.prefill_batches > 0
        assert check_emitted_schedules(schedules) == []
        for sched in schedules:
            assert [op.kernel for op in sched.launches()] == [
                "prefill.c0", "batch.reform"]


class TestMetrics:
    def test_chunked_metrics_populated(self, runtime):
        _, _, m = serve(runtime, 8)
        assert m.prefill_chunks > 0
        assert m.overlap_saved_s > 0.0
        assert m.stall_s >= 0.0

    def test_unchunked_metrics_zero(self, runtime):
        _, _, m = serve(runtime, None)
        assert m.prefill_chunks == 0
        assert m.overlap_saved_s == 0.0

    def test_registry_counters(self, runtime):
        registry = MetricsRegistry()
        requests = workload()
        server = ContinuousBatchingServer(
            runtime, make_arena(),
            ContinuousBatchingConfig(chunk_tokens=8), metrics=registry,
        )
        m = server.serve(requests, duration_s=0.5)
        assert registry.sum_values("gen_prefill_chunks_total") \
            == m.prefill_chunks

    def test_tracer_has_per_stream_lanes(self, runtime):
        tracer = Tracer()
        requests = workload()
        server = ContinuousBatchingServer(
            runtime, make_arena(),
            ContinuousBatchingConfig(chunk_tokens=8), tracer=tracer,
        )
        server.serve(requests, duration_s=0.5)
        tids = {e.get("tid") for e in tracer.events
                if e.get("ph") == "X"}
        assert "gpu:prefill" in tids
        assert "gpu:decode" in tids


class TestConfigValidation:
    def test_chunk_tokens_must_be_positive(self):
        with pytest.raises(ValueError):
            ContinuousBatchingConfig(chunk_tokens=0)

    @pytest.mark.parametrize("chunk_tokens", [2.5, 64.5, float("inf"), True])
    def test_chunk_tokens_must_be_an_int(self, chunk_tokens):
        """A fractional chunk used to serve a whole workload, pricing
        fractional prefill chunks."""
        with pytest.raises(TypeError, match="chunk_tokens must be an int"):
            ContinuousBatchingConfig(chunk_tokens=chunk_tokens)


class TestMergedBusyInHorizon:
    def test_disjoint_spans_clip_per_span(self):
        # The straddling-pass fix: [0,1] counts fully, [2,3] clips to
        # [2,2.5] — per-chunk clipping, not per-pass.
        assert merged_busy_in_horizon([(0.0, 1.0), (2.0, 3.0)], 2.5) == 1.5

    def test_overlapping_spans_not_double_counted(self):
        # Concurrent streams overlap in wall time; busy is wall-clock
        # occupancy, so the union is what counts.
        assert merged_busy_in_horizon([(0.0, 2.0), (1.0, 3.0)], 10.0) == 3.0

    def test_span_fully_past_horizon(self):
        assert merged_busy_in_horizon([(5.0, 6.0)], 2.0) == 0.0

    def test_empty(self):
        assert merged_busy_in_horizon([], 1.0) == 0.0

    def test_unsorted_input(self):
        assert merged_busy_in_horizon([(2.0, 3.0), (0.0, 1.0)], 10.0) == 2.0
