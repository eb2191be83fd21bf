"""GenerationRuntime: prefill/decode latency model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import RTX_2060, Stream
from repro.models import build_decode_step_graph, build_prefill_graph, gpt_small
from repro.runtime import (
    GenerationRuntime,
    PYTORCH_CHARACTERISTICS,
    TURBO_CHARACTERISTICS,
)
from repro.runtime.chunked import PrefillChunker
from repro.runtime.cost import graph_cost
from repro.runtime.generation import ROW_BLOCK

from .generation_oracles import generate_timeline, pass_latencies


@pytest.fixture(scope="module")
def runtimes():
    config = gpt_small()
    prefill = build_prefill_graph(config)
    decode = build_decode_step_graph(config)
    turbo = GenerationRuntime(prefill, decode, TURBO_CHARACTERISTICS,
                              RTX_2060, step_overhead_s=0.1e-3)
    pytorch = GenerationRuntime(prefill, decode, PYTORCH_CHARACTERISTICS,
                                RTX_2060, step_overhead_s=2.5e-3)
    return turbo, pytorch


class TestPrefill:
    def test_grows_with_prompt(self, runtimes):
        turbo, _ = runtimes
        assert turbo.prefill_latency(1, 512) > turbo.prefill_latency(1, 32)

    def test_batch_amortizes(self, runtimes):
        turbo, _ = runtimes
        per1 = turbo.prefill_latency(1, 64)
        per8 = turbo.prefill_latency(8, 64) / 8
        assert per8 < per1


class TestDecode:
    def test_step_grows_with_cache(self, runtimes):
        turbo, _ = runtimes
        assert turbo.decode_step_latency(1, 900) > turbo.decode_step_latency(1, 8)

    def test_decode_step_cheaper_than_prefill(self, runtimes):
        """One token's work vs a whole prompt's."""
        turbo, _ = runtimes
        assert turbo.decode_step_latency(1, 128) < turbo.prefill_latency(1, 128)

    def test_generate_latency_composition(self, runtimes):
        turbo, _ = runtimes
        total = turbo.generate_latency(128, 32)
        assert total > turbo.prefill_latency(1, 128)
        assert total > 32 * turbo.decode_step_latency(1, 128) * 0.5

    def test_turbo_beats_pytorch(self, runtimes):
        turbo, pytorch = runtimes
        assert turbo.generate_latency(128, 64) < pytorch.generate_latency(128, 64)

    def test_tokens_per_second_sane(self, runtimes):
        turbo, _ = runtimes
        tps = turbo.tokens_per_second(128, 64)
        assert 10 < tps < 10_000

    def test_strided_close_to_exact(self):
        config = gpt_small()
        prefill = build_prefill_graph(config)
        decode = build_decode_step_graph(config)
        exact = GenerationRuntime(prefill, decode, TURBO_CHARACTERISTICS,
                                  RTX_2060, stride=1)
        approx = GenerationRuntime(prefill, decode, TURBO_CHARACTERISTICS,
                                   RTX_2060, stride=8)
        e = exact.generate_latency(64, 48)
        a = approx.generate_latency(64, 48)
        assert abs(a - e) / e < 0.02

    def test_validation(self, runtimes):
        turbo, _ = runtimes
        with pytest.raises(ValueError):
            turbo.prefill_latency(0, 10)
        with pytest.raises(ValueError):
            turbo.decode_step_latency(1, 0)
        with pytest.raises(ValueError):
            turbo.generate_latency(10, 0)

    @pytest.mark.parametrize("overhead", [math.nan, math.inf])
    def test_rejects_non_finite_step_overhead(self, runtimes, overhead):
        turbo, _ = runtimes
        with pytest.raises(ValueError, match="finite"):
            GenerationRuntime(turbo.prefill_graph, turbo.decode_graph,
                              TURBO_CHARACTERISTICS, RTX_2060,
                              step_overhead_s=overhead)


class TestInstrumentation:
    """The shared observability path every generative consumer funnels
    through (continuous server, request-level control, trace CLI)."""

    def test_timeline_total_matches_generate_latency(self, runtimes):
        turbo, _ = runtimes
        for prompt, new in ((32, 1), (64, 7), (128, 48)):
            timeline = generate_timeline(turbo, prompt, new, batch=2)
            assert timeline.total_s == turbo.generate_latency(prompt, new, 2)
            assert timeline.ttft_s == turbo.prefill_latency(2, prompt)
            assert timeline.tpot_s == pytest.approx(
                (timeline.total_s - timeline.ttft_s) / new)

    def test_timeline_emits_one_span_per_stride(self, runtimes):
        from repro.observability import MetricsRegistry, Tracer

        turbo, _ = runtimes
        tracer = Tracer()
        registry = MetricsRegistry()
        timeline = generate_timeline(turbo, 64, 20, tracer=tracer,
                                           metrics=registry, system="test")
        events = tracer.to_dict()["traceEvents"]
        decode = [e for e in events if e["name"].startswith("decode x")]
        prefill = [e for e in events if e["name"].startswith("prefill x")]
        # 20 tokens at the module stride of 8 -> strides of 8, 8, 4.
        assert len(decode) == len(timeline.stride_ends) == 3
        assert len(prefill) == 1
        # Spans tile the timeline: each stride starts where the last ended.
        assert decode[0]["ts"] == pytest.approx(prefill[0]["ts"]
                                                + prefill[0]["dur"])
        assert registry.counter("generation_requests_total",
                                system="test").value == 1

    def test_publish_request_metrics_shared_names(self, runtimes):
        from repro.observability import MetricsRegistry

        turbo, _ = runtimes
        registry = MetricsRegistry()
        turbo.publish_request_metrics(registry, req_id=1, ttft_s=0.01,
                                      tpot_s=0.001, system="loop-a")
        turbo.publish_request_metrics(registry, req_id=2, ttft_s=0.02,
                                      tpot_s=0.002, system="loop-b")
        # Same histogram family, distinguished only by the system label.
        for system in ("loop-a", "loop-b"):
            h = registry.histogram("generation_ttft_ms", system=system)
            assert h.count == 1

    def test_disabled_tracer_and_no_metrics_are_free(self, runtimes):
        turbo, _ = runtimes
        # None sinks must be accepted and change nothing.
        timeline = generate_timeline(turbo, 32, 4, tracer=None, metrics=None)
        assert timeline.total_s == turbo.generate_latency(32, 4, 1)


class ReferencePricing:
    """The interpretive oracle: walk every node through ``graph_cost`` into
    a fresh Stream, bound by host dispatch, plus the per-pass overhead."""

    def __init__(self, runtime):
        self.runtime = runtime

    def _price(self, graph, bindings, overhead_s):
        rt = self.runtime
        stream = Stream(trace_enabled=False)
        stream.extend(graph_cost(graph.nodes, bindings, rt.chars, rt.device))
        host_s = rt.chars.host_dispatch_s * stream.launches
        return max(stream.elapsed_s, host_s) + overhead_s

    def prefill_latency(self, batch, prompt_len):
        return self._price(self.runtime.prefill_graph,
                           {"batch": batch, "seq": prompt_len},
                           self.runtime.chars.fixed_overhead_s)

    def decode_step_latency(self, batch, past):
        return self._price(self.runtime.decode_graph,
                           {"batch": batch, "past": past},
                           self.runtime.step_overhead_s)


#: Lengths 1, both sides of the 16-token KV page boundaries, and 512.
GRID_LENGTHS = (1, 15, 16, 17, 31, 32, 33, 512)


class TestCompiledPricing:
    """Both graphs price through one CompiledCostModel each; every latency
    equals the interpretive reference bit for bit (fused and unfused)."""

    @pytest.mark.parametrize("which", [0, 1], ids=["turbo", "pytorch"])
    def test_grid_matches_reference(self, runtimes, which):
        rt = runtimes[which]
        ref = ReferencePricing(rt)
        for batch in range(1, 9):
            for length in GRID_LENGTHS:
                assert rt.prefill_latency(batch, length) == \
                    ref.prefill_latency(batch, length)
                assert rt.decode_step_latency(batch, length) == \
                    ref.decode_step_latency(batch, length)

    @settings(max_examples=25, deadline=None)
    @given(which=st.sampled_from([0, 1]), batch=st.integers(1, 16),
           length=st.integers(1, 1024))
    def test_random_shapes_match_reference(self, runtimes, which, batch,
                                           length):
        rt = runtimes[which]
        ref = ReferencePricing(rt)
        assert rt.prefill_latency(batch, length) == \
            ref.prefill_latency(batch, length)
        assert rt.decode_step_latency(batch, length) == \
            ref.decode_step_latency(batch, length)

    def test_chunker_pass_latencies_unchanged(self, runtimes):
        chunker = PrefillChunker(chunk_tokens=64)
        for rt in runtimes:
            ref = ReferencePricing(rt)
            for batch, prompt, start in ((1, 200, 0), (3, 64, 0),
                                         (2, 300, 48), (8, 17, 16)):
                assert pass_latencies(chunker, rt, batch, prompt, start) == \
                    pass_latencies(chunker, ref, batch, prompt, start)

    def test_host_path_stats(self):
        config = gpt_small()
        rt = GenerationRuntime(build_prefill_graph(config),
                               build_decode_step_graph(config),
                               TURBO_CHARACTERISTICS, RTX_2060)
        for batch, length in ((1, 32), (2, 32), (1, 32), (1, ROW_BLOCK)):
            rt.prefill_latency(batch, length)
        rt.decode_step_latency(4, 100)
        # Past the row's end: the row grows by two whole blocks at once.
        rt.decode_step_latency(4, 2 * ROW_BLOCK + 1)
        stats = rt.host_path_stats()
        assert stats["prefill_rows"] == 2
        assert stats["prefill_row_entries"] == 2 * ROW_BLOCK
        assert stats["decode_rows"] == 1
        assert stats["decode_row_entries"] == 3 * ROW_BLOCK
        # One compiled evaluation per row extension, never per call.
        assert stats["prefill_compiled_evals"] == 2
        assert stats["decode_compiled_evals"] == 2
        for prefix, model, graph in (
            ("prefill", rt.prefill_model, rt.prefill_graph),
            ("decode", rt.decode_model, rt.decode_graph),
        ):
            assert stats[f"{prefix}_compiled_nodes"] == len(graph.nodes)
            assert stats[f"{prefix}_compiled_cells"] == model.cell_count
            assert 0 < model.cell_count < len(graph.nodes)
            assert stats[f"{prefix}_compiled_folded_nodes"] == \
                model.folded_nodes
