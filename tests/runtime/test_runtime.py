"""InferenceRuntime and DecoderRuntime behaviour."""

import math

import pytest

from repro.gpusim import RTX_2060
from repro.models import (
    build_decoder_step_graph,
    seq2seq_decoder,
    tiny_bert,
    build_encoder_graph,
)
from repro.runtime import (
    DecoderRuntime,
    PYTORCH_CHARACTERISTICS,
    TURBO_CHARACTERISTICS,
    pytorch_runtime,
    turbo_runtime,
)


@pytest.fixture(scope="module")
def turbo(bert_graph):
    return turbo_runtime(graph=bert_graph)


class TestInferenceRuntime:
    def test_latency_positive_and_monotone_in_length(self, turbo):
        latencies = [turbo.latency(1, seq) for seq in (16, 64, 256, 500)]
        assert all(x > 0 for x in latencies)
        assert latencies == sorted(latencies)

    def test_latency_monotone_in_batch(self, turbo):
        latencies = [turbo.latency(b, 128) for b in (1, 4, 16)]
        assert latencies == sorted(latencies)

    def test_batching_amortizes(self, turbo):
        """Per-request cost falls with batch size (Fig. 8)."""
        per_request_1 = turbo.latency(1, 64)
        per_request_16 = turbo.latency(16, 64) / 16
        assert per_request_16 < per_request_1

    def test_latency_memoized(self, turbo):
        assert turbo.latency(2, 100) == turbo.latency(2, 100)

    def test_infer_reports_breakdown(self, turbo):
        result = turbo.infer(1, 128)
        assert result.kernel_launches == len(turbo.graph.nodes)
        assert result.latency_s >= result.kernel_s
        assert result.time_by_kernel

    def test_memory_overhead_below_paper_bound(self, turbo):
        """§6.1.1: less than 6% of performance lost to memory management."""
        turbo.infer(1, 250)  # warm the chunk cache
        result = turbo.infer(1, 250)
        assert result.memory_overhead_fraction < 0.06

    def test_fusion_reduces_launches(self, bert_graph):
        fused = turbo_runtime(graph=bert_graph)
        unfused = pytorch_runtime(graph=bert_graph)
        assert fused.kernel_launch_count < unfused.kernel_launch_count

    def test_fixed_length_runtime_pays_preprocessing_offline(self, bert_graph):
        from repro.runtime import tensorrt_runtime

        rt = tensorrt_runtime(graph=bert_graph)
        rt.infer(1, 100)
        assert rt.preprocess_total_s == rt.chars.preprocess_s
        rt.infer(1, 100)  # same shape: no new engine build
        assert rt.preprocess_total_s == rt.chars.preprocess_s
        rt.infer(1, 200)  # new shape: another engine
        assert rt.preprocess_total_s == 2 * rt.chars.preprocess_s

    def test_invalid_request_rejected(self, turbo):
        with pytest.raises(ValueError):
            turbo.infer(0, 10)
        with pytest.raises(ValueError):
            turbo.latency(1, 0)

    def test_tiny_model_cheaper_than_base(self, bert_graph):
        tiny = turbo_runtime(graph=build_encoder_graph(tiny_bert()))
        base = turbo_runtime(graph=bert_graph)
        assert tiny.latency(1, 32) < base.latency(1, 32)


class TestDecoderRuntime:
    @pytest.fixture(scope="class")
    def runtimes(self):
        config = seq2seq_decoder()
        graph = build_decoder_step_graph(config)
        turbo = DecoderRuntime(graph, TURBO_CHARACTERISTICS, RTX_2060,
                               config.beam_size)
        pytorch = DecoderRuntime(graph, PYTORCH_CHARACTERISTICS, RTX_2060,
                                 config.beam_size, step_overhead_s=2.5e-3)
        return turbo, pytorch

    def test_step_cost_grows_with_cache_length(self, runtimes):
        turbo, _ = runtimes
        assert turbo.step_latency(200, 64) > turbo.step_latency(1, 64)

    def test_decode_grows_with_target_length(self, runtimes):
        turbo, _ = runtimes
        assert turbo.decode_latency(64, 100) > turbo.decode_latency(64, 50)

    def test_decode_grows_with_source_length(self, runtimes):
        turbo, _ = runtimes
        assert turbo.decode_latency(500, 50) > turbo.decode_latency(10, 50)

    def test_turbo_faster_than_pytorch(self, runtimes):
        turbo, pytorch = runtimes
        assert turbo.decode_latency(64, 64) < pytorch.decode_latency(64, 64)

    def test_strided_sum_close_to_exact(self):
        """The stride approximation must track the exact per-step sum."""
        config = seq2seq_decoder()
        graph = build_decoder_step_graph(config)
        exact = DecoderRuntime(graph, TURBO_CHARACTERISTICS, RTX_2060,
                               config.beam_size, stride=1)
        approx = DecoderRuntime(graph, TURBO_CHARACTERISTICS, RTX_2060,
                                config.beam_size, stride=8)
        e = exact.decode_latency(48, 48)
        a = approx.decode_latency(48, 48)
        assert abs(a - e) / e < 0.02

    def test_validation(self, runtimes):
        turbo, _ = runtimes
        with pytest.raises(ValueError):
            turbo.step_latency(0, 10)
        with pytest.raises(ValueError):
            turbo.decode_latency(10, 0)
        with pytest.raises(ValueError):
            DecoderRuntime(
                build_decoder_step_graph(seq2seq_decoder()),
                TURBO_CHARACTERISTICS, RTX_2060, beam_size=0,
            )

    @pytest.mark.parametrize("overhead", [math.nan, math.inf])
    def test_rejects_non_finite_step_overhead(self, overhead):
        """A NaN or infinite overhead would price every decode step NaN
        or inf; the runtime takes the rule ``GenerationRuntime`` uses."""
        with pytest.raises(ValueError, match="finite"):
            DecoderRuntime(build_decoder_step_graph(seq2seq_decoder()),
                           TURBO_CHARACTERISTICS, RTX_2060, beam_size=4,
                           step_overhead_s=overhead)
