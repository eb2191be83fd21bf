"""Prefill chunker: tiling and telescoping cost conservation."""

import pytest

from repro.gpusim import RTX_2060
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.runtime import (
    TURBO_CHARACTERISTICS,
    GenerationRuntime,
    PrefillChunk,
    PrefillChunker,
)

from .generation_oracles import pass_latencies

CONFIG = tiny_gpt()


@pytest.fixture(scope="module")
def runtime():
    return GenerationRuntime(build_prefill_graph(CONFIG),
                             build_decode_step_graph(CONFIG),
                             TURBO_CHARACTERISTICS, RTX_2060, stride=1)


class TestTiling:
    def test_chunks_tile_prompt(self):
        chunks = PrefillChunker(chunk_tokens=8).chunks(21)
        assert [(c.start, c.end) for c in chunks] == [(0, 8), (8, 16),
                                                      (16, 21)]
        assert [c.index for c in chunks] == [0, 1, 2]
        assert sum(c.tokens for c in chunks) == 21

    def test_exact_multiple(self):
        chunks = PrefillChunker(chunk_tokens=8).chunks(16)
        assert [(c.start, c.tokens) for c in chunks] == [(0, 8), (8, 8)]

    def test_chunk_larger_than_prompt_is_single_chunk(self):
        chunks = PrefillChunker(chunk_tokens=512).chunks(30)
        assert len(chunks) == 1
        assert chunks[0] == PrefillChunk(index=0, start=0, tokens=30)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefillChunker(chunk_tokens=0)
        with pytest.raises(ValueError):
            PrefillChunker(chunk_tokens=8, per_chunk_overhead_s=-1e-9)
        with pytest.raises(ValueError):
            PrefillChunker(chunk_tokens=8).chunks(0)
        with pytest.raises(ValueError):
            PrefillChunk(index=0, start=0, tokens=0)
        with pytest.raises(ValueError):
            PrefillChunk(index=-1, start=0, tokens=1)
        with pytest.raises(ValueError):
            PrefillChunk(index=0, start=-1, tokens=1)

    @pytest.mark.parametrize("overhead", [float("nan"), float("inf")])
    def test_non_finite_overhead_rejected(self, overhead):
        # Either would make every chunk after a pass's first price NaN
        # or inf.
        with pytest.raises(ValueError, match="per_chunk_overhead_s"):
            PrefillChunker(chunk_tokens=256, per_chunk_overhead_s=overhead)


class TestTelescoping:
    @pytest.mark.parametrize("prompt_len", [5, 16, 21, 32])
    @pytest.mark.parametrize("chunk_tokens", [4, 8, 512])
    def test_sum_matches_unchunked(self, runtime, prompt_len, chunk_tokens):
        chunker = PrefillChunker(chunk_tokens=chunk_tokens)
        lats = pass_latencies(chunker, runtime, 2, prompt_len)
        assert all(l >= 0.0 for l in lats)
        assert sum(lats) == pytest.approx(
            runtime.prefill_latency(2, prompt_len), rel=1e-12)

    def test_single_chunk_is_bit_identical(self, runtime):
        chunker = PrefillChunker(chunk_tokens=512)
        [lat] = pass_latencies(chunker, runtime, 3, 30)
        assert lat == runtime.prefill_latency(3, 30)

    def test_marginal_chunks_cost_positive(self, runtime):
        # Every chunk does real work (the cost model is increasing in
        # prompt length, so no marginal chunk collapses to zero).
        lats = pass_latencies(PrefillChunker(chunk_tokens=8), runtime, 1, 32)
        assert len(lats) == 4
        assert all(l > 0.0 for l in lats)

    def test_per_chunk_overhead_charged_after_first(self, runtime):
        base = PrefillChunker(chunk_tokens=8)
        taxed = PrefillChunker(chunk_tokens=8, per_chunk_overhead_s=1e-5)
        extra = sum(pass_latencies(taxed, runtime, 1, 24)) \
            - sum(pass_latencies(base, runtime, 1, 24))
        assert extra == pytest.approx(2e-5)  # 3 chunks -> 2 taxed

    def test_non_monotone_cost_model_clamped(self):
        class Weird:
            def prefill_latency(self, batch, tokens):
                return 1.0 if tokens <= 8 else 0.5  # decreasing!

        chunker = PrefillChunker(chunk_tokens=8)
        lats = pass_latencies(chunker, Weird(), 1, 16)
        assert lats == [1.0, 0.0]  # clamped, never negative
