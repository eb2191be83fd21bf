"""Test-only pricing walks over a :class:`GenerationRuntime`.

No serving loop calls these; the tests use them as oracles for what the
loops do step by step:

* :func:`generate_timeline` is :meth:`GenerationRuntime.generate_latency`
  instrumented: the same strided walk, with one trace span per decode
  stride (plus the prefill span) and the request's TTFT/TPOT published,
  in the caller's simulated time frame;
* :func:`pass_latencies` is one prefill pass's per-chunk latencies, the
  list the chunked serving round prices chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class GenerationTimeline:
    """Per-request timing of one instrumented generation."""

    ttft_s: float
    total_s: float
    tpot_s: float
    stride_ends: Tuple[float, ...] | List[float]


def generate_timeline(runtime, prompt_len: int, new_tokens: int,
                      batch: int = 1, start_s: float = 0.0, tracer=None,
                      metrics=None,
                      system: str = "generation") -> GenerationTimeline:
    """``runtime.generate_latency``'s strided walk, emitting one span per
    decode stride (plus the prefill span) and publishing TTFT/TPOT."""
    if new_tokens <= 0:
        raise ValueError(f"new_tokens must be positive, got {new_tokens}")
    clock = start_s
    prefill_s = runtime.prefill_latency(batch, prompt_len)
    runtime.trace_prefill(tracer, clock, prefill_s, batch, prompt_len)
    clock += prefill_s
    ttft_s = clock - start_s
    stride_ends: List[float] = []
    # Identical strided walk to generate_latency, so the two agree bit
    # for bit on the total.
    step = 0
    while step < new_tokens:
        span = min(runtime.stride, new_tokens - step)
        past = prompt_len + step
        dur = runtime.decode_step_latency(batch, past) * span
        runtime.trace_decode_stride(tracer, clock, dur, batch, past,
                                    tokens=span * batch)
        clock += dur
        stride_ends.append(clock)
        step += span
    total_s = clock - start_s
    tpot_s = (total_s - ttft_s) / new_tokens
    runtime.publish_request_metrics(metrics, req_id=-1, ttft_s=ttft_s,
                                    tpot_s=tpot_s, system=system)
    return GenerationTimeline(ttft_s=ttft_s, total_s=total_s,
                              tpot_s=tpot_s, stride_ends=stride_ends)


def pass_latencies(chunker, runtime, batch: int, prompt_len: int,
                   start: int = 0) -> List[float]:
    """Per-chunk latencies of one pass; they sum (telescope) to the
    unchunked ``prefill_latency(batch, prompt_len)`` when the chunker's
    ``per_chunk_overhead_s`` is zero and ``start`` is zero."""
    return [chunker.chunk_latency(runtime, batch, c, pass_start=start)
            for c in chunker.chunks(prompt_len, start=start)]
