"""Latency model for autoregressive generation (GPT-style serving).

Generation cost splits into the *prefill* pass over the prompt and the
per-token *decode* steps against a growing KV cache — the two quantities
generative serving systems report as time-to-first-token (TTFT) and
per-token latency (TPOT).

Observability lives here too, so every consumer — the continuous-batching
server, the request-level generation baseline, the gen experiment and
``python -m repro trace`` — shares one instrumentation path:
:meth:`GenerationRuntime.publish_request_metrics` records a request's
TTFT/TPOT into a :class:`~repro.observability.MetricsRegistry`, and
:meth:`GenerationRuntime.trace_decode_stride` emits one Chrome-trace span
per decode stride on the GPU track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..gpusim import DeviceSpec
from ..graph import ComputationGraph, fuse_graph
from .compiled import CompiledCostModel
from .cost import RuntimeCharacteristics


class GenerationRuntime:
    """Prices prefill + decode for a decoder-only model: each graph is
    compiled once, each ``(batch, len)`` priced once (§5's cost table)."""

    def __init__(
        self,
        prefill_graph: ComputationGraph,
        decode_graph: ComputationGraph,
        chars: RuntimeCharacteristics,
        device: DeviceSpec,
        stride: int = 8,
        step_overhead_s: float = 0.0,
    ) -> None:
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        # NaN fails the range too: it would price every decode step NaN.
        if not 0 <= step_overhead_s < math.inf:
            raise ValueError("step_overhead_s must be >= 0 and finite, "
                             f"got {step_overhead_s}")
        if chars.fuse_kernels:
            prefill_graph = fuse_graph(prefill_graph)
            decode_graph = fuse_graph(decode_graph)
        self.prefill_graph = prefill_graph
        self.decode_graph = decode_graph
        self.chars = chars
        self.device = device
        self.stride = stride
        self.step_overhead_s = step_overhead_s
        self.prefill_model = CompiledCostModel(prefill_graph.nodes, chars, device)
        self.decode_model = CompiledCostModel(decode_graph.nodes, chars, device)
        self._prefill_cache: Dict[Tuple[int, int], float] = {}
        self._decode_cache: Dict[Tuple[int, int], float] = {}

    def prefill_latency(self, batch: int, prompt_len: int) -> float:
        """Time-to-first-token: one parallel pass over the prompt."""
        if batch <= 0 or prompt_len <= 0:
            raise ValueError(
                f"batch and prompt_len must be positive, got {batch}, {prompt_len}"
            )
        key = (batch, prompt_len)
        if key not in self._prefill_cache:
            self._prefill_cache[key] = (
                self.prefill_model.kernel_s({"batch": batch, "seq": prompt_len})
                + self.chars.fixed_overhead_s
            )
        return self._prefill_cache[key]

    def decode_step_latency(self, batch: int, past: int) -> float:
        """One generated token against ``past`` cached positions."""
        if batch <= 0 or past <= 0:
            raise ValueError(f"batch and past must be positive, got {batch}, {past}")
        key = (batch, past)
        step_s = self._decode_cache.get(key)
        if step_s is None:
            step_s = self._decode_cache[key] = (
                self.decode_model.kernel_s({"batch": batch, "past": past})
                + self.step_overhead_s
            )
        return step_s

    def generate_latency(
        self, prompt_len: int, new_tokens: int, batch: int = 1
    ) -> float:
        """End-to-end: prefill + ``new_tokens`` decode steps (strided sum)."""
        if new_tokens <= 0:
            raise ValueError(f"new_tokens must be positive, got {new_tokens}")
        total = self.prefill_latency(batch, prompt_len)
        step = 0
        while step < new_tokens:
            span = min(self.stride, new_tokens - step)
            total += self.decode_step_latency(batch, prompt_len + step) * span
            step += self.stride
        return total

    def tokens_per_second(self, prompt_len: int, new_tokens: int,
                          batch: int = 1) -> float:
        """Aggregate decode throughput over one generation."""
        total = self.generate_latency(prompt_len, new_tokens, batch)
        return batch * new_tokens / total

    def host_path_stats(self) -> Dict[str, int]:
        """Deterministic counters of the host fast path: the two shape
        memos and both compiled models."""
        return {"prefill_cache_entries": len(self._prefill_cache),
                "decode_cache_entries": len(self._decode_cache),
                **self.prefill_model.stats("prefill_compiled"),
                **self.decode_model.stats("decode_compiled")}

    # -- shared instrumentation path ------------------------------------------

    def publish_request_metrics(self, metrics, req_id: int, ttft_s: float,
                                tpot_s: float, system: str = "generation",
                                ) -> None:
        """Record one request's TTFT/TPOT into a metrics registry.

        Every generative-serving consumer funnels through this method so
        histograms carry identical names/labels regardless of which loop
        produced them.
        """
        if metrics is None:
            return
        metrics.histogram("generation_ttft_ms", system=system).observe(
            ttft_s * 1e3
        )
        metrics.histogram("generation_tpot_ms", system=system).observe(
            tpot_s * 1e3
        )
        metrics.counter("generation_requests_total", system=system).inc()

    def trace_decode_stride(self, tracer, start_s: float, dur_s: float,
                            batch: int, past: int, tokens: int,
                            tid: str = "gpu") -> None:
        """One Chrome-trace span for a decode stride on GPU track ``tid``."""
        if tracer is None or not tracer.enabled:
            return
        tracer.complete(
            f"decode x{batch}", start_s, dur_s, tid=tid, cat="decode",
            batch=batch, past=past, tokens=tokens,
        )

    def trace_prefill(self, tracer, start_s: float, dur_s: float,
                      batch: int, prompt_len: int, tid: str = "gpu") -> None:
        """One Chrome-trace span for a prefill pass on GPU track ``tid``."""
        if tracer is None or not tracer.enabled:
            return
        tracer.complete(
            f"prefill x{batch}", start_s, dur_s, tid=tid, cat="prefill",
            batch=batch, prompt_len=prompt_len,
        )

    def generate_timeline(self, prompt_len: int, new_tokens: int,
                          batch: int = 1, start_s: float = 0.0,
                          tracer=None, metrics=None,
                          system: str = "generation") -> "GenerationTimeline":
        """Instrumented :meth:`generate_latency`: same strided walk, but
        emitting one span per decode stride (plus the prefill span) and
        publishing TTFT/TPOT, all in the caller's simulated time frame."""
        if new_tokens <= 0:
            raise ValueError(f"new_tokens must be positive, got {new_tokens}")
        clock = start_s
        prefill_s = self.prefill_latency(batch, prompt_len)
        self.trace_prefill(tracer, clock, prefill_s, batch, prompt_len)
        clock += prefill_s
        ttft_s = clock - start_s
        stride_ends: List[float] = []
        # Identical strided walk to generate_latency, so the two agree
        # bit for bit on the total.
        step = 0
        while step < new_tokens:
            span = min(self.stride, new_tokens - step)
            past = prompt_len + step
            dur = self.decode_step_latency(batch, past) * span
            self.trace_decode_stride(tracer, clock, dur, batch, past,
                                     tokens=span * batch)
            clock += dur
            stride_ends.append(clock)
            step += span
        total_s = clock - start_s
        tpot_s = ((total_s - ttft_s) / new_tokens
                  if new_tokens > 0 else 0.0)
        self.publish_request_metrics(metrics, req_id=-1, ttft_s=ttft_s,
                                     tpot_s=tpot_s, system=system)
        return GenerationTimeline(ttft_s=ttft_s, total_s=total_s,
                                  tpot_s=tpot_s, stride_ends=stride_ends)


@dataclass(frozen=True)
class GenerationTimeline:
    """Per-request timing of one instrumented generation."""

    ttft_s: float
    total_s: float
    tpot_s: float
    stride_ends: Tuple[float, ...] | List[float]
