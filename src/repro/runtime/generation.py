"""Latency model for autoregressive generation (GPT-style serving).

Generation cost splits into the *prefill* pass over the prompt and the
per-token *decode* steps against a growing KV cache — the two quantities
generative serving systems report as time-to-first-token (TTFT) and
per-token latency (TPOT).

Latencies are read from cost rows, the paper's ``cached_cost`` table
(§5) grown on demand: per batch width, one row of prefill latencies by
prompt length and one of decode-step latencies by ``past``.  A lookup
past a row's end prices the missing lengths in whole blocks of
:data:`ROW_BLOCK` through :meth:`CompiledCostModel.row
<repro.runtime.compiled.CompiledCostModel.row>` — one NumPy pass per
block, each entry bit-identical to pricing its shape alone — and stores
them as builtin floats.

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
from typing import Dict, List

import numpy as np

from .._checks import check_size
from ..gpusim import DeviceSpec
from ..graph import ComputationGraph, fuse_graph
from .compiled import CompiledCostModel
from .cost import RuntimeCharacteristics

#: Lengths a cost row grows by: a lookup past a row's end prices every
#: block up to the one holding the looked-up length, in one NumPy pass.
ROW_BLOCK = 256

#: Per batch width, the latency of each length from 1 (index 0).
CostRows = Dict[int, List[float]]


class GenerationRuntime:
    """Prices prefill + decode for a decoder-only model: each graph is
    compiled once, and each batch width keeps a cost row per graph,
    extended a block of lengths at a time (§5's cost table)."""

    def __init__(
        self,
        prefill_graph: ComputationGraph,
        decode_graph: ComputationGraph,
        chars: RuntimeCharacteristics,
        device: DeviceSpec,
        stride: int = 8,
        step_overhead_s: float = 0.0,
    ) -> None:
        check_size("stride", stride)
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
        self._prefill_rows: CostRows = {}
        self._decode_rows: CostRows = {}

    def prefill_latency(self, batch: int, prompt_len: int) -> float:
        """Time-to-first-token: one parallel pass over the prompt."""
        row = self._prefill_rows.get(batch)
        if (row is not None and type(batch) is int
                and type(prompt_len) is int and prompt_len > 0):
            try:
                return row[prompt_len - 1]
            except IndexError:  # past the row's end: extend it
                pass
        return self._extend(self._prefill_rows, self.prefill_model, "seq",
                            self.chars.fixed_overhead_s, batch,
                            "prompt_len", prompt_len)

    def decode_step_latency(self, batch: int, past: int) -> float:
        """One generated token against ``past`` cached positions."""
        row = self._decode_rows.get(batch)
        if (row is not None and type(batch) is int and type(past) is int
                and past > 0):
            try:
                return row[past - 1]
            except IndexError:  # past the row's end: extend it
                pass
        return self._extend(self._decode_rows, self.decode_model, "past",
                            self.step_overhead_s, batch, "past", past)

    @staticmethod
    def _extend(rows: CostRows, model: CompiledCostModel, symbol: str,
                overhead_s: float, batch: int, name: str,
                length: int) -> float:
        """Check the shape, grow ``batch``'s row by whole blocks until it
        holds ``length``, and return that entry: the row's
        ``kernel_s + overhead_s`` per length, as builtin floats."""
        check_size("batch", batch)
        check_size(name, length)
        row = rows.setdefault(batch, [])
        if length > len(row):
            end = -(-length // ROW_BLOCK) * ROW_BLOCK
            values = np.arange(len(row) + 1, end + 1, dtype=np.int64)
            row += (model.row({"batch": batch}, symbol, values)
                    + overhead_s).tolist()
        return row[length - 1]

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
        """Deterministic counters of the host fast path: each graph's cost
        rows (batch widths and priced lengths) and compiled model."""
        return {"prefill_rows": len(self._prefill_rows),
                "prefill_row_entries": sum(map(len,
                                               self._prefill_rows.values())),
                "decode_rows": len(self._decode_rows),
                "decode_row_entries": sum(map(len,
                                              self._decode_rows.values())),
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
