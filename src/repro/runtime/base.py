"""Inference runtimes: a graph + characteristics + device = a latency model.

An :class:`InferenceRuntime` owns a model graph (fused or not, per the
runtime's characteristics), prices a request ``(batch, seq_len)`` through
the gpusim cost model, and charges memory-management overhead through its
allocator.  Numeric execution is deliberately decoupled — the models in
:mod:`repro.models` compute real outputs; runtimes compute *time* — so the
benchmark sweeps stay fast and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .._checks import check_size
from ..gpusim import DeviceSpec, KernelTiming, Stream
from ..graph import (
    ComputationGraph,
    UsageRecordTemplates,
    fuse_graph,
    tensor_usage_records,
)
from ..memory import (BaseAllocator, RequestAllocation, TensorUsageRecord,
                      TurboAllocator)
from .compiled import CompiledCostModel
from .cost import RuntimeCharacteristics, graph_cost

#: Host cost coefficients for Turbo's per-request offset planning (Alg. 1 is
#: O(n^2) in the number of usage records with a tiny constant).
PLAN_HOST_LINEAR_S = 0.5e-6
PLAN_HOST_QUADRATIC_S = 2e-9

#: Host cost of one cache-hit allocation in an eager caching allocator.
EAGER_ALLOC_HOST_S = 1e-6


@dataclass(frozen=True)
class InferenceResult:
    """Cost breakdown of one simulated inference."""

    latency_s: float
    batch: int
    seq_len: int
    padded_seq_len: int
    kernel_launches: int
    kernel_s: float
    memory_overhead_s: float
    time_by_kernel: Dict[str, float] = field(default_factory=dict)
    allocation: Optional[RequestAllocation] = None

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def memory_overhead_fraction(self) -> float:
        """Share of latency spent on memory management (paper: <6%)."""
        return self.memory_overhead_s / self.latency_s if self.latency_s else 0.0


class InferenceRuntime:
    """Latency model of one (runtime, model, device) triple.

    Parameters
    ----------
    graph:
        Fine-grained model graph (from :mod:`repro.models`); the fusion
        pass is applied here when the characteristics say so.
    chars:
        The runtime's execution characteristics.
    device:
        Simulated device.
    allocator_factory:
        Builds the runtime's intermediate-tensor allocator; ``None``
        disables memory accounting (pure kernel time).
    use_compiled:
        Price kernels through the per-graph :class:`CompiledCostModel`
        (bit-identical to the interpretive :func:`graph_cost`, but with
        attr resolution done once at compile time) and serve
        :meth:`latency` misses through a slim path that skips building
        per-kernel breakdowns.  ``False`` restores the reference paths
        (the benchmark baseline).
    memoize_records:
        Memoize ``tensor_usage_records`` per (batch, padded) shape — the
        records depend on nothing else.

    An allocation-plan cache hit keeps the full Alg. 1 planning host
    cost, so latencies stay bit-identical to the uncached model while
    wall-clock time is saved.

    A :meth:`latency` miss may price its warm memory term in closed form
    and defer the allocator's planning pair (see
    :meth:`_warm_memory_closed_form`); reading :attr:`allocator` runs
    every deferred pair first, so no observation of the allocator differs.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        chars: RuntimeCharacteristics,
        device: DeviceSpec,
        allocator_factory: Optional[Callable[[], BaseAllocator]] = None,
        use_compiled: bool = True,
        memoize_records: bool = True,
    ) -> None:
        self.base_graph = graph
        self.graph = fuse_graph(graph) if chars.fuse_kernels else graph
        self.chars = chars
        self.device = device
        self._allocator = allocator_factory() if allocator_factory else None
        #: (batch, padded) shapes whose cold/warm planning pair a
        #: latency() miss deferred, in order; ``None`` once deferral has
        #: ended for good.  It starts only from a chunkless Turbo
        #: allocator, the base case of the parity lemma.
        self._deferred: Optional[List[Tuple[int, int]]] = (
            [] if type(self._allocator) is TurboAllocator
            and not self._allocator.chunks else None)
        self.use_compiled = use_compiled
        self.memoize_records = memoize_records
        self.preprocess_total_s = 0.0
        self._tuned_lengths: set = set()
        self._latency_cache: Dict[Tuple[int, int], float] = {}
        self._compiled: Optional[CompiledCostModel] = None
        self._record_templates: Optional[UsageRecordTemplates] = None
        self._records_cache: Dict[Tuple[int, int], List[TensorUsageRecord]] = {}
        self.records_memo_hits = 0
        self.records_memo_misses = 0

    @property
    def allocator(self) -> Optional[BaseAllocator]:
        """The intermediate-tensor allocator, every deferred plan applied.

        Reading it ends deferral for good: the caller may plan with or
        reconfigure the allocator (``bench``'s baseline mode drops its
        plan cache), which the closed form could not see.
        """
        self._end_deferral()
        return self._allocator

    def _flush_plans(self) -> None:
        """Run every deferred cold/warm planning pair, in order."""
        pending = self._deferred
        if pending:
            self._deferred = []
            for batch, padded in pending:
                # Deferral requires the records memo, so replay its
                # lookups too: a miss then a hit, as the two passes did.
                for _ in range(2):
                    self._allocator.process_request(
                        self._memoized_records(batch, padded))

    def _end_deferral(self) -> None:
        self._flush_plans()
        self._deferred = None

    # -- core ---------------------------------------------------------------

    def _bindings(self, batch: int, seq_len: int) -> Dict[str, int]:
        return {"batch": batch, "seq": seq_len}

    def compiled_model(self) -> CompiledCostModel:
        """The lazily built compiled pricing of this runtime's graph."""
        if self._compiled is None:
            self._compiled = CompiledCostModel(
                self.graph.nodes, self.chars, self.device
            )
        return self._compiled

    def kernel_timings(self, batch: int, seq_len: int) -> List[KernelTiming]:
        """Per-kernel cost of one inference at the *executed* (padded) length."""
        if batch <= 0 or seq_len <= 0:
            raise ValueError(f"batch and seq_len must be positive, got {batch}, {seq_len}")
        padded = self.chars.padded_length(seq_len)
        bindings = self._bindings(batch, padded)
        if self.use_compiled:
            return self.compiled_model().timings(bindings)
        return graph_cost(self.graph.nodes, bindings, self.chars, self.device)

    def _templates(self) -> UsageRecordTemplates:
        if self._record_templates is None:
            self._record_templates = UsageRecordTemplates(self.graph)
        return self._record_templates

    def _compute_records(self, batch: int, padded: int) -> List[TensorUsageRecord]:
        if not self.use_compiled:
            return tensor_usage_records(self.graph, self._bindings(batch, padded))
        return self._templates().evaluate(self._bindings(batch, padded))

    def usage_records(self, batch: int, padded: int) -> List[TensorUsageRecord]:
        """Usage records at a shape; memoized (they depend on nothing else)."""
        if not self.memoize_records:
            return self._compute_records(batch, padded)
        return self._memoized_records(batch, padded)

    def _memoized_records(self, batch: int, padded: int) -> List[TensorUsageRecord]:
        key = (batch, padded)
        records = self._records_cache.get(key)
        if records is None:
            self.records_memo_misses += 1
            records = self._records_cache[key] = self._compute_records(
                batch, padded
            )
        else:
            self.records_memo_hits += 1
        return records

    def invalidate_caches(self) -> None:
        """Drop every shape-keyed cache (call after mutating graph/config).

        Clears the latency memo, the records memo, the compiled cost
        model, and the allocator's plan cache (when it has one), after
        running any deferred plans.
        """
        self._flush_plans()
        self._latency_cache.clear()
        self._records_cache.clear()
        self._compiled = None
        self._record_templates = None
        invalidate = getattr(self._allocator, "invalidate_plan_cache", None)
        if invalidate is not None:
            invalidate()

    def host_path_stats(self) -> Dict[str, int]:
        """Deterministic counters of the host fast path (bench/metrics)."""
        # Deferred plans count records-memo and plan-cache lookups.
        self._flush_plans()
        stats: Dict[str, int] = {
            "latency_cache_entries": len(self._latency_cache),
            "records_memo_hits": self.records_memo_hits,
            "records_memo_misses": self.records_memo_misses,
        }
        if self._compiled is not None:
            stats.update(self._compiled.stats())
        plan_cache = getattr(self._allocator, "plan_cache", None)
        if plan_cache is not None:
            for k, v in plan_cache.stats().items():
                stats[f"plan_cache_{k}"] = v
        return stats

    def publish_host_metrics(self, registry, tracer=None,
                             now_s: float = 0.0) -> None:
        """Mirror :meth:`host_path_stats` into a
        :class:`repro.observability.MetricsRegistry` (and optionally emit
        one Chrome-trace counter sample) so ``repro trace`` shows the
        host-path savings."""
        stats = self.host_path_stats()
        for name, value in stats.items():
            if name.endswith("_entries") or name.startswith("compiled_"):
                registry.gauge(f"host_{name}").set(value, t=now_s)
            else:
                counter = registry.counter(f"host_{name}_total")
                delta = value - counter.value
                if delta > 0:
                    counter.inc(delta)
        if tracer is not None and tracer.enabled:
            tracer.counter("host_fast_path", now_s, {
                "records_memo_hits": stats["records_memo_hits"],
                "plan_cache_hits": stats.get("plan_cache_hits", 0),
                "plan_cache_misses": stats.get("plan_cache_misses", 0),
                "compiled_evals": stats.get("compiled_evals", 0),
            })

    def _host_cost(self, n: int) -> float:
        """Host seconds of serving ``n`` records' memory."""
        if getattr(self._allocator, "name", "") == "turbo":
            return PLAN_HOST_LINEAR_S * n + PLAN_HOST_QUADRATIC_S * n * n
        return EAGER_ALLOC_HOST_S * n

    def _memory_overhead(self, batch: int, padded: int) -> Tuple[float, Optional[RequestAllocation]]:
        if self._allocator is None:
            return 0.0, None
        records = self.usage_records(batch, padded)
        allocation = self._allocator.process_request(records)
        host_s = self._host_cost(len(records))
        return host_s + allocation.stall_s, allocation

    def _warm_memory_closed_form(self) -> Optional[float]:
        """The memory term of a miss's warm pass, priced without planning,
        or ``None`` where that is not provably exact.

        The warm pass re-plans the records its cold pass just planned,
        one per intermediate tensor at every shape.  The cold pass stored
        its outcome under the post-release chunk state, so the warm pass
        is a plan-cache hit: it mallocs nothing and costs
        ``_host_cost(n)``, as every pass does.  It could still
        ``cudaFree`` in release bookkeeping, and the parity lemma rules
        that out when ``release_after`` is ``None`` or even:

        * a chunk's unused streak resets to 0 whenever a plan uses it;
        * the warm pass replays the cold pass's exact assignments, so a
          chunk is unused by both passes of a pair or by neither;
        * every plan so far came in such pairs from a chunkless start,
          so an unused chunk's streak is odd after a cold pass and even
          after a warm one;
        * the warm pass frees a chunk only if its streak there exceeds
          ``release_after`` when the cold pass's (one less) did not,
          i.e. the warm streak is ``release_after + 1``, which is even
          only if ``release_after`` is odd.

        So the warm stall is exactly ``0.0``.  The guards keep every
        premise: a Turbo allocator with a plan cache, no device cap (a
        cold pass may raise OOM, which deferral would hide), no metrics
        registry (its series would be reordered), and the records memo,
        whose lookups :meth:`_flush_plans` replays.  :meth:`infer` and
        reads of :attr:`allocator` end deferral, keeping the pairing.
        """
        allocator = self._allocator
        if (self._deferred is None or not self.memoize_records
                or allocator.plan_cache is None
                or allocator.metrics is not None
                or allocator.device_memory.capacity_bytes
                or (allocator.release_after or 0) % 2):
            return None
        return self._host_cost(len(self._templates()))

    def infer(self, batch: int, seq_len: int) -> InferenceResult:
        """Full-cost inference of one (possibly padded) batch."""
        self._end_deferral()
        padded = self.chars.padded_length(seq_len)
        if not self.chars.supports_variable_length and padded not in self._tuned_lengths:
            # Fixed-length runtimes tune per new input dimension (offline).
            self._tuned_lengths.add(padded)
            self.preprocess_total_s += self.chars.preprocess_s
        stream = Stream(trace_enabled=False)
        stream.extend(self.kernel_timings(batch, seq_len))
        # Async dispatch: the host either keeps ahead of the device or is
        # the bottleneck — whichever side is slower bounds the wall clock.
        host_s = self.chars.host_dispatch_s * stream.launches
        kernel_s = max(stream.elapsed_s, host_s)
        memory_s, allocation = self._memory_overhead(batch, padded)
        return InferenceResult(
            latency_s=kernel_s + memory_s + self.chars.fixed_overhead_s,
            batch=batch,
            seq_len=seq_len,
            padded_seq_len=padded,
            kernel_launches=stream.launches,
            kernel_s=kernel_s,
            memory_overhead_s=memory_s,
            time_by_kernel=stream.time_by_kernel(),
            allocation=allocation,
        )

    def latency(self, batch: int, seq_len: int) -> float:
        """Memoized steady-state latency in seconds (used by serving).

        The first inference at a new shape pays cold allocator stalls
        (cudaMalloc cache misses); a long-running service does not, so the
        memoized value is the *second* (warm) run at that shape.
        """
        padded = self.chars.padded_length(seq_len)
        key = (batch, padded)
        cached = self._latency_cache.get(key)
        if cached is None:
            if self.use_compiled:
                cached = self._fast_latency(batch, seq_len, padded)
            else:
                if self.allocator is not None:
                    self.infer(batch, seq_len)  # warm the allocator caches
                cached = self.infer(batch, seq_len).latency_s
            self._latency_cache[key] = cached
        return cached

    def _fast_latency(self, batch: int, seq_len: int, padded: int) -> float:
        """Slim cold-plus-warm measurement for a :meth:`latency` miss.

        Performs the same state transitions as two :meth:`infer` calls —
        tuning bookkeeping once per new padded length, a cold allocator
        pass then a warm one — but prices kernels through the compiled
        model's running total instead of materializing per-kernel
        breakdowns twice.  Bit-identical to the reference path: the kernel
        sum replicates Stream accumulation order and the warm memory
        overhead is measured exactly as :meth:`infer` would, or priced by
        :meth:`_warm_memory_closed_form` with the planning pair deferred.
        """
        if batch <= 0 or seq_len <= 0:
            raise ValueError(f"batch and seq_len must be positive, got {batch}, {seq_len}")
        if not self.chars.supports_variable_length and padded not in self._tuned_lengths:
            self._tuned_lengths.add(padded)
            self.preprocess_total_s += self.chars.preprocess_s
        kernel_s = self.compiled_model().kernel_s(self._bindings(batch, padded))
        if self._allocator is None:
            memory_s = 0.0
        else:
            memory_s = self._warm_memory_closed_form()
            if memory_s is None:
                self._flush_plans()
                self._memory_overhead(batch, padded)  # cold pass: warm allocator
                memory_s, _ = self._memory_overhead(batch, padded)
            else:
                self._deferred.append((batch, padded))
        return kernel_s + memory_s + self.chars.fixed_overhead_s

    @property
    def name(self) -> str:
        return self.chars.name

    @property
    def kernel_launch_count(self) -> int:
        """Kernel launches per inference (fusion reduces this)."""
        return len(self.graph.nodes)


class DecoderRuntime:
    """Latency model for autoregressive decoding (Fig. 10's Decoder case).

    Per-step cost grows with the number of cached target positions; total
    latency integrates the symbolic step graph over generated steps.  Steps
    are sampled every ``stride`` positions and the strided samples weighted,
    which bounds evaluation cost while tracking the (near-linear) growth.
    """

    def __init__(
        self,
        step_graph: ComputationGraph,
        chars: RuntimeCharacteristics,
        device: DeviceSpec,
        beam_size: int,
        stride: int = 8,
        step_overhead_s: float = 0.0,
    ) -> None:
        """``step_overhead_s`` is per-step beam-search bookkeeping outside
        the graph: top-k selection, hypothesis management and KV-cache
        reordering.  A Python loop (PyTorch) pays milliseconds here; a C++
        serving loop (Turbo) pays almost nothing."""
        check_size("beam_size", beam_size)
        check_size("stride", stride)
        if not 0 <= step_overhead_s < math.inf:
            raise ValueError("step_overhead_s must be >= 0 and finite, "
                             f"got {step_overhead_s}")
        self.step_graph = fuse_graph(step_graph) if chars.fuse_kernels else step_graph
        self.chars = chars
        self.device = device
        self.beam_size = beam_size
        self.stride = stride
        self.step_overhead_s = step_overhead_s
        self._compiled: Optional[CompiledCostModel] = None
        self._step_cache: Dict[Tuple[int, int], float] = {}

    def compiled_model(self) -> CompiledCostModel:
        """The lazily built compiled pricing of the decode-step graph."""
        if self._compiled is None:
            self._compiled = CompiledCostModel(
                self.step_graph.nodes, self.chars, self.device
            )
        return self._compiled

    def step_latency(self, tgt_pos: int, src_len: int) -> float:
        """Cost of decode step attending ``tgt_pos`` cached positions."""
        if tgt_pos <= 0 or src_len <= 0:
            raise ValueError(f"tgt_pos and src_len must be positive, got {tgt_pos}, {src_len}")
        padded_src = self.chars.padded_length(src_len)
        key = (tgt_pos, padded_src)
        cached = self._step_cache.get(key)
        if cached is None:
            bindings = {"beam": self.beam_size, "tgt_pos": tgt_pos, "src_len": padded_src}
            # Beam search syncs on the logits every step, so the host can
            # only run ahead within one step: dispatch binds per step.
            cached = self.compiled_model().kernel_s(bindings) + self.step_overhead_s
            self._step_cache[key] = cached
        return cached

    def decode_latency(self, src_len: int, tgt_len: int) -> float:
        """Total latency of generating ``tgt_len`` tokens."""
        if tgt_len <= 0:
            raise ValueError(f"tgt_len must be positive, got {tgt_len}")
        total = self.chars.fixed_overhead_s  # once per decode request

        step = 1
        while step <= tgt_len:
            span = min(self.stride, tgt_len - step + 1)
            total += self.step_latency(step, src_len) * span
            step += self.stride
        return total

    @property
    def name(self) -> str:
        return self.chars.name
