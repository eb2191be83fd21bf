"""Per-layer attribution for the traced benchmark run.

The benchmark records spans from its own files, around the calls into
each layer: :func:`instrumented` replaces the public methods of each
layer's classes (and ``repro.serving.continuous.execute_schedule``) with
wrappers that open a span per call, and restores them on exit.  Nothing
under ``src/`` changes.

A span has a name, a host-clock start and end, its parent span and the
``req_id`` the call carries, if any.  A layer's *self time* is the time
of its spans minus the time of their child spans, so nested calls are
never counted twice and every host second of the traced call lands in
exactly one layer.  The recorder's own bookkeeping is charged to no
layer; ``trace.overhead_ratio`` (traced over untraced host time) reports
it.

Event callbacks the serving loops hand to ``Engine.schedule`` run as
``serving`` spans nested in the engine's dispatch, so the engine keeps
only its heap and clock work.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.serving.continuous as continuous
from hostclock import HostClock
from repro.engine.core import Engine
from repro.gpusim.multistream import StreamSchedule
from repro.memory.kv_arena import KVCacheArena
from repro.memory.prefix_index import RadixPrefixIndex
from repro.observability import Tracer, validate_trace_dict
from repro.runtime.chunked import PrefillChunker
from repro.runtime.generation import GenerationRuntime
from repro.runtime.profiler import CostTable
from repro.serving.scheduler import PrunedDPBatchScheduler
from spec import PER_LAYER, Workload
from workloads import System, check_outputs, digest, failed_count, \
    make_requests, measured, nearest_rank, serve, timed

#: (layer, class) pairs whose public methods are wrapped.  Two are left
#: out: ``Engine.spawn`` runs the spawned serving task's body, and only
#: the engine itself calls ``Engine.peek``.
LAYER_CLASSES: Tuple[Tuple[str, type], ...] = (
    ("engine", Engine),
    ("kv_arena", KVCacheArena),
    ("prefix_index", RadixPrefixIndex),
    ("runtime", GenerationRuntime),
    ("chunker", PrefillChunker),
    ("multistream", StreamSchedule),
    ("scheduler", PrunedDPBatchScheduler),
    ("cost_table", CostTable),
)
UNWRAPPED = {(Engine, "spawn"), (Engine, "peek")}
LAYERS = ("serving",) + tuple(layer for layer, _ in LAYER_CLASSES)
#: KV-arena calls that can change its page layout.
ARENA_MUTATIONS = ("admit", "fork", "append", "release", "preempt",
                   "restore")
#: Chrome-trace events kept in memory; later spans still count in every
#: aggregate.
MAX_TRACE_EVENTS = 100_000
MB = float(1 << 20)


class SpanRecorder:
    """Opens nested spans on a host clock and aggregates them per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_events: int = MAX_TRACE_EVENTS) -> None:
        self.clock = clock
        self.max_events = max_events
        self.active = False
        self.origin = 0.0
        self.top_s = 0.0
        # Open spans: [span_id, layer, child seconds].
        self._stack: List[list] = []
        self._next_id = 1
        self.spans = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Calls entering a layer from another layer (nested calls within
        #: one layer count once).
        self.calls: Counter = Counter()
        self.method_calls: Counter = Counter()
        #: (span_id, parent_id, layer, name, start, end, req_id)
        self.events: List[tuple] = []
        #: Method name -> ``hook(args, kwargs, result)`` run after the call.
        self.after_call: Dict[str, Callable] = {}

    def call(self, layer: str, name: str, fn: Callable, args: tuple,
             kwargs: dict, req_id: Optional[int] = None):
        """Run ``fn`` inside a span of ``layer``."""
        enter = self.clock()
        parent = self._stack[-1] if self._stack else None
        span = [self._next_id, layer, 0.0]
        self._next_id += 1
        self._stack.append(span)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.self_s[layer] += end - start - span[2]
            self.spans += 1
            self.method_calls[name] += 1
            if parent is None or parent[1] != layer:
                self.calls[layer] += 1
            if len(self.events) < self.max_events:
                self.events.append((span[0], parent[0] if parent else None,
                                    layer, name, start, end, req_id))
        hook = self.after_call.get(name)
        if hook is not None:
            # Calls a hook makes into wrapped layers are not spans.
            self.active = False
            try:
                hook(args, kwargs, result)
            finally:
                self.active = True
        if parent is not None:
            # The child's span plus this bookkeeping is not parent self time.
            parent[2] += self.clock() - enter
        return result

    def top(self, name: str, fn: Callable):
        """Record ``fn()`` as the top-level ``serving`` span of a run."""
        self.active = True
        self.origin = self.clock()
        try:
            return self.call("serving", name, fn, (), {})
        finally:
            self.active = False
            self.top_s = self.clock() - self.origin

    def shares(self) -> Dict[str, float]:
        """Each layer's share of the attributed host time."""
        total = sum(self.self_s.values()) or 1.0
        return {layer: self.self_s.get(layer, 0.0) / total
                for layer in LAYERS}

    def to_tracer(self) -> Tracer:
        """The kept spans as Chrome-trace complete events, one track per
        layer, timestamps relative to the top-level span."""
        tracer = Tracer(process_name="perf trace (host clock)")
        for layer in LAYERS:
            tracer.thread_name(layer, layer)
        for span_id, parent_id, layer, name, start, end, req_id in self.events:
            args = {"span": span_id, "parent": parent_id}
            if req_id is not None:
                args["req_id"] = req_id
            tracer.complete(name, start - self.origin, end - start,
                            tid=layer, cat=layer, **args)
        return tracer


def _req_id_index(fn: Callable) -> Optional[int]:
    """Positional index of a ``req_id`` parameter (``self`` counts)."""
    params = list(inspect.signature(fn).parameters)
    return params.index("req_id") if "req_id" in params else None


def _wrap(recorder: SpanRecorder, layer: str, name: str,
          fn: Callable) -> Callable:
    rid_at = _req_id_index(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        req_id = kwargs.get("req_id")
        if rid_at is not None and rid_at < len(args):
            req_id = args[rid_at]
        return recorder.call(layer, name, fn, args, kwargs, req_id)

    return wrapper


def _wrap_schedule(recorder: SpanRecorder, fn: Callable) -> Callable:
    """``Engine.schedule`` whose callback runs as a ``serving`` span."""
    signature = inspect.signature(fn)

    def handler(callback: Callable) -> Callable:
        name = "serving." + getattr(callback, "__qualname__", "handler") \
            .replace(".<locals>", "")

        def run(event):
            return recorder.call("serving", name, callback, (event,), {},
                                 getattr(event.payload, "req_id", None))

        return run

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        callback = bound.arguments.get("callback")
        if callback is not None:
            bound.arguments["callback"] = handler(callback)
        return recorder.call("engine", "Engine.schedule", fn, bound.args,
                             bound.kwargs)

    return wrapper


def _public_methods(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)
            and (cls, name) not in UNWRAPPED]


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer's public methods for the duration of the block."""
    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for layer, cls in LAYER_CLASSES:
            for attr in _public_methods(cls):
                fn = vars(cls)[attr]
                if cls is Engine and attr == "schedule":
                    patch(cls, attr, _wrap_schedule(recorder, fn))
                else:
                    patch(cls, attr, _wrap(recorder, layer,
                                           f"{cls.__name__}.{attr}", fn))
        patch(continuous, "execute_schedule",
              _wrap(recorder, "multistream", "execute_schedule",
                    continuous.execute_schedule))
        yield recorder
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class LayerProbe:
    """What the recorder's hooks collect while a traced run executes:
    engine events dispatched, the shapes the cost model priced, the width
    of every executed decode step, the DP scheduler's batches and each
    arena's peak chunk footprint."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.events = 0
        self.shapes = set()
        self.decode_widths: List[int] = []
        self._priced: List[int] = []
        self.batches: List = []
        self.peak_footprint: Dict[int, int] = {}
        self._replans: Dict[int, int] = {}
        hooks = {
            "Engine.step": self._dispatched,
            "GenerationRuntime.prefill_latency": self._priced_prefill,
            "GenerationRuntime.decode_step_latency": self._priced_step,
            "Engine.advance": self._flush,
            "Engine.schedule": self._flush,
            "execute_schedule": self._executed_round,
            "PrunedDPBatchScheduler.schedule": self._batches,
        }
        for op in ARENA_MUTATIONS:
            hooks[f"KVCacheArena.{op}"] = self._arena_sample
        recorder.after_call.update(hooks)

    def _dispatched(self, _args, _kwargs, event) -> None:
        self.events += event is not None

    def _priced_prefill(self, args, _kwargs, _result) -> None:
        self.shapes.add(("prefill",) + tuple(args[1:3]))

    def _priced_step(self, args, _kwargs, _result) -> None:
        self.shapes.add(("decode",) + tuple(args[1:3]))
        self._priced.append(args[1])

    def _flush(self, *_):
        # A decode step priced before the loop occupies the GPU (advance)
        # or yields to the engine (cluster tasks) is executed.
        self.decode_widths.extend(self._priced)
        self._priced.clear()

    def _executed_round(self, args, _kwargs, _result) -> None:
        # An overlapped round prices decode steps until one no longer fits
        # inside the prefill window; only the launched ones (non-zero
        # kernels on streams other than the prefill stream, which issues
        # first) execute.
        schedule, durations = args[0], args[1]
        launches = schedule.launches()
        first = launches[0].stream if launches else None
        executed = sum(1 for op in launches
                       if op.stream != first and durations[op.kernel] > 0)
        self.decode_widths.extend(self._priced[:executed])
        self._priced.clear()

    def _batches(self, _args, _kwargs, result) -> None:
        self.batches.extend(result)

    def _arena_sample(self, args, _kwargs, _result) -> None:
        arena = args[0]
        key = id(arena)
        if self._replans.get(key) != arena.replans:
            self._replans[key] = arena.replans
            footprint = arena.stats()["footprint_bytes"]
            self.peak_footprint[key] = max(self.peak_footprint.get(key, 0),
                                           footprint)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run, recorder: SpanRecorder, probe: LayerProbe,
                  system: System, setup_cpu_s: float,
                  overhead_ratio: float) -> Dict[str, float]:
    """Every ``--trace 1`` metric of one traced run."""
    m = run.metrics
    span = run.span_s
    waits = sorted((r.start_s - r.arrival_s) * 1e3 for r in measured(run)
                   if r.is_completed)
    widths = sorted(probe.decode_widths)
    calls = recorder.method_calls
    shares = recorder.shares()
    arena_stats = [a.stats() for a in run.arenas]
    admissions = sum(s["admissions"] for s in arena_stats)
    denials = sum(s["denials"] for s in arena_stats)
    peak_used = max([s["peak_used_bytes"] for s in arena_stats] + [0]) / MB
    footprint = max(list(probe.peak_footprint.values()) + [0]) / MB
    index = run.prefix_index.stats() if run.prefix_index else {}
    prompt_tokens = sum(r.seq_len for r in run.requests)
    batches = probe.batches
    padded = sum(b.padded_len * b.size for b in batches)
    return {
        "serving.queue_wait_p50_ms": nearest_rank(waits, 0.5),
        "serving.queue_wait_p99_ms": nearest_rank(waits, 0.99),
        "serving.decode_batch_mean":
            statistics.fmean(widths) if widths else 0.0,
        "serving.decode_batch_p99":
            nearest_rank(widths, 0.99) if widths else 0,
        "serving.prefill_passes": getattr(m, "prefill_batches", 0),
        "serving.decode_steps": getattr(m, "decode_steps", 0),
        "serving.stall_share": getattr(m, "stall_s", 0.0) / span,
        "serving.kv_denials": getattr(m, "kv_denials", 0),
        "serving.preemptions": getattr(m, "preemptions", 0),
        "serving.self_host_share": shares["serving"],
        "engine.events": probe.events,
        "engine.advances": calls["Engine.advance"],
        "engine.self_host_share": shares["engine"],
        "kv_arena.calls": recorder.calls["kv_arena"],
        "kv_arena.replans": sum(s["replans"] for s in arena_stats),
        "kv_arena.admit_ratio": _ratio(admissions, admissions + denials),
        "kv_arena.peak_used_mb": peak_used,
        "kv_arena.footprint_mb": footprint,
        "kv_arena.reserved_over_used": _ratio(footprint, peak_used),
        "kv_arena.pages_reclaimed": sum(s["pages_reclaimed"]
                                        for s in arena_stats),
        "kv_arena.self_host_share": shares["kv_arena"],
        "prefix_index.lookups": index.get("lookups", 0),
        "prefix_index.hit_ratio": _ratio(index.get("hits", 0),
                                         index.get("lookups", 0)),
        "prefix_index.token_reuse_ratio":
            _ratio(getattr(m, "prefix_tokens_reused", 0), prompt_tokens),
        "prefix_index.pages_evicted": index.get("pages_evicted", 0),
        "prefix_index.self_host_share": shares["prefix_index"],
        "runtime.prefill_calls": calls["GenerationRuntime.prefill_latency"],
        "runtime.decode_calls": calls["GenerationRuntime.decode_step_latency"],
        "runtime.shapes_priced": len(probe.shapes),
        "runtime.self_host_share": shares["runtime"],
        "chunker.chunks": getattr(m, "prefill_chunks", 0),
        "chunker.self_host_share": shares["chunker"],
        "multistream.schedules": calls["execute_schedule"],
        "multistream.overlap_saved_share":
            getattr(m, "overlap_saved_s", 0.0) / span,
        "multistream.self_host_share": shares["multistream"],
        "scheduler.rounds": run.scheduler.rounds if run.scheduler else 0,
        "scheduler.batches": len(batches),
        "scheduler.batch_mean": _ratio(sum(b.size for b in batches),
                                       len(batches)),
        "scheduler.padding_efficiency":
            _ratio(padded - sum(b.padding_waste for b in batches), padded),
        "scheduler.self_host_share": shares["scheduler"],
        "cost_table.lookups": calls["CostTable.cost"],
        "cost_table.warmup_share": _ratio(system.warmup_s, setup_cpu_s),
        "resilience.retries": getattr(m, "retries", 0),
        "resilience.attempts_failed": getattr(m, "attempts_failed", 0),
        "resilience.tokens_recomputed": getattr(m, "tokens_recomputed", 0),
        "resilience.breaker_transitions": sum(len(b.transitions)
                                              for b in run.breakers),
        "trace.spans": recorder.spans,
        "trace.overhead_ratio": overhead_ratio,
    }


def self_time_table(recorder: SpanRecorder, speed: float) -> List[str]:
    """Human-readable per-layer self time of the traced call."""
    shares = recorder.shares()
    lines = [f"   {'layer':<14}{'calls':>10}{'self host s':>14}{'share':>9}"]
    for layer in sorted(LAYERS, key=lambda name: -shares[name]):
        lines.append(f"   {layer:<14}{recorder.calls[layer]:>10}"
                     f"{recorder.self_s.get(layer, 0.0) * speed:>14.4f}"
                     f"{shares[layer]:>9.1%}")
    return lines


def trace_phase(w: Workload, system: System, seed: int, seconds: float,
                setup_cpu_s: float) -> dict:
    """An untraced and a traced run of the same seeded requests: the
    simulated outcomes must agree byte for byte; the traced one gives the
    per-layer metrics and the Chrome trace, written to
    ``perf_trace-<workload>.json`` in the current directory."""
    trace_out = Path(f"perf_trace-{w.name}.json")
    n = w.size(seconds, w.requests)
    horizon = n / w.rate
    clock = HostClock()
    untraced = serve(w, system, make_requests(w, seed, n), horizon,
                     call=timed(clock))

    recorder = SpanRecorder()
    probe = LayerProbe(recorder)
    # No timer here: its units would land in the spans.
    traced = HostClock(timer=False)

    def call(name: str, fn: Callable):
        with traced:
            return recorder.top(name, fn)

    with instrumented(recorder):
        run = serve(w, system, make_requests(w, seed, n), horizon, call=call)
    traced_s = traced.host_s

    problems = check_outputs(run)
    if digest(run) != digest(untraced):
        problems.append("traced run simulated differently from the "
                        "untraced run")
    trace = recorder.to_tracer().to_dict()
    problems.extend(f"trace: {p}" for p in validate_trace_dict(trace)[:5])
    trace_out.write_text(json.dumps(trace))
    metrics = layer_metrics(run, recorder, probe, system, setup_cpu_s,
                            traced_s / clock.host_s)
    units_by_name = {m.name: m.unit for m in PER_LAYER}
    return {
        "attempted": n,
        "failed": failed_count(run),
        "problems": problems,
        "metrics": {name: {"value": value, "unit": units_by_name[name]}
                    for name, value in metrics.items()},
        "table": self_time_table(recorder, traced_s / recorder.top_s) + [
            f"   traced host {traced_s:.3f} s, untraced {clock.host_s:.3f} "
            f"s; {recorder.spans} spans, {len(recorder.events)} in "
            f"{trace_out}"],
    }
