"""Engine-level instrumentation: spans, queue-depth series, event counts.

Observability used to be threaded through each server's private loop by
hand, which is how the queue-depth trace counter drifted from the metrics
gauge (one sampled before ``queue.drain``, the other after).  Bundling
the tracer and registry here gives every engine-hosted server the same
signals from the same call sites:

* ``observe_dispatch`` — per-kind event counters
  (``engine_events_dispatched_total{kind=...}``);
* ``queue_depth`` — **one** sample fans out to both the Chrome-trace
  counter and the metrics gauge, so they cannot disagree again;
* ``span`` — a complete event on a named track; the encoder driver
  emits one per executed batch window.

A disabled tracer or absent registry costs nothing: the constructor drops
them and every method no-ops, preserving the repo's
zero-overhead-when-disabled guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import MetricsRegistry, Tracer
    from .core import Event


class EngineInstrumentation:
    """Tracer + metrics hooks shared by every engine-hosted server."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Optional["Tracer"] = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if tracer is not None and not tracer.enabled:
            tracer = None
        self.tracer = tracer
        self.metrics = metrics

    @property
    def trace_on(self) -> bool:
        return self.tracer is not None

    def observe_dispatch(self, event: "Event") -> None:
        if self.metrics is not None:
            self.metrics.counter("engine_events_dispatched_total",
                                 kind=event.kind.name.lower()).inc()

    def queue_depth(self, now: float, depth: int, name: str = "queue",
                    gauge: str = "serving_queue_depth") -> None:
        """One depth sample, fanned out to trace counter and gauge alike."""
        if self.metrics is not None:
            self.metrics.gauge(gauge).set(depth, t=now)
        if self.tracer is not None:
            self.tracer.counter(name, now, {"depth": depth})

    def fault(self, kind: str) -> None:
        """Count one injected fault effect (stretch, attempt_failure, ...)."""
        if self.metrics is not None:
            self.metrics.counter("engine_faults_total", kind=kind).inc()

    def span(self, name: str, start_s: float, dur_s: float,
             tid: str = "gpu", cat: str = "event", **attrs: object) -> None:
        if self.tracer is not None:
            self.tracer.complete(name, start_s, dur_s, tid=tid, cat=cat,
                                 **attrs)
