"""End-to-end observability: metrics registry + request/kernel tracer.

Three pieces (ISSUE 1):

* :class:`MetricsRegistry` — labeled counters / gauges / histograms with
  deterministic JSON export;
* :class:`Tracer` — per-request spans and per-batch/per-kernel timeline
  events in Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto);
* :class:`NullTracer` / :data:`NULL_TRACER` — the disabled-by-default fast
  path: no-op emitters, so instrumented hot loops cost nothing when
  observability is off.

``repro.observability.harness.run_traced_workload`` runs one fully
instrumented serving workload; ``python -m repro trace`` is its CLI face.
The metrics and tracer modules depend only on the stdlib, so every other
layer can import them freely; the harness, which imports the serving
layer, loads only when one of its names is read.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_BUCKETS": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "NULL_TRACER": "tracer",
    "VALID_PHASES": "tracer",
    "NullTracer": "tracer",
    "Tracer": "tracer",
    "validate_trace_dict": "tracer",
    "run_traced_workload": "harness",
    "TraceRunResult": "harness",
})
