"""Observability parity: what the engine reports for a seeded run is pinned.

The engine dispatches arrivals from a sorted stream instead of heap
events.  That may not show in what a run reports: the per-kind dispatch
counters, ``events_dispatched``, the sanitizer's dispatch log (every
window-end WAKE included) and the tracer's span count must stay exactly
as they were when every arrival was a real heap event.  The goldens in
``golden_observability.json`` were captured from that heap-only engine.
They have moved since only where the serving loop dispatches differently:
the lazy TRIGGER now fires at the sum it is armed at; under the driver's
one wake rule an idle replica starts on a WAKE of its own at the instant
its work is queued (so ``wake`` counts those starts too); and since a
lone replica's windows run as an engine task, its first window begins
inside the WAKE that starts it, so that WAKE reaches the recorder after
the work it did, which moved only the recorder's sequence numbers.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/engine/test_observability_parity.py
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.engine_checks import EngineTraceRecorder, verify_trace
from repro.observability import MetricsRegistry, Tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import _linear_cost, replace_deadline
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import FaultPlan, ServerCrash, TransientFailures
from repro.resilience.retry import RetryPolicy
from repro.serving import (
    DPBatchScheduler,
    LazyPolicy,
    ServingConfig,
    generate_requests,
    simulate_serving,
)

GOLDEN = Path(__file__).parent / "golden_observability.json"


def _faulty(seed: int) -> dict:
    """Hungry DP serving with a crash (an outage window), transient
    failures and retries (RETRY events) and a breaker."""
    requests = [replace_deadline(r, 2.0)
                for r in generate_requests(120.0, 1.2, seed=seed)]
    retry = RetryPolicy(max_attempts=3, base_backoff_s=0.01, multiplier=2.0,
                        max_backoff_s=0.1, jitter=0.2, budget=200, seed=seed)
    resilience = ResilienceConfig(
        faults=FaultPlan(
            seed=seed,
            crashes=(ServerCrash(start_s=0.4, end_s=0.7, server_id=0),),
            failures=(TransientFailures(start_s=0.1, end_s=0.4,
                                        failure_rate=0.6, server_id=0),),
        ),
        retry=retry,
        breaker_factory=lambda i: CircuitBreaker(
            window=10, failure_threshold=0.5, cooldown_s=0.2,
            name=f"server{i}"),
    )
    return dict(requests=requests, scheduler=DPBatchScheduler(),
                cost_fn=_linear_cost, config=ServingConfig(max_batch=8),
                duration_s=1.0, resilience=resilience)


def _lazy(seed: int) -> dict:
    """Lazy trigger policy: TRIGGER events and same-instant batching."""
    return dict(requests=generate_requests(80.0, 1.0, seed=seed),
                scheduler=DPBatchScheduler(), cost_fn=_linear_cost,
                config=ServingConfig(max_batch=8,
                                     policy=LazyPolicy(timeout_s=0.008)),
                duration_s=0.8)


SCENARIOS = {"faulty": _faulty, "lazy": _lazy}


def observe(name: str, seed: int = 0) -> dict:
    """Run one scenario traced, metered and recorded; return what the
    engine reported."""
    kwargs = SCENARIOS[name](seed)
    tracer = Tracer()
    metrics = MetricsRegistry()
    with EngineTraceRecorder() as rec:
        result = simulate_serving(tracer=tracer, metrics=metrics, **kwargs)
    (engine,) = rec.engines
    events = tracer.to_dict()["traceEvents"]
    return {
        "dispatched_by_kind": {
            c["labels"]["kind"]: c["value"]
            for c in metrics.to_dict()["counters"]
            if c["name"] == "engine_events_dispatched_total"},
        "events_dispatched": engine.events_dispatched,
        "dispatches": [list(d) for d in rec.dispatches],
        "trace_phases": dict(sorted(Counter(e["ph"] for e in events).items())),
        "metrics_sha256": hashlib.sha256(
            metrics.to_json().encode()).hexdigest(),
        "backlog_at_end": result.backlog_at_end,
        "diagnostics": [d.code for d in verify_trace(rec)],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestObservabilityParity:
    def test_dispatch_counters_match_golden(self, name, golden):
        got = observe(name)
        want = golden[name]
        assert got["dispatched_by_kind"] == want["dispatched_by_kind"]
        assert got["events_dispatched"] == want["events_dispatched"]
        assert sum(got["dispatched_by_kind"].values()) \
            == got["events_dispatched"]

    def test_recorder_log_and_spans_match_golden(self, name, golden):
        got = observe(name)
        want = golden[name]
        assert got["dispatches"] == want["dispatches"]
        assert got["trace_phases"] == want["trace_phases"]
        assert got["metrics_sha256"] == want["metrics_sha256"]
        assert got["backlog_at_end"] == want["backlog_at_end"]
        assert got["diagnostics"] == want["diagnostics"] == []


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.write_text(json.dumps({name: observe(name)
                                  for name in sorted(SCENARIOS)}) + "\n")
    print(f"wrote {GOLDEN}")
