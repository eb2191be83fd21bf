"""Property test: one BatchReplica loop under random traffic and faults.

Random arrivals (same-instant ones included), optional deadlines, random
fault plans (crash, latency spike, transient failures), retries, breakers
and a bounded queue, 1–3 replicas under every routing policy, the hungry
and the lazy trigger — every run must pass the engine-trace sanitizer
with no ERROR, resolve every request, and report the serving metrics its
request list gives (:func:`repro.analysis.verify_serving_metrics`).  A
run with a metrics registry attached must publish counters equal to its
``ServingMetrics`` fields, its terminal-state counts, its fault
injectors' counts and the dispatches the sanitizer recorded, and serve
every request exactly as the same run without a registry.  A one-server
``simulate_cluster`` must equal ``simulate_serving`` on the same inputs:
the same driver over the same single replica.

The Ebird processor-sharing rule (1–4 streams, efficiency in (0.5, 1])
runs under the same traffic and faults with the same requirements.
With one stream at ``efficiency=1.0`` and no faults it is the naive
scheduler one batch per round, so it must match ``simulate_serving``
with ``NaiveBatchScheduler`` and ``round_limit=max_batch``.
"""

from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_serving_metrics
from repro.analysis.diagnostics import Severity
from repro.analysis.engine_checks import EngineTraceRecorder, verify_trace
from repro.engine import EventKind
from repro.observability import MetricsRegistry
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    LatencySpike,
    ResilienceConfig,
    RetryPolicy,
    ServerCrash,
    TransientFailures,
)
from repro.serving import (
    DPBatchScheduler,
    HungryPolicy,
    LazyPolicy,
    NaiveBatchScheduler,
    Request,
    RequestState,
    RoutingPolicy,
    ServingConfig,
    simulate_cluster,
    simulate_ebird_serving,
    simulate_serving,
)
from repro.serving.server import _BatchDriver

MAX_BATCH = 4
HORIZON = 0.1


def cost(seq_len: int, batch: int) -> float:
    return 0.002 + 0.00002 * seq_len * batch


times = st.floats(min_value=0.0, max_value=0.08, allow_nan=False)


@st.composite
def requests(draw):
    # Arrival instants come from a small pool, so several requests often
    # share one instant.
    pool = draw(st.lists(times, min_size=1, max_size=4))
    specs = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(1, 200),
                  st.none() | st.floats(0.005, 0.2)),
        min_size=1, max_size=16))
    return [(i, seq_len, arrival, deadline)
            for i, (arrival, seq_len, deadline) in enumerate(specs)]


def build(specs):
    return [Request(req_id=i, seq_len=seq_len, arrival_s=arrival,
                    deadline_s=deadline)
            for i, seq_len, arrival, deadline in specs]


@st.composite
def windows(draw):
    start = draw(times)
    return start, start + draw(st.floats(min_value=0.001, max_value=0.03))


@st.composite
def resilience(draw, replicas):
    crashes = tuple(ServerCrash(*draw(windows()), server_id=draw(
        st.integers(0, replicas - 1))) for _ in range(draw(st.integers(0, 2))))
    spikes = tuple(LatencySpike(*draw(windows()), multiplier=draw(
        st.floats(1.5, 4.0))) for _ in range(draw(st.integers(0, 1))))
    failures = tuple(TransientFailures(*draw(windows()), failure_rate=draw(
        st.floats(0.1, 0.9))) for _ in range(draw(st.integers(0, 1))))
    retry = draw(st.none() | st.builds(
        RetryPolicy, max_attempts=st.integers(1, 4),
        base_backoff_s=st.just(0.002), jitter=st.just(0.0),
        budget=st.integers(0, 50)))
    breaker = None
    if draw(st.booleans()):
        def breaker(i):
            return CircuitBreaker(window=4, min_samples=2, cooldown_s=0.01,
                                  half_open_probes=1, name=f"server{i}")
    return ResilienceConfig(
        faults=FaultPlan(seed=draw(st.integers(0, 9)), spikes=spikes,
                         failures=failures, crashes=crashes),
        retry=retry, breaker_factory=breaker,
        queue_capacity=draw(st.none() | st.integers(1, 8)))


@st.composite
def scenarios(draw):
    replicas = draw(st.integers(1, 3))
    trigger = draw(st.sampled_from(("hungry", "lazy")))
    routing = draw(st.sampled_from(list(RoutingPolicy)))
    return (draw(requests()), replicas, trigger, routing,
            draw(resilience(replicas)), draw(st.booleans()))


def serve(specs, replicas, trigger, routing, res, registry=None):
    """One recorded ``_BatchDriver`` run over fresh requests."""
    reqs = build(specs)
    config = ServingConfig(
        max_batch=MAX_BATCH,
        policy=(HungryPolicy() if trigger == "hungry"
                else LazyPolicy(timeout_s=0.004, max_batch=MAX_BATCH)))
    with EngineTraceRecorder() as rec:
        driver = _BatchDriver(
            [DPBatchScheduler() for _ in range(replicas)], cost, config,
            "property", res, metrics=registry, policy=routing, max_len=200)
        metrics = driver.serve(reqs, HORIZON)
    return reqs, metrics, driver, rec


#: The counters :func:`reconciled` accounts for.
RECONCILED = {"serving_batches_executed_total",
              "serving_requests_completed_total",
              "serving_requests_ingested_total",
              "serving_requests_dropped_total", "serving_retries_total",
              "serving_attempt_failures_total", "engine_faults_total",
              "engine_events_dispatched_total"}


def published(registry):
    """``{(name, labels): value}`` of the registry's counters in
    :data:`RECONCILED`."""
    return {(c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in registry.to_dict()["counters"]
            if c["name"] in RECONCILED}


def reconciled(metrics, reqs, driver, rec):
    """The counters a run must publish, from its metrics, its terminal
    requests, its fault injectors and the recorder's dispatch log; a zero
    count publishes nothing."""
    res = metrics.resilience
    states = Counter(r.state for r in reqs)
    injectors = [rep.faults for rep in driver.replicas
                 if rep.faults is not None]
    want = {
        ("serving_batches_executed_total", ()): metrics.batches_executed,
        ("serving_requests_completed_total", (("path", "model"),)):
            metrics.completed,
        ("serving_requests_ingested_total", ()):
            metrics.offered + res.retries,
        ("serving_retries_total", ()): res.retries,
        # A failed attempt either retries or fails its request for good.
        ("serving_attempt_failures_total", ()): res.retries + res.failed,
        ("engine_faults_total", (("kind", "stretch"),)):
            sum(f.stretches for f in injectors),
        ("engine_faults_total", (("kind", "attempt_failure"),)):
            sum(f.failures_injected for f in injectors),
    }
    for state in (RequestState.TIMED_OUT, RequestState.FAILED,
                  RequestState.SHED):
        want[("serving_requests_dropped_total",
              (("reason", state.value),))] = states[state]
    for kind, n in Counter(kind for _seq, _idx, _now, _t, kind
                           in rec.dispatches).items():
        want[("engine_events_dispatched_total",
              (("kind", EventKind(kind).name.lower()),))] = n
    return {key: float(n) for key, n in want.items() if n}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_replica_runs_are_sanitizer_clean(scenario):
    *run, observed = scenario
    res = run[-1]
    registry = MetricsRegistry() if observed else None
    reqs, metrics, driver, rec = serve(*run, registry)
    errors = [d for d in verify_trace(rec, retry=res.retry)
              if d.severity is Severity.ERROR]
    assert errors == []
    assert all(r.state.is_terminal for r in reqs)
    assert verify_serving_metrics(metrics, reqs, HORIZON) == {}
    if registry is not None:
        assert published(registry) == reconciled(metrics, reqs, driver,
                                                 rec)
        plain, *_ = serve(*run)
        assert outcome(reqs) == outcome(plain)


def outcome(reqs):
    return [(r.start_s, r.completion_s, r.state)
            for r in sorted(reqs, key=lambda r: r.req_id)]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests(), resilience(1))
def test_one_server_cluster_equals_single_server(specs, res):
    alone = build(specs)
    served = simulate_serving(alone, DPBatchScheduler(), cost,
                              ServingConfig(max_batch=MAX_BATCH),
                              duration_s=HORIZON, resilience=res)
    clustered = build(specs)
    cluster = simulate_cluster(clustered, 1, DPBatchScheduler, cost,
                               max_batch=MAX_BATCH, duration_s=HORIZON,
                               resilience=res)
    assert outcome(clustered) == outcome(alone)
    for f in fields(served):
        if f.name != "system":
            assert getattr(cluster.serving, f.name) == \
                getattr(served, f.name), f.name
    assert cluster.per_server_completed == [served.completed]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests(), resilience(1), st.integers(1, 4),
       st.floats(0.5, 1.0, exclude_min=True))
def test_ebird_runs_are_sanitizer_clean(specs, res, streams, efficiency):
    reqs = build(specs)
    with EngineTraceRecorder() as rec:
        metrics = simulate_ebird_serving(
            reqs, cost, max_streams=streams, max_batch=MAX_BATCH,
            efficiency=efficiency, duration_s=HORIZON, resilience=res)
    errors = [d for d in verify_trace(rec, retry=res.retry)
              if d.severity is Severity.ERROR]
    assert errors == []
    assert all(r.state.is_terminal for r in reqs)
    assert verify_serving_metrics(metrics, reqs, HORIZON) == {}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_one_stream_ebird_equals_naive_rounds(specs):
    shared = build(specs)
    simulate_ebird_serving(shared, cost, max_streams=1, max_batch=MAX_BATCH,
                           efficiency=1.0, duration_s=HORIZON)
    serial = build(specs)
    simulate_serving(serial, NaiveBatchScheduler(), cost,
                     ServingConfig(max_batch=MAX_BATCH, round_limit=MAX_BATCH),
                     duration_s=HORIZON)
    for a, b in zip(outcome(shared), outcome(serial)):
        assert a[2] is b[2]
        assert a[0] == pytest.approx(b[0], rel=1e-9)
        assert a[1] == pytest.approx(b[1], rel=1e-9)
