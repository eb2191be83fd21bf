"""The one serving driver's rules hold for both replica kinds.

Each rule of :mod:`repro.serving.driver` is one test, parametrized over
the encoder kind (``simulate_serving`` over a
:class:`~repro.serving.BatchReplica`) and the generation kind
(``ContinuousBatchingServer`` over a
:class:`~repro.serving.GenReplica`):

* retry — a failed attempt with no ``RetryPolicy`` ends FAILED (and a
  KV-pressure preemption, which is no failure, still re-enters);
* backlog — shed requests are not backlog, and neither is a request
  whose service starts exactly at the horizon;
* counters — both kinds publish ``serving_retries_total`` and
  ``serving_attempt_failures_total``, report resilience counts their
  terminal requests give, and publish the run-level series
  (utilization, horizon backlog, batches, ingested requests and, beside
  other replicas, completions per replica);
* routing — a lone replica is not routed, so its breaker never commits
  a half-open probe (``allow``);
* queue during an outage — a crash that never ends fails the replica's
  queued and later work at once through the retry path, alone, beside
  another replica that is down for good, and under Ebird's processor
  sharing, and beside a live replica it serves as a crash that outlasts
  the run does;
* wake — an idle replica's first round or admission sees every arrival
  and retry of its instant; a lazy replica's decision timer never starts
  a replica that is already running; and a run left with work its
  trigger policy never serves is an error.
"""

import math

import pytest

from repro.analysis import verify_serving_metrics
from repro.analysis.engine_checks import EngineTraceRecorder, verify_trace
from repro.engine import EventKind
from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.observability import MetricsRegistry
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    ServerCrash,
    TransientFailures,
)
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    DPBatchScheduler,
    GenRequest,
    KVPreemptionPolicy,
    LazyPolicy,
    Request,
    RequestState,
    RoutingPolicy,
    ServingConfig,
    TriggerPolicy,
    simulate_cluster,
    simulate_ebird_serving,
    simulate_generation_cluster,
    simulate_serving,
)
from repro.serving.server import _BatchDriver

MODEL = tiny_gpt()
BPT = kv_bytes_per_token(MODEL.num_layers, MODEL.num_heads, MODEL.head_size)
RUNTIME = GenerationRuntime(build_prefill_graph(MODEL),
                            build_decode_step_graph(MODEL),
                            TURBO_CHARACTERISTICS, RTX_2060, stride=1)
KINDS = ("batch", "gen")


def cost(seq_len: int, batch: int) -> float:
    return 0.002 + 0.00002 * seq_len * batch


def request(kind: str, req_id: int, arrival_s: float,
            seq_len: int = 16) -> Request:
    if kind != "gen":
        return Request(req_id=req_id, seq_len=seq_len, arrival_s=arrival_s)
    return GenRequest(req_id=req_id, seq_len=seq_len, arrival_s=arrival_s,
                      max_new_tokens=4)


def serve(kind: str, reqs, duration_s: float, resilience=None, metrics=None,
          capacity_tokens: int = 512,
          config: ContinuousBatchingConfig = ContinuousBatchingConfig()):
    """Serve ``reqs`` on one replica of ``kind``; assert the reported
    metrics against the request list on the way out."""
    if kind == "batch":
        result = simulate_serving(reqs, DPBatchScheduler(), cost,
                                  ServingConfig(max_batch=4),
                                  duration_s=duration_s,
                                  resilience=resilience, metrics=metrics)
    elif kind == "ebird":
        result = simulate_ebird_serving(reqs, cost, max_batch=4,
                                        duration_s=duration_s,
                                        resilience=resilience)
    else:
        arena = KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                             bytes_per_token=BPT, page_tokens=8)
        result = ContinuousBatchingServer(
            RUNTIME, arena, config, metrics=metrics,
            resilience=resilience).serve(reqs, duration_s=duration_s)
    assert verify_serving_metrics(result, reqs, duration_s) == {}
    return result


def failing(retry=None) -> ResilienceConfig:
    """Every attempt that runs in the first 10 ms fails."""
    return ResilienceConfig(
        faults=FaultPlan(failures=(TransientFailures(0.0, 0.01, 1.0),)),
        retry=retry)


@pytest.mark.parametrize("kind", KINDS)
def test_failed_attempt_without_retry_policy_fails(kind):
    reqs = [request(kind, i, 0.0) for i in range(3)]
    reqs.append(request(kind, 3, 0.05))
    serve(kind, reqs, 0.1, resilience=failing())
    assert [r.state for r in reqs] == [RequestState.FAILED] * 3 + [
        RequestState.COMPLETED]
    assert all(r.attempt == 0 for r in reqs)


def test_kv_preemption_without_retry_policy_reenters():
    """Preemption is no failure: with no retry policy every victim
    re-enters at once and completes."""
    reqs = [GenRequest(req_id=i, seq_len=24, arrival_s=0.001 * i,
                       max_new_tokens=24) for i in range(8)]
    result = serve("gen", reqs, 0.01, capacity_tokens=96,
                   config=ContinuousBatchingConfig(
                       preemption=KVPreemptionPolicy(1)))
    assert result.preemptions > 0
    assert all(r.state is RequestState.COMPLETED for r in reqs)


@pytest.mark.parametrize("kind", KINDS)
def test_shed_requests_are_not_backlog(kind):
    if kind == "batch":
        # A one-slot queue sheds every same-instant arrival but the first.
        reqs = [request(kind, i, 0.0) for i in range(4)]
        resilience = ResilienceConfig(queue_capacity=1)
    else:
        # A prompt no empty arena could hold is shed at ingest.
        reqs = [request(kind, 0, 0.0), request(kind, 1, 0.0, seq_len=600)]
        resilience = None
    # One arrival after the horizon: the run crosses it.
    reqs.append(request(kind, len(reqs), 0.6))
    result = serve(kind, reqs, 0.5, resilience=resilience)
    assert any(r.state is RequestState.SHED for r in reqs)
    assert result.backlog_at_end == 0


@pytest.mark.parametrize("kind", KINDS)
def test_service_starting_at_the_horizon_is_not_backlog(kind):
    reqs = [request(kind, 0, 0.0), request(kind, 1, 0.5)]
    result = serve(kind, reqs, 0.5)
    assert reqs[1].start_s == 0.5
    assert result.backlog_at_end == 0


@pytest.mark.parametrize("kind", KINDS)
def test_both_kinds_publish_retry_counters(kind):
    registry = MetricsRegistry()
    reqs = [request(kind, i, 0.0) for i in range(3)]
    serve(kind, reqs, 0.1, metrics=registry, resilience=failing(
        RetryPolicy(max_attempts=3, base_backoff_s=0.004, jitter=0.0)))
    retries = registry.value("serving_retries_total")
    failures = registry.value("serving_attempt_failures_total")
    failed = sum(r.state is RequestState.FAILED for r in reqs)
    assert retries == sum(r.attempt for r in reqs) > 0
    assert failures == retries + failed


def test_resilience_counts_reconcile_with_the_requests():
    """An encoder run that retries, times out, fails and sheds reports
    each count its terminal requests give."""
    # Eight same-instant arrivals on a six-slot queue, half with a 20 ms
    # deadline, and every attempt in the first 20 ms fails.
    reqs = [Request(req_id=i, seq_len=16, arrival_s=0.0,
                    deadline_s=0.02 if i % 2 else None) for i in range(8)]
    resilience = ResilienceConfig(
        faults=FaultPlan(failures=(TransientFailures(0.0, 0.02, 1.0),)),
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.004, jitter=0.0),
        queue_capacity=6)
    result = simulate_serving(reqs, DPBatchScheduler(),
                              lambda seq_len, batch: 0.006,
                              ServingConfig(max_batch=2), duration_s=0.1,
                              resilience=resilience)
    assert verify_serving_metrics(result, reqs, 0.1) == {}
    stats = result.resilience
    assert stats.retries and stats.timed_out and stats.failed and stats.shed
    assert stats.rejected == stats.shed


def cluster(kind: str, reqs, metrics: MetricsRegistry):
    """Serve ``reqs`` on two resilient replicas of ``kind``."""
    resilience = failing(RetryPolicy(max_attempts=3, base_backoff_s=0.004,
                                     jitter=0.0))
    if kind == "batch":
        return simulate_cluster(reqs, 2, DPBatchScheduler, cost,
                                duration_s=0.1, resilience=resilience,
                                metrics=metrics).serving
    return simulate_generation_cluster(
        reqs, 2, RUNTIME,
        lambda _replica: KVCacheArena(capacity_bytes=512 * BPT,
                                      bytes_per_token=BPT, page_tokens=8),
        duration_s=0.1, resilience=resilience, metrics=metrics).serving


@pytest.mark.parametrize("kind", KINDS)
def test_both_kinds_publish_the_run_level_series(kind):
    registry = MetricsRegistry()
    reqs = [request(kind, i, 0.002 * i) for i in range(6)]
    result = cluster(kind, reqs, registry)
    assert result.resilience is not None
    system = {"system": result.system}
    assert registry.value("serving_response_throughput", **system) \
        == result.response_throughput
    assert registry.value("serving_utilization", **system) \
        == result.utilization
    assert registry.value("serving_backlog_at_horizon", **system) \
        == result.backlog_at_end
    assert registry.value("serving_batches_executed_total") \
        == result.batches_executed
    assert registry.value("serving_requests_ingested_total") \
        == result.offered + result.resilience.retries
    per_replica = {g["labels"]["server"]: g["value"]
                   for g in registry.to_dict()["gauges"]
                   if g["name"] == "cluster_server_completed"}
    assert sorted(per_replica) == ["0", "1"]
    assert sum(per_replica.values()) == result.completed


class CountingBreaker(CircuitBreaker):
    def __init__(self) -> None:
        super().__init__(name="server0")
        self.commits = 0

    def allow(self, now_s: float) -> bool:
        self.commits += 1
        return super().allow(now_s)


@pytest.mark.parametrize("kind", KINDS)
def test_lone_replica_is_not_routed(kind):
    breakers = []

    def factory(_server_id: int) -> CountingBreaker:
        breakers.append(CountingBreaker())
        return breakers[-1]

    reqs = [request(kind, i, 0.01 * i) for i in range(5)]
    serve(kind, reqs, 0.05,
          resilience=ResilienceConfig(breaker_factory=factory))
    assert all(r.state is RequestState.COMPLETED for r in reqs)
    assert [b.commits for b in breakers] == [0]


def down_for_good(*servers: int, end_s: float = math.inf,
                  retry=None) -> ResilienceConfig:
    """Each of ``servers`` crashes at 50 ms and stays down until
    ``end_s``, by default for good."""
    return ResilienceConfig(faults=FaultPlan(crashes=tuple(
        ServerCrash(0.05, end_s, server_id=i) for i in servers)),
        retry=retry)


RETRIES = {"no-retry": None,
           "retry": RetryPolicy(max_attempts=3, base_backoff_s=0.004,
                                jitter=0.0)}


def serve_cluster(kind: str, reqs, resilience: ResilienceConfig):
    """Serve ``reqs`` on two replicas of ``kind`` for a 0.1 s horizon."""
    if kind == "batch":
        return simulate_cluster(reqs, 2, DPBatchScheduler, cost,
                                duration_s=0.1, resilience=resilience)
    return simulate_generation_cluster(
        reqs, 2, RUNTIME,
        lambda _replica: KVCacheArena(capacity_bytes=512 * BPT,
                                      bytes_per_token=BPT, page_tokens=8),
        duration_s=0.1, resilience=resilience)


def assert_down_for_good(reqs, rec, retry) -> None:
    """Every request resolves at a finite time: what finished before the
    crash at 50 ms completed, the rest failed, and the sanitizer is
    clean."""
    assert verify_trace(rec, retry=retry) == []
    assert all(r.state.is_terminal for r in reqs)
    done = [r for r in reqs if r.state is RequestState.COMPLETED]
    assert done and all(r.completion_s <= 0.05 for r in done)
    assert all(r.state is RequestState.FAILED for r in reqs
               if r.arrival_s >= 0.05)
    if retry is not None:
        assert any(r.attempt for r in reqs)


@pytest.mark.parametrize("retry", sorted(RETRIES))
@pytest.mark.parametrize("kind", KINDS + ("ebird",))
def test_lone_replica_down_for_good_fails_its_work(kind, retry):
    """With no other replica to take it, work queued on a replica that
    never recovers fails at once, and so does work that reaches it later:
    no window ends at ``inf``."""
    reqs = [request(kind, i, 0.01 * i) for i in range(10)]
    with EngineTraceRecorder() as rec:
        serve(kind, reqs, 0.1,
              resilience=down_for_good(0, retry=RETRIES[retry]))
    assert_down_for_good(reqs, rec, RETRIES[retry])


@pytest.mark.parametrize("retry", sorted(RETRIES))
@pytest.mark.parametrize("kind", KINDS)
def test_cluster_down_for_good_fails_its_work(kind, retry):
    reqs = [request(kind, i, 0.01 * i) for i in range(10)]
    with EngineTraceRecorder() as rec:
        serve_cluster(kind, reqs, down_for_good(0, 1, retry=RETRIES[retry]))
    assert_down_for_good(reqs, rec, RETRIES[retry])


@pytest.mark.parametrize("kind", KINDS)
def test_down_for_good_beside_a_live_replica_fails_over(kind):
    """Beside a live replica, a crash that never ends serves every request
    as a crash that outlasts the run does."""
    def run(end_s):
        reqs = [request(kind, i, 0.005 * i) for i in range(20)]
        result = serve_cluster(kind, reqs, down_for_good(
            0, end_s=end_s, retry=RETRIES["retry"]))
        return result, [(r.req_id, r.start_s, r.completion_s, r.state,
                         r.attempt) for r in reqs]

    forever, outlasting = run(math.inf), run(1e3)
    assert forever == outlasting
    assert all(state is RequestState.COMPLETED
               for *_, state, _attempt in forever[1])


@pytest.mark.parametrize("kind", KINDS)
def test_idle_replica_sees_its_whole_instant(kind):
    """Request 0 fails its first attempt and retries at some instant T,
    when the replica is idle.  Two arrivals at T, which a first run finds,
    join the retry in the replica's first round or admission there."""
    def run(extra):
        reqs = [request(kind, 0, 0.0)]
        reqs += [request(kind, i, extra) for i in (1, 2) if extra is not None]
        serve(kind, reqs, 0.1, resilience=failing(
            RetryPolicy(max_attempts=2, base_backoff_s=0.02, jitter=0.0)))
        return reqs

    (alone,) = run(None)
    t = alone.start_s
    assert alone.attempt == 1 and t > 0.01
    reqs = run(t)
    assert [r.start_s for r in reqs] == [t, t, t]
    assert all(r.state is RequestState.COMPLETED for r in reqs)


def test_decision_trigger_never_restarts_a_running_replica():
    """Two lazy replicas each hold one request and arm a TRIGGER at its
    timeout.  More arrivals fill both to ``max_batch`` first, so both
    rounds are still running when the stale TRIGGERs fire; neither may
    start a second run of its replica."""
    reqs = [Request(req_id=i, seq_len=16, arrival_s=0.0) for i in range(2)]
    reqs += [Request(req_id=i, seq_len=16, arrival_s=0.001)
             for i in range(2, 8)]
    config = ServingConfig(max_batch=4, policy=LazyPolicy(
        timeout_s=0.01, max_batch=4, latency_slo_s=10.0))
    driver = _BatchDriver([DPBatchScheduler(), DPBatchScheduler()],
                          lambda seq_len, batch: 0.05, config, "lazy-x2",
                          policy=RoutingPolicy.ROUND_ROBIN)
    running, triggers = set(), []
    spawn = driver.engine.spawn

    def tracked(windows):
        # ``windows`` is a replica's ``run()``, not yet started.
        rep = windows.gi_frame.f_locals["self"]
        assert rep.server_id not in running, "second run of a replica"
        running.add(rep.server_id)

        def run():
            yield from windows
            running.discard(rep.server_id)

        return spawn(run())

    driver.engine.spawn = tracked
    driver.engine.add_dispatch_hook(
        lambda e: triggers.append((e.time, e.payload.server_id))
        if e.kind is EventKind.TRIGGER else None)
    result = driver.serve(reqs, 0.1)
    assert sorted(triggers) == [(0.01, 0), (0.01, 1)]
    assert all(r.start_s == 0.001 and r.completion_s == 0.001 + 0.05
               for r in reqs)
    assert verify_serving_metrics(result, reqs, 0.1) == {}


class NeverFires(TriggerPolicy):
    name = "never"

    def should_schedule(self, queue, now_s):
        return False


def test_policy_that_never_fires_is_rejected():
    reqs = [Request(req_id=i, seq_len=16, arrival_s=0.01 * i)
            for i in range(3)]
    with pytest.raises(RuntimeError, match="never fired"):
        simulate_serving(reqs, DPBatchScheduler(), cost,
                         ServingConfig(policy=NeverFires()), duration_s=0.1)
