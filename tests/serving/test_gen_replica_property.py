"""Property test: one GenReplica loop under random traffic and faults.

Random arrivals (same-instant ones included, and ones tied with the
step ends of the earliest instant's requests served alone),
random fault plans (crash, latency spike, transient failures), 1–3
replicas, chunked prefill and the prefix cache on or off — every run
must pass the engine-trace sanitizer with no ERROR, resolve every
request, leak no KV region, and report the serving metrics its request
list gives (:func:`repro.analysis.verify_serving_metrics`, its resilience
counts included).  A run with a metrics registry attached must publish counters equal to its
``GenServingMetrics`` fields, its terminal-state counts and the
dispatches the sanitizer recorded, and serve every request exactly as
the same run without a registry.  The request-level control (the same
replica under the request-level rule) must do the same, fault-free, on
an arena small enough that the KV gate splits its DP batches.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_serving_metrics
from repro.analysis.diagnostics import Severity
from repro.analysis.engine_checks import EngineTraceRecorder, verify_trace
from repro.engine import EventKind
from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.observability import MetricsRegistry
from repro.resilience import (
    FaultPlan,
    LatencySpike,
    ResilienceConfig,
    RetryPolicy,
    ServerCrash,
    TransientFailures,
)
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    GenRequest,
    KVPreemptionPolicy,
    RequestLevelGenerationServer,
    RequestState,
    simulate_generation_cluster,
)

CONFIG = tiny_gpt()
BPT = kv_bytes_per_token(CONFIG.num_layers, CONFIG.num_heads, CONFIG.head_size)
RUNTIME = GenerationRuntime(build_prefill_graph(CONFIG),
                            build_decode_step_graph(CONFIG),
                            TURBO_CHARACTERISTICS, RTX_2060, stride=1)
#: Two shared prompt heads, so the prefix cache has something to match.
HEADS = (tuple(range(1, 17)), tuple(range(101, 133)))

times = st.floats(min_value=0.0, max_value=0.06, allow_nan=False)


def step_ends(first: list, config: ContinuousBatchingConfig) -> list:
    """Step-end instants of the same-instant requests ``first`` served
    alone by a fault-free replica: each one's first token (the end of its
    prefill or round) and its completion (the end of its last decode
    step).  They come from the requests, not from the engine's windows,
    so how the code under test groups steps into windows does not move
    them."""
    alone = [replace(r) for r in first]
    ContinuousBatchingServer(RUNTIME, arena(), config).serve(
        alone, duration_s=0.1)
    return sorted({t for r in alone for t in (r.first_token_s,
                                             r.completion_s)
                   if t is not None and t > first[0].arrival_s})


@st.composite
def requests(draw, config=ContinuousBatchingConfig()):
    # Arrival instants come from a small pool, so several requests often
    # share one instant.
    pool = draw(st.lists(times, min_size=1, max_size=4))
    specs = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(0, len(HEADS)),
                  st.integers(1, 12), st.integers(1, 12)),
        min_size=1, max_size=14))
    out = []
    for i, (arrival, head, suffix, new_tokens) in enumerate(specs):
        prompt = (HEADS[head] if head < len(HEADS) else ()) + tuple(
            1000 + 17 * i + k for k in range(suffix))
        out.append(GenRequest(req_id=i, seq_len=len(prompt),
                              arrival_s=arrival, max_new_tokens=new_tokens,
                              prompt_ids=prompt))
    # Later requests may arrive exactly on a step end of the earliest
    # instant's requests (served alone until the next arrival), so
    # ordering at window boundaries — ARRIVAL and RETRY before the
    # window's WAKE — is exercised.
    t0 = min(r.arrival_s for r in out)
    first = [r for r in out if r.arrival_s == t0]
    ends = step_ends(first, config)
    for r in out:
        if r.arrival_s > t0 and ends and draw(st.booleans()):
            r.arrival_s = draw(st.sampled_from(ends))
    return out


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
    return ResilienceConfig(
        faults=FaultPlan(seed=draw(st.integers(0, 9)), spikes=spikes,
                         failures=failures, crashes=crashes),
        retry=retry)


@st.composite
def scenarios(draw):
    replicas = draw(st.integers(1, 3))
    config = ContinuousBatchingConfig(
        chunk_tokens=draw(st.none() | st.sampled_from((4, 16))),
        prefix_cache=draw(st.booleans()),
        preemption=draw(st.none() | st.just(KVPreemptionPolicy(1))),
    )
    return (draw(requests(config)), replicas, config,
            draw(resilience(replicas)), draw(st.booleans()))


def arena(_replica: int = 0) -> KVCacheArena:
    return KVCacheArena(capacity_bytes=160 * BPT, bytes_per_token=BPT,
                        page_tokens=8)


def prefix_overadmission():
    """Fault-free, two replicas, prefix cache on, prompts whose cached
    heads diverge from pages other requests prefilled: publishing must
    stop at another request's index node, or the arena counts a page as
    reclaimable that eviction cannot free and over-admits."""
    spec = ((1, 1, 1), (0, 1, 1), (1, 8, 11), (0, 1, 1), (0, 8, 11),
            (0, 1, 1), (0, 8, 11), (0, 1, 1), (0, 1, 10))
    reqs = []
    for i, (head, suffix, new_tokens) in enumerate(spec):
        prompt = HEADS[head] + tuple(1000 + 17 * i + k
                                     for k in range(suffix))
        reqs.append(GenRequest(req_id=i, seq_len=len(prompt), arrival_s=0.0,
                               max_new_tokens=new_tokens, prompt_ids=prompt))
    return (reqs, 2, ContinuousBatchingConfig(prefix_cache=True),
            ResilienceConfig(), False)


def serve(reqs, replicas, config, res, registry=None):
    """One recorded run: ``(metrics, kv_leaks, recorder)``."""
    with EngineTraceRecorder() as rec:
        if replicas == 1:
            kv = arena()
            metrics = ContinuousBatchingServer(
                RUNTIME, kv, config, metrics=registry,
                resilience=res).serve(reqs, duration_s=0.1)
            leaks = kv.verify(live_req_ids=[])
        else:
            cluster = simulate_generation_cluster(
                reqs, replicas, RUNTIME, arena, duration_s=0.1,
                resilience=res, config=config, metrics=registry)
            metrics, leaks = cluster.serving, cluster.kv_leaks
    return metrics, leaks, rec


#: The counters :func:`reconciled` accounts for.
RECONCILED = {"gen_prefill_batches_total", "gen_prefill_chunks_total",
              "gen_decode_steps_total", "gen_preemptions_total",
              "gen_prefix_hits_total", "gen_prefix_tokens_reused_total",
              "serving_requests_completed_total",
              "serving_requests_dropped_total", "serving_retries_total",
              "engine_faults_total", "engine_events_dispatched_total"}


def published(registry):
    """``{(name, labels): value}`` of the registry's counters in
    :data:`RECONCILED`, injected stretches aside (no metrics field
    counts them)."""
    return {(c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in registry.to_dict()["counters"]
            if c["name"] in RECONCILED
            and c["labels"] != {"kind": "stretch"}}


def reconciled(metrics, reqs, rec):
    """The counters a run must publish, from its metrics, its terminal
    requests and the recorder's dispatch log; a zero count publishes
    nothing."""
    system = (("system", metrics.system),)
    states = Counter(r.state for r in reqs)
    want = {
        ("gen_prefill_batches_total", system): metrics.prefill_batches,
        ("gen_prefill_chunks_total", system): metrics.prefill_chunks,
        ("gen_decode_steps_total", system): metrics.decode_steps,
        ("gen_preemptions_total", system): metrics.preemptions,
        ("gen_prefix_hits_total", system): metrics.prefix_hits,
        ("gen_prefix_tokens_reused_total", system):
            metrics.prefix_tokens_reused,
        ("serving_requests_completed_total", (("path", "model"),)):
            metrics.completed,
        ("serving_retries_total", ()): metrics.retries,
        # Transient failures strike only at the prefill commit.
        ("engine_faults_total", (("kind", "attempt_failure"),)):
            metrics.attempts_failed,
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


def outcome(reqs):
    return [(r.start_s, r.first_token_s, r.completion_s, r.generated,
             r.state) for r in sorted(reqs, key=lambda r: r.req_id)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(prefix_overadmission())
def test_replica_runs_are_sanitizer_clean(scenario):
    reqs, replicas, config, res, observed = scenario
    registry = MetricsRegistry() if observed else None
    plain = [replace(r) for r in reqs]
    metrics, leaks, rec = serve(reqs, replicas, config, res, registry)
    errors = [d for d in verify_trace(rec, retry=res.retry)
              if d.severity is Severity.ERROR]
    assert errors == []
    assert all(r.state.is_terminal for r in reqs)
    assert leaks == []
    # Every draw is resilient, so the run reports resilience counts, and
    # the verifier reconciles them with the terminal requests.
    assert metrics.resilience is not None
    assert verify_serving_metrics(metrics, reqs, 0.1) == {}
    if registry is not None:
        assert published(registry) == reconciled(metrics, reqs, rec)
        # Decode tokens: at least one per step, and fewer than all tokens
        # (each request's first comes from its prefill).
        decode_tokens = registry.sum_values("gen_tokens_total")
        assert metrics.decode_steps <= decode_tokens
        assert decode_tokens <= metrics.tokens_generated - metrics.completed
        # Every failed attempt at a prefill commit fails its request or
        # retries; crashes fail attempts too.
        assert registry.value("serving_attempt_failures_total") \
            >= metrics.attempts_failed
        serve(plain, replicas, config, res)
        assert outcome(reqs) == outcome(plain)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests(), st.integers(1, 8))
def test_request_level_runs_are_sanitizer_clean(reqs, max_batch):
    kv = arena()
    with EngineTraceRecorder() as rec:
        metrics = RequestLevelGenerationServer(
            RUNTIME, kv, max_batch=max_batch).serve(reqs, duration_s=0.1)
    errors = [d for d in verify_trace(rec)
              if d.severity is Severity.ERROR]
    assert errors == []
    assert all(r.state.is_terminal for r in reqs)
    assert kv.verify(live_req_ids=[]) == []
    assert verify_serving_metrics(metrics, reqs, 0.1) == {}
