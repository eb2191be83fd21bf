"""Differential test: folded decode runs against one window per step.

:meth:`GenReplica.decode_run` commits every step that ends strictly
before the engine's next live event without yielding.  The reference
(:mod:`per_step_decode`) yields the end of every step.  Over random
traffic — a lone replica, two replicas behind the router, and the
request-level rule; arenas tight enough that a KV-held queue head
preempts; latency spikes, crashes, transient failures and retries;
arrivals tied with step ends — both must give every request the same
outcome, every ``GenServingMetrics`` field, each arena's ``stats()``,
the engine-trace sanitizer's verdicts and, when observed, the same
Chrome trace and metrics registry.  Only the count of WAKE dispatches
may differ, and the fold never dispatches more.
"""

from dataclasses import asdict, replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.engine_checks import EngineTraceRecorder, verify_trace
from repro.engine import EventKind
from repro.memory import KVCacheArena
from repro.observability import MetricsRegistry, Tracer
from repro.resilience import (
    FaultPlan,
    LatencySpike,
    ResilienceConfig,
    ServerCrash,
    TransientFailures,
)
from repro.serving import (
    ContinuousBatchingConfig,
    GenReplica,
    GenRequest,
    KVPreemptionPolicy,
    PrunedDPBatchScheduler,
)
from repro.serving.continuous import (
    _GenDriver,
    _RequestLevelReplica,
    request_level_cost_fn,
)

from .per_step_decode import PerStepGenReplica, PerStepRequestLevelReplica
from .test_gen_replica_property import (
    BPT,
    HEADS,
    RUNTIME,
    requests,
    resilience,
    step_ends,
)

DURATION_S = 0.1
WAKE = ("counters", "engine_events_dispatched_total", (("kind", "wake"),))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(("lone", "pair", "request-level")))
    capacity = draw(st.sampled_from((64, 160, 1024)))
    observed = draw(st.booleans())
    if kind == "request-level":
        return (kind, draw(requests()), capacity, draw(st.integers(1, 8)),
                None, observed)
    config = ContinuousBatchingConfig(
        chunk_tokens=draw(st.none() | st.sampled_from((4, 16))),
        prefix_cache=draw(st.booleans()),
        preemption=draw(st.none() | st.just(KVPreemptionPolicy(1))),
    )
    replicas = 1 if kind == "lone" else 2
    return (kind, draw(requests(config)), capacity, config,
            draw(resilience(replicas)), observed)


def held_head():
    """A lone replica whose arena holds one request at a time: the queue
    head waits on the KV gate while the batch decodes, preempts it, and
    a spike and a crash land mid-run."""
    reqs = [GenRequest(req_id=i, seq_len=len(HEADS[1]) + 4,
                       arrival_s=0.002 * i, max_new_tokens=12,
                       prompt_ids=HEADS[1] + tuple(range(2000 + 4 * i,
                                                         2004 + 4 * i)))
            for i in range(6)]
    res = ResilienceConfig(faults=FaultPlan(
        seed=1,
        spikes=(LatencySpike(0.002, 0.004, multiplier=3.0),),
        failures=(TransientFailures(0.0, 0.003, failure_rate=0.5),),
        crashes=(ServerCrash(0.005, 0.006, server_id=0),)))
    config = ContinuousBatchingConfig(preemption=KVPreemptionPolicy(1))
    return "lone", reqs, 64, config, res, True


def tied_mid_run():
    """A lone fault-free replica decoding two requests when a third
    arrives exactly as the shorter one completes: the step ending then
    must not fold, so the arrival queues before that step commits."""
    config = ContinuousBatchingConfig()
    first = [GenRequest(req_id=i, seq_len=8, arrival_s=0.0,
                        max_new_tokens=new, prompt_ids=tuple(range(8)))
             for i, new in enumerate((3, 9))]
    tie = step_ends(first, config)[1]  # request 0's completion
    late = GenRequest(req_id=2, seq_len=8, arrival_s=tie, max_new_tokens=4,
                      prompt_ids=tuple(range(8)))
    return "lone", first + [late], 1024, config, None, False


def request_level_queue():
    """The request-level rule with requests arriving while a batch
    prefills: every decode run of that batch returns on a non-empty
    queue."""
    reqs = [GenRequest(req_id=i, seq_len=8 + i, arrival_s=0.0001 * i,
                       max_new_tokens=5, prompt_ids=tuple(range(8 + i)))
            for i in range(3)]
    return "request-level", reqs, 1024, 4, None, False


def serve(scenario, per_step: bool):
    """One recorded run of ``scenario``: what must match, and the WAKE
    dispatch count."""
    kind, reqs, capacity, config, res, observed = scenario
    reqs = [replace(r) for r in reqs]

    def arena() -> KVCacheArena:
        return KVCacheArena(capacity_bytes=capacity * BPT,
                            bytes_per_token=BPT, page_tokens=8)

    if kind == "request-level":
        cls = PerStepRequestLevelReplica if per_step else _RequestLevelReplica
        replicas = [cls(RUNTIME, arena(),
                        ContinuousBatchingConfig(max_batch=config),
                        PrunedDPBatchScheduler(),
                        request_level_cost_fn(RUNTIME))]
    else:
        cls = PerStepGenReplica if per_step else GenReplica
        replicas = [cls(i, RUNTIME, arena(), config)
                    for i in range(1 if kind == "lone" else 2)]
    tracer = Tracer() if observed else None
    registry = MetricsRegistry() if observed else None
    with EngineTraceRecorder() as rec:
        metrics = _GenDriver(replicas, tracer, registry, "gen",
                             res).serve(reqs, DURATION_S)
    retry = None if res is None else res.retry
    published = {}
    if registry is not None:
        for kind_ in ("counters", "gauges", "histograms"):
            for series in registry.to_dict()[kind_]:
                key = (kind_, series["name"],
                       tuple(sorted(series["labels"].items())))
                published[key] = {k: v for k, v in series.items()
                                  if k not in ("name", "labels")}
    wakes = published.pop(WAKE, None)
    outcome = {
        "requests": [(r.req_id, r.start_s, r.first_token_s, r.completion_s,
                      r.generated, r.state, r.attempt) for r in reqs],
        # repr: equal NaNs compare equal, every float digit counts.
        "metrics": repr(asdict(metrics)),
        "arenas": [rep.arena.stats() for rep in replicas],
        "verdicts": [(d.code, d.severity, d.message)
                     for d in verify_trace(rec, retry=retry)],
        "trace": None if tracer is None else tracer.events,
        "registry": published,
    }
    wake_dispatches = sum(1 for *_, kind_ in rec.dispatches
                          if kind_ == EventKind.WAKE)
    if wakes is not None:
        assert wakes["value"] == wake_dispatches
    return outcome, wake_dispatches


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(held_head())
@example(tied_mid_run())
@example(request_level_queue())
def test_folded_decode_runs_match_per_step_windows(scenario):
    folded, folded_wakes = serve(scenario, per_step=False)
    reference, reference_wakes = serve(scenario, per_step=True)
    for key in reference:
        assert folded[key] == reference[key], key
    assert folded_wakes <= reference_wakes


def test_tied_arrival_ends_the_run_at_its_step():
    """The explicit tie example ties mid-run: the fold saves WAKEs, and
    the late request is admitted at the tied instant."""
    scenario = tied_mid_run()
    folded, folded_wakes = serve(scenario, per_step=False)
    reference, reference_wakes = serve(scenario, per_step=True)
    assert folded == reference
    assert folded_wakes < reference_wakes
    tie = scenario[1][2].arrival_s
    assert reference["requests"][2][1] == tie  # start_s


def test_held_head_folds_steps():
    """The explicit example both queues a held head and folds steps, so
    it covers the return on a non-empty queue and the fold itself."""
    folded, folded_wakes = serve(held_head(), per_step=False)
    reference, reference_wakes = serve(held_head(), per_step=True)
    assert folded == reference
    assert folded_wakes < reference_wakes
    assert any(stats["denials"] for stats in reference["arenas"])
