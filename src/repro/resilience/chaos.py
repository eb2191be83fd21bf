"""Chaos harness: scripted fault scenarios with a recovery assertion.

``python -m repro chaos --scenario smoke --seed 0`` runs one scenario
twice over the *same* seeded workload — once fault-free (the baseline),
once under the scenario's :class:`FaultPlan` — and reports resilience
metrics: retry rate, deadline-miss rate, breaker transitions, and goodput
in the post-fault window relative to the baseline.  Recovery holds when
post-fault goodput is at least ``recovery_threshold`` (default 95%) of the
fault-free baseline.

Everything is deterministic given ``(scenario, seed)``: the workload comes
from a seeded generator, the fault plan is a fixed schedule whose only
randomness is hashed per attempt, and the exported
:class:`~repro.observability.MetricsRegistry` JSON is sorted — two runs
produce byte-identical files, which CI enforces by diffing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..observability import MetricsRegistry, Tracer
from ..serving import (
    ClusterMetrics,
    DPBatchScheduler,
    GenServingMetrics,
    Request,
    RoutingPolicy,
    generate_requests,
    normal_lengths,
    response_throughput,
    simulate_cluster,
)
from .breaker import CircuitBreaker
from .config import ResilienceConfig
from .faults import FaultPlan, LatencySpike, ServerCrash, TransientFailures
from .retry import RetryPolicy


def _linear_cost(seq_len: int, batch: int) -> float:
    """Synthetic profiled cost: fixed launch overhead + per-token work.

    Keeps the chaos CLI fast and dependency-free; the shape (affine in
    padded tokens) matches what the runtime cost tables look like.
    """
    return 0.002 + 0.00002 * seq_len * batch


@dataclass(frozen=True)
class ChaosScenario:
    """One scripted fault scenario over a cluster workload."""

    name: str
    rate_per_s: float
    duration_s: float
    num_servers: int
    faults: FaultPlan
    retry: RetryPolicy
    deadline_s: float
    max_len: int = 200
    max_batch: int = 16
    breaker_window: int = 10
    breaker_threshold: float = 0.5
    breaker_cooldown_s: float = 0.5
    recovery_threshold: float = 0.95
    #: Settle margin after the last fault clears before goodput is judged.
    settle_s: float = 0.5

    def post_fault_window(self) -> Tuple[float, float]:
        start = min(self.faults.last_fault_end_s() + self.settle_s,
                    self.duration_s * 0.9)
        return (start, self.duration_s)


def _smoke(seed: int) -> ChaosScenario:
    """3 servers; one crashes, one slows down, one drops requests.

    All faults clear by t=3.0 of a 6-second run, leaving half the horizon
    to demonstrate recovery.
    """
    return ChaosScenario(
        name="smoke",
        rate_per_s=150.0,
        duration_s=6.0,
        num_servers=3,
        faults=FaultPlan(
            seed=seed,
            spikes=(LatencySpike(start_s=2.0, end_s=2.8, multiplier=3.0,
                                 server_id=0),),
            failures=(TransientFailures(start_s=2.0, end_s=2.8,
                                        failure_rate=0.3, server_id=2),),
            crashes=(ServerCrash(start_s=2.0, end_s=3.0, server_id=1),),
        ),
        retry=RetryPolicy(max_attempts=4, base_backoff_s=0.02,
                          multiplier=2.0, max_backoff_s=0.5,
                          jitter=0.2, budget=400, seed=seed),
        deadline_s=2.0,
    )


def _blackout(seed: int) -> ChaosScenario:
    """Majority outage: 2 of 3 servers crash simultaneously."""
    return ChaosScenario(
        name="blackout",
        rate_per_s=120.0,
        duration_s=8.0,
        num_servers=3,
        faults=FaultPlan(
            seed=seed,
            crashes=(ServerCrash(start_s=2.0, end_s=4.0, server_id=0),
                     ServerCrash(start_s=2.0, end_s=4.0, server_id=1)),
        ),
        retry=RetryPolicy(max_attempts=5, base_backoff_s=0.05,
                          multiplier=2.0, max_backoff_s=1.0,
                          jitter=0.2, budget=800, seed=seed),
        deadline_s=3.0,
    )


def _storm(seed: int) -> ChaosScenario:
    """A permanently flaky replica: tests that the retry budget and the
    breaker, not luck, bound the amplification."""
    return ChaosScenario(
        name="storm",
        rate_per_s=100.0,
        duration_s=6.0,
        num_servers=3,
        faults=FaultPlan(
            seed=seed,
            failures=(TransientFailures(start_s=1.0, end_s=5.0,
                                        failure_rate=0.8, server_id=1),),
        ),
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.02,
                          multiplier=2.0, max_backoff_s=0.3,
                          jitter=0.2, budget=300, seed=seed),
        deadline_s=2.0,
    )


SCENARIOS = {
    "smoke": _smoke,
    "blackout": _blackout,
    "storm": _storm,
}


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos run produced, baseline and chaos side by side."""

    scenario: ChaosScenario
    seed: int
    baseline: ClusterMetrics
    chaos: ClusterMetrics
    goodput_baseline: float
    goodput_chaos: float
    breaker_transitions: List[Tuple[float, str, str, str]]  # (t, server, frm, to)
    registry: MetricsRegistry = field(repr=False)

    @property
    def recovery_ratio(self) -> float:
        """Post-fault goodput relative to the fault-free baseline."""
        if self.goodput_baseline <= 0:
            return 1.0
        return self.goodput_chaos / self.goodput_baseline

    @property
    def recovered(self) -> bool:
        return self.recovery_ratio >= self.scenario.recovery_threshold

    @property
    def retry_rate(self) -> float:
        stats = self.chaos.serving.resilience
        return stats.retries / max(1, self.chaos.serving.offered)


def _workload(scenario: ChaosScenario, seed: int) -> List[Request]:
    """Fresh request objects (same values every call) with deadlines."""

    def lengths(rng, n):
        return normal_lengths(rng, n, lo=5, hi=scenario.max_len)

    requests = generate_requests(scenario.rate_per_s, scenario.duration_s,
                                 seed=seed, length_sampler=lengths)
    return [replace_deadline(r, scenario.deadline_s) for r in requests]


def replace_deadline(request: Request, deadline_s: float) -> Request:
    """Copy of a pristine request with a deadline attached."""
    return Request(
        req_id=request.req_id,
        seq_len=request.seq_len,
        arrival_s=request.arrival_s,
        payload=request.payload,
        priority=request.priority,
        deadline_s=deadline_s,
    )


def run_chaos(
    scenario_name: str = "smoke",
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    policy: RoutingPolicy = RoutingPolicy.LEAST_WORK,
) -> ChaosReport:
    """Run one scenario's baseline + chaos pair and assemble the report."""
    if scenario_name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario_name!r}; pick from {sorted(SCENARIOS)}"
        )
    scenario = SCENARIOS[scenario_name](seed)
    registry = metrics if metrics is not None else MetricsRegistry()

    # -- baseline: identical workload, no faults, no resilience machinery ---
    baseline_requests = _workload(scenario, seed)
    baseline = simulate_cluster(
        baseline_requests, scenario.num_servers, DPBatchScheduler,
        _linear_cost, policy=policy, max_batch=scenario.max_batch,
        duration_s=scenario.duration_s, max_len=scenario.max_len,
    )

    # -- chaos: same workload under the fault plan --------------------------
    breakers: List[CircuitBreaker] = []

    def breaker_factory(server_id: int) -> CircuitBreaker:
        breaker = CircuitBreaker(
            window=scenario.breaker_window,
            failure_threshold=scenario.breaker_threshold,
            cooldown_s=scenario.breaker_cooldown_s,
            name=f"server{server_id}",
            metrics=registry,
        )
        breakers.append(breaker)
        return breaker

    config = ResilienceConfig(
        faults=scenario.faults,
        retry=scenario.retry,
        breaker_factory=breaker_factory,
    )
    chaos_requests = _workload(scenario, seed)
    chaos = simulate_cluster(
        chaos_requests, scenario.num_servers, DPBatchScheduler,
        _linear_cost, policy=policy, max_batch=scenario.max_batch,
        duration_s=scenario.duration_s, max_len=scenario.max_len,
        resilience=config, metrics=registry,
    )

    # -- resilience metrics --------------------------------------------------
    window = scenario.post_fault_window()
    goodput_baseline = response_throughput(baseline_requests, *window)
    goodput_chaos = response_throughput(chaos_requests, *window)
    transitions = sorted(
        (t, b.name, frm.value, to.value)
        for b in breakers
        for (t, frm, to) in b.transitions
    )
    stats = chaos.serving.resilience
    registry.gauge("chaos_goodput_baseline",
                   scenario=scenario.name).set(goodput_baseline)
    registry.gauge("chaos_goodput_post_fault",
                   scenario=scenario.name).set(goodput_chaos)
    registry.gauge("chaos_recovery_ratio", scenario=scenario.name).set(
        goodput_chaos / goodput_baseline if goodput_baseline > 0 else 1.0
    )
    registry.counter("chaos_retries_total",
                     scenario=scenario.name).inc(stats.retries)
    registry.counter("chaos_timed_out_total",
                     scenario=scenario.name).inc(stats.timed_out)
    registry.counter("chaos_failed_total",
                     scenario=scenario.name).inc(stats.failed)
    registry.gauge("chaos_deadline_miss_rate", scenario=scenario.name).set(
        stats.timed_out / max(1, chaos.serving.offered)
    )
    if tracer is not None and tracer.enabled:
        for (t, server, frm, to) in transitions:
            tracer.instant("breaker_transition", t, tid="breakers",
                           cat="resilience", server=server,
                           from_state=frm, to_state=to)

    return ChaosReport(
        scenario=scenario,
        seed=seed,
        baseline=baseline,
        chaos=chaos,
        goodput_baseline=goodput_baseline,
        goodput_chaos=goodput_chaos,
        breaker_transitions=transitions,
        registry=registry,
    )


# ---------------------------------------------------------------------------
# Generation chaos: KV-loss failover and preemption under memory pressure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenChaosScenario:
    """One scripted fault scenario over a *generation* workload.

    ``num_replicas == 1`` runs a single
    :class:`~repro.serving.ContinuousBatchingServer` (watermark preemption
    exercised when ``max_victims_per_event`` is set); ``num_replicas > 1``
    runs :func:`~repro.serving.simulate_generation_cluster` (crash
    failover with KV loss and recompute-on-resume).
    """

    name: str
    rate_per_s: float
    duration_s: float
    num_replicas: int
    faults: FaultPlan
    retry: RetryPolicy
    capacity_tokens: int = 4096
    page_tokens: int = 16
    prompt_lo: int = 4
    prompt_hi: int = 32
    mean_new_tokens: float = 8.0
    max_new_tokens: int = 32
    deadline_s: Optional[float] = None
    #: Enables KV-pressure preemption on the single-replica loop.
    max_victims_per_event: Optional[int] = None
    breaker_window: int = 10
    breaker_threshold: float = 0.5
    breaker_cooldown_s: float = 0.2
    recovery_threshold: float = 0.9
    settle_s: float = 0.2

    def post_fault_window(self) -> Tuple[float, float]:
        start = min(self.faults.last_fault_end_s() + self.settle_s,
                    self.duration_s * 0.9)
        return (start, self.duration_s)


def _gen_blackout(seed: int) -> GenChaosScenario:
    """2 continuous-batching replicas; one crashes mid-run.

    In-flight requests on the dead replica lose their KV regions, re-route
    to the survivor through the retry path, and pay an honest
    recompute-on-resume prefill (``tokens_recomputed``).
    """
    return GenChaosScenario(
        name="gen-blackout",
        rate_per_s=600.0,
        duration_s=2.0,
        num_replicas=2,
        faults=FaultPlan(
            seed=seed,
            crashes=(ServerCrash(start_s=0.8, end_s=1.2, server_id=0),),
        ),
        retry=RetryPolicy(max_attempts=5, base_backoff_s=0.005,
                          multiplier=2.0, max_backoff_s=0.1,
                          jitter=0.2, budget=4000, seed=seed),
        capacity_tokens=8192,
    )


def _gen_storm(seed: int) -> GenChaosScenario:
    """One replica, a modest KV arena, a latency spike + failure window.

    The spike slows decode so live requests hold their KV regions longer
    and the high watermark starts denying the queue head — the preemption
    policy fires (victims evicted, restored, recompute charged) — while
    the failure window tests that dropped prefill attempts re-enter
    within the retry budget.  Fault-free the arena never saturates, so
    every preemption is fault-driven.
    """
    return GenChaosScenario(
        name="gen-storm",
        rate_per_s=250.0,
        duration_s=2.5,
        num_replicas=1,
        faults=FaultPlan(
            seed=seed,
            spikes=(LatencySpike(start_s=0.6, end_s=1.0, multiplier=4.0,
                                 server_id=0),),
            failures=(TransientFailures(start_s=0.6, end_s=1.0,
                                        failure_rate=0.3, server_id=0),),
        ),
        retry=RetryPolicy(max_attempts=6, base_backoff_s=0.005,
                          multiplier=2.0, max_backoff_s=0.1,
                          jitter=0.2, budget=4000, seed=seed),
        capacity_tokens=512,
        max_victims_per_event=2,
    )


GEN_SCENARIOS = {
    "gen-blackout": _gen_blackout,
    "gen-storm": _gen_storm,
}


@dataclass(frozen=True)
class GenChaosReport:
    """One generation chaos run, baseline and chaos side by side.

    ``kv_leaks`` is the end-of-run arena audit across every replica: a
    non-empty list means some KV region outlived its request through a
    crash or preemption (the MEM221 invariant, violated)."""

    scenario: GenChaosScenario
    seed: int
    baseline: "GenServingMetrics"
    chaos: "GenServingMetrics"
    goodput_baseline: float
    goodput_chaos: float
    kv_leaks: List[str]
    registry: MetricsRegistry = field(repr=False)

    @property
    def recovery_ratio(self) -> float:
        if self.goodput_baseline <= 0:
            return 1.0
        return self.goodput_chaos / self.goodput_baseline

    @property
    def recovered(self) -> bool:
        return self.recovery_ratio >= self.scenario.recovery_threshold

    @property
    def leak_free(self) -> bool:
        return not self.kv_leaks


def _gen_workload(scenario: GenChaosScenario, seed: int):
    """Fresh GenRequest objects (same values every call), with deadlines."""
    from ..serving import (
        GenRequest,
        generate_generation_requests,
        geometric_output_lengths,
        uniform_lengths,
    )

    def prompts(rng, n):
        return uniform_lengths(rng, n, lo=scenario.prompt_lo,
                               hi=scenario.prompt_hi)

    def outputs(rng, n):
        return geometric_output_lengths(rng, n,
                                        mean=scenario.mean_new_tokens,
                                        hi=scenario.max_new_tokens)

    requests = generate_generation_requests(
        scenario.rate_per_s, scenario.duration_s, seed=seed,
        prompt_sampler=prompts, output_sampler=outputs,
    )
    if scenario.deadline_s is None:
        return requests
    return [
        GenRequest(req_id=r.req_id, seq_len=r.seq_len,
                   arrival_s=r.arrival_s, deadline_s=scenario.deadline_s,
                   max_new_tokens=r.max_new_tokens)
        for r in requests
    ]


def run_gen_chaos(
    scenario_name: str = "gen-blackout",
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> GenChaosReport:
    """Run one generation scenario's baseline + chaos pair."""
    if scenario_name not in GEN_SCENARIOS:
        raise ValueError(
            f"unknown gen scenario {scenario_name!r}; "
            f"pick from {sorted(GEN_SCENARIOS)}"
        )
    scenario = GEN_SCENARIOS[scenario_name](seed)
    registry = metrics if metrics is not None else MetricsRegistry()

    # Heavy imports deferred: the chaos module stays importable without
    # dragging the model/runtime stack in at package-import time.
    from ..gpusim.device import RTX_2060
    from ..memory import KVCacheArena, kv_bytes_per_token
    from ..models.gpt import (
        build_decode_step_graph,
        build_prefill_graph,
        tiny_gpt,
    )
    from ..runtime import TURBO_CHARACTERISTICS, GenerationRuntime
    from ..serving import (
        ContinuousBatchingConfig,
        ContinuousBatchingServer,
        KVPreemptionPolicy,
        simulate_generation_cluster,
    )

    config = tiny_gpt()
    runtime = GenerationRuntime(
        build_prefill_graph(config), build_decode_step_graph(config),
        TURBO_CHARACTERISTICS, RTX_2060, stride=1,
    )
    bytes_per_token = kv_bytes_per_token(
        config.num_layers, config.num_heads, config.head_size
    )

    def arena_factory(_replica_id: int, reg=None) -> KVCacheArena:
        return KVCacheArena(
            capacity_bytes=scenario.capacity_tokens * bytes_per_token,
            bytes_per_token=bytes_per_token,
            page_tokens=scenario.page_tokens,
            metrics=reg,
        )

    def breaker_factory(server_id: int) -> CircuitBreaker:
        return CircuitBreaker(
            window=scenario.breaker_window,
            failure_threshold=scenario.breaker_threshold,
            cooldown_s=scenario.breaker_cooldown_s,
            name=f"replica{server_id}",
            metrics=registry,
        )

    preemption = (KVPreemptionPolicy(scenario.max_victims_per_event)
                  if scenario.max_victims_per_event is not None else None)
    server_config = ContinuousBatchingConfig(preemption=preemption)
    chaos_config = ResilienceConfig(
        faults=scenario.faults,
        retry=scenario.retry,
        breaker_factory=(breaker_factory if scenario.num_replicas > 1
                         else None),
    )

    def run(requests, resilience, reg):
        """One full run; returns (metrics, kv_leaks)."""
        if scenario.num_replicas == 1:
            arena = arena_factory(0, reg=reg)
            server = ContinuousBatchingServer(
                runtime, arena, server_config, tracer=tracer, metrics=reg,
                resilience=resilience,
            )
            result = server.serve(requests,
                                  duration_s=scenario.duration_s)
            return result, list(arena.verify(live_req_ids=[]))
        cluster = simulate_generation_cluster(
            requests, scenario.num_replicas, runtime,
            lambda i: arena_factory(i, reg=reg),
            duration_s=scenario.duration_s, resilience=resilience,
            tracer=tracer, metrics=reg,
        )
        return cluster.serving, list(cluster.kv_leaks)

    baseline_requests = _gen_workload(scenario, seed)
    baseline, _ = run(baseline_requests, None, None)
    chaos_requests = _gen_workload(scenario, seed)
    chaos, kv_leaks = run(chaos_requests, chaos_config, registry)

    window = scenario.post_fault_window()
    goodput_baseline = response_throughput(baseline_requests, *window)
    goodput_chaos = response_throughput(chaos_requests, *window)
    registry.gauge("chaos_goodput_baseline",
                   scenario=scenario.name).set(goodput_baseline)
    registry.gauge("chaos_goodput_post_fault",
                   scenario=scenario.name).set(goodput_chaos)
    registry.gauge("chaos_recovery_ratio", scenario=scenario.name).set(
        goodput_chaos / goodput_baseline if goodput_baseline > 0 else 1.0
    )
    registry.counter("chaos_preemptions_total",
                     scenario=scenario.name).inc(chaos.preemptions)
    registry.counter("chaos_tokens_recomputed_total",
                     scenario=scenario.name).inc(chaos.tokens_recomputed)
    registry.counter("chaos_retries_total",
                     scenario=scenario.name).inc(chaos.retries)
    registry.counter("chaos_attempts_failed_total",
                     scenario=scenario.name).inc(chaos.attempts_failed)
    registry.gauge("chaos_kv_leaks",
                   scenario=scenario.name).set(len(kv_leaks))

    return GenChaosReport(
        scenario=scenario,
        seed=seed,
        baseline=baseline,
        chaos=chaos,
        goodput_baseline=goodput_baseline,
        goodput_chaos=goodput_chaos,
        kv_leaks=kv_leaks,
        registry=registry,
    )


def format_gen_report(report: GenChaosReport) -> str:
    """Human-readable summary of one generation chaos run."""
    s = report.scenario
    c = report.chaos
    window = s.post_fault_window()
    ttft = (f"{c.ttft.avg_ms:.2f} ms" if c.ttft.count else "—")
    tpot = (f"{c.tpot_ms_avg:.3f} ms"
            if c.tpot_ms_avg != float("inf") else "—")
    lines = [
        f"gen chaos scenario '{s.name}' (seed {report.seed}): "
        f"{c.offered} requests @ {s.rate_per_s:.0f} req/s over "
        f"{s.duration_s:.1f}s on {s.num_replicas} replica(s)",
        f"faults:    {len(s.faults.crashes)} crash(es), "
        f"{len(s.faults.spikes)} latency spike(s), "
        f"{len(s.faults.failures)} failure window(s); all clear by "
        f"t={s.faults.last_fault_end_s():.1f}s",
        f"outcome:   {c.completed} completed, {c.retries} retries, "
        f"{c.attempts_failed} attempts failed, "
        f"ttft {ttft}, tpot {tpot}",
        f"kv:        {c.preemptions} preemption(s), "
        f"{c.tokens_recomputed} tokens recomputed, "
        f"{c.kv_denials} denial(s); leak audit: "
        + (f"{len(report.kv_leaks)} LEAKED REGION(S)" if report.kv_leaks
           else "clean"),
        f"goodput:   post-fault window [{window[0]:.1f}s, {window[1]:.1f}s]: "
        f"{report.goodput_chaos:.1f} resp/s vs baseline "
        f"{report.goodput_baseline:.1f} resp/s "
        f"({report.recovery_ratio:.1%} of baseline)",
        f"recovery:  "
        f"{'OK' if report.recovered and report.leak_free else 'FAILED'} "
        f"(threshold {s.recovery_threshold:.0%}, leak-free required)",
    ]
    return "\n".join(lines)


def format_report(report: ChaosReport) -> str:
    """Human-readable multi-line summary (what the CLI prints)."""
    s = report.scenario
    stats = report.chaos.serving.resilience
    window = s.post_fault_window()
    lines = [
        f"chaos scenario '{s.name}' (seed {report.seed}): "
        f"{report.chaos.serving.offered} requests @ {s.rate_per_s:.0f} req/s "
        f"over {s.duration_s:.0f}s on {s.num_servers} servers",
        f"faults:    {len(s.faults.crashes)} crash(es), "
        f"{len(s.faults.spikes)} latency spike(s), "
        f"{len(s.faults.failures)} failure window(s); all clear by "
        f"t={s.faults.last_fault_end_s():.1f}s",
        f"outcome:   {report.chaos.serving.completed} completed, "
        f"{stats.retries} retries, {stats.timed_out} timed out, "
        f"{stats.failed} failed, {stats.shed} shed",
        f"breakers:  {len(report.breaker_transitions)} transition(s): "
        + (", ".join(f"{server}@{t:.2f}s {frm}->{to}"
                     for (t, server, frm, to) in report.breaker_transitions[:8])
           or "none"),
        f"goodput:   post-fault window [{window[0]:.1f}s, {window[1]:.1f}s]: "
        f"{report.goodput_chaos:.1f} resp/s vs baseline "
        f"{report.goodput_baseline:.1f} resp/s "
        f"({report.recovery_ratio:.1%} of baseline)",
        f"recovery:  {'OK' if report.recovered else 'FAILED'} "
        f"(threshold {s.recovery_threshold:.0%})",
    ]
    return "\n".join(lines)
