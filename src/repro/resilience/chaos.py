"""Chaos harness: scripted fault scenarios with a recovery assertion.

``python -m repro chaos --scenario smoke --seed 0`` runs one scenario
twice over the *same* seeded workload — once fault-free (the baseline),
once under the scenario's :class:`FaultPlan` — and reports resilience
metrics: retries, deadline misses or preemptions, breaker transitions,
and goodput in the post-fault window relative to the baseline.  Recovery
holds when post-fault goodput is at least ``recovery_threshold`` of the
fault-free baseline and the end-of-run KV leak audit is clean.

One registry, :data:`SCENARIOS`, holds every plan; one runner,
:func:`run_chaos`, one :class:`ChaosReport` and one
:func:`format_report` serve them all.  A scenario's class supplies only
what differs by replica kind — its workload, the system it serves on,
its own ``chaos_*`` counters and its outcome lines:
:class:`EncoderChaosScenario` serves a cluster of encoder replicas
(``smoke``, ``blackout``, ``storm``), :class:`GenerationChaosScenario`
continuous-batching replicas with KV arenas (``gen-blackout``,
``gen-storm``).

Everything is deterministic given ``(scenario, seed)``: the workload comes
from a seeded generator, the fault plan is a fixed schedule whose only
randomness is hashed per attempt, and the exported
:class:`~repro.observability.MetricsRegistry` JSON is sorted — two runs
produce byte-identical files, which CI enforces by diffing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

from ..observability import MetricsRegistry, Tracer
from ..serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    DPBatchScheduler,
    KVPreemptionPolicy,
    Request,
    ServingMetrics,
    generate_generation_requests,
    generate_requests,
    geometric_output_lengths,
    normal_lengths,
    response_throughput,
    simulate_cluster,
    simulate_generation_cluster,
    uniform_lengths,
)
from .breaker import CircuitBreaker
from .config import ResilienceConfig
from .faults import FaultPlan, LatencySpike, ServerCrash, TransientFailures
from .retry import RetryPolicy

#: Serves one workload, given the resilience config and registry of the
#: run (both ``None`` for the baseline); returns the run's metrics and
#: its end-of-run KV leak audit.
Serve = Callable[
    [Sequence[Request], Optional[ResilienceConfig], Optional[MetricsRegistry]],
    Tuple[ServingMetrics, List[str]],
]


def _linear_cost(seq_len: int, batch: int) -> float:
    """Synthetic profiled cost: fixed launch overhead + per-token work.

    Keeps the chaos CLI fast and dependency-free; the shape (affine in
    padded tokens) matches what the runtime cost tables look like.
    """
    return 0.002 + 0.00002 * seq_len * batch


def replace_deadline(request: Request, deadline_s: float) -> Request:
    """Copy of a pristine request with a deadline attached."""
    return Request(
        req_id=request.req_id,
        seq_len=request.seq_len,
        arrival_s=request.arrival_s,
        payload=request.payload,
        deadline_s=deadline_s,
    )


@dataclass(frozen=True, kw_only=True)
class ChaosScenario:
    """One scripted fault scenario: offered load, fault plan, retry and
    breaker settings, and the recovery bar.  A subclass supplies the
    replica kind it runs on."""

    #: Each breaker is named ``<breaker_prefix><replica id>``.
    breaker_prefix: ClassVar[str]
    #: What recovery requires beyond the goodput threshold, as printed.
    requirement: ClassVar[str] = ""

    name: str
    rate_per_s: float
    duration_s: float
    num_replicas: int
    faults: FaultPlan
    retry: RetryPolicy
    breaker_window: int = 10
    breaker_threshold: float = 0.5
    breaker_cooldown_s: float
    recovery_threshold: float
    #: Settle margin after the last fault clears before goodput is judged.
    settle_s: float

    def post_fault_window(self) -> Tuple[float, float]:
        start = min(self.faults.last_fault_end_s() + self.settle_s,
                    self.duration_s * 0.9)
        return (start, self.duration_s)

    def workload(self, seed: int) -> List[Request]:
        """Fresh request objects (same values every call)."""
        raise NotImplementedError

    def system(self, tracer: Optional[Tracer]) -> Serve:
        """Build what both runs share and return the function that serves
        one workload on it."""
        raise NotImplementedError

    def publish(self, registry: MetricsRegistry, chaos: ServingMetrics,
                kv_leaks: List[str]) -> None:
        """Export this kind's own ``chaos_*`` series of the chaos run."""
        raise NotImplementedError

    def headline(self, report: "ChaosReport") -> str:
        raise NotImplementedError

    def outcome_lines(self, report: "ChaosReport") -> List[str]:
        raise NotImplementedError


@dataclass(frozen=True, kw_only=True)
class EncoderChaosScenario(ChaosScenario):
    """A :func:`~repro.serving.simulate_cluster` of DP-batching encoder
    replicas priced by :func:`_linear_cost`; every request carries
    ``deadline_s``."""

    breaker_prefix = "server"

    deadline_s: float
    max_len: int = 200
    max_batch: int = 16
    breaker_cooldown_s: float = 0.5
    recovery_threshold: float = 0.95
    settle_s: float = 0.5

    def workload(self, seed: int) -> List[Request]:
        def lengths(rng, n):
            return normal_lengths(rng, n, lo=5, hi=self.max_len)

        requests = generate_requests(self.rate_per_s, self.duration_s,
                                     seed=seed, length_sampler=lengths)
        return [replace_deadline(r, self.deadline_s) for r in requests]

    def system(self, tracer: Optional[Tracer]) -> Serve:
        # The serving runs are untraced; the tracer gets breaker instants.
        def serve(requests, resilience, registry):
            cluster = simulate_cluster(
                requests, self.num_replicas, DPBatchScheduler, _linear_cost,
                max_batch=self.max_batch, duration_s=self.duration_s,
                max_len=self.max_len, resilience=resilience,
                metrics=registry,
            )
            return cluster.serving, []

        return serve

    def publish(self, registry: MetricsRegistry, chaos: ServingMetrics,
                kv_leaks: List[str]) -> None:
        registry.gauge("chaos_deadline_miss_rate", scenario=self.name).set(
            chaos.resilience.timed_out / max(1, chaos.offered))

    def headline(self, report: "ChaosReport") -> str:
        return (f"chaos scenario '{self.name}' (seed {report.seed}): "
                f"{report.chaos.offered} requests @ {self.rate_per_s:.0f} "
                f"req/s over {self.duration_s:.0f}s on {self.num_replicas} "
                f"servers")

    def outcome_lines(self, report: "ChaosReport") -> List[str]:
        stats = report.chaos.resilience
        transitions = report.breaker_transitions
        return [
            f"outcome:   {report.chaos.completed} completed, "
            f"{stats.retries} retries, {stats.timed_out} timed out, "
            f"{stats.failed} failed, {stats.shed} shed",
            f"breakers:  {len(transitions)} transition(s): "
            + (", ".join(f"{server}@{t:.2f}s {frm}->{to}"
                         for (t, server, frm, to) in transitions[:8])
               or "none"),
        ]


@dataclass(frozen=True, kw_only=True)
class GenerationChaosScenario(ChaosScenario):
    """Continuous-batching replicas of the tiny GPT, each with its own KV
    arena.

    One replica runs a lone
    :class:`~repro.serving.ContinuousBatchingServer` (watermark
    preemption when ``max_victims_per_event`` is set); more run
    :func:`~repro.serving.simulate_generation_cluster` (crash failover
    with KV loss and recompute-on-resume).
    """

    breaker_prefix = "replica"
    requirement = ", leak-free required"

    capacity_tokens: int = 4096
    page_tokens: int = 16
    prompt_lo: int = 4
    prompt_hi: int = 32
    mean_new_tokens: float = 8.0
    max_new_tokens: int = 32
    #: Enables KV-pressure preemption on the single-replica loop.
    max_victims_per_event: Optional[int] = None
    breaker_cooldown_s: float = 0.2
    recovery_threshold: float = 0.9
    settle_s: float = 0.2

    def workload(self, seed: int) -> List[Request]:
        def prompts(rng, n):
            return uniform_lengths(rng, n, lo=self.prompt_lo,
                                   hi=self.prompt_hi)

        def outputs(rng, n):
            return geometric_output_lengths(rng, n, mean=self.mean_new_tokens,
                                            hi=self.max_new_tokens)

        return generate_generation_requests(
            self.rate_per_s, self.duration_s, seed=seed,
            prompt_sampler=prompts, output_sampler=outputs,
        )

    def system(self, tracer: Optional[Tracer]) -> Serve:
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

        model = tiny_gpt()
        runtime = GenerationRuntime(
            build_prefill_graph(model), build_decode_step_graph(model),
            TURBO_CHARACTERISTICS, RTX_2060, stride=1,
        )
        bytes_per_token = kv_bytes_per_token(
            model.num_layers, model.num_heads, model.head_size
        )

        def arena(registry) -> KVCacheArena:
            return KVCacheArena(
                capacity_bytes=self.capacity_tokens * bytes_per_token,
                bytes_per_token=bytes_per_token,
                page_tokens=self.page_tokens,
                metrics=registry,
            )

        preemption = (KVPreemptionPolicy(self.max_victims_per_event)
                      if self.max_victims_per_event is not None else None)
        config = ContinuousBatchingConfig(preemption=preemption)

        def serve(requests, resilience, registry):
            if self.num_replicas == 1:
                lone = arena(registry)
                server = ContinuousBatchingServer(
                    runtime, lone, config, tracer=tracer, metrics=registry,
                    resilience=resilience,
                )
                result = server.serve(requests, duration_s=self.duration_s)
                return result, list(lone.verify(live_req_ids=[]))
            cluster = simulate_generation_cluster(
                requests, self.num_replicas, runtime,
                lambda _replica_id: arena(registry),
                duration_s=self.duration_s, resilience=resilience,
                tracer=tracer, metrics=registry,
            )
            return cluster.serving, list(cluster.kv_leaks)

        return serve

    def publish(self, registry: MetricsRegistry, chaos: ServingMetrics,
                kv_leaks: List[str]) -> None:
        registry.counter("chaos_tokens_recomputed_total",
                         scenario=self.name).inc(chaos.tokens_recomputed)
        registry.gauge("chaos_kv_leaks", scenario=self.name).set(len(kv_leaks))

    def headline(self, report: "ChaosReport") -> str:
        return (f"gen chaos scenario '{self.name}' (seed {report.seed}): "
                f"{report.chaos.offered} requests @ {self.rate_per_s:.0f} "
                f"req/s over {self.duration_s:.1f}s on {self.num_replicas} "
                f"replica(s)")

    def outcome_lines(self, report: "ChaosReport") -> List[str]:
        c = report.chaos
        ttft = f"{c.ttft.avg_ms:.2f} ms" if c.ttft.count else "—"
        tpot = (f"{c.tpot_ms_avg:.3f} ms"
                if c.tpot_ms_avg != float("inf") else "—")
        leaks = report.kv_leaks
        return [
            f"outcome:   {c.completed} completed, {c.retries} retries, "
            f"{c.attempts_failed} attempts failed, "
            f"ttft {ttft}, tpot {tpot}",
            f"kv:        {c.preemptions} preemption(s), "
            f"{c.tokens_recomputed} tokens recomputed, "
            f"{c.kv_denials} denial(s); leak audit: "
            + (f"{len(leaks)} LEAKED REGION(S)" if leaks else "clean"),
        ]


def _smoke(seed: int) -> ChaosScenario:
    """3 servers; one crashes, one slows down, one drops requests.

    All faults clear by t=3.0 of a 6-second run, leaving half the horizon
    to demonstrate recovery.
    """
    return EncoderChaosScenario(
        name="smoke",
        rate_per_s=150.0,
        duration_s=6.0,
        num_replicas=3,
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
    return EncoderChaosScenario(
        name="blackout",
        rate_per_s=120.0,
        duration_s=8.0,
        num_replicas=3,
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
    return EncoderChaosScenario(
        name="storm",
        rate_per_s=100.0,
        duration_s=6.0,
        num_replicas=3,
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


def _gen_blackout(seed: int) -> ChaosScenario:
    """2 continuous-batching replicas; one crashes mid-run.

    In-flight requests on the dead replica lose their KV regions, re-route
    to the survivor through the retry path, and pay an honest
    recompute-on-resume prefill (``tokens_recomputed``).
    """
    return GenerationChaosScenario(
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


def _gen_storm(seed: int) -> ChaosScenario:
    """One replica, a modest KV arena, a latency spike + failure window.

    The spike slows decode so live requests hold their KV regions longer
    and the high watermark starts denying the queue head — the preemption
    policy fires (victims evicted, restored, recompute charged) — while
    the failure window tests that dropped prefill attempts re-enter
    within the retry budget.  Fault-free the arena never saturates, so
    every preemption is fault-driven.
    """
    return GenerationChaosScenario(
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


#: Every chaos plan by name: ``SCENARIOS[name](seed)`` builds it.
SCENARIOS = {
    "smoke": _smoke,
    "blackout": _blackout,
    "storm": _storm,
    "gen-blackout": _gen_blackout,
    "gen-storm": _gen_storm,
}


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos run produced, baseline and chaos side by side.

    ``kv_leaks`` is the end-of-run arena audit across every replica: a
    non-empty list means some KV region outlived its request through a
    crash or preemption (the MEM221 invariant, violated).  Encoder
    replicas hold no KV arena, so their audit is always empty."""

    scenario: ChaosScenario
    seed: int
    baseline: ServingMetrics
    chaos: ServingMetrics
    goodput_baseline: float
    goodput_chaos: float
    breaker_transitions: List[Tuple[float, str, str, str]]  # (t, server, frm, to)
    kv_leaks: List[str]
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
    def leak_free(self) -> bool:
        return not self.kv_leaks


def run_chaos(
    name: str,
    seed: int,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> ChaosReport:
    """Run one scenario's baseline + chaos pair and assemble the report."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}"
        )
    scenario = SCENARIOS[name](seed)
    registry = metrics if metrics is not None else MetricsRegistry()
    serve = scenario.system(tracer)

    # -- baseline: identical workload, no faults, no resilience machinery ---
    baseline_requests = scenario.workload(seed)
    baseline, _ = serve(baseline_requests, None, None)

    # -- chaos: same workload under the fault plan --------------------------
    breakers: List[CircuitBreaker] = []

    def breaker_factory(replica_id: int) -> CircuitBreaker:
        breaker = CircuitBreaker(
            window=scenario.breaker_window,
            failure_threshold=scenario.breaker_threshold,
            cooldown_s=scenario.breaker_cooldown_s,
            name=f"{scenario.breaker_prefix}{replica_id}",
            metrics=registry,
        )
        breakers.append(breaker)
        return breaker

    config = ResilienceConfig(
        faults=scenario.faults,
        retry=scenario.retry,
        # A lone replica has no other replica to steer work to.
        breaker_factory=breaker_factory if scenario.num_replicas > 1 else None,
    )
    chaos_requests = scenario.workload(seed)
    chaos, kv_leaks = serve(chaos_requests, config, registry)

    # -- resilience metrics --------------------------------------------------
    window = scenario.post_fault_window()
    report = ChaosReport(
        scenario=scenario,
        seed=seed,
        baseline=baseline,
        chaos=chaos,
        goodput_baseline=response_throughput(baseline_requests, *window),
        goodput_chaos=response_throughput(chaos_requests, *window),
        breaker_transitions=sorted(
            (t, b.name, frm.value, to.value)
            for b in breakers
            for (t, frm, to) in b.transitions
        ),
        kv_leaks=kv_leaks,
        registry=registry,
    )
    for series, value in (("chaos_goodput_baseline", report.goodput_baseline),
                          ("chaos_goodput_post_fault", report.goodput_chaos),
                          ("chaos_recovery_ratio", report.recovery_ratio)):
        registry.gauge(series, scenario=name).set(value)
    scenario.publish(registry, chaos, kv_leaks)
    if tracer is not None and tracer.enabled:
        for (t, server, frm, to) in report.breaker_transitions:
            tracer.instant("breaker_transition", t, tid="breakers",
                           cat="resilience", server=server,
                           from_state=frm, to_state=to)
    return report


def format_report(report: ChaosReport) -> str:
    """Human-readable multi-line summary (what the CLI prints)."""
    s = report.scenario
    window = s.post_fault_window()
    return "\n".join([
        s.headline(report),
        f"faults:    {len(s.faults.crashes)} crash(es), "
        f"{len(s.faults.spikes)} latency spike(s), "
        f"{len(s.faults.failures)} failure window(s); all clear by "
        f"t={s.faults.last_fault_end_s():.1f}s",
        *s.outcome_lines(report),
        f"goodput:   post-fault window [{window[0]:.1f}s, {window[1]:.1f}s]: "
        f"{report.goodput_chaos:.1f} resp/s vs baseline "
        f"{report.goodput_baseline:.1f} resp/s "
        f"({report.recovery_ratio:.1%} of baseline)",
        f"recovery:  "
        f"{'OK' if report.recovered and report.leak_free else 'FAILED'} "
        f"(threshold {s.recovery_threshold:.0%}{s.requirement})",
    ])
