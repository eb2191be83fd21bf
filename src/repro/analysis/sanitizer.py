"""Scenario harness: real serving runs under the engine-trace sanitizer.

Two tiers of scenarios, both driven through
:class:`~repro.analysis.engine_checks.EngineTraceRecorder`:

* **Light scenarios** (``oneshot``, ``ebird``, ``cluster``,
  ``continuous``) — small seeded workloads over each serving loop, with
  faults, retries and breakers in play so the trace exercises every
  observer method.
  These back the ``engine`` and ``lifecycle`` families of
  ``python -m repro check`` and finish in a few seconds.
* **Chaos scenarios** — the full ``repro chaos`` scenarios (``smoke``,
  ``blackout``, ``storm``, ``gen-blackout``, ``gen-storm``), baseline and
  chaos sides both recorded.  ``python -m repro check --sanitize <name>``
  runs one of these and exits non-zero on any ERROR diagnostic, which is
  what the CI ``sanitize`` job gates on.

Every scenario is deterministic given ``(name, seed)``: two runs produce
byte-identical diagnostic JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..resilience.breaker import CircuitBreaker
from ..resilience.chaos import (
    SCENARIOS,
    _linear_cost,
    replace_deadline,
    run_chaos,
)
from ..resilience.config import ResilienceConfig
from ..resilience.faults import (
    FaultPlan,
    LatencySpike,
    ServerCrash,
    TransientFailures,
)
from ..resilience.retry import RetryPolicy
from ..serving import (
    DPBatchScheduler,
    ServingConfig,
    generate_requests,
    simulate_cluster,
    simulate_ebird_serving,
    simulate_serving,
)
from .diagnostics import Diagnostic, DiagnosticReport
from .engine_checks import EngineTraceRecorder, verify_trace
from .schedule_checks import check_emitted_schedules


@dataclass
class ScenarioOutcome:
    """What a scenario runner hands back to the verifier.

    ``retry`` is the retry policy in force (LIFE604); ``diagnostics``
    are findings the runner produced itself — e.g. the SCHED311 audit of
    the stream schedules the chunked continuous server emitted; entries
    in ``checked`` are merged into the report's coverage stats.
    """

    retry: Optional[RetryPolicy] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    checked: Dict[str, int] = field(default_factory=dict)


#: A scenario runner executes one seeded workload (while a recorder is
#: attached) and returns a :class:`ScenarioOutcome`.
ScenarioRunner = Callable[[int], ScenarioOutcome]


def _breaker_factory(server_id: int) -> CircuitBreaker:
    return CircuitBreaker(window=10, failure_threshold=0.5,
                          cooldown_s=0.2, name=f"server{server_id}")


def _run_oneshot(seed: int) -> ScenarioOutcome:
    """One-shot serving: crash + transient failures on the single server."""
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
        breaker_factory=_breaker_factory,
    )
    simulate_serving(requests, DPBatchScheduler(), _linear_cost,
                     config=ServingConfig(max_batch=8), duration_s=1.2,
                     resilience=resilience)
    return ScenarioOutcome(retry=retry)


def _run_ebird(seed: int) -> ScenarioOutcome:
    """Ebird processor sharing: a crash plus a latency spike, no retries."""
    requests = generate_requests(100.0, 1.0, seed=seed)
    simulate_ebird_serving(
        requests, _linear_cost, max_streams=3, max_batch=8,
        resilience=ResilienceConfig(faults=FaultPlan(
            seed=seed,
            crashes=(ServerCrash(start_s=0.3, end_s=0.5, server_id=0),),
            spikes=(LatencySpike(start_s=0.6, end_s=0.8, multiplier=2.0,
                                 server_id=0),),
        )),
    )
    return ScenarioOutcome()


def _run_cluster(seed: int) -> ScenarioOutcome:
    """Two-server cluster: one replica crashes, work fails over."""
    requests = [replace_deadline(r, 2.0)
                for r in generate_requests(100.0, 2.0, seed=seed)]
    retry = RetryPolicy(max_attempts=4, base_backoff_s=0.02, multiplier=2.0,
                        max_backoff_s=0.3, jitter=0.2, budget=300, seed=seed)
    resilience = ResilienceConfig(
        faults=FaultPlan(
            seed=seed,
            crashes=(ServerCrash(start_s=0.5, end_s=1.0, server_id=1),),
        ),
        retry=retry,
        breaker_factory=_breaker_factory,
    )
    simulate_cluster(requests, 2, DPBatchScheduler, _linear_cost,
                     max_batch=8, duration_s=2.0, max_len=200,
                     resilience=resilience)
    return ScenarioOutcome(retry=retry)


def _run_continuous(seed: int) -> ScenarioOutcome:
    """Chunked continuous batching with prefix caching on a tight KV
    arena: spike + failures force watermark preemptions, evictions and
    restores through the ledger while shared-prefix admissions exercise
    the CoW page refcounts (MEM224), and every overlapped round's emitted
    ``StreamSchedule`` runs through the SCHED3xx race detector (findings
    re-raised as SCHED311)."""
    # Heavy imports deferred, mirroring resilience.chaos: the analysis
    # package stays importable without the model/runtime stack.
    from ..gpusim.device import RTX_2060
    from ..memory import KVCacheArena, kv_bytes_per_token
    from ..models.gpt import build_decode_step_graph, build_prefill_graph, \
        tiny_gpt
    from ..runtime import TURBO_CHARACTERISTICS, GenerationRuntime
    from ..serving import (
        ContinuousBatchingConfig,
        ContinuousBatchingServer,
        KVPreemptionPolicy,
        generate_prefix_population_requests,
        geometric_output_lengths,
    )

    config = tiny_gpt()
    runtime = GenerationRuntime(
        build_prefill_graph(config), build_decode_step_graph(config),
        TURBO_CHARACTERISTICS, RTX_2060, stride=1,
    )
    bytes_per_token = kv_bytes_per_token(
        config.num_layers, config.num_heads, config.head_size
    )
    arena = KVCacheArena(capacity_bytes=256 * bytes_per_token,
                         bytes_per_token=bytes_per_token, page_tokens=16)
    retry = RetryPolicy(max_attempts=5, base_backoff_s=0.005, multiplier=2.0,
                        max_backoff_s=0.05, jitter=0.2, budget=1000,
                        seed=seed)
    resilience = ResilienceConfig(
        faults=FaultPlan(
            seed=seed,
            spikes=(LatencySpike(start_s=0.2, end_s=0.5, multiplier=4.0,
                                 server_id=0),),
            failures=(TransientFailures(start_s=0.2, end_s=0.5,
                                        failure_rate=0.3, server_id=0),),
        ),
        retry=retry,
    )
    requests = generate_prefix_population_requests(
        150.0, 0.8, seed=seed, sharing_ratio=0.6,
        system_prompt_tokens=16, fewshot_tokens=16, suffix_lo=4,
        suffix_hi=16,
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=8.0, hi=32),
    )
    server = ContinuousBatchingServer(
        runtime, arena,
        ContinuousBatchingConfig(preemption=KVPreemptionPolicy(2),
                                 chunk_tokens=8, prefix_cache=True),
        resilience=resilience,
    )
    server.serve(requests, duration_s=0.8)
    return ScenarioOutcome(
        retry=retry,
        diagnostics=check_emitted_schedules(server.emitted_schedules,
                                            context="continuous"),
        checked={"round_schedules": len(server.emitted_schedules),
                 "prefix_index_nodes": server.prefix_index.stats()["nodes"],
                 "prefix_index_hits": server.prefix_index.stats()["hits"]},
    )


#: The light sweep behind ``repro check --families engine,lifecycle``.
TRACE_SCENARIOS: Tuple[str, ...] = ("oneshot", "ebird", "cluster",
                                    "continuous")

_LIGHT_RUNNERS: Dict[str, ScenarioRunner] = {
    "oneshot": _run_oneshot,
    "ebird": _run_ebird,
    "cluster": _run_cluster,
    "continuous": _run_continuous,
}


def _chaos_runner(name: str) -> ScenarioRunner:
    def run(seed: int) -> ScenarioOutcome:
        return ScenarioOutcome(retry=run_chaos(name, seed).scenario.retry)

    return run


def sanitize_scenarios() -> Tuple[str, ...]:
    """Every scenario name ``run_sanitized`` accepts, sorted."""
    return tuple(sorted({*_LIGHT_RUNNERS, *SCENARIOS}))


def _runner_for(name: str) -> ScenarioRunner:
    if name in _LIGHT_RUNNERS:
        return _LIGHT_RUNNERS[name]
    if name in SCENARIOS:
        return _chaos_runner(name)
    raise ValueError(f"unknown sanitize scenario {name!r}; "
                     f"pick from {', '.join(sanitize_scenarios())}")


def run_scenario_trace(
    name: str, seed: int = 0,
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Run one scenario under the recorder; return (diagnostics, stats)."""
    runner = _runner_for(name)
    recorder = EngineTraceRecorder()
    with recorder:
        outcome = runner(seed)
    diagnostics = verify_trace(recorder, retry=outcome.retry, context=name)
    diagnostics.extend(outcome.diagnostics)
    stats = recorder.stats()
    for key, value in outcome.checked.items():
        stats[key] = stats.get(key, 0) + value
    return diagnostics, stats


def run_sanitized(scenario: str, seed: int = 0) -> DiagnosticReport:
    """``repro check --sanitize <scenario>``: one run, one report."""
    diagnostics, stats = run_scenario_trace(scenario, seed=seed)
    report = DiagnosticReport()
    report.extend(diagnostics)
    report.checked["sanitize_scenario"] = scenario
    for key, value in stats.items():
        report.checked[f"trace_{key}"] = value
    return report


def run_trace_checks(
    seed: int = 0,
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """The light sweep: every :data:`TRACE_SCENARIOS` entry, one recorder
    each, diagnostics pooled (``repro check`` splits them into the
    ``engine`` and ``lifecycle`` families by code prefix)."""
    diagnostics: List[Diagnostic] = []
    totals: Dict[str, int] = {}
    for name in TRACE_SCENARIOS:
        scenario_diags, stats = run_scenario_trace(name, seed=seed)
        diagnostics.extend(scenario_diags)
        for key, value in stats.items():
            totals[f"trace_{key}"] = totals.get(f"trace_{key}", 0) + value
    totals["trace_scenarios"] = len(TRACE_SCENARIOS)
    return diagnostics, totals
