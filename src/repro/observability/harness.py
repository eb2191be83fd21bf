"""Run one fully instrumented serving workload (the ``repro trace`` CLI).

Builds a Turbo runtime over a real model graph, derives the serving cost
function from it (so the runtime's allocator produces genuine hit/miss
traffic while the cost table warms), generates a Poisson workload, and
runs the discrete-event server with a :class:`Tracer` and a
:class:`MetricsRegistry` attached.  Deterministic given ``seed``: the same
invocation yields byte-identical trace and metrics JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .metrics import MetricsRegistry
from .tracer import Tracer

SCHEDULERS = ("dp", "dp-pruned", "naive", "nobatch", "continuous")
POLICIES = ("hungry", "lazy")
MODELS = ("tiny", "base")


@dataclass
class TraceRunResult:
    """Everything one traced run produced (CLI writes, tests reconcile)."""

    serving: object  # repro.serving.ServingMetrics
    registry: MetricsRegistry
    tracer: Tracer
    runtime: object  # repro.runtime.base.InferenceRuntime
    requests: List[object]


def _build_scheduler(name: str):
    from ..serving import (
        DPBatchScheduler,
        NaiveBatchScheduler,
        NoBatchScheduler,
        PrunedDPBatchScheduler,
    )

    return {
        "dp": DPBatchScheduler,
        "dp-pruned": PrunedDPBatchScheduler,
        "naive": NaiveBatchScheduler,
        "nobatch": NoBatchScheduler,
    }[name]()


def _build_policy(name: str, max_batch: int):
    from ..serving import HungryPolicy, LazyPolicy

    if name == "hungry":
        return HungryPolicy()
    return LazyPolicy(max_batch=max_batch)


def run_traced_workload(
    model: str = "tiny",
    rate_per_s: float = 200.0,
    duration_s: float = 0.5,
    seed: int = 0,
    scheduler: str = "dp",
    policy: str = "hungry",
    max_batch: int = 16,
    max_len: int = 128,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> TraceRunResult:
    """Simulate serving with full observability attached.

    ``max_len`` caps sampled request lengths (keeps the cost table small —
    the default 128 warms in well under a second on the tiny model).
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")

    tracer = tracer if tracer is not None else Tracer(process_name="repro trace")
    registry = registry if registry is not None else MetricsRegistry()

    if scheduler == "continuous":
        # Generative path: GPT model, iteration-level loop, KV arena.
        return _run_traced_generation(model, rate_per_s, duration_s, seed,
                                      tracer, registry)

    from ..models import bert_base, build_encoder_graph, tiny_bert
    from ..runtime import turbo_runtime
    from ..serving import (
        MIN_LEN,
        ServingConfig,
        generate_requests,
        normal_lengths,
        simulate_serving,
    )

    config = tiny_bert() if model == "tiny" else bert_base()
    graph = build_encoder_graph(config)
    runtime = turbo_runtime(graph=graph)
    # Attach the registry to the runtime's allocator so cost-table warming
    # publishes genuine hit/miss counters and the footprint series.
    if runtime.allocator is not None:
        runtime.allocator.metrics = registry

    def cost_fn(seq_len: int, batch: int) -> float:
        return runtime.latency(batch, seq_len)

    def lengths(rng, n):
        return normal_lengths(rng, n, lo=MIN_LEN, hi=max_len)

    requests = generate_requests(rate_per_s, duration_s, seed=seed,
                                 length_sampler=lengths)
    serving = simulate_serving(
        requests,
        _build_scheduler(scheduler),
        cost_fn,
        config=ServingConfig(max_batch=max_batch,
                             policy=_build_policy(policy, max_batch)),
        duration_s=duration_s,
        tracer=tracer,
        metrics=registry,
    )
    # Publish the host-fast-path counters (latency memo, compiled-model
    # evals) so the metrics JSON and Chrome trace show them.
    runtime.publish_host_metrics(registry, tracer=tracer,
                                 now_s=duration_s)
    return TraceRunResult(
        serving=serving,
        registry=registry,
        tracer=tracer,
        runtime=runtime,
        requests=list(requests),
    )


def _run_traced_generation(
    model: str,
    rate_per_s: float,
    duration_s: float,
    seed: int,
    tracer: Tracer,
    registry: MetricsRegistry,
) -> TraceRunResult:
    """Instrumented continuous-batching run (``--scheduler continuous``).

    One Chrome-trace span per prefill pass and per decode step, async
    spans per request, KV-arena counters on the track; TTFT/TPOT
    histograms flow through the shared
    :meth:`~repro.runtime.GenerationRuntime.publish_request_metrics` path.
    """
    from ..experiments.gen_serving_throughput import GenServingBench

    bench = GenServingBench(model="tiny" if model == "tiny" else "small")
    # Keep the default mix (the bench's first) out of it: sample the
    # standard workload so the trace shows mixed output lengths.
    from ..serving import generate_generation_requests, uniform_lengths

    def prompts(rng, n):
        return uniform_lengths(rng, n, lo=bench.prompt_lo, hi=bench.prompt_hi)

    requests = generate_generation_requests(
        rate_per_s, duration_s, seed=seed, prompt_sampler=prompts
    )
    serving = bench.run_continuous(requests, duration_s, tracer=tracer,
                                   metrics=registry)
    return TraceRunResult(
        serving=serving,
        registry=registry,
        tracer=tracer,
        runtime=bench.runtime,
        requests=list(requests),
    )
