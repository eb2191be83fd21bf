"""Metrics and trace parity: what five seeded, observed runs report is pinned.

Each case runs with a :class:`MetricsRegistry` and a :class:`Tracer`
attached.  Its full metrics JSON must equal
``golden_metrics/<case>.json`` byte for byte, and the SHA-256 of its
Chrome trace JSON must equal the one in ``golden_metrics/trace_sha256.json``:

* ``trace-dp`` and ``trace-continuous`` — ``python -m repro trace --seed 3``,
  with the DP scheduler and with ``--scheduler continuous``.  The golden
  is exactly what ``--metrics-out`` writes, so CI diffs the CLI's output
  against it;
* ``sanitize-continuous`` — the sanitizer's ``continuous`` scenario
  (chunked prefill, prefix cache, preemption, a latency spike and
  transient failures with retries);
* ``request-level`` — a :class:`RequestLevelGenerationServer` run;
* ``cache-deadlines`` — one ``simulate_serving`` replica with a response
  cache, deadlines, a bounded queue, a spike and transient failures.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/observability/test_metrics_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.observability import MetricsRegistry, Tracer
from repro.observability.harness import run_traced_workload
from repro.resilience import (
    FaultPlan,
    LatencySpike,
    ResilienceConfig,
    RetryPolicy,
    TransientFailures,
)
from repro.resilience.chaos import _linear_cost, replace_deadline

GOLDEN = Path(__file__).parent / "golden_metrics"
TRACE_SHA256 = GOLDEN / "trace_sha256.json"


def _trace_cli(scheduler: str):
    def run(tracer, metrics):
        run_traced_workload(seed=3, scheduler=scheduler, tracer=tracer,
                            registry=metrics)
    return run


def _sanitize_continuous(tracer, metrics):
    """``repro.analysis.sanitizer``'s ``continuous`` setup at seed 0."""
    from repro.gpusim import RTX_2060
    from repro.memory import KVCacheArena, kv_bytes_per_token
    from repro.models import (
        build_decode_step_graph,
        build_prefill_graph,
        tiny_gpt,
    )
    from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
    from repro.serving import (
        ContinuousBatchingConfig,
        ContinuousBatchingServer,
        KVPreemptionPolicy,
        generate_prefix_population_requests,
        geometric_output_lengths,
    )

    config = tiny_gpt()
    runtime = GenerationRuntime(
        build_prefill_graph(config), build_decode_step_graph(config),
        TURBO_CHARACTERISTICS, RTX_2060, stride=1)
    bpt = kv_bytes_per_token(config.num_layers, config.num_heads,
                             config.head_size)
    arena = KVCacheArena(capacity_bytes=256 * bpt, bytes_per_token=bpt,
                         page_tokens=16)
    resilience = ResilienceConfig(
        faults=FaultPlan(
            seed=0,
            spikes=(LatencySpike(start_s=0.2, end_s=0.5, multiplier=4.0,
                                 server_id=0),),
            failures=(TransientFailures(start_s=0.2, end_s=0.5,
                                        failure_rate=0.3, server_id=0),),
        ),
        retry=RetryPolicy(max_attempts=5, base_backoff_s=0.005,
                          multiplier=2.0, max_backoff_s=0.05, jitter=0.2,
                          budget=1000, seed=0),
    )
    requests = generate_prefix_population_requests(
        150.0, 0.8, seed=0, sharing_ratio=0.6, system_prompt_tokens=16,
        fewshot_tokens=16, suffix_lo=4, suffix_hi=16,
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=8.0, hi=32))
    ContinuousBatchingServer(
        runtime, arena,
        ContinuousBatchingConfig(preemption=KVPreemptionPolicy(2),
                                 chunk_tokens=8, prefix_cache=True),
        tracer=tracer, metrics=metrics, resilience=resilience,
    ).serve(requests, duration_s=0.8)


def _request_level(tracer, metrics):
    from repro.experiments.gen_serving_throughput import (
        OUTPUT_MIXES,
        GenServingBench,
    )

    mix = OUTPUT_MIXES[0]
    bench = GenServingBench(max_batch=8)
    requests = bench.workload(1500.0, 0.2, 3, mix)
    bench.run_request_level(requests, 0.2, mix, tracer=tracer,
                            metrics=metrics)


def _cache_deadlines(tracer, metrics):
    from repro.serving import (
        DPBatchScheduler,
        ResponseCache,
        ServingConfig,
        generate_requests,
        simulate_serving,
    )

    requests = []
    for r in generate_requests(400.0, 0.5, seed=1):
        r = replace_deadline(r, 0.05)
        r.payload = (r.seq_len % 23,)
        requests.append(r)
    resilience = ResilienceConfig(
        faults=FaultPlan(
            seed=1,
            spikes=(LatencySpike(start_s=0.1, end_s=0.2, multiplier=3.0,
                                 server_id=0),),
            failures=(TransientFailures(start_s=0.25, end_s=0.35,
                                        failure_rate=0.4, server_id=0),),
        ),
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.005,
                          jitter=0.0, budget=100),
        queue_capacity=10,
    )
    simulate_serving(requests, DPBatchScheduler(), _linear_cost,
                     config=ServingConfig(max_batch=8), duration_s=0.5,
                     cache=ResponseCache(capacity=8, metrics=metrics),
                     tracer=tracer, metrics=metrics, resilience=resilience)


CASES = {
    "trace-dp": _trace_cli("dp"),
    "trace-continuous": _trace_cli("continuous"),
    "sanitize-continuous": _sanitize_continuous,
    "request-level": _request_level,
    "cache-deadlines": _cache_deadlines,
}


def observe(name: str):
    """Run one case; return its metrics JSON (as ``--metrics-out`` writes
    it) and the SHA-256 of its trace JSON (as ``--out`` writes it)."""
    tracer = Tracer(process_name="repro trace")
    metrics = MetricsRegistry()
    CASES[name](tracer, metrics)
    return (metrics.to_json(),
            hashlib.sha256(tracer.to_json().encode()).hexdigest())


@pytest.fixture(scope="module")
def trace_sha256():
    return json.loads(TRACE_SHA256.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_and_trace_match_golden(name, trace_sha256):
    metrics_json, trace_digest = observe(name)
    assert metrics_json == (GOLDEN / f"{name}.json").read_text()
    assert trace_digest == trace_sha256[name]


def test_goldens_cover_the_counters_no_other_golden_pins():
    counters = set()
    for name in CASES:
        exported = json.loads((GOLDEN / f"{name}.json").read_text())
        counters.update((c["name"], tuple(sorted(c["labels"].items())))
                        for c in exported["counters"])
    names = {name for name, _labels in counters}
    assert {"gen_prefill_chunks_total", "gen_prefix_hits_total",
            "gen_prefix_tokens_reused_total",
            "serving_requests_ingested_total"} <= names
    assert ("serving_requests_completed_total",
            (("path", "cache"),)) in counters


if __name__ == "__main__":  # regenerate the golden files
    GOLDEN.mkdir(exist_ok=True)
    digests = {}
    for case in sorted(CASES):
        metrics_json, digests[case] = observe(case)
        (GOLDEN / f"{case}.json").write_text(metrics_json)
    TRACE_SHA256.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
