"""Chunked-round audit log: the stream programs a seeded run emits are pinned.

An overlapped round is timed in closed form, and
``ContinuousBatchingServer.emitted_schedules`` rebuilds each round's
:class:`~repro.gpusim.multistream.StreamSchedule` from a compact round log
when read.  Two seeded chunked, prefix-cached runs — one under KV pressure
with watermark preemption, one under latency spikes and transient failures
— must reproduce the SHA-256 of ``repr(server.emitted_schedules)`` in
``golden_round_log.json`` exactly, along with the schedule count.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/serving/test_round_log_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.resilience import (
    FaultPlan,
    LatencySpike,
    ResilienceConfig,
    RetryPolicy,
    TransientFailures,
)
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    KVPreemptionPolicy,
    generate_prefix_population_requests,
    geometric_output_lengths,
)

GOLDEN = Path(__file__).parent / "golden_round_log.json"
CONFIG = tiny_gpt()
BPT = kv_bytes_per_token(CONFIG.num_layers, CONFIG.num_heads, CONFIG.head_size)

#: name -> (arena capacity in tokens, faulted?, seed)
CASES = {
    "kv-pressure": (160, False, 3),
    "faulted": (512, True, 1),
}


def _resilience(seed: int) -> ResilienceConfig:
    return ResilienceConfig(
        faults=FaultPlan(
            seed=seed,
            spikes=(LatencySpike(start_s=0.1, end_s=0.3, multiplier=3.0,
                                 server_id=0),),
            failures=(TransientFailures(start_s=0.1, end_s=0.3,
                                        failure_rate=0.3, server_id=0),),
        ),
        retry=RetryPolicy(max_attempts=5, base_backoff_s=0.005,
                          multiplier=2.0, max_backoff_s=0.05, jitter=0.2,
                          budget=1000, seed=seed),
    )


def observe(name: str) -> dict:
    """Serve one case; return the digest and count of its schedules."""
    capacity_tokens, faulted, seed = CASES[name]
    runtime = GenerationRuntime(build_prefill_graph(CONFIG),
                                build_decode_step_graph(CONFIG),
                                TURBO_CHARACTERISTICS, RTX_2060, stride=1)
    arena = KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                         bytes_per_token=BPT, page_tokens=16)
    requests = generate_prefix_population_requests(
        600.0, 0.5, seed=seed, sharing_ratio=0.7,
        system_prompt_tokens=16, fewshot_tokens=16, suffix_lo=4,
        suffix_hi=24,
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=8.0, hi=32),
    )
    server = ContinuousBatchingServer(
        runtime, arena,
        ContinuousBatchingConfig(preemption=KVPreemptionPolicy(2),
                                 chunk_tokens=8, prefix_cache=True),
        resilience=_resilience(seed) if faulted else None,
    )
    server.serve(requests, duration_s=0.5)
    schedules = server.emitted_schedules
    return {"schedules": len(schedules),
            "sha256": hashlib.sha256(repr(schedules).encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_schedules_match_golden(name, golden):
    assert observe(name) == golden[name]


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.write_text(json.dumps({name: observe(name)
                                  for name in sorted(CASES)},
                                 indent=1) + "\n")
