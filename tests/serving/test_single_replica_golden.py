"""Single-replica generation parity: what a seeded lone-GenReplica run
produces is pinned, request by request.

A lone :class:`~repro.serving.GenReplica` is the replica of
``ContinuousBatchingServer`` and of every one-replica generation run.
Three seeded runs on the tiny GPT must reproduce every request's
``(req_id, start_s, first_token_s, completion_s, generated, state,
attempt)`` from ``golden_single_replica.json`` exactly:

* ``chat-ties`` — chunked prefill, prefix cache on, a templated chat
  mix whose arrival times are pinned in
  ``golden_chat_ties_arrivals.json``: every third arrival was moved onto
  a busy-window end of the run so far, so arrivals tie with decode-step
  and round ends.  The list is data, not derived from the code under
  test, so the workload does not change when the window structure does
  (a test checks the ties still land on window ends);
* ``evict-no-retry`` — a tight arena with KV-pressure preemption and a
  crash, but no ``RetryPolicy``: every preempted attempt re-enters
  through a RETRY at the eviction instant, and every attempt the crash
  cuts fails for good;
* ``storm`` — a latency spike, a crash, a transient-failure window and
  preemption under a retry policy with jittered backoff.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/serving/test_single_replica_golden.py
"""

import json
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import pytest

from repro.analysis.engine_checks import EngineTraceRecorder
from repro.engine import EventKind
from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
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
    generate_prefix_population_requests,
    geometric_output_lengths,
)

GOLDEN = Path(__file__).parent / "golden_single_replica.json"
CHAT_TIES_ARRIVALS = Path(__file__).parent / "golden_chat_ties_arrivals.json"
MODEL = tiny_gpt()
BPT = kv_bytes_per_token(MODEL.num_layers, MODEL.num_heads, MODEL.head_size)
RUNTIME = GenerationRuntime(build_prefill_graph(MODEL),
                            build_decode_step_graph(MODEL),
                            TURBO_CHARACTERISTICS, RTX_2060, stride=1)


def _population(rate: float, duration_s: float, seed: int) -> List[tuple]:
    """``(arrival_s, prompt_ids, max_new_tokens)`` of a templated mix."""
    reqs = generate_prefix_population_requests(
        rate, duration_s, seed=seed, sharing_ratio=0.6,
        system_prompt_tokens=16, fewshot_tokens=16, suffix_lo=4,
        suffix_hi=16,
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=8.0, hi=32),
    )
    return [(r.arrival_s, r.prompt_ids, r.max_new_tokens) for r in reqs]


def _requests(specs: Sequence[tuple]) -> List[GenRequest]:
    return [GenRequest(req_id=i, seq_len=len(ids), arrival_s=arrival,
                       max_new_tokens=new, prompt_ids=ids)
            for i, (arrival, ids, new) in enumerate(specs)]


def _server(capacity_tokens: int, config: ContinuousBatchingConfig,
            resilience: Optional[ResilienceConfig]) -> ContinuousBatchingServer:
    arena = KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                         bytes_per_token=BPT, page_tokens=8)
    return ContinuousBatchingServer(RUNTIME, arena, config,
                                    resilience=resilience)


def _wake_times(serve: Callable[[List[GenRequest]], None],
                specs: Sequence[tuple]) -> List[float]:
    """Every WAKE dispatch instant of serving ``specs``: idle-to-busy
    starts (at arrival instants) and busy-window ends."""
    with EngineTraceRecorder() as rec:
        serve(_requests(specs))
    return sorted({t for _seq, _idx, _now, t, kind in rec.dispatches
                   if kind == EventKind.WAKE})


def _chat_ties():
    config = ContinuousBatchingConfig(chunk_tokens=8, prefix_cache=True)

    def serve(reqs: List[GenRequest]) -> None:
        _server(1024, config, None).serve(reqs, duration_s=0.2)

    arrivals = json.loads(CHAT_TIES_ARRIVALS.read_text())
    population = _population(800.0, 0.2, 11)
    assert len(arrivals) == len(population)
    return serve, [(arrival,) + spec[1:]
                   for arrival, spec in zip(arrivals, population)]


def _evict_no_retry():
    resilience = ResilienceConfig(
        faults=FaultPlan(seed=2, crashes=(
            ServerCrash(start_s=0.2, end_s=0.23, server_id=0),)),
        retry=None)
    config = ContinuousBatchingConfig(preemption=KVPreemptionPolicy(1))

    def serve(reqs: List[GenRequest]) -> None:
        _server(384, config, resilience).serve(reqs, duration_s=0.3)

    return serve, _population(250.0, 0.3, 12)


def _storm():
    resilience = ResilienceConfig(
        faults=FaultPlan(
            seed=3,
            spikes=(LatencySpike(start_s=0.1, end_s=0.25, multiplier=4.0,
                                 server_id=0),),
            failures=(TransientFailures(start_s=0.1, end_s=0.3,
                                        failure_rate=0.3, server_id=0),),
            crashes=(ServerCrash(start_s=0.32, end_s=0.36, server_id=0),),
        ),
        retry=RetryPolicy(max_attempts=5, base_backoff_s=0.005,
                          multiplier=2.0, max_backoff_s=0.05, jitter=0.2,
                          budget=1000, seed=3))
    config = ContinuousBatchingConfig(preemption=KVPreemptionPolicy(2),
                                      chunk_tokens=16)

    def serve(reqs: List[GenRequest]) -> None:
        _server(256, config, resilience).serve(reqs, duration_s=0.5)

    return serve, _population(180.0, 0.5, 13)


CASES = {"chat-ties": _chat_ties, "evict-no-retry": _evict_no_retry,
         "storm": _storm}


def observe(name: str) -> list:
    """Serve one case; return each request's outcome in req_id order."""
    serve, specs = CASES[name]()
    reqs = _requests(specs)
    serve(reqs)
    return [[r.req_id, r.start_s, r.first_token_s, r.completion_s,
             r.generated, r.state.value, r.attempt] for r in reqs]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_replica_run_matches_golden(name, golden):
    assert observe(name) == golden[name]


def test_chat_ties_arrivals_land_on_window_ends():
    """The tie case really ties: every moved arrival is a WAKE instant of
    the full run.  A busy replica takes no idle-to-busy WAKE, so each is
    a window end."""
    serve, specs = _chat_ties()
    original = {arrival for arrival, _ids, _new
                in _population(800.0, 0.2, 11)}
    moved = [arrival for arrival, _ids, _new in specs
             if arrival not in original]
    assert len(moved) >= 10
    assert set(moved) <= set(_wake_times(serve, specs))


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.write_text(json.dumps({name: observe(name)
                                  for name in sorted(CASES)}) + "\n")
    print(f"wrote {GOLDEN}")
