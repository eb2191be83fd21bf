"""Encoder clusters are pinned, request by request.

Each case serves a seeded bursty workload on 2–4 ``BatchReplica``
replicas behind the router and must reproduce every request's
``(req_id, start_s, completion_s, state, attempt)`` and every
:class:`~repro.serving.ClusterMetrics` field from ``golden_cluster.json``
exactly.  Arrivals are rounded to a 5 ms grid, so a burst puts
several requests on one instant and several replicas start together
there — the instants whose start order the dispatch loop decides.

* ``hungry-*`` cases run :func:`~repro.serving.simulate_cluster`;
  ``lazy-*`` cases run the same driver with a :class:`LazyPolicy` per
  replica;
* ``*-faulty`` cases add a crash on replica 0, transient failures on
  replica 1 and retries without jitter, so the members of a lost batch
  re-enter together and are re-routed at one instant.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/serving/test_cluster_golden.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    ServerCrash,
    TransientFailures,
)
from repro.resilience.chaos import _linear_cost
from repro.serving import (
    ClusterMetrics,
    DPBatchScheduler,
    LazyPolicy,
    Request,
    RoutingPolicy,
    ServingConfig,
    bursty_arrivals,
    normal_lengths,
    simulate_cluster,
)
from repro.serving.server import _BatchDriver

GOLDEN = Path(__file__).parent / "golden_cluster.json"
MAX_BATCH = 8
DURATION_S = 2.0


def bursty(seed: int, rate: float):
    """On/off arrivals on a 5 ms grid (so bursts share instants)."""
    rng = np.random.default_rng(seed)
    times = np.round(bursty_arrivals(rng, rate, DURATION_S, on_fraction=0.2,
                                     cycle_s=0.25) / 0.005) * 0.005
    lengths = normal_lengths(rng, times.size)
    return [Request(req_id=i, seq_len=int(lengths[i]), arrival_s=float(t))
            for i, t in enumerate(times)]


def faults(seed: int) -> ResilienceConfig:
    return ResilienceConfig(
        faults=FaultPlan(
            seed=seed,
            crashes=(ServerCrash(start_s=0.27, end_s=0.4, server_id=0),),
            failures=(TransientFailures(start_s=0.5, end_s=1.3,
                                        failure_rate=0.4, server_id=1),),
        ),
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.004, jitter=0.0,
                          seed=seed))


def serve(trigger: str, servers: int, policy: RoutingPolicy, seed: int,
          faulty: bool):
    reqs = bursty(seed, 100.0)
    res = faults(seed) if faulty else None
    if trigger == "hungry":
        metrics = simulate_cluster(reqs, servers, DPBatchScheduler,
                                   _linear_cost, policy=policy,
                                   max_batch=MAX_BATCH,
                                   duration_s=DURATION_S, resilience=res)
        return reqs, metrics
    # simulate_cluster is hungry; a lazy cluster is the same driver with
    # a lazy trigger on every replica.
    config = ServingConfig(max_batch=MAX_BATCH, policy=LazyPolicy(
        timeout_s=0.003, max_batch=MAX_BATCH, latency_slo_s=0.05))
    driver = _BatchDriver([DPBatchScheduler() for _ in range(servers)],
                          _linear_cost, config, f"lazy-x{servers}", res,
                          policy=policy)
    serving = driver.serve(reqs, DURATION_S)
    return reqs, ClusterMetrics(
        serving=serving,
        per_server_completed=[rep.completed for rep in driver.replicas])


CASES = {
    "hungry-x2": ("hungry", 2, RoutingPolicy.LEAST_WORK, 1, False),
    "hungry-x3-faulty": ("hungry", 3, RoutingPolicy.LEAST_WORK, 2, True),
    "hungry-x4": ("hungry", 4, RoutingPolicy.ROUND_ROBIN, 3, False),
    "hungry-x4-faulty": ("hungry", 4, RoutingPolicy.LEAST_QUEUED, 4, True),
    "lazy-x2": ("lazy", 2, RoutingPolicy.LEAST_WORK, 5, False),
    "lazy-x3-faulty": ("lazy", 3, RoutingPolicy.LEAST_QUEUED, 6, True),
    "lazy-x4": ("lazy", 4, RoutingPolicy.ROUND_ROBIN, 7, False),
    "lazy-x4-faulty": ("lazy", 4, RoutingPolicy.LEAST_WORK, 8, True),
}


def observe(name: str) -> dict:
    """Serve one case: each request's outcome in req_id order, and the
    run's metrics as plain JSON values."""
    reqs, metrics = serve(*CASES[name])
    return {
        "requests": [[r.req_id, r.start_s, r.completion_s, r.state.value,
                      r.attempt] for r in reqs],
        "metrics": json.loads(json.dumps(dataclasses.asdict(metrics))),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def observed():
    return {name: observe(name) for name in CASES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_requests_match_golden(name, golden, observed):
    assert observed[name]["requests"] == golden[name]["requests"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_match_golden(name, golden, observed):
    assert observed[name]["metrics"] == golden[name]["metrics"]


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.write_text(json.dumps({name: observe(name)
                                  for name in sorted(CASES)}) + "\n")
    print(f"wrote {GOLDEN}")
