"""Ebird processor-sharing runs are pinned, request by request.

Each case serves a seeded workload through ``simulate_ebird_serving``
and must reproduce every request's ``(req_id, start_s, completion_s,
state)`` and every :class:`~repro.serving.ServingMetrics` field from
``golden_ebird.json`` exactly:

* ``rate-50`` / ``rate-300`` — the §2.2 comparison's settings (four
  streams, batches of eight, seed 13) on a small linear cost, below and
  above Ebird's capacity;
* ``k1-efficiency`` — one stream at ``efficiency=0.8``, so every batch
  runs alone and is charged the interference overhead;
* ``sanitize-seed0..2`` — the ``check --sanitize ebird`` scenario: a
  crash plus a latency spike;
* ``transient`` — a transient-failure window under two streams;
* ``crashed-whole-horizon`` — the only replica is down for the whole
  horizon.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/serving/test_ebird_golden.py
"""

import dataclasses
import json
from pathlib import Path
from typing import Optional

import pytest

from repro.resilience import (
    FaultPlan,
    LatencySpike,
    ResilienceConfig,
    ServerCrash,
    TransientFailures,
)
from repro.resilience.chaos import _linear_cost
from repro.serving import generate_requests, simulate_ebird_serving

GOLDEN = Path(__file__).parent / "golden_ebird.json"


def small_cost(seq_len: int, batch: int) -> float:
    return 0.002 + 0.00005 * seq_len * batch


def _serve(rate: float, duration_s: float, seed: int, cost,
           plan: Optional[FaultPlan] = None, **kwargs):
    reqs = generate_requests(rate, duration_s, seed=seed)
    metrics = simulate_ebird_serving(
        reqs, cost, duration_s=duration_s,
        resilience=None if plan is None else ResilienceConfig(faults=plan),
        **kwargs)
    return reqs, metrics


def _sanitize(seed: int):
    plan = FaultPlan(
        seed=seed,
        crashes=(ServerCrash(start_s=0.3, end_s=0.5, server_id=0),),
        spikes=(LatencySpike(start_s=0.6, end_s=0.8, multiplier=2.0,
                             server_id=0),),
    )
    return lambda: _serve(100.0, 1.0, seed, _linear_cost, plan,
                          max_streams=3, max_batch=8)


CASES = {
    "rate-50": lambda: _serve(50.0, 2.0, 13, small_cost, max_streams=4,
                              max_batch=8),
    "rate-300": lambda: _serve(300.0, 2.0, 13, small_cost, max_streams=4,
                               max_batch=8),
    "k1-efficiency": lambda: _serve(60.0, 1.0, 7, small_cost, max_streams=1,
                                    max_batch=4, efficiency=0.8),
    "sanitize-seed0": _sanitize(0),
    "sanitize-seed1": _sanitize(1),
    "sanitize-seed2": _sanitize(2),
    "transient": lambda: _serve(
        120.0, 1.0, 4, _linear_cost,
        FaultPlan(seed=4, failures=(TransientFailures(
            start_s=0.2, end_s=0.6, failure_rate=0.4, server_id=0),)),
        max_streams=2, max_batch=8),
    "crashed-whole-horizon": lambda: _serve(
        80.0, 0.5, 5, _linear_cost,
        FaultPlan(crashes=(ServerCrash(start_s=0.0, end_s=0.5,
                                       server_id=0),)),
        max_streams=2, max_batch=8),
}


def observe(name: str) -> dict:
    """Serve one case: each request's outcome in req_id order, and the
    run's metrics as plain JSON values."""
    reqs, metrics = CASES[name]()
    return {
        "requests": [[r.req_id, r.start_s, r.completion_s, r.state.value]
                     for r in reqs],
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
