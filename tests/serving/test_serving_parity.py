"""Encoder serving parity: what a seeded DP serving run produces is pinned.

``simulate_serving`` with the pruned DP scheduler over a warmed tiny-BERT
cost table is the paper's §5 path.  Its host fast paths (in-place DP
prefix states, memoised cost rows, one-peek engine dispatch, the one-pass
metrics tally) must not move a single simulated number: the
``ServingMetrics`` repr and every request's ``(start_s, completion_s,
state)`` must equal the goldens in ``golden_serving_parity.json``.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/serving/test_serving_parity.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.models import build_encoder_graph, tiny_bert
from repro.runtime import turbo_runtime, warmup_profile
from repro.serving import (
    LazyPolicy,
    PrunedDPBatchScheduler,
    ServingConfig,
    generate_requests,
    simulate_serving,
)

GOLDEN = Path(__file__).parent / "golden_serving_parity.json"

CONFIGS = {
    "hungry": lambda: ServingConfig(max_batch=8),
    "lazy": lambda: ServingConfig(max_batch=8,
                                  policy=LazyPolicy(timeout_s=0.004,
                                                    max_batch=8)),
    "round_limit": lambda: ServingConfig(max_batch=8, round_limit=3),
}


def _cost_table():
    runtime = turbo_runtime(graph=build_encoder_graph(tiny_bert()))
    return warmup_profile(runtime, max_batch=8, lengths=range(32, 513, 32))


def observe(name: str, table) -> dict:
    """Run one config untraced and unmetered; return what it produced."""
    requests = generate_requests(2500.0, 0.4, seed=11)
    metrics = simulate_serving(requests, PrunedDPBatchScheduler(),
                               table.cost, CONFIGS[name](), duration_s=0.4)
    digest = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.req_id):
        digest.update(repr((r.start_s, r.completion_s,
                            r.state.value)).encode())
    return {"metrics": repr(metrics), "requests_sha256": digest.hexdigest()}


@pytest.fixture(scope="module")
def table():
    return _cost_table()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_serving_run_matches_golden(name, table, golden):
    assert observe(name, table) == golden[name]


def test_lazy_run_serves_every_request(table):
    """simulate_serving drains the backlog, so every request of a run
    without resilience completes, whatever the trigger policy — also a
    lazy run, most of whose TRIGGER timers fire while a round is already
    running and must be ignored."""
    requests = generate_requests(2500.0, 0.4, seed=11)
    metrics = simulate_serving(requests, PrunedDPBatchScheduler(),
                               table.cost, CONFIGS["lazy"](), duration_s=0.4)
    assert metrics.completed == metrics.offered


if __name__ == "__main__":  # regenerate the golden file
    shared = _cost_table()
    GOLDEN.write_text(json.dumps({name: observe(name, shared)
                                  for name in sorted(CONFIGS)},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")

