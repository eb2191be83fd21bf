"""Request-level control parity: what a seeded control run produces is pinned.

``RequestLevelGenerationServer`` is the BENCH_gen baseline: the paper's
DP scheduler (Alg. 3) applied at request granularity to generation.  Two
seeded ``GenServingBench`` workloads — the long-tail mix at a saturating
rate with 8 slots, and the short mix with 2 — must reproduce every
request's ``(req_id, start_s, first_token_s, completion_s, generated,
state)`` from ``golden_request_level.json`` exactly.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/serving/test_request_level_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.experiments.gen_serving_throughput import (
    OUTPUT_MIXES,
    GenServingBench,
)

GOLDEN = Path(__file__).parent / "golden_request_level.json"
MIXES = {mix.name: mix for mix in OUTPUT_MIXES}

#: name -> (mix, rate req/s, max_batch, duration s, seed)
CASES = {
    "long-tail": ("long-tail", 1500.0, 8, 0.2, 3),
    "short": ("short", 800.0, 2, 0.2, 5),
}


def observe(name: str) -> list:
    """Serve one case untraced and unmetered; return each request's
    outcome in req_id order."""
    mix_name, rate, max_batch, duration_s, seed = CASES[name]
    mix = MIXES[mix_name]
    bench = GenServingBench(max_batch=max_batch)
    requests = bench.workload(rate, duration_s, seed, mix)
    bench.run_request_level(requests, duration_s, mix)
    return [[r.req_id, r.start_s, r.first_token_s, r.completion_s,
             r.generated, r.state.value]
            for r in sorted(requests, key=lambda r: r.req_id)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_request_level_run_matches_golden(name, golden):
    assert observe(name) == golden[name]


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.write_text(json.dumps({name: observe(name)
                                  for name in sorted(CASES)}) + "\n")
    print(f"wrote {GOLDEN}")
