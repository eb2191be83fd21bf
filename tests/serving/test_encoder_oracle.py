"""Differential test: ``simulate_serving`` against the reference loop.

:mod:`tests.serving.reference_sim` re-derives the encoder serving rules
(queue what is due, partition with the reference DP under
``round_limit``, run the batches back to back, jump to the next arrival
when idle) without the engine, the replica or the driver.  Hypothesis
draws the arrivals, lengths, ``max_batch``, ``round_limit`` and the cost
function, and every request's ``(start_s, completion_s, state)`` must
match exactly.

Arrival gaps and most costs are multiples of 1/1024 s, so sums are exact
and arrivals often land on a window end or share an instant; a third
cost family draws arbitrary floats.  Scope: one fault-free replica under
the hungry trigger.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    PrunedDPBatchScheduler,
    Request,
    RequestState,
    ServingConfig,
    simulate_serving,
)

from .reference_sim import reference_serve

TICK = 1.0 / 1024


def monotone_cost(seq_len, batch):
    """Non-decreasing in both arguments (pruning stays on)."""
    return (1 + seq_len // 16) * (2 + batch) * TICK


def jagged_cost(seq_len, batch):
    """Not monotone in either argument, like a warmed table: some batch
    sizes and some lengths price below their smaller neighbour."""
    units = (1 + seq_len // 16) * (2 + batch)
    if batch % 4 == 1 and batch > 1:
        units -= 3
    if seq_len % 64 < 16 and seq_len > 64:
        units -= 4
    return units * TICK


def random_cost(seed):
    """An arbitrary positive table of non-dyadic floats."""
    rng = random.Random(seed)
    table = {}

    def cost(seq_len, batch):
        key = (seq_len, batch)
        if key not in table:
            table[key] = rng.uniform(0.001, 0.03)
        return table[key]

    return cost


COST = st.one_of(st.just(monotone_cost), st.just(jagged_cost),
                 st.integers(0, 2 ** 16).map(random_cost))
ARRIVAL = st.tuples(st.one_of(st.just(0), st.integers(0, 48)),  # gap, ticks
                    st.integers(1, 128))  # seq_len


@settings(max_examples=200, deadline=None)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=40),
       cost_fn=COST,
       max_batch=st.integers(1, 8),
       round_limit=st.one_of(st.none(), st.integers(1, 6)))
def test_per_request_timeline_matches_reference(arrivals, cost_fn, max_batch,
                                                round_limit):
    triples = []
    ticks = 0
    for req_id, (gap, seq_len) in enumerate(arrivals):
        ticks += gap
        triples.append((req_id, seq_len, ticks * TICK))
    want = reference_serve(triples, cost_fn, max_batch, round_limit)

    requests = [Request(req_id=i, seq_len=l, arrival_s=a)
                for i, l, a in triples]
    simulate_serving(requests, PrunedDPBatchScheduler(), cost_fn,
                     ServingConfig(max_batch=max_batch,
                                   round_limit=round_limit),
                     duration_s=(ticks + 1) * TICK)
    got = {r.req_id: (r.start_s, r.completion_s, r.state) for r in requests}
    assert got == {i: (start, end, RequestState.COMPLETED)
                   for i, (start, end) in want.items()}
