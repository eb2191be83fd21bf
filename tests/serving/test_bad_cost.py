"""A user cost function's bad value fails where it is charged to a batch.

A NaN, negative or infinite ``cost_fn(seq_len, batch)`` used to fail late
in the engine ("cannot take_until nan < now ...") or finish with infinite
latencies.  The pruned DP checks each cell of a cost row as it prices it
(the closed-form rounds), and :func:`batch_execution_cost` checks the cell
it charges (the batch-by-batch path); both raise :class:`ValueError`
naming the ``(seq_len, batch)`` cell.
"""

import math

import pytest

from repro.observability import MetricsRegistry
from repro.serving import (
    NoBatchScheduler,
    PrunedDPBatchScheduler,
    Request,
    ServingConfig,
    batch_execution_cost,
    make_batch,
    simulate_serving,
)

BAD = [math.nan, -1e-3, math.inf, -math.inf]


def cost_with(bad: float):
    """1 ms per member, except the ``(16, 1)`` cell."""
    def cost(seq_len: int, batch: int) -> float:
        return bad if (seq_len, batch) == (16, 1) else 1e-3 * batch
    return cost


def requests():
    return [Request(req_id=i, seq_len=8 * (1 + i % 3), arrival_s=0.01 * i)
            for i in range(9)]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("scheduler", [PrunedDPBatchScheduler,
                                       NoBatchScheduler])
@pytest.mark.parametrize("observed", [False, True],
                         ids=["bare", "registry"])
def test_serving_run_names_the_bad_cell(bad, scheduler, observed):
    metrics = MetricsRegistry() if observed else None
    with pytest.raises(ValueError, match=r"cost_fn\(16, 1\) returned "):
        simulate_serving(requests(), scheduler(), cost_with(bad),
                         ServingConfig(max_batch=4), duration_s=1.0,
                         metrics=metrics)


@pytest.mark.parametrize("bad", BAD)
def test_batch_execution_cost_rejects_the_cell(bad):
    batch = make_batch([Request(req_id=0, seq_len=16, arrival_s=0.0)])
    with pytest.raises(ValueError, match=r"cost_fn\(16, 1\) returned "):
        batch_execution_cost(batch, cost_with(bad))


@pytest.mark.parametrize("bad", BAD)
def test_pruned_row_rejects_the_cell(bad):
    scheduler = PrunedDPBatchScheduler()
    with pytest.raises(ValueError, match=r"cost_fn\(16, 1\) returned "):
        scheduler.partition(requests(), cost_with(bad), 4)


def test_zero_and_finite_costs_still_price():
    batch = make_batch([Request(req_id=0, seq_len=16, arrival_s=0.0)])
    assert batch_execution_cost(batch, lambda n, b: 0.0) == 0.0
    scheduler = PrunedDPBatchScheduler()
    _, ends, costs = scheduler.partition(requests(), cost_with(2e-3), 4)
    assert ends[-1] == 9 and all(c >= 0.0 for c in costs)
    assert scheduler.cost_calls == 3 * 4
