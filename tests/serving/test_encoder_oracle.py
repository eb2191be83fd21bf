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

Such a replica runs each scheduling round in closed form, without the
engine, when nothing observes it, and batch by batch otherwise; an unobserved run and
one with a ``MetricsRegistry`` take the two paths.  Both are certified
against the reference, per request and on every ``ServingMetrics``
field, and a second differential test compares the two paths directly
over the DP, pruned-DP (both batch orders), no-batch, naive and packed
schedulers, with horizons placed inside a multi-batch round and exactly
on a batch end.  Two laws hold on both paths, on the windowed path
under ``LazyPolicy`` and on a two-replica ``LEAST_WORK`` cluster too:
scaling every time input by 4 scales every time output by exactly 4,
and dropping the arrivals after an instant changes no time before it.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine_checks import EngineTraceRecorder
from repro.observability import MetricsRegistry, Tracer
from repro.resilience import ResilienceConfig
from repro.serving import (
    AdaptiveBatchScheduler,
    DPBatchScheduler,
    HungryPolicy,
    LazyPolicy,
    NaiveBatchScheduler,
    NoBatchScheduler,
    PackedBatchScheduler,
    PrunedDPBatchScheduler,
    Request,
    RequestState,
    ResponseCache,
    RoutingPolicy,
    ServingConfig,
    simulate_cluster,
    simulate_ebird_serving,
    simulate_serving,
)
from repro.serving.server import _BatchDriver

from .reference_sim import reference_metrics, reference_serve

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


#: The two encoder paths: closed-form rounds when nothing observes the
#: run, batch-by-batch windows under a metrics registry.
PATHS = {"closed": lambda: None, "windowed": MetricsRegistry}

#: ``LazyPolicy`` knobs in ticks: the timeout, the SLO (None: no SLO) and
#: the queue depth that fires at once.
LAZY = st.tuples(st.integers(1, 64), st.one_of(st.none(), st.integers(1, 256)),
                 st.integers(1, 10))


def lazy_policy(knobs, k):
    """A fresh ``LazyPolicy`` (the server writes its estimate into it)
    with its timeout and SLO, both times, scaled by ``k``."""
    timeout, slo, depth = knobs
    return LazyPolicy(timeout_s=k * timeout * TICK,
                      latency_slo_s=math.inf if slo is None
                      else k * slo * TICK,
                      max_batch=depth)


#: The runs the time-scale and causality laws cover, each as
#: ``(triples, cost_fn, max_batch, round_limit, duration_s, knobs, k) ->
#: (timeline, metrics)``: both hungry paths, the lazy trigger, which runs
#: on the windowed path only, and a two-replica cluster under
#: ``LEAST_WORK`` routing (no ``round_limit`` there).
LAW_RUNS = {
    "closed": lambda t, cost_fn, mb, rl, d, knobs, k: serve(
        t, PrunedDPBatchScheduler(), cost_fn, mb, rl, d),
    "windowed": lambda t, cost_fn, mb, rl, d, knobs, k: serve(
        t, PrunedDPBatchScheduler(), cost_fn, mb, rl, d, MetricsRegistry()),
    "lazy": lambda t, cost_fn, mb, rl, d, knobs, k: serve(
        t, PrunedDPBatchScheduler(), cost_fn, mb, rl, d,
        policy=lazy_policy(knobs, k)),
    "cluster": lambda t, cost_fn, mb, rl, d, knobs, k: serve_cluster(
        t, cost_fn, mb, d),
}


def as_triples(arrivals):
    """``(gap_ticks, seq_len)`` draws -> ``(req_id, seq_len, arrival_s)``."""
    triples = []
    ticks = 0
    for req_id, (gap, seq_len) in enumerate(arrivals):
        ticks += gap
        triples.append((req_id, seq_len, ticks * TICK))
    return triples


def serve(triples, scheduler, cost_fn, max_batch, round_limit, duration_s,
          metrics=None, policy=None):
    """One ``simulate_serving`` run, under the hungry trigger unless a
    ``policy`` is given: per request ``(state, start_s, completion_s)``
    and the ``ServingMetrics``."""
    requests = [Request(req_id=i, seq_len=l, arrival_s=a)
                for i, l, a in triples]
    config = ServingConfig(max_batch=max_batch, round_limit=round_limit,
                           policy=policy or HungryPolicy())
    result = simulate_serving(requests, scheduler, cost_fn, config,
                              duration_s=duration_s, metrics=metrics)
    return timeline_of(requests), result


def serve_cluster(triples, cost_fn, max_batch, duration_s):
    """``serve`` on two pruned-DP replicas behind ``LEAST_WORK`` routing,
    whose work estimate is a time too; the cluster's ``ServingMetrics``."""
    requests = [Request(req_id=i, seq_len=l, arrival_s=a)
                for i, l, a in triples]
    result = simulate_cluster(requests, 2, PrunedDPBatchScheduler, cost_fn,
                              RoutingPolicy.LEAST_WORK, max_batch,
                              duration_s=duration_s)
    return timeline_of(requests), result.serving


def timeline_of(requests):
    return {r.req_id: (r.state, r.start_s, r.completion_s)
            for r in requests}


@settings(max_examples=200, deadline=None)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=40),
       cost_fn=COST,
       max_batch=st.integers(1, 8),
       round_limit=st.one_of(st.none(), st.integers(1, 6)))
def test_per_request_timeline_matches_reference(arrivals, cost_fn, max_batch,
                                                round_limit):
    triples = as_triples(arrivals)
    horizon = triples[-1][2] + TICK
    timeline, windows = reference_serve(triples, cost_fn, max_batch,
                                        round_limit)
    want = {i: (RequestState.COMPLETED, start, end)
            for i, (start, end) in timeline.items()}
    for path, registry in PATHS.items():
        got, result = serve(triples, PrunedDPBatchScheduler(), cost_fn,
                            max_batch, round_limit, horizon, registry())
        assert got == want, path
        assert result == reference_metrics(
            triples, timeline, windows, horizon, result.system), path


def scaled(cost_fn, k):
    return lambda seq_len, batch: k * cost_fn(seq_len, batch)


@settings(max_examples=150, deadline=None)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=40),
       cost_fn=COST,
       max_batch=st.integers(1, 8),
       round_limit=st.one_of(st.none(), st.integers(1, 6)),
       knobs=LAZY)
def test_time_scale_law(arrivals, cost_fn, max_batch, round_limit, knobs):
    """Arrivals, costs, the horizon and the lazy timeout and SLO all ×4
    (exact in binary floating point): every time comes out exactly ×4,
    throughput exactly ¼ and utilization bit for bit the same, so no
    path and no lazy fire time adds time of its own."""
    triples = as_triples(arrivals)
    horizon = triples[-1][2] + TICK
    quad = [(i, l, 4 * a) for i, l, a in triples]
    args = (max_batch, round_limit)
    for path, run in LAW_RUNS.items():
        base, result = run(triples, cost_fn, *args, horizon, knobs, 1)
        big, big_result = run(quad, scaled(cost_fn, 4), *args, 4 * horizon,
                              knobs, 4)
        assert big == {i: (state, 4 * start, 4 * end)
                       for i, (state, start, end) in base.items()}, path
        assert big_result.response_throughput \
            == result.response_throughput / 4, path
        assert big_result.utilization == result.utilization, path


@settings(max_examples=400, deadline=None)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=40),
       cost_fn=COST,
       max_batch=st.integers(1, 8),
       round_limit=st.one_of(st.none(), st.integers(1, 6)),
       where=st.sampled_from(["arrival", "after_end", "drawn"]),
       cut=st.integers(0, 4000),
       knobs=LAZY,
       data=st.data())
def test_causality(arrivals, cost_fn, max_batch, round_limit, where, cut,
                   knobs, data):
    """Dropping every arrival after T changes no time before T.  T is an
    arrival instant (its arrivals are kept), half a tick past a batch end
    of any run (a later arrival taken early would change that batch) or
    a drawn half tick."""
    triples = as_triples(arrivals)
    args = (max_batch, round_limit, triples[-1][2] + TICK)
    full = {path: run(triples, cost_fn, *args, knobs, 1)[0]
            for path, run in LAW_RUNS.items()}
    if where == "arrival":
        cut_s = data.draw(st.sampled_from([a for _, _, a in triples]))
    elif where == "after_end":
        ends = sorted({end for timeline in full.values()
                       for _, _, end in timeline.values()})
        cut_s = data.draw(st.sampled_from(ends)) + TICK / 2
    else:
        cut_s = max(triples[0][2], cut * TICK / 2)
    kept = [t for t in triples if t[2] <= cut_s]
    for path, run in LAW_RUNS.items():
        early, _ = run(kept, cost_fn, *args, knobs, 1)
        for i, times in early.items():
            for got, want in zip(times[1:], full[path][i][1:]):
                if got < cut_s or want < cut_s:
                    assert got == want, (path, i)


def packed_cost(lengths):
    """A packed batch's pinned cost: unlike any ``cost_fn`` cell."""
    return (3 + sum(lengths) // 8) * TICK


SCHEDULERS = {
    "pruned": PrunedDPBatchScheduler,
    "dp": DPBatchScheduler,
    "nobatch": NoBatchScheduler,
    "naive": NaiveBatchScheduler,
    "packed": lambda: PackedBatchScheduler(packed_cost, max_tokens=256),
}


def batch_windows(timeline):
    """Distinct ``(start_s, completion_s)`` windows, in time order; one
    per batch since every cost is positive."""
    return sorted({(start, end) for _, start, end in timeline.values()})


@settings(max_examples=400, deadline=None)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=40),
       cost_fn=COST,
       scheduler=st.sampled_from(sorted(SCHEDULERS)),
       max_batch=st.integers(1, 8),
       round_limit=st.one_of(st.none(), st.integers(1, 6)),
       where=st.sampled_from(["inside", "on_end", "drawn"]),
       drawn=st.integers(1, 400),
       data=st.data())
def test_closed_form_rounds_match_batch_windows(arrivals, cost_fn, scheduler,
                                                max_batch, round_limit,
                                                where, drawn, data):
    """The two paths agree per request and on every metric.  The horizon
    lands strictly inside, or exactly on the end of, a batch that another
    batch follows back to back, so the horizon backlog must not see the
    later batch started."""
    triples = as_triples(arrivals)
    make = SCHEDULERS[scheduler]
    args = (cost_fn, max_batch, round_limit)
    pilot, _ = serve(triples, make(), *args, duration_s=1.0)
    windows = batch_windows(pilot)
    starts = {start for start, _ in windows}
    followed = [w for w in windows if w[1] in starts]
    horizon = drawn * TICK
    if where != "drawn" and followed:
        start, end = data.draw(st.sampled_from(followed))
        horizon = end if where == "on_end" else (start + end) / 2
    closed = serve(triples, make(), *args, horizon)
    windowed = serve(triples, make(), *args, horizon, MetricsRegistry())
    assert closed == windowed


def run_rounds_spy(monkeypatch):
    """Count the runs that take the closed-form rounds."""
    calls = []
    original = _BatchDriver._serve_rounds

    def spy(self, rep):
        calls.append(rep)
        return original(self, rep)

    monkeypatch.setattr(_BatchDriver, "_serve_rounds", spy)
    return calls


def small_workload():
    return [Request(req_id=i, seq_len=16 + 8 * (i % 5), arrival_s=i * 0.002,
                    payload=i % 3) for i in range(30)]


#: Runs that must take the batch-by-batch path: each breaks one of the
#: closed form's conditions.
WINDOWED = {
    "metrics": lambda reqs: simulate_serving(
        reqs, PrunedDPBatchScheduler(), monotone_cost,
        metrics=MetricsRegistry()),
    "tracer": lambda reqs: simulate_serving(
        reqs, PrunedDPBatchScheduler(), monotone_cost, tracer=Tracer()),
    "cache": lambda reqs: simulate_serving(
        reqs, PrunedDPBatchScheduler(), monotone_cost,
        cache=ResponseCache()),
    "resilience": lambda reqs: simulate_serving(
        reqs, PrunedDPBatchScheduler(), monotone_cost,
        resilience=ResilienceConfig()),
    "lazy": lambda reqs: simulate_serving(
        reqs, PrunedDPBatchScheduler(), monotone_cost,
        ServingConfig(policy=LazyPolicy())),
    "adaptive": lambda reqs: simulate_serving(
        reqs, AdaptiveBatchScheduler(), monotone_cost),
    "two replicas": lambda reqs: simulate_cluster(
        reqs, 2, PrunedDPBatchScheduler, monotone_cost),
    "ebird": lambda reqs: simulate_ebird_serving(reqs, monotone_cost),
}


def test_unobserved_lone_replica_takes_closed_form(monkeypatch):
    calls = run_rounds_spy(monkeypatch)
    for round_limit in (None, 3):
        simulate_serving(small_workload(), PrunedDPBatchScheduler(),
                         monotone_cost, ServingConfig(round_limit=round_limit))
    assert len(calls) == 2


@pytest.mark.parametrize("case", sorted(WINDOWED))
def test_observed_or_stateful_runs_take_windows(monkeypatch, case):
    calls = run_rounds_spy(monkeypatch)
    WINDOWED[case](small_workload())
    assert calls == []


def test_sanitizer_hooks_take_windows(monkeypatch):
    calls = run_rounds_spy(monkeypatch)
    with EngineTraceRecorder():
        simulate_serving(small_workload(), PrunedDPBatchScheduler(),
                         monotone_cost)
    assert calls == []
