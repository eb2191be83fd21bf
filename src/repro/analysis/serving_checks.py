"""Serving-metrics verifier: a run's summary against its request list.

A serving run reports a :class:`~repro.serving.ServingMetrics` summary;
every request of the run ends in a terminal state carrying its own
timestamps.  :func:`verify_serving_metrics` recomputes the summary fields
that depend only on those requests, straight from their definitions,
and returns every field the run reported differently.  It shares no code
with the serving driver that produced the summary, so a driver that
counts a request it should not (a shed request as backlog, a completion
outside the throughput window) disagrees with it.

The definitions, for an offered-load ``horizon`` and a warm-up of
``warmup_fraction * horizon``:

* ``offered`` — every request of the run;
* ``completed`` — the requests that ended COMPLETED;
* ``backlog_at_end`` — requests offered by the horizon, not shed, whose
  service had not begun by the horizon (no ``start_s``, or a later one);
* ``response_throughput`` — completions inside the closed window
  ``[warmup, horizon]``, per second of that window;
* ``latency`` — arrival-to-completion milliseconds of the completed
  requests;
* ``saturated`` — the backlog takes more than half a second of that
  throughput to drain;
* ``resilience`` (when reported) — ``retries`` is the sum of every
  request's ``attempt``, which only a granted retry raises, and
  ``timed_out``, ``failed`` and ``shed`` count the requests that ended
  in that state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, Sequence, Tuple

from ..serving.metrics import LatencyStats, ServingMetrics
from ..serving.request import Request, RequestState


def verify_serving_metrics(metrics: ServingMetrics,
                           requests: Sequence[Request], horizon: float,
                           warmup_fraction: float = 0.1,
                           ) -> Dict[str, Tuple[object, object]]:
    """``{field: (reported, recomputed)}`` for every field of ``metrics``
    that disagrees with the terminal ``requests`` (empty when all hold)."""
    done = [r for r in requests if r.state is RequestState.COMPLETED]
    warmup = horizon * warmup_fraction
    throughput = sum(1 for r in done
                     if warmup <= r.completion_s <= horizon) / (
                         horizon - warmup)
    backlog = sum(1 for r in requests
                  if r.arrival_s <= horizon
                  and r.state is not RequestState.SHED
                  and (r.start_s is None or r.start_s > horizon))
    expected = {
        "offered": len(requests),
        "completed": len(done),
        "backlog_at_end": backlog,
        "response_throughput": throughput,
        "latency": LatencyStats.from_values(
            [(r.completion_s - r.arrival_s) * 1e3 for r in done]),
        "saturated": backlog / max(throughput, 1e-9) > 0.5,
    }
    stats = metrics.resilience
    if stats is not None:
        states = Counter(r.state for r in requests)
        expected["resilience"] = replace(
            stats, retries=sum(r.attempt for r in requests),
            timed_out=states[RequestState.TIMED_OUT],
            failed=states[RequestState.FAILED],
            shed=states[RequestState.SHED])
    return {name: (getattr(metrics, name), value)
            for name, value in expected.items()
            if getattr(metrics, name) != value}
