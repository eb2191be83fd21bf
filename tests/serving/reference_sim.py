"""Reference model of the encoder serving loop (paper §5, Algorithm 3).

The loop written as plainly as possible, with no engine, events, replica
or driver: one clock ``t``, the arrivals as a sorted list and the queue
as a plain list.  It covers one fault-free replica under the hungry
trigger:

* queue every arrival due at or before ``t`` (ties keep input order);
* take the first ``round_limit`` queued requests (all when ``None``) and
  partition them with the reference :class:`DPBatchScheduler`;
* run the batches back to back, ``t += cost_fn(padded_len, size)``, each
  member starting at its batch's start and completing at its end;
* when the queue is empty, jump ``t`` to the next arrival.

``simulate_serving`` must give every request exactly these times, and
:func:`reference_metrics` re-derives every :class:`ServingMetrics` field
from them and the batch windows.
"""

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serving import (
    DPBatchScheduler,
    LatencyStats,
    Request,
    ServingMetrics,
)

#: Per request id: ``(start_s, completion_s)``.
Timeline = Dict[int, Tuple[float, float]]
#: Every executed batch as ``(start_s, end_s)``, in execution order.
Windows = List[Tuple[float, float]]


def reference_serve(arrivals: Sequence[Tuple[int, int, float]],
                    cost_fn: Callable[[int, int], float], max_batch: int,
                    round_limit: Optional[int] = None,
                    ) -> Tuple[Timeline, Windows]:
    """Serve ``(req_id, seq_len, arrival_s)`` triples; returns every
    request's ``(start_s, completion_s)`` and the batch windows."""
    pending = sorted(arrivals, key=lambda a: a[2])
    scheduler = DPBatchScheduler()
    queue: list = []
    timeline: Timeline = {}
    windows: Windows = []
    nxt = 0
    t = 0.0
    while nxt < len(pending) or queue:
        if not queue:
            t = max(t, pending[nxt][2])
        while nxt < len(pending) and pending[nxt][2] <= t:
            req_id, seq_len, arrival_s = pending[nxt]
            queue.append(Request(req_id=req_id, seq_len=seq_len,
                                 arrival_s=arrival_s))
            nxt += 1
        take = len(queue) if round_limit is None else round_limit
        taken, queue = queue[:take], queue[take:]
        for batch in scheduler.schedule(taken, cost_fn, max_batch):
            start = t
            t += cost_fn(batch.padded_len, batch.size)
            windows.append((start, t))
            for r in batch.requests:
                timeline[r.req_id] = (start, t)
    return timeline, windows


def reference_metrics(arrivals: Sequence[Tuple[int, int, float]],
                      timeline: Timeline, windows: Windows, horizon: float,
                      system: str, warmup_fraction: float = 0.1,
                      ) -> ServingMetrics:
    """Every field of a fault-free run's :class:`ServingMetrics`, from its
    requests and batch windows alone:

    * ``utilization`` — the windows' overlap with ``[0, horizon]``,
      summed in execution order, over the horizon;
    * ``backlog_at_end`` — requests offered by the horizon and not
      started by it (a batch starting exactly at the horizon is not
      backlog);
    * ``response_throughput`` — completions inside the closed window
      ``[warmup, horizon]`` per second; saturated when the backlog takes
      more than half a second of that throughput;
    * ``latency`` — over every request's arrival-to-completion time.
    """
    arrival_of = {req_id: arrival_s for req_id, _, arrival_s in arrivals}
    busy = 0.0
    for start, end in windows:
        if start < horizon:
            busy += min(end, horizon) - start
    backlog = sum(1 for req_id, (start, _) in timeline.items()
                  if arrival_of[req_id] <= horizon and start > horizon)
    warmup = horizon * warmup_fraction
    throughput = sum(1 for _, end in timeline.values()
                     if warmup <= end <= horizon) / (horizon - warmup)
    return ServingMetrics(
        system=system,
        request_rate=len(arrivals) / horizon,
        response_throughput=throughput,
        latency=LatencyStats.from_values(
            [(end - arrival_of[req_id]) * 1e3
             for req_id, (_, end) in timeline.items()]),
        saturated=backlog / max(throughput, 1e-9) > 0.5,
        completed=len(timeline),
        offered=len(arrivals),
        backlog_at_end=backlog,
        utilization=min(1.0, busy / horizon),
        batches_executed=len(windows),
    )
