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

``simulate_serving`` must give every request exactly these times.
"""

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.serving import DPBatchScheduler, Request

#: Per request id: ``(start_s, completion_s)``.
Timeline = Dict[int, Tuple[float, float]]


def reference_serve(arrivals: Sequence[Tuple[int, int, float]],
                    cost_fn: Callable[[int, int], float], max_batch: int,
                    round_limit: Optional[int] = None) -> Timeline:
    """Serve ``(req_id, seq_len, arrival_s)`` triples; returns every
    request's ``(start_s, completion_s)``."""
    pending = sorted(arrivals, key=lambda a: a[2])
    scheduler = DPBatchScheduler()
    queue: list = []
    timeline: Timeline = {}
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
            for r in batch.requests:
                timeline[r.req_id] = (start, t)
    return timeline
