"""Reference models of the serving loops, written as plainly as possible.

Neither has an engine, events, replica or driver: one clock ``t``, the
arrivals as a sorted list and the queue as a plain list.

:func:`reference_serve` is the encoder loop (paper §5, Algorithm 3) of
one fault-free replica under the hungry trigger:

* queue every arrival due at or before ``t`` (ties keep input order);
* take the first ``round_limit`` queued requests (all when ``None``) and
  partition them with the reference :class:`DPBatchScheduler`;
* run the batches back to back, ``t += cost_fn(padded_len, size)``, each
  member starting at its batch's start and completing at its end;
* when the queue is empty, jump ``t`` to the next arrival.

``simulate_serving`` must give every request exactly these times, and
:func:`reference_metrics` re-derives every :class:`ServingMetrics` field
from them and the batch windows.

:func:`reference_gen_serve` is the iteration-level generation loop of one
fault-free, unchunked, cache-off continuous replica; its docstring lists
the rules.  ``ContinuousBatchingServer`` must give every request exactly
its ``(start_s, first_token_s, completion_s, generated, state)``.
"""

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.memory import KVCacheArena
from repro.serving import (
    DPBatchScheduler,
    LatencyStats,
    Request,
    RequestState,
    ServingMetrics,
)

#: Per request id: ``(start_s, completion_s)``.
Timeline = Dict[int, Tuple[float, float]]
#: Every executed batch as ``(start_s, end_s)``, in execution order.
Windows = List[Tuple[float, float]]
#: Per request id: ``(start_s, first_token_s, completion_s, generated,
#: state)``.
GenOutcome = Dict[int, Tuple[Optional[float], Optional[float],
                             Optional[float], int, RequestState]]


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


def reference_gen_serve(arrivals: Sequence[Tuple[int, int, int, float]],
                        runtime, arena: Callable[[], KVCacheArena],
                        max_batch: Optional[int] = None) -> GenOutcome:
    """Serve ``(req_id, seq_len, max_new_tokens, arrival_s)`` on one
    fault-free, unchunked, cache-off continuous replica whose KV arena
    ``arena()`` builds fresh.

    * **shed** at ingest what no empty arena holds: an arrival a second,
      empty arena refuses never enters the queue;
    * **admit** FIFO while the arena admits the head (prompt reserved, the
      full output budget as the worst case) and, with ``max_batch``, while
      live plus admitted requests stay under it;
    * **prefill** the admitted set in one pass,
      ``prefill_latency(size, longest prompt)``: each member starts at the
      pass start and gets its first token at the pass end;
    * otherwise **decode** one step at the live width over the longest
      KV, ``decode_step_latency(live, max(seq_len + generated))``; every
      member gains a token, a finished one completes and releases its
      region, the rest append the token to their KV;
    * after every pass or step, queue the arrivals due at or before ``t``;
      with nothing queued or live, jump ``t`` to the next arrival.

    Only the runtime's two latency lookups and the arenas'
    ``admit``/``append``/``release`` are used."""
    pending = sorted(arrivals, key=lambda a: a[3])
    kv = arena()
    empty = arena()
    out: GenOutcome = {}
    queue: List[List] = []
    live: List[List] = []  # [req_id, seq_len, max_new, start, first, generated]
    nxt = 0
    t = 0.0

    def complete(r: List) -> None:
        kv.release(r[0])
        out[r[0]] = (r[3], r[4], t, r[5], RequestState.COMPLETED)

    while nxt < len(pending) or queue or live:
        if not queue and not live:
            t = max(t, pending[nxt][3])
        while nxt < len(pending) and pending[nxt][3] <= t:
            req_id, seq_len, max_new, _arrival = pending[nxt]
            nxt += 1
            if empty.admit(req_id, seq_len, seq_len + max_new):
                empty.release(req_id)
                queue.append([req_id, seq_len, max_new, None, None, 0])
            else:
                out[req_id] = (None, None, None, 0, RequestState.SHED)
        admitted: List[List] = []
        while queue and (max_batch is None
                         or len(live) + len(admitted) < max_batch):
            req_id, seq_len, max_new = queue[0][:3]
            if not kv.admit(req_id, seq_len, seq_len + max_new):
                break
            admitted.append(queue.pop(0))
        if admitted:
            start = t
            t += runtime.prefill_latency(len(admitted),
                                         max(r[1] for r in admitted))
            for r in admitted:
                r[3], r[4], r[5] = start, t, 1
                if r[5] >= r[2]:
                    complete(r)
                else:
                    live.append(r)
        elif live:
            t += runtime.decode_step_latency(
                len(live), max(r[1] + r[5] for r in live))
            for r in live:
                r[5] += 1
                if r[5] >= r[2]:
                    complete(r)
                else:
                    kv.append(r[0], 1)
            live = [r for r in live if r[5] < r[2]]
        else:
            assert not queue, "an empty arena refused an admissible head"
    return out
