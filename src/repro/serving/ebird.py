"""Ebird-style concurrent elastic batching (paper §2.2 related work).

Ebird [Cui et al., ICCD'19] runs *multiple batches of the same model
concurrently* on one GPU so small batches can be dispatched immediately
instead of waiting behind a large in-flight batch.  We model the GPU as a
processor-sharing resource: ``k`` concurrently-resident batches each
progress at ``efficiency / k`` of the device's serial rate (concurrent
kernels contend for SMs and bandwidth; ``efficiency <= 1`` charges the
interference overhead).

The upside is head-of-line-blocking relief — short requests overtake long
in-flight batches — the downside is that total service capacity is no
better than serial execution (slightly worse after interference), which is
why the paper pursues *scheduling* rather than concurrency.

A deliberate modelling choice, pinned by a regression test: ``efficiency``
is charged even when only **one** batch is resident (``k = 1`` progresses
at ``efficiency``, not 1.0).  Ebird's elastic scheduler always dispatches
through its multi-stream machinery — stream-pool bookkeeping, per-stream
events, and forgoing the whole-device persistent-kernel configurations a
serial runtime would pick — so its overhead is a property of *how* work is
launched, not of how many batches happen to be co-resident.  Charging it
uniformly also keeps the progress-rate function continuous at the
``k = 1 -> 2`` boundary; a discontinuity there would let the simulator
flip between regimes on ties and make results knife-edge sensitive to
arrival jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..engine import Engine, EngineFaultInjector, EventKind
from .metrics import LatencyStats, ServingMetrics, response_throughput
from .request import Request, RequestState, arrival_window, make_batch
from .scheduler import CostFn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan


@dataclass
class _ActiveBatch:
    requests: tuple
    remaining_work_s: float  # solo device-seconds still owed


def simulate_ebird_serving(
    requests: Sequence[Request],
    cost_fn: CostFn,
    max_streams: int = 4,
    max_batch: int = 8,
    efficiency: float = 0.95,
    duration_s: Optional[float] = None,
    system_name: str = "Ebird",
    faults: Optional["FaultPlan"] = None,
    server_id: int = 0,
) -> ServingMetrics:
    """Processor-sharing simulation of Ebird's elastic concurrent batches.

    Dispatch policy: whenever a stream is free, the queued requests (up to
    ``max_batch``, arrival order, padded to their longest) start
    immediately as a new concurrent batch.

    With ``faults`` set (a :class:`~repro.resilience.FaultPlan`, bound
    through the shared engine injector), latency spikes divide the
    processor-sharing progress rate during their windows (applied segment
    by segment via wake-ups at the plan's window boundaries), a server
    crash fails queued and in-flight work fast and blocks dispatch until
    recovery, and transient failures strike at batch completion.  Ebird
    has no retry machinery, so failed requests are terminal.
    """
    if max_streams <= 0:
        raise ValueError(f"max_streams must be positive, got {max_streams}")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    arrivals, horizon = arrival_window(requests, duration_s)

    engine = Engine()
    inj = (EngineFaultInjector(faults, server_id)
           if faults is not None and not faults.empty else None)
    n = len(arrivals)
    queue: List[Request] = []
    active: List[_ActiveBatch] = []
    backlog_at_horizon: Optional[float] = None
    last_progress_t = 0.0
    completion_event = None

    def progress_rate() -> float:
        """Per-batch progress in device-seconds per wall-second.

        Sampled at the current segment start (``last_progress_t``); the
        boundary wake-ups guarantee the fault multiplier is constant
        within each applied segment.
        """
        rate = efficiency / len(active)
        if inj is not None:
            if inj.crashed(last_progress_t):
                return 0.0
            factor = inj.multiplier(last_progress_t)
            if factor != 1.0:
                rate = rate / factor
        return rate

    def apply_progress(now: float) -> None:
        """Charge the elapsed wall time against every resident batch."""
        nonlocal last_progress_t
        if active and now > last_progress_t:
            elapsed = now - last_progress_t
            rate = progress_rate()
            for batch in active:
                batch.remaining_work_s -= elapsed * rate
        last_progress_t = now

    def dispatch(now: float) -> None:
        if inj is not None and inj.crashed(now):
            return  # down: nothing dispatches until recovery
        while queue and len(active) < max_streams:
            taken, queue[:] = queue[:max_batch], queue[max_batch:]
            batch = make_batch(taken)
            for r in batch.requests:
                r.start_s = now
            active.append(
                _ActiveBatch(batch.requests,
                             cost_fn(batch.padded_len, batch.size))
            )

    def reschedule_completion() -> None:
        """Keep one WAKE at the earliest completion under the current rate."""
        nonlocal completion_event
        if completion_event is not None:
            engine.cancel(completion_event)
            completion_event = None
        if not active:
            return
        rate = progress_rate()
        if rate <= 0.0:
            return  # crashed: the recovery boundary wake-up reschedules
        min_remaining = min(b.remaining_work_s for b in active)
        at = engine.now + min_remaining / rate
        completion_event = engine.schedule(at, EventKind.WAKE, on_event)

    def sync(now: float) -> None:
        """Shared per-event body: progress, completions, dispatch."""
        apply_progress(now)
        if inj is not None and inj.crashed(now):
            # The crash takes queued and in-flight work down fast
            # (Ebird has no retries — terminal failures).
            for batch in active:
                for r in batch.requests:
                    r.resolve(RequestState.FAILED)
            active.clear()
            for r in queue:
                r.resolve(RequestState.FAILED)
            queue.clear()
        finished = [b for b in active if b.remaining_work_s <= 1e-12]
        if finished:
            for batch in finished:
                for r in batch.requests:
                    if inj is not None and inj.attempt_fails(
                        r.req_id, r.attempt, now
                    ):
                        r.resolve(RequestState.FAILED)
                    else:
                        r.resolve(RequestState.COMPLETED, now)
            active[:] = [b for b in active if b.remaining_work_s > 1e-12]
        dispatch(now)

    def on_event(_event) -> None:
        sync(engine.now)
        reschedule_completion()

    def on_arrival(event) -> None:
        apply_progress(engine.now)
        queue.append(event.payload)
        nxt = engine.peek()
        if (nxt is not None and nxt.time == engine.now
                and nxt.kind is EventKind.ARRIVAL):
            # Coalesce simultaneous arrivals into one dispatch pass so
            # they can share a batch, as the merged-iteration loop did.
            return
        sync(engine.now)
        reschedule_completion()

    def snapshot_backlog() -> None:
        # At the first dispatch crossing the horizon, however many
        # arrivals remain; requests offered after the horizon are not
        # backlog of the measured load.
        nonlocal backlog_at_horizon
        waiting = queue + [r for b in active for r in b.requests]
        backlog_at_horizon = sum(1 for r in waiting
                                 if r.arrival_s <= horizon)

    engine.arrivals(arrivals, on_arrival)
    if inj is not None:
        # One wake-up per fault window edge: progress segments between
        # events see a constant multiplier, and crash recovery re-arms
        # dispatch and the completion timer.
        for t in inj.plan.boundaries(server_id):
            if t >= 0.0:
                engine.schedule(t, EventKind.WAKE, on_event)
    engine.watch(horizon, snapshot_backlog)
    engine.run()

    if backlog_at_horizon is None:
        backlog_at_horizon = 0
    throughput = response_throughput(arrivals, horizon * 0.1, horizon)
    drain_seconds = backlog_at_horizon / max(throughput, 1e-9)
    return ServingMetrics(
        system=system_name,
        request_rate=n / horizon,
        response_throughput=throughput,
        latency=LatencyStats.from_requests(arrivals),
        saturated=drain_seconds > 1.0,
        completed=sum(1 for r in arrivals if r.completion_s is not None),
        offered=n,
        backlog_at_end=int(backlog_at_horizon),
    )
