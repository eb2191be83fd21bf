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

Processor sharing is an execution rule of a
:class:`~repro.serving.server.BatchReplica`: :class:`EbirdReplica`
overrides only :meth:`~EbirdReplica.run`, and
:func:`simulate_ebird_serving` is the encoder driver over one such
replica.  Ebird therefore follows the driver's rules for crash
truncation, the queue during an outage, retries, the horizon backlog,
saturation and the warmup window.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Sequence

from .._checks import check_size
from ..engine import EngineFaultInjector
from .metrics import ServingMetrics
from .policies import TriggerPolicy
from .request import Batch, Request, RequestState, make_batch
from .scheduler import CostFn, NaiveBatchScheduler
from .server import BatchReplica, ServingConfig, _BatchDriver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (resilience -> serving)
    from ..resilience import ResilienceConfig


@dataclass
class _ActiveBatch:
    batch: Batch
    started: float
    remaining_work_s: float  # solo device-seconds still owed


class EbirdReplica(BatchReplica):
    """A :class:`BatchReplica` under processor sharing.

    Up to ``max_streams`` batches are resident.  Each of the ``k``
    resident batches progresses at ``efficiency / k`` of the device's
    serial rate, divided by the latency-spike multiplier in effect for
    the segment.  At each resume :meth:`run` charges the elapsed progress,
    completes the batches that have finished (a transient failure drawn
    at a batch's start fails its member, as in the base replica), fills
    the free streams with FIFO batches of up to ``max_batch`` padded to
    their longest member, and yields the window end: the earliest of the
    projected completion, the next fault-window edge and the next pending
    engine event.  Progress is thus charged at every arrival, fault-window
    edge and completion, with a constant rate within each segment.

    ``efficiency`` is charged even when only **one** batch is resident
    (``k = 1`` progresses at ``efficiency``, not 1.0), a deliberate
    modelling choice pinned by a regression test.  Ebird's elastic
    scheduler always dispatches through its multi-stream machinery —
    stream-pool bookkeeping, per-stream events, and forgoing the
    whole-device persistent-kernel configurations a serial runtime would
    pick — so its overhead is a property of *how* work is launched, not
    of how many batches happen to be co-resident.  Charging it uniformly
    also keeps the progress-rate function continuous at the ``k = 1 -> 2``
    boundary; a discontinuity there would let the simulator flip between
    regimes on ties and make results knife-edge sensitive to arrival
    jitter.
    """

    def __init__(self, server_id: int, scheduler: NaiveBatchScheduler,
                 policy: TriggerPolicy, *, max_streams: int,
                 efficiency: float) -> None:
        super().__init__(server_id, scheduler, policy)
        self.max_streams = max_streams
        self.efficiency = efficiency

    def bind(self, driver: _BatchDriver,
             faults: Optional[EngineFaultInjector], breaker) -> None:
        super().bind(driver, faults, breaker)
        self.active: List[_ActiveBatch] = []
        #: When progress was last charged.
        self.charged_at = 0.0
        self.edges = (faults.plan.boundaries(self.server_id)
                      if faults is not None else ())

    def rate(self) -> float:
        """Per-batch progress in device-seconds per wall-second over the
        segment starting at ``charged_at``."""
        rate = self.efficiency / len(self.active)
        if self.faults is not None:
            factor = self.faults.multiplier(self.charged_at)
            if factor != 1.0:
                rate = rate / factor
        return rate

    def run(self):
        d = self.driver
        engine = d.engine
        faults = self.faults
        queue = self.queue
        active = self.active
        max_batch = d.config.max_batch
        while queue or active:
            now = engine.now
            if active and now > self.charged_at:
                spent = (now - self.charged_at) * self.rate()
                for b in active:
                    b.remaining_work_s -= spent
                if self.charged_at < d.horizon:
                    d.busy_s += min(now, d.horizon) - self.charged_at
            self.charged_at = now
            if faults is not None and faults.crashed(now):
                # Crash truncation: resident batches are lost at the
                # crash instant; the queue follows the driver's rule.
                d.batches_executed += len(active)
                for b in active:
                    for r in b.batch.requests:
                        d.fail(r, self, now)
                active.clear()
                end = self.crash(now)
                if end == math.inf:
                    break
                yield end
                continue
            finished = [b for b in active if b.remaining_work_s <= 1e-12]
            if finished:
                active[:] = [b for b in active if b.remaining_work_s > 1e-12]
                for b in finished:
                    self.finish(b, now)
            while queue and len(active) < self.max_streams:
                taken = queue.drain(max_batch)
                if d.res is not None:
                    taken = self.admit(taken, now)
                    if not taken:
                        continue
                batch = make_batch(taken)
                for r in taken:
                    r.start_s = now
                active.append(_ActiveBatch(
                    batch, now, d.cost_fn(batch.padded_len, batch.size)))
            if not active:
                break
            end = now + min(b.remaining_work_s for b in active) / self.rate()
            nxt = engine.peek()
            if nxt is not None and nxt.time < end:
                end = nxt.time
            i = bisect_right(self.edges, now)
            if i < len(self.edges) and self.edges[i] < end:
                end = self.edges[i]
            yield end
        self.running = False

    def finish(self, b: _ActiveBatch, now: float) -> None:
        """A batch's work is done: each member completes, or fails by the
        transient-failure draw for its attempt at the batch's start."""
        d = self.driver
        faults = self.faults
        d.batches_executed += 1
        failing = (faults is not None and faults.plan.failure_rate(
            self.server_id, b.started) > 0.0)
        for r in b.batch.requests:
            if failing and faults.attempt_fails(r.req_id, r.attempt,
                                                b.started):
                d.fail(r, self, now)
                continue
            r.resolve(RequestState.COMPLETED, now, faults)
            self.completed += 1
            if self.breaker is not None:
                self.breaker.record(True, now)


def simulate_ebird_serving(
    requests: Sequence[Request],
    cost_fn: CostFn,
    max_streams: int = 4,
    max_batch: int = 8,
    efficiency: float = 0.95,
    duration_s: Optional[float] = None,
    system_name: str = "Ebird",
    resilience: Optional["ResilienceConfig"] = None,
) -> ServingMetrics:
    """Serve ``requests`` on one :class:`EbirdReplica`: the encoder
    driver of :func:`~repro.serving.simulate_serving` with processor
    sharing as the execution rule.

    Whenever a stream is free, the queued requests (up to ``max_batch``,
    arrival order, padded to their longest) start at once as a new
    concurrent batch.  ``resilience`` works as for ``simulate_serving``:
    fault injection, deadlines, retries, a breaker and a bounded queue.
    """
    check_size("max_streams", max_streams)
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    # The replica forms its own FIFO batches, one per free stream: the
    # naive scheduler's batches, drained ``max_batch`` at a time.
    driver = _BatchDriver(
        [NaiveBatchScheduler()], cost_fn, ServingConfig(max_batch=max_batch),
        system_name, resilience,
        replica=partial(EbirdReplica, max_streams=max_streams,
                        efficiency=efficiency))
    return driver.serve(requests, duration_s)
