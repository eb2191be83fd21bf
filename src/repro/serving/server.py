"""Discrete-event serving simulation (Fig. 12 / Table 4 substrate).

Replaces the paper's gRPC/HTTP stack with virtual time: requests arrive by
timestamp into a message queue; whenever a simulated GPU is idle and its
trigger policy fires, its batch scheduler partitions the queued requests
and the batches execute back-to-back, each costing its profiled latency.
Everything is deterministic given the workload.

One replica, one driver
-----------------------
:class:`BatchReplica` is one GPU running the paper's §5 loop — the
encoder twin of :class:`~repro.serving.continuous.GenReplica`.  It owns
its :class:`MessageQueue`, batch scheduler and trigger policy (hungry
or lazy), plus the fault injector and circuit breaker the driver binds,
and :meth:`BatchReplica.run` executes scheduling rounds — drain, admit,
DP-schedule, then run the batches as busy windows — yielding the end of
each window.  The
encoder driver is the one serving driver
(:class:`repro.serving.driver.Driver`, whose backlog, retry, routing,
window, counter and wake rules it follows) with the encoder ingest rule
(response cache, bounded queue):
:func:`simulate_serving` is that driver over one replica and
:func:`repro.serving.simulate_cluster` the same driver over N behind the
:class:`~repro.serving.router.Router` — the paper's picture of one
server's scheduler repeated behind a Nexus-style balancer.
:func:`repro.serving.simulate_ebird_serving` is the driver over one
replica whose execution rule is processor sharing.  The rules every
replica follows:

* **wake** — the driver's rule: an idle replica's first round sees every
  arrival and retry of its instant, and the next round of a busy replica
  starts at its last batch's end, after the arrivals and retries due
  then.  A lazy replica whose policy declines arms one TRIGGER at the
  policy's next decision time;
* **deadlines** — under resilience, expired requests are dropped at
  admission and each batch re-checks its members when it is dispatched;
* **crash truncation** — a batch a crash cuts short is lost at the crash
  instant, and the rest of its round fails there too; every lost request
  goes through the retry path, so nothing completes inside a crash
  window;
* **queue during an outage** — queued work fails fast while another
  replica is up, or at once when the outage never ends; otherwise it
  stays queued while the replica sleeps out the outage.  No window ends
  at ``inf``: a replica down for good yields none, and work that reaches
  it later fails fast the same way;
* **faults** — each replica stretches its own busy windows under its
  injector's latency spikes, and transient failures strike at the batch
  completion.

Every arrival reaches a queue by its own ARRIVAL dispatch, which the
driver's one loop steps like every other event.  The one exception:
when nothing can observe a lone replica between batch ends (hungry,
fault-free, no tracer, registry, cache, sanitizer or adaptive
scheduler; the predicate is one expression in :meth:`_BatchDriver.loop`),
each scheduling round is priced in closed form from the scheduler's
:meth:`~repro.serving.scheduler.BatchScheduler.partition` and reads its
arrivals off the driver's own cursor over the arrival times, without
queueing them or running the engine
(:meth:`_BatchDriver._serve_rounds`).

Observability: pass a :class:`repro.observability.Tracer` and/or a
:class:`repro.observability.MetricsRegistry` to get per-request spans
(enqueue → scheduled → execute → complete), per-batch timeline events with
padding attributes, queue-depth series, and reconciling counters.  With
the defaults (``NULL_TRACER``, no registry) the loop is unchanged and the
returned :class:`ServingMetrics` is bit-identical to an uninstrumented
run.

Resilience: pass a :class:`repro.resilience.ResilienceConfig` to enable
deadline-aware admission (expired requests are dropped before batching),
fault injection (latency spikes, transient failures, crashes), retries
with backoff, a circuit breaker and a bounded queue.
``resilience=None`` — and equally a config whose fault plan is empty with
every mechanism off — leaves the loop byte-identical to the unthreaded
code path, the same zero-overhead-when-disabled guarantee the tracer
gives.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from .._checks import check_size
from ..engine import EngineFaultInjector, EventKind
from ..observability import MetricsRegistry, Tracer
from .driver import Driver, Replica
from .metrics import ServingMetrics
from .mq import MessageQueue
from .policies import HungryPolicy, LazyPolicy, TriggerPolicy
from .request import Batch, Request, RequestState, make_batch
from .router import RoutingPolicy, queue_fails_fast
from .scheduler import BatchScheduler, CostFn, batch_execution_cost, observe_round

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (resilience -> serving)
    from ..resilience import ResilienceConfig


@dataclass
class ServingConfig:
    """Knobs of the serving loop."""

    max_batch: int = 20
    policy: TriggerPolicy = field(default_factory=HungryPolicy)
    round_limit: Optional[int] = None  # max requests per scheduling round
    warmup_fraction: float = 0.1  # excluded from the throughput window

    def __post_init__(self) -> None:
        check_size("max_batch", self.max_batch)
        check_size("round_limit", self.round_limit, optional=True)
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )


class BatchReplica(Replica):
    """One GPU of the encoder serving loop.

    Owns its message queue (bounded by ``resilience.queue_capacity``), its
    batch scheduler and trigger policy, and the fault injector and circuit
    breaker the driver binds.  :meth:`run` is its loop: scheduling rounds while the trigger
    fires, yielding the end time of each busy window to the driver.
    """

    def __init__(self, server_id: int, scheduler: BatchScheduler,
                 policy: TriggerPolicy) -> None:
        self.server_id = server_id
        self.scheduler = scheduler
        self.policy = policy
        # The lazy policy's front-of-queue estimate is refreshed every round.
        self.lazy = policy if isinstance(policy, LazyPolicy) else None
        # Feedback hook for adaptive (Clipper-style AIMD) schedulers.
        self.observe = getattr(scheduler, "observe", None)

    def bind(self, driver: "_BatchDriver",
             faults: Optional[EngineFaultInjector], breaker) -> None:
        super().bind(driver, faults, breaker)
        res = driver.res
        self.queue = MessageQueue(
            capacity=res.queue_capacity if res is not None else None)
        #: Committed busy horizon of the current round (routing estimate).
        self.busy_until = 0.0
        self.trigger = None  # the policy's decision timer, if armed

    # -- routing view -----------------------------------------------------

    @property
    def load(self) -> int:
        return len(self.queue)

    def pending_work_s(self, now: float) -> float:
        """Remaining busy time plus a no-batching estimate of the queue."""
        cost_fn = self.driver.cost_fn
        queued = sum(cost_fn(r.seq_len, 1) for r in self.queue)
        return max(0.0, self.busy_until - now) + queued

    def ensure_trigger(self) -> None:
        """Keep at most one pending TRIGGER, at the policy's next decision
        time for the work left queued; none when nothing is queued or the
        policy names no future time (queuing more work re-asks it)."""
        engine = self.driver.engine
        t = self.policy.next_decision_time(self.queue, engine.now)
        trigger = self.trigger
        if trigger is not None:
            if t == trigger.time:
                return
            engine.cancel(trigger)
            self.trigger = None
        if engine.now < t < float("inf"):
            self.trigger = engine.schedule(t, EventKind.TRIGGER, self.fire,
                                           self)

    def fire(self, event) -> None:
        """The TRIGGER's callback: an idle replica starts; a running one
        ignores the stale timer (its run re-arms on ending)."""
        self.trigger = None
        if not self.running:
            self.running = True
            self.driver.wake(event)

    # -- the loop ---------------------------------------------------------

    def run(self):
        """Scheduling rounds while the trigger policy fires; yields the end
        time of each busy window — a batch, or the rest of an outage."""
        d = self.driver
        engine = d.engine
        queue = self.queue
        policy = self.policy
        config = d.config
        price = d.cost_fn
        while queue and policy.should_schedule(queue, engine.now):
            now = engine.now
            if self.faults is not None and self.faults.crashed(now):
                end = self.crash(now)
                if end == math.inf:
                    break
                yield end
                continue
            if self.lazy is not None:
                self.lazy.estimated_exec_s = price(queue.front().seq_len, 1)
            depth = len(queue)
            taken = queue.drain(config.round_limit)
            if d.res is not None:
                taken = self.admit(taken, now)
                if not taken:
                    continue
            batches = self.scheduler.schedule(taken, price, config.max_batch)
            if d.observed:
                # One pre-drain depth sample feeds the trace counter and
                # the gauge alike.
                if d.metrics is not None:
                    d.metrics.gauge("serving_queue_depth").set(depth, t=now)
                if d.trace_on:
                    d.tracer.counter("queue", now, {"depth": depth})
                observe_round(batches, now, self.scheduler.name,
                              metrics=d.metrics,
                              tracer=d.tracer if d.trace_on else None)
            if d.router is not None:
                self.busy_until = self.projected_end(batches, price, now)
            yield from self.execute(batches, price)
        self.running = False
        self.ensure_trigger()

    def crash(self, now: float) -> float:
        """Down at ``now``: queued work fails fast to the retry path while
        another replica is up or when the outage never ends (else it
        waits out the outage).  Returns the recovery time, ``inf`` for a
        crash that never ends."""
        d = self.driver
        end = self.faults.crash_end(now)
        if queue_fails_fast(d.replicas, self, now, end):
            for r in self.queue.drain():
                d.fail(r, self, now)
        self.busy_until = end
        return end

    def admit(self, taken: List[Request], now: float) -> List[Request]:
        """Deadline-aware admission: expired work never reaches a batch."""
        d = self.driver
        alive: List[Request] = []
        for r in taken:
            if r.expired(now):
                d.drop(r, RequestState.TIMED_OUT, now)
            else:
                alive.append(r)
        return alive

    def projected_end(self, batches: Sequence[Batch], price: CostFn,
                      now: float) -> float:
        """When a round starting at ``now`` would finish under the fault
        plan (its recovery time if a crash cuts it short): the committed
        busy horizon the router's work estimate sees at once."""
        faults = self.faults
        cursor = now
        for batch in batches:
            exec_s = batch_execution_cost(batch, price)
            if faults is not None:
                exec_s *= faults.multiplier(cursor)
                crashed_at = faults.crashed_during(cursor, cursor + exec_s)
                if crashed_at is not None:
                    return faults.crash_end(crashed_at)
            cursor = cursor + exec_s
        return cursor

    def execute(self, batches: Sequence[Batch], price: CostFn):
        """Run a round's batches back to back as busy windows.  When a
        window closes each member completes, or fails by the fault plan's
        transient-failure draw for its attempt."""
        d = self.driver
        engine = d.engine
        horizon = d.horizon
        resilient = d.res is not None
        observed = d.observed
        trace_on = d.trace_on
        faults = self.faults
        breaker = self.breaker
        cache = d.cache
        completed = RequestState.COMPLETED
        for i, batch in enumerate(batches):
            started = engine.now
            if resilient:
                # Members that went stale while earlier batches of this
                # round executed are dropped rather than served
                # hopelessly late (deadline shedding).
                alive = [r for r in batch.requests if not r.expired(started)]
                if len(alive) < batch.size:
                    for r in batch.requests:
                        if r.expired(started):
                            d.drop(r, RequestState.TIMED_OUT, started)
                    if not alive:
                        continue
                    batch = make_batch(alive)
            exec_s = batch_execution_cost(batch, price)
            crashed_at = None
            failing = False
            if faults is not None:
                exec_s, crashed_at = faults.window(started, exec_s)
                failing = faults.plan.failure_rate(self.server_id,
                                                   started) > 0.0
            members = batch.requests
            for r in members:
                r.start_s = started
            # Occupy the GPU: arrivals and retry wake-ups due inside the
            # window land in the queues at their true timestamps.
            yield started + exec_s if crashed_at is None else crashed_at
            now = engine.now
            if started < horizon:
                d.busy_s += min(now, horizon) - started
            d.batches_executed += 1
            if observed:
                d.record_batch(self, batch, started, now)
            if self.observe is not None:
                self.observe(batch, now - started)
            if crashed_at is not None:
                # The server died mid-execution: this attempt and the rest
                # of the round are lost at the crash instant.
                for lost in (batch, *batches[i + 1:]):
                    for r in lost.requests:
                        d.fail(r, self, now)
                return
            done = 0
            for r in members:
                if failing and faults.attempt_fails(r.req_id, r.attempt,
                                                    started):
                    d.fail(r, self, now)
                    continue
                r.resolve(completed, now, faults)
                done += 1
                if breaker is not None:
                    breaker.record(True, now)
                if cache is not None and r.payload is not None:
                    cache.put(r.payload, r.req_id)
                if trace_on:
                    d.complete(r, "model")
            self.completed += done


class _BatchDriver(Driver):
    """The driver over a set of :class:`BatchReplica`: the encoder ingest
    rule (response cache, bounded queue), closed-form rounds for a lone
    hungry replica nothing observes, and the batch counters.  ``replica``
    builds each replica from ``(server_id, scheduler, policy)``; Ebird's
    processor sharing is such a replica."""

    def __init__(self, schedulers: Sequence[BatchScheduler], cost_fn: CostFn,
                 config: ServingConfig, system: str,
                 resilience: Optional["ResilienceConfig"] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None, cache=None,
                 policy: RoutingPolicy = RoutingPolicy.LEAST_WORK,
                 max_len: int = 512,
                 replica: Callable[..., BatchReplica] = BatchReplica) -> None:
        n = len(schedulers)
        self.config = config
        self.cost_fn = cost_fn
        self.cache = cache
        self.batches_executed = 0
        # Replicas beside each other must not share the lazy policy's
        # per-round estimate.
        super().__init__(
            [replica(i, scheduler,
                     config.policy if n == 1 else copy.copy(config.policy))
             for i, scheduler in enumerate(schedulers)],
            system, config.warmup_fraction, resilience, tracer, metrics,
            policy, max_len)

    # -- request bookkeeping ----------------------------------------------

    def complete(self, r: Request, how: str) -> None:
        """End a completed request's trace span."""
        self.tracer.async_end(
            "request", r.completion_s, r.req_id, cat="request",
            path=how, latency_ms=round(r.latency_s * 1e3, 4),
        )

    def record_batch(self, rep: BatchReplica, batch: Batch, started: float,
                     now: float) -> None:
        """Span, per-request execute marks and padding counters of one
        executed batch window ``[started, now]``."""
        if self.trace_on:
            self.tracer.complete(
                f"batch x{batch.size}", started, now - started, tid=rep.tid,
                cat="batch", size=batch.size, padded_len=batch.padded_len,
                padding_waste_tokens=batch.padding_waste,
            )
            for r in batch.requests:
                self.tracer.async_instant(
                    "request", started, r.req_id, cat="request",
                    stage="execute",
                    queue_wait_ms=round((started - r.arrival_s) * 1e3, 4),
                )
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("serving_padded_tokens_total").inc(
                batch.padded_len * batch.cost_batch_size
            )
            metrics.counter("serving_padding_waste_tokens_total").inc(
                batch.padding_waste
            )
            metrics.gauge("serving_gpu_busy_s").set(self.busy_s, t=now)

    # -- events -----------------------------------------------------------

    def ingest(self, r: Request, now: float, arrival: bool) -> None:
        """Queue ``r`` on its replica — a full queue sheds it — unless the
        response cache already answers a new arrival."""
        cache = self.cache
        if arrival and cache is not None and r.payload is not None \
                and cache.get(r.payload) is not None:
            # Resp Cache hit: answered without evaluating the model.
            r.start_s = r.arrival_s
            r.resolve(RequestState.COMPLETED, r.arrival_s)
            self.cache_hits += 1
            if self.trace_on:
                self.complete(r, "cache")
        else:
            rep = self.route(r, now)
            if rep.queue.push(r):
                rep.schedule_wake()
            else:
                self.rejected += 1
                self.drop(r, RequestState.SHED, now)
        if self.trace_on:
            self.tracer.counter("queue", now, {"depth": sum(
                len(rep.queue) for rep in self.replicas)})

    # -- the run ----------------------------------------------------------

    def name_tracks(self) -> None:
        for rep in self.replicas:
            self.tracer.thread_name(rep.tid, f"{rep.tid} (batch execution)")
        self.tracer.thread_name("scheduler", "batch scheduler")

    def loop(self) -> None:
        lone = self.replicas[0]
        # Closed-form rounds when nothing can see the lone replica between
        # batch ends.  ``engine.observed`` covers the registry's dispatch
        # counter and the sanitizer, whose recorder adds a dispatch hook
        # to every engine built while it is attached; only resilience
        # bounds a queue.
        if (self.lone and type(lone) is BatchReplica
                and type(lone.policy) is HungryPolicy and self.res is None
                and self.cache is None and not self.trace_on
                and not self.engine.observed and lone.observe is None):
            self._serve_rounds(lone)
        else:
            super().loop()

    def _serve_rounds(self, rep: BatchReplica) -> None:
        """The hungry loop of a lone, fault-free, unobserved replica, one
        closed-form scheduling round at a time, without the engine.

        :meth:`loop` takes this path only under its one predicate, so
        nothing outside the replica can see its state between batch
        ends: no tracer, dispatch hook (the registry's counter or the
        sanitizer), response cache or adaptive scheduler, no fault,
        retry, deadline, breaker or bounded queue (all need resilience),
        and no TRIGGER event.  Only arrivals feed the queue and rounds
        drain it in order, so the queue is always ``arrivals[head:due]``
        and the loop keeps its own cursor over the arrival times: after
        a round ending at ``t``, ``due`` is ``bisect_right(times, t)``,
        so an arrival at ``t`` itself is taken, as ARRIVAL sorts before
        the window-end WAKE in per-event dispatch.  An idle replica jumps
        to the next arrival instant and takes every arrival there.  The
        queue object is never filled and no engine event is dispatched
        or counted.

        Each round is the scheduler's ``partition`` — slices of one
        request order, each with the cost ``batch_execution_cost`` would
        charge it, which the pruned DP reads off the rows it priced — run
        in the same ``started + exec_s`` float sums the windowed path
        yields as its window ends.  No :class:`Batch` is built.  Members are
        resolved by setting their fields: ``resolve`` would also notify
        the run observers, and an attached one (the sanitizer) would have
        added a dispatch hook to the engine, so none is attached here.
        """
        arrivals = self.arrivals
        times = [r.arrival_s for r in arrivals]
        partition = rep.scheduler.partition
        price = self.cost_fn
        max_batch = self.config.max_batch
        limit = self.config.round_limit
        horizon = self.horizon
        completed = RequestState.COMPLETED
        n = len(arrivals)
        busy_s = self.busy_s
        batches = 0
        head = due = 0
        while head < n:
            if head == due:
                # Idle: run on to the next arrival instant.
                t = times[head]
                due = bisect_right(times, t, head)
            stop = due if limit is None else min(due, head + limit)
            order, ends, costs = partition(arrivals[head:stop], price,
                                           max_batch)
            lo = 0
            for hi, exec_s in zip(ends, costs):
                started = t
                t = started + exec_s
                for r in order[lo:hi]:
                    r.start_s = started
                    r.completion_s = t
                    r.state = completed
                if started < horizon:
                    # A conditional, not min(): one builtin call per
                    # batch is a measurable share of this loop.
                    busy_s += (t if t < horizon else horizon) - started
                lo = hi
            batches += len(ends)
            head = stop
            due = bisect_right(times, t, due)
        rep.completed += n
        self.busy_s = busy_s
        self.batches_executed += batches

    def result(self, done: List[Request],
               **common: object) -> ServingMetrics:
        return ServingMetrics(**common,
                              batches_executed=self.batches_executed)


def simulate_serving(
    requests: Sequence[Request],
    scheduler: BatchScheduler,
    cost_fn: CostFn,
    config: Optional[ServingConfig] = None,
    duration_s: Optional[float] = None,
    system_name: Optional[str] = None,
    cache=None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    resilience: Optional["ResilienceConfig"] = None,
) -> ServingMetrics:
    """Run one serving simulation to completion: the driver over one
    :class:`BatchReplica`.

    ``duration_s`` is the offered-load horizon (defaults to the last
    arrival); the simulation always drains the backlog so every request
    completes, and saturation is judged by whether the backlog at the end
    of the horizon kept growing.

    ``cache`` (a :class:`~repro.serving.cache.ResponseCache`) enables the
    Fig. 2 ``Resp Cache``: requests whose payload has a cached response
    complete at arrival without touching the model; model responses are
    cached on completion.

    ``tracer`` / ``metrics`` enable observability, ``resilience`` enables
    fault injection and recovery (see module docstring); all default to
    disabled.
    """
    driver = _BatchDriver([scheduler], cost_fn, config or ServingConfig(),
                          system_name or scheduler.name, resilience, tracer,
                          metrics, cache)
    return driver.serve(requests, duration_s)
