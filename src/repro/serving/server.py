"""Discrete-event serving simulation (Fig. 12 / Table 4 substrate).

Replaces the paper's gRPC/HTTP stack with virtual time: requests arrive by
timestamp into the message queue; whenever the simulated GPU is idle and
the trigger policy fires, the batch scheduler partitions the queued
requests and the batches execute back-to-back, each costing its profiled
latency.  Everything is deterministic given the workload.

Migration note (event engine): this loop now runs on
:class:`repro.engine.Engine` — arrivals (the engine's arrival stream),
retry wake-ups and trigger-policy decision points are events dispatched
in the engine's documented ``ARRIVAL < RETRY < WAKE < TRIGGER``
same-time order, and batch execution occupies the GPU through
``engine.advance`` so arrivals land in the queue at their true timestamps
instead of at batch boundaries.  The port
removed the private ``while``/``heapq`` loop and with it three bugs: the
DP scheduler and the LazyPolicy estimate now price rounds with the
**active degradation rung's** cost function (they used the base
``cost_fn`` while execution charged the rung's), the queue-depth trace
counter and metrics gauge both report the **pre-drain** depth (the trace
sampled after ``queue.drain`` and always showed ~0), and the
``clock + 1e-9`` anti-stall nudge is gone — the engine only ever advances
to real event timestamps, so zero-progress rounds are impossible by
construction.

Observability: pass a :class:`repro.observability.Tracer` and/or a
:class:`repro.observability.MetricsRegistry` to get per-request spans
(enqueue → scheduled → execute → complete), per-batch timeline events with
padding attributes, queue-depth series, and reconciling counters.  With
the defaults (``NULL_TRACER``, no registry) the loop is unchanged and the
returned :class:`ServingMetrics` is bit-identical to an uninstrumented
run.

Resilience: pass a :class:`repro.resilience.ResilienceConfig` to enable
deadline-aware admission (expired requests are dropped before batching),
fault injection (latency spikes, transient failures), retries with
backoff, a circuit breaker and a degradation ladder.  ``resilience=None``
— and equally a config whose fault plan is empty with every mechanism off
— leaves the loop byte-identical to the unthreaded code path, the same
zero-overhead-when-disabled guarantee the tracer gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..engine import Engine, EngineFaultInjector, EngineInstrumentation, \
    Event, EventKind
from ..observability import NULL_TRACER, MetricsRegistry, Tracer
from .metrics import (
    LatencyStats,
    ResilienceStats,
    ServingMetrics,
    completed_requests,
    completed_throughput,
)
from .mq import MessageQueue
from .policies import HungryPolicy, LazyPolicy, TriggerPolicy
from .request import Request, RequestState, make_batch
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
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.round_limit is not None and self.round_limit <= 0:
            raise ValueError(
                f"round_limit must be positive or None, got {self.round_limit}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )


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
    """Run one serving simulation to completion.

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
    if not requests:
        raise ValueError("need at least one request to simulate")
    config = config or ServingConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    trace_on = tracer.enabled
    arrivals: List[Request] = sorted(requests, key=attrgetter("arrival_s"))
    horizon = duration_s if duration_s is not None else arrivals[-1].arrival_s
    if horizon <= 0:
        raise ValueError(f"duration must be positive, got {horizon}")

    res = resilience
    faults = res.faults if res is not None else None
    breaker = (res.breaker_factory(0)
               if res is not None and res.breaker_factory is not None else None)
    degradation = res.degradation if res is not None else None
    retry_state = None
    if res is not None and res.retry is not None:
        from ..resilience.retry import RetryState  # deferred: avoids cycle

        retry_state = RetryState(res.retry)

    instrumentation = (EngineInstrumentation(tracer, metrics)
                       if (trace_on or metrics is not None) else None)
    # Faults are injected at the engine layer: the injector stretches
    # advance() busy windows under active spikes and answers transient
    # verdicts, one code path shared with every other engine-based server.
    injector = (EngineFaultInjector(faults, 0, instrumentation)
                if faults is not None and not faults.empty else None)
    engine = Engine(instrumentation=instrumentation, faults=injector)
    queue = MessageQueue(capacity=res.queue_capacity if res is not None else None)
    n = len(arrivals)
    backlog_at_horizon: Optional[int] = None
    busy_in_horizon = 0.0
    batches_executed = 0
    trigger_event: Optional[Event] = None
    if trace_on:
        tracer.thread_name("gpu", "gpu (batch execution)")
        tracer.thread_name("scheduler", "batch scheduler")

    def complete_request(r: Request, how: str) -> None:
        """Per-request completion bookkeeping (span end + counter)."""
        if trace_on:
            tracer.async_end(
                "request", r.completion_s, r.req_id, cat="request",
                path=how, latency_ms=round(r.latency_s * 1e3, 4),
            )
        if metrics is not None:
            metrics.counter("serving_requests_completed_total", path=how).inc()

    def drop_request(r: Request, state: RequestState, now: float) -> None:
        """Terminal non-completion (timeout / failure / shed) bookkeeping."""
        r.resolve(state)
        if trace_on:
            tracer.async_end("request", now, r.req_id, cat="request",
                             path=state.value)
        if metrics is not None:
            metrics.counter("serving_requests_dropped_total",
                            reason=state.value).inc()

    def enqueue(r: Request, now: float) -> None:
        """Push with capacity-aware admission (full queue sheds)."""
        if not queue.push(r):
            drop_request(r, RequestState.SHED, now)

    def on_arrival(event: Event) -> None:
        """An offered request enters the system at its true timestamp."""
        request = event.payload
        now = engine.now
        if trace_on:
            tracer.async_begin(
                "request", request.arrival_s, request.req_id,
                cat="request", seq_len=request.seq_len,
            )
        if (cache is not None and request.payload is not None
                and cache.get(request.payload) is not None):
            # Resp Cache hit: answered without evaluating the model.
            request.start_s = request.arrival_s
            request.resolve(RequestState.COMPLETED, request.arrival_s)
            complete_request(request, "cache")
        else:
            enqueue(request, now)
        if trace_on:
            tracer.counter("queue", now, {"depth": len(queue)})
        if metrics is not None:
            metrics.counter("serving_requests_ingested_total").inc()

    def on_retry(event: Event) -> None:
        """A failed attempt re-enters the queue after its backoff."""
        request = event.payload
        now = engine.now
        if trace_on:
            tracer.async_instant("request", now, request.req_id,
                                 cat="request", stage="requeue",
                                 attempt=request.attempt)
        enqueue(request, now)
        if trace_on:
            tracer.counter("queue", now, {"depth": len(queue)})
        if metrics is not None:
            metrics.counter("serving_requests_ingested_total").inc()

    def snapshot_backlog() -> None:
        # At the first dispatch crossing the horizon, however many
        # arrivals remain.  Backlog = requests offered within the horizon
        # whose service had not begun by the horizon; queue depth alone
        # undercounts because a scheduling round drains the whole queue
        # into batches long before they execute, and arrivals after the
        # horizon are not backlog of the measured load.
        nonlocal backlog_at_horizon
        backlog_at_horizon = sum(
            1 for r in arrivals
            if r.arrival_s <= horizon
            and (r.start_s is None or r.start_s > horizon)
        )

    def active_cost_fn() -> CostFn:
        """Cost function of the current degradation rung (base if none)."""
        if degradation is not None:
            return degradation.cost_fn
        return cost_fn

    def admit(taken: List[Request], now: float) -> List[Request]:
        """Deadline-aware admission: expired work never reaches a batch.

        The shed rung of the degradation ladder additionally drops queued
        requests older than its ``shed_age_s``.
        """
        shed_age = degradation.shed_age_s if degradation is not None else None
        alive: List[Request] = []
        for r in taken:
            if r.expired(now):
                drop_request(r, RequestState.TIMED_OUT, now)
            elif shed_age is not None and now - r.arrival_s > shed_age:
                drop_request(r, RequestState.SHED, now)
            else:
                alive.append(r)
        return alive

    # Feedback hook for adaptive (Clipper-style AIMD) schedulers.
    observe = getattr(scheduler, "observe", None)

    def execute(batches) -> None:
        nonlocal busy_in_horizon, batches_executed
        # The rung moves only between rounds (on_round), never inside one.
        price = active_cost_fn()
        for batch in batches:
            if res is not None:
                # Re-check deadlines at dispatch: members that went stale
                # while earlier batches of this round executed are dropped
                # rather than served hopelessly late (deadline shedding).
                alive = [r for r in batch.requests
                         if not r.expired(engine.now)]
                if len(alive) < batch.size:
                    for r in batch.requests:
                        if r.expired(engine.now):
                            drop_request(r, RequestState.TIMED_OUT, engine.now)
                    if not alive:
                        continue
                    batch = make_batch(alive)
            exec_s = batch_execution_cost(batch, price)
            started = engine.now
            for r in batch.requests:
                r.start_s = started
            # Occupy the GPU: arrivals and retry wake-ups due inside the
            # window land in the queue at their true timestamps; the span
            # for the batch is emitted by the engine.  Active latency
            # spikes stretch the window inside advance() (the injector);
            # last_advance_s is the duration actually charged.
            if trace_on:
                engine.advance(
                    exec_s, label=f"batch x{batch.size}", tid="gpu",
                    cat="batch", size=batch.size,
                    padded_len=batch.padded_len,
                    padding_waste_tokens=batch.padding_waste,
                )
            else:
                engine.advance(exec_s)
            exec_s = engine.last_advance_s
            if started < horizon:
                busy_in_horizon += min(started + exec_s, horizon) - started
            batches_executed += 1
            now = engine.now
            failed: List[Request] = []
            if (injector is not None
                    and injector.crashed_during(started, now) is not None):
                # The server died mid-execution: the whole attempt is
                # lost.  Members re-enter through the retry path and the
                # scheduling loop sleeps out the remaining outage.
                failed = list(batch.requests)
            elif injector is not None and faults.failure_rate(0, started) > 0.0:
                failed = [r for r in batch.requests
                          if injector.attempt_fails(r.req_id, r.attempt, started)]
            done: Sequence[Request] = batch.requests
            if failed:
                failed_ids = set(id(r) for r in failed)
                done = [r for r in batch.requests if id(r) not in failed_ids]
            for r in done:
                r.resolve(RequestState.COMPLETED, now)
                if breaker is not None:
                    breaker.record(True, now)
                if cache is not None and r.payload is not None:
                    cache.put(r.payload, r.req_id)
            if trace_on:
                for r in batch.requests:
                    tracer.async_instant(
                        "request", started, r.req_id, cat="request",
                        stage="execute",
                        queue_wait_ms=round((started - r.arrival_s) * 1e3, 4),
                    )
            if trace_on or metrics is not None:
                for r in done:
                    complete_request(r, "model")
            for r in failed:
                _handle_failure(r, now)
            if metrics is not None:
                metrics.counter("serving_batches_executed_total").inc()
                metrics.counter("serving_padded_tokens_total").inc(
                    batch.padded_len * batch.cost_batch_size
                )
                metrics.counter("serving_padding_waste_tokens_total").inc(
                    batch.padding_waste
                )
                metrics.gauge("serving_gpu_busy_s").set(busy_in_horizon, t=now)
            if observe is not None:
                observe(batch, exec_s)

    def _handle_failure(r: Request, now: float) -> None:
        """One attempt failed: retry after backoff or give up."""
        if breaker is not None:
            breaker.record(False, now)
        if metrics is not None:
            metrics.counter("serving_attempt_failures_total").inc()
        retry_at = (retry_state.next_retry_at(r, now)
                    if retry_state is not None else None)
        if retry_at is None:
            drop_request(r, RequestState.FAILED, now)
            return
        r.attempt += 1
        engine.schedule(retry_at, EventKind.RETRY, on_retry, r)
        if metrics is not None:
            metrics.counter("serving_retries_total").inc()

    # The lazy policy's front-of-queue estimate is refreshed every round.
    lazy = config.policy if isinstance(config.policy, LazyPolicy) else None

    def run_rounds() -> None:
        """Chain scheduling rounds at the current instant while the
        trigger policy keeps firing."""
        while queue and config.policy.should_schedule(queue, engine.now):
            if injector is not None and injector.crashed(engine.now):
                # Server down: no round starts until recovery.  Arrivals
                # and retries due during the outage still land in the
                # queue at their true timestamps.
                engine.run_until(injector.crash_end(engine.now))
                continue
            now = engine.now
            if lazy is not None:
                front = queue.front()
                assert front is not None
                lazy.estimated_exec_s = active_cost_fn()(front.seq_len, 1)
            depth = len(queue)
            taken = queue.drain(config.round_limit)
            if res is not None:
                if degradation is not None:
                    # Pure query — allow() reserves a half-open probe slot
                    # and is only called where work is actually committed.
                    breaker_open = (breaker is not None
                                    and not breaker.probe_available(now))
                    degradation.on_round(depth, breaker_open, now)
                taken = admit(taken, now)
                if not taken:
                    continue
            # The round is priced with the rung chosen for *this* round,
            # so the DP partition optimizes the cost model execution will
            # actually charge.
            batches = scheduler.schedule(taken, active_cost_fn(),
                                         config.max_batch)
            if instrumentation is not None:
                # Pre-drain depth to trace counter and gauge alike.
                instrumentation.queue_depth(now, depth)
                observe_round(batches, now, scheduler.name,
                              metrics=metrics,
                              tracer=tracer if trace_on else None)
            execute(batches)

    def ensure_trigger() -> None:
        """Keep exactly one pending TRIGGER event at the policy's next
        decision time (if that time is real and in the future)."""
        nonlocal trigger_event
        t = config.policy.next_decision_time(queue, engine.now)
        if trigger_event is not None and not trigger_event.cancelled:
            if t == trigger_event.time:
                return
            engine.cancel(trigger_event)
        trigger_event = None
        if t == float("inf") or t <= engine.now:
            # No future decision point: either the policy never fires
            # again (the flush path handles the remainder) or it already
            # declined at ``now`` — the next real event re-evaluates it.
            return
        trigger_event = engine.schedule(t, EventKind.TRIGGER)

    engine.arrivals(arrivals, on_arrival)
    engine.watch(horizon, snapshot_backlog)

    while True:
        run_rounds()
        # Arm the trigger *before* judging idleness: a future policy
        # decision point is a real pending event, not a reason to flush.
        ensure_trigger()
        if not engine.pending:
            if queue:
                if injector is not None and injector.crashed(engine.now):
                    engine.run_until(injector.crash_end(engine.now))
                    continue
                # Policy will never fire again (e.g. degenerate config):
                # flush the remainder so the simulation terminates.
                flush = queue.drain(config.round_limit)
                if res is not None:
                    flush = admit(flush, engine.now)
                if flush:
                    execute(scheduler.schedule(flush, active_cost_fn(),
                                               config.max_batch))
                continue
            break
        # Dispatch the next instant in full (all simultaneous events)
        # before re-evaluating the policy, so a round sees every arrival
        # of its timestamp — the clock only ever lands on event times.
        engine.step_due()

    if backlog_at_horizon is None:
        backlog_at_horizon = 0

    # One is_completed pass; latency, throughput and the completed count
    # are all read off the completed list.
    completed = completed_requests(arrivals)
    window_start = horizon * config.warmup_fraction
    throughput = completed_throughput(completed, window_start, horizon)
    offered_rate = n / horizon
    # Saturated: the server could not keep up with the offered load — the
    # backlog remaining when arrivals stopped takes more than half a second
    # of service capacity to drain.
    drain_seconds = backlog_at_horizon / max(throughput, 1e-9)
    saturated = drain_seconds > 0.5
    resilience_stats: Optional[ResilienceStats] = None
    if res is not None:
        resilience_stats = ResilienceStats(
            retries=retry_state.retries_used if retry_state is not None else 0,
            timed_out=sum(1 for r in arrivals
                          if r.state is RequestState.TIMED_OUT),
            failed=sum(1 for r in arrivals if r.state is RequestState.FAILED),
            shed=sum(1 for r in arrivals if r.state is RequestState.SHED),
            rejected=queue.total_rejected,
            breaker_transitions=(len(breaker.transitions)
                                 if breaker is not None else 0),
            degradation_switches=(len(degradation.switches)
                                  if degradation is not None else 0),
        )
    result = ServingMetrics(
        system=system_name or scheduler.name,
        request_rate=offered_rate,
        response_throughput=throughput,
        latency=LatencyStats.from_completed(completed),
        saturated=saturated,
        completed=len(completed),
        offered=n,
        backlog_at_end=backlog_at_horizon,
        utilization=min(1.0, busy_in_horizon / horizon),
        batches_executed=batches_executed,
        resilience=resilience_stats,
    )
    if metrics is not None:
        metrics.gauge("serving_utilization", system=result.system).set(
            result.utilization
        )
        metrics.gauge("serving_response_throughput", system=result.system).set(
            result.response_throughput
        )
        metrics.gauge("serving_backlog_at_horizon", system=result.system).set(
            backlog_at_horizon
        )
    return result
