"""The one serving driver under both replica kinds.

The paper's §5 serving loop is a message queue feeding a batch scheduler
on each GPU, and a Nexus-style balancer repeats that loop behind it.
:class:`Driver` is the skeleton of that loop for both replica kinds:
``_BatchDriver`` (:mod:`repro.serving.server`) runs encoder
:class:`~repro.serving.server.BatchReplica` replicas and ``_GenDriver``
(:mod:`repro.serving.continuous`) runs generation
:class:`~repro.serving.continuous.GenReplica` replicas.  The skeleton
holds the :class:`~repro.engine.Engine`, the retry state, each replica's
fault injector and circuit breaker, the router, the arrival and retry
events, terminal bookkeeping, the one dispatch loop (:meth:`Driver.loop`), how a replica starts and how its
busy windows run, and the finalisation.  A kind supplies its ingest rule
(:meth:`Driver.ingest`), its trace track names (:meth:`Driver.name_tracks`)
and its extra metric fields (:meth:`Driver.result`).

Each of these questions has one rule, the same for both kinds:

* **backlog** — a request is backlog when it was offered by the
  horizon, was not shed, and its service had not begun by the horizon
  (``start_s`` unset or later).  It is counted once, after the run, so
  a batch starting exactly at the horizon is not backlog;
* **retry** — a failed attempt re-enters after the retry policy's
  backoff, re-routed; with no policy, or when the policy refuses, it
  fails for good.  KV-pressure preemption is not a failure: with no
  policy the victim re-enters at once;
* **routing** — a lone replica has no router.  Beside other replicas
  the :class:`~repro.serving.router.Router` picks one and commits its
  breaker's half-open probe;
* **windows** — a replica's ``run`` generator yields the absolute end
  of each busy window.  A lone replica cannot overlap with another, so
  its windows run inline (``engine.run_until``); beside other replicas
  each replica is an ``Engine.spawn`` task woken at each window end.
  Both dispatch in the same order and count one WAKE per window.  A
  window is a batch, a prefill, a chunked round, a crash outage or a
  generation decode run, whose steps ending strictly before the
  engine's next live event commit inside it without a window of their
  own;
* **counters** — each serving event is counted once, in a plain tally
  of the run; the metrics, and the ``ResilienceStats`` of any run with a
  resilience config, are built from those tallies and the terminal
  request list.  With a registry attached, the run adds each tally
  above zero to its counter when it ends — for both kinds
  ``serving_requests_{completed,dropped,ingested}_total``,
  ``serving_{attempt_failures,retries,batches_executed}_total`` and
  ``engine_faults_total``, with the gauges
  ``serving_{response_throughput,utilization,backlog_at_horizon}`` and,
  beside other replicas, ``cluster_server_completed``; the kind's
  :meth:`Driver.result` adds its own.  A request is ingested once per
  arrival and once per RETRY dispatch.  Only
  ``engine_events_dispatched_total`` counts as it happens, by a
  dispatch hook on the engine;
* **wake** — queuing work on an idle replica schedules its one pending
  WAKE at ``now``.  That WAKE sorts after every ARRIVAL and RETRY of the
  instant, so the replica's first round or admission sees them all.  A
  busy replica picks up its queue when a window ends.  A lazy encoder
  replica that ends its run with work queued arms one TRIGGER, its
  policy's decision timer, which starts it then.  Beside other replicas
  the WAKE or TRIGGER starts the replica inside its dispatch; a lone
  replica starts once that dispatch completes, so its inline windows never
  nest inside another event's.  A run whose engine drains with work still
  queued (a trigger policy that never fires) raises ``RuntimeError``.
"""

from __future__ import annotations

from collections import Counter
from typing import (TYPE_CHECKING, Callable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..engine import Engine, EngineFaultInjector, Event, EventKind
from ..observability import NULL_TRACER, MetricsRegistry, Tracer
from .metrics import LatencyStats, ResilienceStats, ServingMetrics
from .request import Request, RequestState, arrival_window
from .router import Router, RoutingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (resilience -> serving)
    from ..resilience import ResilienceConfig


def publish_tally(metrics: MetricsRegistry, name: str, value: float,
                  **labels: str) -> None:
    """Add a run's tally to the counter ``name``, which is created only
    when the tally is above zero."""
    if value:
        metrics.counter(name, **labels).inc(value)


def dispatch_counter(metrics: MetricsRegistry) -> Callable[[Event], None]:
    """A dispatch hook counting ``engine_events_dispatched_total`` by
    event kind."""
    def count(event: Event) -> None:
        metrics.counter("engine_events_dispatched_total",
                        kind=event.kind.name.lower()).inc()
    return count


def tally_requests(requests: Sequence[Request], window_start_s: float,
                   horizon_s: float) -> Tuple[List[Request], List[float],
                                              int, int]:
    """One pass over a finished run's requests: the completed ones (the
    ``is_completed`` rule), their latencies in ms, how many of them
    complete inside the closed throughput window ``[window_start_s,
    horizon_s]``, and the horizon backlog (the driver's backlog rule).

    The same as :func:`~repro.serving.metrics.completed_requests`, the
    latency samples of :meth:`LatencyStats.from_completed`,
    :func:`~repro.serving.metrics.completed_throughput`'s count and the
    backlog sum, each its own pass, would give.
    """
    if horizon_s <= window_start_s:
        raise ValueError(f"empty window [{window_start_s}, {horizon_s}]")
    completed_state = RequestState.COMPLETED
    pending = RequestState.PENDING
    shed = RequestState.SHED
    completed: List[Request] = []
    latencies_ms: List[float] = []
    in_window = backlog = 0
    for r in requests:
        state = r.state
        end = r.completion_s
        if end is not None and (state is completed_state
                                or state is pending):
            completed.append(r)
            latencies_ms.append((end - r.arrival_s) * 1e3)
            if window_start_s <= end <= horizon_s:
                in_window += 1
        # Queue depth alone would undercount the backlog: a round drains
        # the whole queue into batches long before they execute.
        if r.arrival_s <= horizon_s and state is not shed:
            start = r.start_s
            if start is None or start > horizon_s:
                backlog += 1
    return completed, latencies_ms, in_window, backlog


class Replica:
    """One GPU of either kind, as the driver sees it: a ``server_id``, the
    per-run state :meth:`bind` resets, and a ``run`` generator yielding
    the end of each busy window."""

    server_id: int

    def bind(self, driver: Optional["Driver"],
             faults: Optional[EngineFaultInjector], breaker) -> None:
        """Attach to one run and reset the per-run state."""
        self.driver = driver
        self.faults = faults
        self.breaker = breaker
        #: This replica's GPU trace track: ``gpu`` when it serves alone,
        #: ``gpu.r{server_id}`` beside other replicas.
        self.tid = ("gpu" if driver is None or driver.inline
                    else f"gpu.r{self.server_id}")
        self.running = False
        self.completed = 0

    def schedule_wake(self) -> None:
        """Work was queued here: an idle replica schedules its one WAKE at
        ``now`` (the driver's ``wake`` rule)."""
        if not self.running:
            self.running = True
            engine = self.driver.engine
            engine.schedule(engine.now, EventKind.WAKE, self.driver.wake,
                            self)


class Driver:
    """One serving run over a set of replicas of one kind (see the module
    docstring for what a kind supplies)."""

    def __init__(self, replicas: Sequence[Replica], system: str,
                 warmup_fraction: float,
                 resilience: Optional["ResilienceConfig"],
                 tracer: Optional[Tracer],
                 metrics: Optional[MetricsRegistry],
                 policy: RoutingPolicy = RoutingPolicy.LEAST_QUEUED,
                 max_len: int = 512) -> None:
        self.replicas = list(replicas)
        self.system = system
        self.warmup_fraction = warmup_fraction
        self.res = resilience
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_on = self.tracer.enabled
        self.metrics = metrics
        self.observed = self.trace_on or metrics is not None
        self.engine = Engine()
        if metrics is not None:
            self.engine.add_dispatch_hook(dispatch_counter(metrics))
        self.retry_state = None
        if resilience is not None and resilience.retry is not None:
            # Only resilient runs need it, and their ResilienceConfig has
            # already imported it.
            from ..resilience.retry import RetryState

            self.retry_state = RetryState(resilience.retry)
        self.inline = len(self.replicas) == 1
        plan = breakers = None
        if resilience is not None:
            if not resilience.faults.empty:
                plan = resilience.faults
            breakers = resilience.breaker_factory
        for rep in self.replicas:
            rep.bind(self,
                     None if plan is None
                     else EngineFaultInjector(plan, rep.server_id),
                     None if breakers is None else breakers(rep.server_id))
        self.router = (None if self.inline
                       else Router(self.replicas, policy, max_len=max_len))
        self.horizon = 0.0
        self.arrivals: List[Request] = []
        #: The lone replica a WAKE or TRIGGER just started.
        self._woken: Optional[Replica] = None
        #: Busy seconds inside the horizon, summed over the replicas.
        self.busy_s = 0.0
        #: Failed attempts, requests the response cache answered, arrivals
        #: a full queue shed, and RETRY dispatches.
        self.attempt_failures = self.cache_hits = 0
        self.rejected = self.reentries = 0

    # -- what a replica kind supplies -------------------------------------

    def ingest(self, r: Request, now: float, arrival: bool) -> None:
        """Route and queue ``r``: a new arrival, or a retry re-entering."""
        raise NotImplementedError

    def name_tracks(self) -> None:
        """Name the replicas' trace tracks (called only when tracing)."""
        raise NotImplementedError

    def result(self, done: List[Request],
               **common: object) -> ServingMetrics:
        """The run's metrics: the ``common`` fields plus the kind's own,
        given the completed requests ``done``."""
        raise NotImplementedError

    def request_args(self, r: Request) -> dict:
        """Attributes of a request's trace span."""
        return {"seq_len": r.seq_len}

    # -- request bookkeeping ----------------------------------------------

    def drop(self, r: Request, state: RequestState, now: float) -> None:
        """Terminal non-completion (timeout / failure / shed) bookkeeping."""
        r.resolve(state)
        if self.trace_on:
            self.tracer.async_end("request", now, r.req_id, cat="request",
                                  path=state.value)

    def fail(self, r: Request, rep: Replica, now: float) -> None:
        """One attempt failed on ``rep``: its breaker learns, and ``r``
        retries or, with no retry policy, fails for good."""
        if rep.breaker is not None:
            rep.breaker.record(False, now)
        self.attempt_failures += 1
        if self.retry_state is None:
            self.drop(r, RequestState.FAILED, now)
        else:
            self.retry(r, now)

    def retry(self, r: Request, now: float) -> None:
        """Re-enter ``r`` after the policy's backoff, or resolve it FAILED
        when the policy refuses (attempts or budget exhausted, or the
        backoff lands past its deadline)."""
        retry_at = self.retry_state.next_retry_at(r, now)
        if retry_at is None:
            self.drop(r, RequestState.FAILED, now)
            return
        r.attempt += 1
        self.engine.schedule(retry_at, EventKind.RETRY, self._on_retry, r)

    @property
    def retries(self) -> int:
        """Retries the policy scheduled so far (0 without a policy)."""
        return 0 if self.retry_state is None else self.retry_state.retries_used

    @property
    def failures_injected(self) -> int:
        """Transient attempt failures the fault plan injected so far."""
        return sum(rep.faults.failures_injected for rep in self.replicas
                   if rep.faults is not None)

    # -- events -----------------------------------------------------------

    def route(self, r: Request, now: float) -> Replica:
        """The lone replica, or the router's pick beside other replicas."""
        if self.router is None:
            return self.replicas[0]
        return self.router.route(r, now)

    def _on_arrival(self, event) -> None:
        """An offered request enters the system at its true timestamp."""
        r = event.payload
        if self.trace_on:
            self.tracer.async_begin("request", r.arrival_s, r.req_id,
                                    cat="request", **self.request_args(r))
        self.ingest(r, self.engine.now, True)

    def _on_retry(self, event) -> None:
        """A failed or preempted attempt re-enters, re-routed."""
        r = event.payload
        now = self.engine.now
        self.reentries += 1
        if self.trace_on:
            self.tracer.async_instant("request", now, r.req_id,
                                      cat="request", stage="requeue",
                                      attempt=r.attempt)
        self.ingest(r, now, False)

    def wake(self, event) -> None:
        """Start ``event.payload``, the replica a WAKE or TRIGGER found idle:
        beside other replicas at once; alone, :meth:`loop` starts it once
        this dispatch completes."""
        rep = event.payload
        if self.inline:
            self._woken = rep
        else:
            self.start(rep, rep.run())

    # -- the run ----------------------------------------------------------

    def start(self, rep: Replica, windows: Iterator[float]) -> None:
        """Run ``rep``'s busy windows: inline when it serves alone, else
        as an engine task woken at each window end."""
        if self.inline:
            run_until = self.engine.run_until
            for end in windows:
                run_until(end)
        else:
            self.engine.spawn(windows)

    def loop(self) -> None:
        """Dispatch the whole run, one event at a time; a lone replica
        runs each busy period right after the event that woke it."""
        step = self.engine.step
        while step() is not None:
            rep = self._woken
            if rep is not None:
                self._woken = None
                self.start(rep, rep.run())
        stuck = [rep.server_id for rep in self.replicas if rep.queue]
        if stuck:
            raise RuntimeError(
                f"replicas {stuck} ended the run with work queued: "
                "their trigger policy never fired")

    def serve(self, requests: Sequence[Request],
              duration_s: Optional[float]) -> ServingMetrics:
        """Serve ``requests`` to completion; ``duration_s`` is the
        offered-load horizon (the last arrival when ``None``)."""
        self.arrivals, self.horizon = arrival_window(requests, duration_s)
        if self.trace_on:
            self.name_tracks()
        self.engine.arrivals(self.arrivals, self._on_arrival)
        self.loop()
        return self._finalize()

    def _finalize(self) -> ServingMetrics:
        arrivals = self.arrivals
        horizon = self.horizon
        window_start = horizon * self.warmup_fraction
        completed, latencies_ms, in_window, backlog = tally_requests(
            arrivals, window_start, horizon)
        throughput = in_window / (horizon - window_start)
        utilization = min(1.0, self.busy_s / (horizon * len(self.replicas)))
        res = self.res
        metrics = self.metrics
        # Only a resilient or observed run reads the terminal states.
        states = (Counter(r.state for r in arrivals)
                  if res is not None or metrics is not None else None)
        stats = None if res is None else ResilienceStats(
            retries=self.retries,
            timed_out=states[RequestState.TIMED_OUT],
            failed=states[RequestState.FAILED],
            shed=states[RequestState.SHED],
            rejected=self.rejected,
            breaker_transitions=sum(len(rep.breaker.transitions)
                                    for rep in self.replicas
                                    if rep.breaker is not None),
            degradation_switches=(0 if res.degradation is None
                                  else len(res.degradation.switches)))
        result = self.result(
            completed,
            system=self.system,
            request_rate=len(arrivals) / horizon,
            response_throughput=throughput,
            latency=LatencyStats.from_values(latencies_ms),
            # Saturated: the backlog left when arrivals stopped takes more
            # than half a second of service capacity to drain.
            saturated=backlog / max(throughput, 1e-9) > 0.5,
            completed=len(completed),
            offered=len(arrivals),
            backlog_at_end=backlog,
            utilization=utilization,
            resilience=stats,
        )
        if metrics is not None:
            for name, value in (("serving_response_throughput", throughput),
                                ("serving_utilization", utilization),
                                ("serving_backlog_at_horizon", backlog)):
                metrics.gauge(name, system=self.system).set(value)
            for path, n in (("model", len(completed) - self.cache_hits),
                            ("cache", self.cache_hits)):
                publish_tally(metrics, "serving_requests_completed_total",
                              n, path=path)
            for state in (RequestState.TIMED_OUT, RequestState.FAILED,
                          RequestState.SHED):
                publish_tally(metrics, "serving_requests_dropped_total",
                              states[state], reason=state.value)
            for name, n in (
                    ("serving_requests_ingested_total",
                     len(arrivals) + self.reentries),
                    ("serving_batches_executed_total",
                     result.batches_executed),
                    ("serving_attempt_failures_total", self.attempt_failures),
                    ("serving_retries_total", self.retries)):
                publish_tally(metrics, name, n)
            stretches = sum(rep.faults.stretches for rep in self.replicas
                            if rep.faults is not None)
            for kind, n in (("stretch", stretches),
                            ("attempt_failure", self.failures_injected)):
                publish_tally(metrics, "engine_faults_total", n, kind=kind)
            if not self.inline:
                for rep in self.replicas:
                    metrics.gauge("cluster_server_completed",
                                  server=str(rep.server_id)).set(
                        rep.completed)
        return result
