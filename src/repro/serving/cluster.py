"""Multi-server serving: a Nexus-style upper-level load balancer.

The paper (§5) assumes "a multi-server environment [where] an upper-level
load balancer as the one in Nexus can ensure that the requests assigned to
each server will not be overloaded".  This module builds that layer: a
cluster of independent GPU servers, each running its own batch scheduler
over its own queue, fed by a routing policy.

Routing policies
----------------
``round_robin``      cycle through servers.
``least_queued``     fewest pending requests.
``least_work``       least estimated pending work (queue cost + remaining
                     busy time) — the Nexus-style choice.
``length_aware``     partition servers by sequence-length band, so each
                     server sees near-homogeneous lengths and padding waste
                     collapses even under naive batching (the clustering
                     effect the DP scheduler achieves within one server).

Resilience (:class:`repro.resilience.ResilienceConfig`): the router skips
replicas that are crashed or whose circuit breaker is open — pending-work
estimates are taken over the healthy set only — and failed attempts
re-enqueue through the retry policy, re-routed on their next try.  With
``resilience=None`` the simulation is byte-identical to the fault-free
code path.

Migration note (event engine): the private ``heapq`` event loop is gone —
arrivals and retry wake-ups are engine events and each server's
batch-and-execute round is a cooperative engine task that sleeps through
each batch's execution window, so completions, breaker records and
failure retries are committed at their true virtual times instead of all
at dispatch.  The round's timeline (per-batch costs, fault multipliers,
crash truncation) is still projected deterministically at dispatch so the
router sees the server's committed busy horizon immediately, exactly as
the eager loop advertised it.

Generation cluster
------------------
:func:`simulate_generation_cluster` is the continuous-batching server's
driver over N copies of its :class:`~repro.serving.continuous.GenReplica`
instead of one — no second decode loop.  Its router sends each arrival
and retry to the least-loaded replica among those neither crashed nor
breaker-open, so every replica feature (chunked prefill, prefix caching,
KV-pressure preemption, crash truncation) holds in the cluster too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Set,
)

from ..engine import Engine, EngineFaultInjector, EventKind

from .metrics import (
    LatencyStats,
    ResilienceStats,
    ServingMetrics,
    response_throughput,
)
from .request import Request, RequestState
from .scheduler import BatchScheduler, CostFn, batch_execution_cost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..memory.kv_arena import KVCacheArena
    from ..observability import MetricsRegistry, Tracer
    from ..resilience import ResilienceConfig
    from .continuous import (ContinuousBatchingConfig, GenRequest,
                             GenServingMetrics)


class RoutingPolicy(str, enum.Enum):
    ROUND_ROBIN = "round_robin"
    LEAST_QUEUED = "least_queued"
    LEAST_WORK = "least_work"
    LENGTH_AWARE = "length_aware"


@dataclass
class ServerState:
    """One GPU server: private queue + busy horizon + its own scheduler."""

    server_id: int
    scheduler: BatchScheduler
    queue: List[Request] = field(default_factory=list)
    busy_until: float = 0.0
    completed: int = 0

    def pending_work_s(self, cost_fn: CostFn, now: float) -> float:
        """Remaining busy time plus a no-batching estimate of the queue."""
        queued = sum(cost_fn(r.seq_len, 1) for r in self.queue)
        return max(0.0, self.busy_until - now) + queued


class ClusterRouter:
    """Assigns arriving requests to servers per the routing policy.

    ``healthy`` (optional) restricts the candidate set to live replicas:
    estimates (queue length, pending work) are computed over that set only,
    so a dead or breaker-open server neither receives work nor skews the
    balance.  When every replica is unhealthy the router falls back to the
    full set — queueing on a downed server beats dropping on the floor.
    """

    def __init__(
        self,
        policy: RoutingPolicy,
        num_servers: int,
        cost_fn: CostFn,
        max_len: int = 512,
    ) -> None:
        if num_servers <= 0:
            raise ValueError(f"num_servers must be positive, got {num_servers}")
        self.policy = policy
        self.num_servers = num_servers
        self.cost_fn = cost_fn
        self.max_len = max_len
        self._next = 0

    def route(self, request: Request, servers: Sequence[ServerState],
              now: float, healthy: Optional[Set[int]] = None) -> int:
        if healthy is not None and (not healthy
                                    or len(healthy) >= self.num_servers):
            healthy = None  # all dead or all alive: no restriction
        candidates = (sorted(healthy) if healthy is not None
                      else range(self.num_servers))
        if self.policy is RoutingPolicy.ROUND_ROBIN:
            for _ in range(self.num_servers):
                chosen = self._next % self.num_servers
                self._next += 1
                if healthy is None or chosen in healthy:
                    return chosen
            return self._next % self.num_servers  # pragma: no cover - unreachable
        if self.policy is RoutingPolicy.LEAST_QUEUED:
            return min(candidates, key=lambda i: len(servers[i].queue))
        if self.policy is RoutingPolicy.LEAST_WORK:
            return min(
                candidates,
                key=lambda i: servers[i].pending_work_s(self.cost_fn, now),
            )
        if self.policy is RoutingPolicy.LENGTH_AWARE:
            band = min(
                self.num_servers - 1,
                request.seq_len * self.num_servers // (self.max_len + 1),
            )
            if healthy is None or band in healthy:
                return band
            # Nearest healthy band (ties -> lower id) keeps length
            # clustering as tight as the outage allows.
            return min(candidates, key=lambda i: (abs(i - band), i))
        raise ValueError(f"unknown routing policy {self.policy}")  # pragma: no cover


@dataclass(frozen=True)
class ClusterMetrics:
    """Cluster-wide outcome plus per-server balance statistics."""

    serving: ServingMetrics
    per_server_completed: List[int]

    @property
    def balance_ratio(self) -> float:
        """max/min completed per server (1.0 = perfectly balanced)."""
        low = min(self.per_server_completed)
        return max(self.per_server_completed) / max(low, 1)


def simulate_cluster(
    requests: Sequence[Request],
    num_servers: int,
    scheduler_factory: Callable[[], BatchScheduler],
    cost_fn: CostFn,
    policy: RoutingPolicy = RoutingPolicy.LEAST_WORK,
    max_batch: int = 20,
    duration_s: Optional[float] = None,
    max_len: int = 512,
    resilience: Optional["ResilienceConfig"] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> ClusterMetrics:
    """Event-driven simulation of a multi-server cluster.

    Each server batches its own queue with its own scheduler whenever it
    goes idle (hungry policy); the router assigns requests on arrival.

    With ``resilience`` set, crashed replicas fail their queued work fast
    (retried elsewhere via the retry policy), per-server circuit breakers
    steer the router away from failing replicas, expired requests are
    dropped at admission, and execution slows under latency spikes.
    """
    if not requests:
        raise ValueError("need at least one request to simulate")
    arrivals = sorted(requests, key=lambda r: r.arrival_s)
    horizon = duration_s if duration_s is not None else arrivals[-1].arrival_s
    if horizon <= 0:
        raise ValueError(f"duration must be positive, got {horizon}")

    servers = [ServerState(i, scheduler_factory()) for i in range(num_servers)]
    router = ClusterRouter(policy, num_servers, cost_fn, max_len=max_len)

    res = resilience
    faults = res.faults if res is not None else None
    # One engine-level injector per replica: the same FaultPlan bound to
    # each server id, so fault queries go through the shared engine code
    # path instead of per-simulator plumbing.
    injectors: Optional[List[EngineFaultInjector]] = None
    if faults is not None and not faults.empty:
        injectors = [EngineFaultInjector(faults, i)
                     for i in range(num_servers)]
    breakers = None
    if res is not None and res.breaker_factory is not None:
        breakers = [res.breaker_factory(i) for i in range(num_servers)]
    retry_state = None
    if res is not None and res.retry is not None:
        from ..resilience.retry import RetryState  # deferred: avoids cycle

        retry_state = RetryState(res.retry)

    engine = Engine()
    backlog_at_horizon: Optional[int] = None

    def handle_failure(r: Request, server_id: int, now: float) -> None:
        """One attempt failed on ``server_id``: retry elsewhere or give up."""
        if breakers is not None:
            breakers[server_id].record(False, now)
        retry_at = (retry_state.next_retry_at(r, now)
                    if retry_state is not None else None)
        if retry_at is None:
            r.resolve(RequestState.FAILED)
            if metrics is not None:
                metrics.counter("cluster_requests_dropped_total",
                                reason="failed").inc()
            return
        r.attempt += 1
        engine.schedule(retry_at, EventKind.RETRY, on_retry, r)
        if metrics is not None:
            metrics.counter("cluster_retries_total").inc()

    def run_server(server: ServerState, now: float) -> None:
        """If idle with work queued, batch the whole queue and commit a
        round: the timeline is projected at dispatch (so routing sees the
        busy horizon immediately), then an engine task walks it, booking
        completions and failures at their true virtual times."""
        if server.busy_until > now or not server.queue:
            return
        sid = server.server_id
        if injectors is not None and injectors[sid].crashed(now):
            # Crashed replica: fail the queue fast and wake at recovery.
            failing, server.queue = server.queue, []
            for r in failing:
                handle_failure(r, sid, now)
            recover = injectors[sid].crash_end(now)
            server.busy_until = recover
            engine.schedule(recover, EventKind.WAKE,
                            lambda _ev, s=server: run_server(s, engine.now))
            return
        taken, server.queue = server.queue, []
        if res is not None:
            alive: List[Request] = []
            for r in taken:
                if r.expired(now):
                    r.resolve(RequestState.TIMED_OUT)
                    if metrics is not None:
                        metrics.counter("cluster_requests_dropped_total",
                                        reason="timed_out").inc()
                else:
                    alive.append(r)
            taken = alive
            if not taken:
                return
        batches = server.scheduler.schedule(taken, cost_fn, max_batch)
        # Project the round's deterministic timeline: per-batch windows
        # under the fault plan's latency multipliers, truncated at the
        # first crash.  Costs and fault draws depend only on timestamps,
        # so the projection equals what execution will observe.
        plan: List[tuple] = []
        cursor = now
        crashed_at: Optional[float] = None
        for batch in batches:
            exec_s = batch_execution_cost(batch, cost_fn)
            if injectors is not None:
                exec_s = injectors[sid].stretch(exec_s, cursor)
                crashed_at = injectors[sid].crashed_during(cursor,
                                                           cursor + exec_s)
            if crashed_at is not None:
                break
            plan.append((batch, cursor, cursor + exec_s))
            cursor = cursor + exec_s
        doomed = batches[len(plan):]
        if crashed_at is not None:
            server.busy_until = injectors[sid].crash_end(crashed_at)
        else:
            server.busy_until = cursor

        def round_task():
            for batch, started, ends in plan:
                for r in batch.requests:
                    r.start_s = started
                yield ends - engine.now
                for r in batch.requests:
                    if injectors is not None and injectors[sid].attempt_fails(
                            r.req_id, r.attempt, started):
                        handle_failure(r, sid, engine.now)
                        continue
                    r.resolve(RequestState.COMPLETED, engine.now,
                              faults=(injectors[sid]
                                      if injectors is not None else None))
                    server.completed += 1
                    if breakers is not None:
                        breakers[sid].record(True, engine.now)
            if crashed_at is not None:
                # The crash takes the rest of the round down; sleep out
                # the outage before going idle again.
                if crashed_at > engine.now:
                    yield crashed_at - engine.now
                for later in doomed:
                    for r in later.requests:
                        handle_failure(r, sid, crashed_at)
                if server.busy_until > engine.now:
                    yield server.busy_until - engine.now
            run_server(server, engine.now)

        engine.spawn(round_task(), name=f"server{sid}-round")

    def healthy_set(now: float) -> Optional[Set[int]]:
        if res is None:
            return None
        healthy = {
            i for i in range(num_servers)
            if not (injectors is not None and injectors[i].crashed(now))
            # probe_available is the pure query; the reserving allow()
            # runs only when work is committed to the chosen replica.
            and (breakers is None or breakers[i].probe_available(now))
        }
        return healthy

    def commit_route(request: Request, now: float) -> int:
        """Route and commit: reserves the half-open probe slot (if any)
        of the chosen replica at the moment work is actually sent."""
        target = router.route(request, servers, now,
                              healthy=healthy_set(now))
        if breakers is not None:
            breakers[target].allow(now)
        return target

    def on_arrival(event) -> None:
        request = event.payload
        now = engine.now
        target = commit_route(request, now)
        servers[target].queue.append(request)
        run_server(servers[target], now)

    def on_retry(event) -> None:
        request = event.payload
        now = engine.now
        target = commit_route(request, now)
        servers[target].queue.append(request)
        run_server(servers[target], now)

    def snapshot_backlog() -> None:
        # At the first dispatch crossing the horizon, however many
        # arrivals remain; requests offered after the horizon are not
        # backlog of the measured load.
        nonlocal backlog_at_horizon
        backlog_at_horizon = sum(1 for s in servers for r in s.queue
                                 if r.arrival_s <= horizon)

    engine.arrivals(arrivals, on_arrival)
    engine.watch(horizon, snapshot_backlog)
    engine.run()

    if backlog_at_horizon is None:
        backlog_at_horizon = 0

    throughput = response_throughput(arrivals, horizon * 0.1, horizon)
    # Cluster servers drain their queue into in-flight batches immediately,
    # so queued-request counts understate pressure; saturation is judged by
    # how long past the arrival horizon the cluster needs to finish.
    last_completion = max(
        (r.completion_s for r in arrivals if r.completion_s is not None),
        default=0.0,
    )
    resilience_stats: Optional[ResilienceStats] = None
    if res is not None:
        resilience_stats = ResilienceStats(
            retries=retry_state.retries_used if retry_state is not None else 0,
            timed_out=sum(1 for r in arrivals
                          if r.state is RequestState.TIMED_OUT),
            failed=sum(1 for r in arrivals if r.state is RequestState.FAILED),
            shed=sum(1 for r in arrivals if r.state is RequestState.SHED),
            breaker_transitions=(sum(len(b.transitions) for b in breakers)
                                 if breakers is not None else 0),
        )
    serving = ServingMetrics(
        system=f"cluster[{policy.value}x{num_servers}]",
        request_rate=len(arrivals) / horizon,
        response_throughput=throughput,
        latency=LatencyStats.from_requests(arrivals),
        saturated=(last_completion - horizon) > 0.5,
        completed=sum(1 for r in arrivals if r.is_completed),
        offered=len(arrivals),
        backlog_at_end=backlog_at_horizon,
        resilience=resilience_stats,
    )
    if metrics is not None:
        metrics.gauge("cluster_response_throughput").set(throughput)
        for s in servers:
            metrics.gauge("cluster_server_completed",
                          server=str(s.server_id)).set(s.completed)
        if resilience_stats is not None:
            metrics.counter("cluster_timed_out_total").inc(
                resilience_stats.timed_out)
            metrics.counter("cluster_failed_total").inc(
                resilience_stats.failed)
    return ClusterMetrics(
        serving=serving,
        per_server_completed=[s.completed for s in servers],
    )


# ---------------------------------------------------------------------------
# Generation cluster: the single server's replica, N times, behind a router
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenClusterMetrics:
    """Generation-cluster outcome: serving metrics plus balance and the
    end-of-run KV leak audit (must be empty — no region outlives its
    request across crashes and preemptions)."""

    serving: "GenServingMetrics"
    per_replica_completed: List[int]
    kv_leaks: List[str]

    @property
    def balance_ratio(self) -> float:
        low = min(self.per_replica_completed)
        return max(self.per_replica_completed) / max(low, 1)


def simulate_generation_cluster(
    requests: Sequence["GenRequest"],
    num_replicas: int,
    runtime,
    arena_factory: Callable[[int], "KVCacheArena"],
    duration_s: Optional[float] = None,
    resilience: Optional["ResilienceConfig"] = None,
    config: Optional["ContinuousBatchingConfig"] = None,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    system_name: str = "Turbo-Gen-Cluster",
) -> GenClusterMetrics:
    """Continuous-batching replicas behind a least-loaded router.

    Each replica is a :class:`~repro.serving.continuous.GenReplica` — the
    same replica :class:`~repro.serving.ContinuousBatchingServer` drives —
    with ``config`` (chunked prefill, prefix caching, preemption, slot
    cap) and its own :class:`KVCacheArena` from ``arena_factory``.  The
    router sends each arrival and retry to the least-loaded replica among
    those neither crashed nor breaker-open.  With ``resilience`` set,
    faults reach every replica through its own
    :class:`~repro.engine.EngineFaultInjector`:

    * latency spikes stretch the replica's prefill/decode windows;
    * a replica crash loses every in-flight pass and KV region
      (``arena.preempt``) and fails queued work fast while another
      replica is up — all of it re-enters through the retry path and is
      re-routed, where the prefix (prompt + tokens generated before the
      crash) is recomputed and charged honestly (``tokens_recomputed``);
    * transient failures strike at the prefill commit;
    * per-replica breakers record crashes and failed attempts and steer
      the router away from failing replicas.
    """
    if not requests:
        raise ValueError("need at least one request to simulate")
    if num_replicas <= 0:
        raise ValueError(f"num_replicas must be positive, got {num_replicas}")
    from .continuous import (ContinuousBatchingConfig, GenReplica,
                             _GenDriver, _GenLoopBase)

    config = config or ContinuousBatchingConfig()
    host = _GenLoopBase(runtime, tracer, metrics, system_name,
                        config.warmup_fraction)
    replicas = [GenReplica(i, runtime, arena_factory(i), config)
                for i in range(num_replicas)]
    serving = _GenDriver(host, replicas, resilience).serve(requests,
                                                           duration_s)
    # Leak audit: at end of run no region may outlive its request.
    kv_leaks: List[str] = []
    for rep in replicas:
        kv_leaks.extend(rep.arena.verify(live_req_ids=[]))
    return GenClusterMetrics(
        serving=serving,
        per_replica_completed=[rep.completed for rep in replicas],
        kv_leaks=kv_leaks,
    )
