"""Multi-server serving: the one serving driver over N replicas.

The paper (§5) assumes "a multi-server environment [where] an upper-level
load balancer as the one in Nexus can ensure that the requests assigned to
each server will not be overloaded".  This module builds that layer with
no second serving loop: both functions are the one serving driver
(:class:`repro.serving.driver.Driver`) over N replicas —
:func:`simulate_cluster` over copies of
:func:`~repro.serving.simulate_serving`'s
:class:`~repro.serving.BatchReplica`, and
:func:`simulate_generation_cluster` over copies of the
continuous-batching server's
:class:`~repro.serving.continuous.GenReplica`.  Beside other replicas the
driver routes through the one :class:`~repro.serving.router.Router`
(health and breaker filter, the four
:class:`~repro.serving.router.RoutingPolicy` values, the half-open probe
commit), so every replica rule — per-instant rounds, dispatch-time
deadlines, crash truncation, queue capacity — holds in the cluster too.
A one-replica cluster has no router and equals the single server.

Resilience (:class:`repro.resilience.ResilienceConfig`): the router skips
replicas that are crashed or whose circuit breaker is open, a crashed
replica fails its queued work fast while another one is up, and failed
attempts re-enter through the retry policy, re-routed on their next try.
With ``resilience=None`` the simulation is byte-identical to the
fault-free code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
)

from .continuous import (ContinuousBatchingConfig, GenReplica, GenRequest,
                         GenServingMetrics, _GenDriver)
from .metrics import ServingMetrics
from .request import Request
from .router import RoutingPolicy
from .scheduler import BatchScheduler, CostFn
from .server import ServingConfig, _BatchDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.kv_arena import KVCacheArena
    from ..observability import MetricsRegistry, Tracer
    from ..resilience import ResilienceConfig


def balance_ratio(completed: Sequence[int]) -> float:
    """max/min completed per replica (1.0 = perfectly balanced)."""
    return max(completed) / max(min(completed), 1)


@dataclass(frozen=True)
class ClusterMetrics:
    """Cluster-wide outcome plus per-server balance statistics."""

    serving: ServingMetrics
    per_server_completed: List[int]

    @property
    def balance_ratio(self) -> float:
        return balance_ratio(self.per_server_completed)


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
    goes idle (hungry policy); the router assigns requests on arrival and
    retry.  With ``resilience`` set, crashed replicas fail their queued
    work fast (retried elsewhere via the retry policy), per-server circuit
    breakers steer the router away from failing replicas, expired
    requests are dropped at admission and at dispatch, a bounded queue
    sheds, and execution slows under latency spikes.

    ``metrics`` receives the driver's ``serving_*``, ``scheduler_*`` and
    ``engine_*`` series, labelled ``system="cluster[<policy>x<n>]"``,
    plus completions per server.
    """
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    driver = _BatchDriver(
        [scheduler_factory() for _ in range(num_servers)], cost_fn,
        ServingConfig(max_batch=max_batch),
        f"cluster[{policy.value}x{num_servers}]", resilience,
        metrics=metrics, policy=policy, max_len=max_len)
    serving = driver.serve(requests, duration_s)
    return ClusterMetrics(
        serving=serving,
        per_server_completed=[rep.completed for rep in driver.replicas])


# ---------------------------------------------------------------------------
# Generation cluster: the single server's replica, N times, behind a router
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenClusterMetrics:
    """Generation-cluster outcome: serving metrics plus balance and the
    end-of-run KV leak audit (must be empty — no region outlives its
    request across crashes and preemptions)."""

    serving: GenServingMetrics
    per_replica_completed: List[int]
    kv_leaks: List[str]

    @property
    def balance_ratio(self) -> float:
        return balance_ratio(self.per_replica_completed)


def simulate_generation_cluster(
    requests: Sequence[GenRequest],
    num_replicas: int,
    runtime,
    arena_factory: Callable[[int], "KVCacheArena"],
    duration_s: Optional[float] = None,
    resilience: Optional["ResilienceConfig"] = None,
    config: Optional[ContinuousBatchingConfig] = None,
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
    if num_replicas <= 0:
        raise ValueError(f"num_replicas must be positive, got {num_replicas}")
    config = config or ContinuousBatchingConfig()
    replicas = [GenReplica(i, runtime, arena_factory(i), config)
                for i in range(num_replicas)]
    serving = _GenDriver(replicas, tracer, metrics, system_name,
                         resilience).serve(requests, duration_s)
    # Leak audit: at end of run no region may outlive its request.
    kv_leaks: List[str] = []
    for rep in replicas:
        kv_leaks.extend(rep.arena.verify(live_req_ids=[]))
    return GenClusterMetrics(
        serving=serving,
        per_replica_completed=[rep.completed for rep in replicas],
        kv_leaks=kv_leaks,
    )
