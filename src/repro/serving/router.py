"""The one router in front of every multi-replica serving loop.

The paper (§5) assumes "a multi-server environment [where] an upper-level
load balancer as the one in Nexus can ensure that the requests assigned to
each server will not be overloaded".  :class:`Router` is that balancer for
both replica kinds — the encoder :class:`~repro.serving.BatchReplica` and
the generation :class:`~repro.serving.continuous.GenReplica`:

* **health** — a replica that is crashed, or whose circuit breaker would
  refuse work (``probe_available``, the pure query), is skipped; when
  every replica is unhealthy the full set is used instead (queueing on a
  downed server beats dropping on the floor);
* **policy** — one of the four :class:`RoutingPolicy` values picks among
  the candidates;
* **commit** — the chosen replica's breaker reserves its half-open probe
  slot (``allow``) at the moment work is actually sent there.

Routing policies
----------------
``round_robin``      cycle through replicas.
``least_queued``     smallest ``load`` (queued, plus decoding for
                     generation replicas).
``least_work``       least estimated pending work, ``pending_work_s``
                     (remaining busy time + a no-batching estimate of the
                     queue) — the Nexus-style choice.
``length_aware``     partition replicas by sequence-length band, so each
                     sees near-homogeneous lengths and padding waste
                     collapses even under naive batching (the clustering
                     effect the DP scheduler achieves within one server).

A replica only needs ``faults`` (an
:class:`~repro.engine.EngineFaultInjector` or ``None``), ``breaker`` and
``load``; ``least_work`` also reads ``pending_work_s(now)``.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

from .request import Request


class RoutingPolicy(str, enum.Enum):
    ROUND_ROBIN = "round_robin"
    LEAST_QUEUED = "least_queued"
    LEAST_WORK = "least_work"
    LENGTH_AWARE = "length_aware"


def crashed(replica, now: float) -> bool:
    """Is ``replica`` inside one of its fault plan's crash windows?"""
    return replica.faults is not None and replica.faults.crashed(now)


def healthy(replica, now: float) -> bool:
    """Not crashed, and its breaker (if any) would let work through."""
    return not crashed(replica, now) and (
        replica.breaker is None or replica.breaker.probe_available(now))


def queue_fails_fast(replicas: Sequence, replica, now: float,
                     recovery_s: float) -> bool:
    """Does work queued on ``replica``, down from ``now`` until
    ``recovery_s``, fail fast to the retry path?  Yes while any other
    replica is outside a crash window, or when the outage never ends
    (``recovery_s`` is ``inf``); otherwise it waits out the outage."""
    return recovery_s == math.inf or any(
        o is not replica and not crashed(o, now) for o in replicas)


class Router:
    """Health-, breaker- and policy-aware replica selection."""

    def __init__(self, replicas: Sequence,
                 policy: RoutingPolicy = RoutingPolicy.LEAST_QUEUED,
                 max_len: int = 512) -> None:
        if not replicas:
            raise ValueError("a router needs at least one replica")
        self.replicas = list(replicas)
        self.policy = policy
        self.max_len = max_len
        self._next = 0

    def route(self, request: Request, now: float):
        """Pick the replica for ``request`` and commit work to it."""
        target = self.replicas[self._select(request, now)]
        breaker = target.breaker
        if breaker is not None:
            breaker.allow(now)
        return target

    def _select(self, request: Request, now: float) -> int:
        reps = self.replicas
        n = len(reps)
        live = [i for i in range(n) if healthy(reps[i], now)]
        # All alive or all dead: no restriction.
        candidates = live if 0 < len(live) < n else range(n)
        policy = self.policy
        if policy is RoutingPolicy.ROUND_ROBIN:
            while True:
                chosen = self._next % n
                self._next += 1
                if chosen in candidates:
                    return chosen
        if policy is RoutingPolicy.LEAST_QUEUED:
            return min(candidates, key=lambda i: reps[i].load)
        if policy is RoutingPolicy.LEAST_WORK:
            return min(candidates, key=lambda i: reps[i].pending_work_s(now))
        band = min(n - 1, request.seq_len * n // (self.max_len + 1))
        # Nearest candidate band (ties -> lower id) keeps length
        # clustering as tight as the outage allows.
        return min(candidates, key=lambda i: (abs(i - band), i))
