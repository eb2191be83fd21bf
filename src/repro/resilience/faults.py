"""Deterministic, seeded fault injection (the chaos half of resilience).

A :class:`FaultPlan` is a *schedule* of adverse conditions, not a random
process: every fault is a time window, and the only randomness — whether a
given request attempt hits a transient failure — is derived by hashing
``(seed, req_id, attempt, server_id)``, so a plan replayed against the
same workload produces bit-identical outcomes regardless of evaluation
order.  An empty plan answers every query with the identity (multiplier
1.0, no crash, no failure) and is safe to thread through hot paths.

Fault taxonomy
--------------
:class:`LatencySpike`      server executes batches ``multiplier`` x slower
                           during the window (degraded clocks, thermal
                           throttling, a noisy neighbour).
:class:`KernelStall`       the same, one level down: individual simulated
                           kernels on a :class:`repro.gpusim.Stream` run
                           slower (hooked via ``Stream.stall_fn``).
:class:`TransientFailures` each request attempt finishing in the window
                           fails independently with ``failure_rate``
                           (ECC error, OOM, RPC reset).
:class:`ServerCrash`       the server is down for the whole window: queued
                           and in-flight work fails fast, new work must be
                           routed elsewhere, the server recovers at
                           ``end_s``.

Migration note (engine-level injection)
---------------------------------------
A :class:`FaultPlan` used to be threaded through each simulator's private
loop by hand (``simulate_serving`` multiplied batch costs inline,
``simulate_cluster`` projected crash windows itself, the generation
servers saw no faults at all).  Plans are now *bound* to a server through
:class:`repro.engine.EngineFaultInjector`: the serving driver binds one
injector to each replica, the replica stretches its busy windows under
active spikes/stalls through it, and crash windows and transient-failure
verdicts are queried through the same object at dispatch points.  This module remains the pure *schedule*; the injector
is the single place schedules become engine effects, so every
engine-hosted server (one-shot, continuous batching, Ebird, cluster)
experiences faults through one code path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple


def _check_window(start_s: float, end_s: float) -> None:
    # Written so that NaN fails; ``end_s = inf`` is a fault that never clears.
    if not 0 <= start_s < end_s:
        raise ValueError(f"bad fault window [{start_s}, {end_s})")


def _check_multiplier(multiplier: float) -> None:
    if not 1.0 <= multiplier < math.inf:
        raise ValueError(f"multiplier must be finite and >= 1, got {multiplier}")


@dataclass(frozen=True)
class LatencySpike:
    """Batch execution on ``server_id`` runs ``multiplier`` x slower
    during ``[start_s, end_s)``; ``server_id=None`` hits every server.
    ``end_s`` may be ``inf``; ``multiplier`` must be finite."""

    start_s: float
    end_s: float
    multiplier: float
    server_id: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        _check_multiplier(self.multiplier)

    def active(self, server_id: int, t: float) -> bool:
        return (self.server_id is None or self.server_id == server_id) and \
            self.start_s <= t < self.end_s


@dataclass(frozen=True)
class KernelStall:
    """Kernels whose name contains ``name_contains`` run ``multiplier`` x
    slower while the stream clock is inside ``[start_s, end_s)``.
    ``end_s`` may be ``inf``; ``multiplier`` must be finite."""

    start_s: float
    end_s: float
    multiplier: float
    name_contains: str = ""

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        _check_multiplier(self.multiplier)

    def active(self, name: str, t: float) -> bool:
        return self.name_contains in name and self.start_s <= t < self.end_s


@dataclass(frozen=True)
class TransientFailures:
    """Request attempts finishing on ``server_id`` inside the window fail
    with probability ``failure_rate`` (seeded per attempt, not iid draws).
    ``end_s`` may be ``inf``."""

    start_s: float
    end_s: float
    failure_rate: float
    server_id: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(
                f"failure_rate must be in [0, 1], got {self.failure_rate}"
            )

    def active(self, server_id: int, t: float) -> bool:
        return (self.server_id is None or self.server_id == server_id) and \
            self.start_s <= t < self.end_s


@dataclass(frozen=True)
class ServerCrash:
    """``server_id`` is down (fails all work instantly) during the window
    and recovers at ``end_s``; ``end_s = inf`` is a permanent crash."""

    start_s: float
    end_s: float
    server_id: int

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.server_id < 0:
            raise ValueError(f"server_id must be >= 0, got {self.server_id}")

    def active(self, server_id: int, t: float) -> bool:
        return self.server_id == server_id and self.start_s <= t < self.end_s


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule of one chaos run (empty by default).

    Query methods are pure functions of ``(plan, arguments)``; nothing in
    the plan mutates, so one plan can drive baseline/chaos pairs and
    repeated runs deterministically.
    """

    seed: int = 0
    spikes: Tuple[LatencySpike, ...] = ()
    stalls: Tuple[KernelStall, ...] = ()
    failures: Tuple[TransientFailures, ...] = ()
    crashes: Tuple[ServerCrash, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.spikes or self.stalls or self.failures or self.crashes)

    def last_fault_end_s(self) -> float:
        """When the last scheduled fault clears (0.0 for an empty plan)."""
        ends = [w.end_s for group in (self.spikes, self.stalls,
                                      self.failures, self.crashes)
                for w in group]
        return max(ends, default=0.0)

    def boundaries(self, server_id: int) -> Tuple[float, ...]:
        """Sorted unique window edges relevant to ``server_id``.

        Rate-based replicas (e.g. the Ebird processor-sharing one) end a
        busy window at each boundary so piecewise-constant fault
        multipliers are applied segment by segment.
        """
        times = set()
        for spike in self.spikes:
            if spike.server_id is None or spike.server_id == server_id:
                times.update((spike.start_s, spike.end_s))
        for window in self.failures:
            if window.server_id is None or window.server_id == server_id:
                times.update((window.start_s, window.end_s))
        for crash in self.crashes:
            if crash.server_id == server_id:
                times.update((crash.start_s, crash.end_s))
        for stall in self.stalls:  # name-keyed, not server-keyed
            times.update((stall.start_s, stall.end_s))
        return tuple(sorted(times))

    # -- per-server queries ----------------------------------------------------

    def latency_multiplier(self, server_id: int, t: float) -> float:
        """Product of all latency spikes active on the server at ``t``."""
        factor = 1.0
        for spike in self.spikes:
            if spike.active(server_id, t):
                factor *= spike.multiplier
        return factor

    def crashed(self, server_id: int, t: float) -> bool:
        return any(c.active(server_id, t) for c in self.crashes)

    def crash_end(self, server_id: int, t: float) -> float:
        """Recovery time of the crash covering ``t`` (``t`` if none)."""
        end = t
        for crash in self.crashes:
            if crash.active(server_id, t):
                end = max(end, crash.end_s)
        return end

    def crashed_during(self, server_id: int, start_s: float, end_s: float) -> Optional[float]:
        """Earliest crash moment inside ``[start_s, end_s]``, else None."""
        hit = None
        for crash in self.crashes:
            if crash.server_id != server_id:
                continue
            if crash.start_s <= end_s and crash.end_s > start_s:
                moment = max(crash.start_s, start_s)
                hit = moment if hit is None else min(hit, moment)
        return hit

    def failure_rate(self, server_id: int, t: float) -> float:
        """Strongest transient-failure rate active on the server at ``t``."""
        rate = 0.0
        for window in self.failures:
            if window.active(server_id, t):
                rate = max(rate, window.failure_rate)
        return rate

    def attempt_fails(self, req_id: int, attempt: int, server_id: int,
                      t: float) -> bool:
        """Deterministic verdict for one request attempt at time ``t``."""
        rate = self.failure_rate(server_id, t)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return unit_hash(self.seed, req_id, attempt, server_id) < rate

    # -- kernel-level hook -----------------------------------------------------

    def stall_multiplier(self, name: str, t: float) -> float:
        """Product of all kernel stalls matching ``name`` at stream time ``t``."""
        factor = 1.0
        for stall in self.stalls:
            if stall.active(name, t):
                factor *= stall.multiplier
        return factor

    def kernel_stall_fn(self) -> Optional[Callable[[str, float], float]]:
        """Hook for :attr:`repro.gpusim.Stream.stall_fn` (None if no stalls)."""
        if not self.stalls:
            return None
        return self.stall_multiplier


def unit_hash(*keys: object) -> float:
    """Map a key tuple to a deterministic uniform float in [0, 1).

    Stable across processes and platforms (unlike ``hash()``): the keys are
    rendered with ``repr`` and digested with BLAKE2b.  This is what makes
    transient failures and retry jitter replayable.
    """
    digest = hashlib.blake2b(repr(keys).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64
