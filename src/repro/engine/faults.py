"""Engine-level fault injection: one code path for every serving loop.

Fault *schedules* live in :class:`repro.resilience.faults.FaultPlan`; this
module is where they become **engine-visible effects**.  Before this layer
existed each simulator threaded the plan through its own loop by hand
(``simulate_serving`` multiplied batch costs inline, ``simulate_cluster``
projected crash windows itself, the generation servers saw no faults at
all), which is exactly how per-simulator plumbing drifts.  An
:class:`EngineFaultInjector` binds one plan to one server id and exposes
the four effects every engine-hosted server needs:

* **stretch** — latency spikes (and kernel stalls matched against the
  busy-window label) inflate the duration of a busy window.  Each
  serving replica calls :meth:`window` on a pass before it yields the
  window's end, so the engine only ever runs already-stretched windows.
* **crash queries** — ``crashed`` / ``crash_end`` / ``crashed_during``
  answer whether the bound server is down, when it recovers, and whether
  an execution window ``[start, end]`` is truncated by an outage;
  :meth:`window` returns a pass's stretched duration and its crash cut
  in one call.
* **attempt verdicts** — ``attempt_fails`` delivers the plan's seeded
  transient-failure draw for one request attempt; the dispatch point
  (batch completion for one-shot serving, prefill commit for generation)
  is the caller's contract, the randomness is the plan's.

Everything is a pure function of ``(plan, server_id, arguments)`` plus
monotone counters, so replays are bit-identical and a baseline run with
an empty plan is byte-identical to running without an injector at all.

The segment rule
----------------
``plan.boundaries(server_id)`` cuts the time line into segments inside
which no fault of this server starts or ends, so whether a spike, stall,
failure or crash is active is constant across each.  The injector keeps
the segment holding its last query time (and looks it up again, by
bisection, when a query falls outside it, earlier or later).  A window
starting in a *quiet* segment — nothing active — that ends *strictly*
before the segment's end is neither stretched nor cut, so
:meth:`~EngineFaultInjector.window` returns it without scanning the
plan; a crash starting exactly at a window's end still cuts it, which is
why the end must be strictly earlier.  Every other window takes the plan
path (:meth:`~EngineFaultInjector.stretch` then
:meth:`~EngineFaultInjector.crashed_during`).  ``crashed(now)`` reads the
segment's crash flag.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan

class EngineFaultInjector:
    """One server's view of a :class:`FaultPlan`, as engine effects.

    Counters (``stretches``, ``stretched_seconds``, ``failures_injected``)
    are deterministic and read by chaos reports; a serving run with a
    metrics registry publishes the first and last as
    ``engine_faults_total{kind=...}`` when it ends.
    """

    __slots__ = ("plan", "server_id", "stretches", "stretched_seconds",
                 "failures_injected", "_edges", "_lo", "_hi", "_quiet",
                 "_down")

    def __init__(self, plan: "FaultPlan", server_id: int = 0) -> None:
        self.plan = plan
        self.server_id = server_id
        self.stretches = 0
        self.stretched_seconds = 0.0
        self.failures_injected = 0
        self._edges = plan.boundaries(server_id)
        # The cached segment [_lo, _hi): no fault active in it (_quiet),
        # this server down in it (_down).  Empty until the first query.
        self._lo = self._hi = 0.0
        self._quiet = self._down = False

    def _locate(self, t: float) -> None:
        """Cache the segment of the plan's edges that holds ``t``."""
        edges = self._edges
        i = bisect_right(edges, t)
        self._lo = edges[i - 1] if i else -math.inf
        self._hi = edges[i] if i < len(edges) else math.inf
        plan = self.plan
        sid = self.server_id
        self._down = plan.crashed(sid, t)
        self._quiet = not (
            self._down
            or any(s.active(sid, t) for s in plan.spikes)
            or any(s.start_s <= t < s.end_s for s in plan.stalls)
            or any(w.active(sid, t) for w in plan.failures))

    @property
    def empty(self) -> bool:
        return self.plan.empty

    # -- busy-window stretching -------------------------------------------

    def multiplier(self, now: float, label: Optional[str] = None) -> float:
        """Slowdown factor for work starting at ``now``.

        Latency spikes always apply; kernel stalls apply when the busy
        window's ``label`` matches the stall's ``name_contains``.
        """
        factor = self.plan.latency_multiplier(self.server_id, now)
        if label is not None and self.plan.stalls:
            factor *= self.plan.stall_multiplier(label, now)
        return factor

    def stretch(self, delay_s: float, now: float,
                label: Optional[str] = None) -> float:
        """Inflate a busy window starting at ``now`` (identity off-fault).

        The multiplier is sampled at the window *start* — the same
        convention the cluster simulator has always used — so the result
        is a pure function of ``(plan, now, delay_s)``.
        """
        factor = self.multiplier(now, label)
        if factor == 1.0:
            return delay_s
        stretched = delay_s * factor
        self.stretches += 1
        self.stretched_seconds += stretched - delay_s
        return stretched

    def window(self, started: float, dur: float,
               label: Optional[str] = None,
               ) -> Tuple[float, Optional[float]]:
        """A busy window of ``dur`` starting at ``started``: its duration
        stretched as :meth:`stretch` does, and the crash instant that cuts
        it short (:meth:`crashed_during`), if any.

        A window inside a quiet segment, ending strictly before the
        segment does, returns ``(dur, None)`` without a plan scan (see
        the segment rule in the module docstring).
        """
        if not self._lo <= started < self._hi:
            self._locate(started)
        if self._quiet and started + dur < self._hi:
            return dur, None
        dur = self.stretch(dur, started, label)
        return dur, self.crashed_during(started, started + dur)

    # -- crash windows -----------------------------------------------------

    def crashed(self, now: float) -> bool:
        """Is the bound server down at ``now``?"""
        if not self._lo <= now < self._hi:
            self._locate(now)
        return self._down

    def crash_end(self, now: float) -> float:
        """Recovery time of the crash covering ``now`` (``now`` if none)."""
        return self.plan.crash_end(self.server_id, now)

    def crashed_during(self, start_s: float, end_s: float) -> Optional[float]:
        """Earliest crash moment truncating ``[start_s, end_s]``, or None."""
        return self.plan.crashed_during(self.server_id, start_s, end_s)

    # -- transient failures ------------------------------------------------

    def attempt_fails(self, req_id: int, attempt: int, now: float) -> bool:
        """Seeded verdict for one request attempt dispatched at ``now``."""
        hit = self.plan.attempt_fails(req_id, attempt, self.server_id, now)
        if hit:
            self.failures_injected += 1
        return hit
