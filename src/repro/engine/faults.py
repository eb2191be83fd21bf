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
  serving replica calls :meth:`stretch` on a window before it yields the
  window's end, so the engine only ever runs already-stretched windows.
* **crash queries** — ``crashed`` / ``crash_end`` / ``crashed_during``
  answer whether the bound server is down, when it recovers, and whether
  an execution window ``[start, end]`` is truncated by an outage.
* **attempt verdicts** — ``attempt_fails`` delivers the plan's seeded
  transient-failure draw for one request attempt; the dispatch point
  (batch completion for one-shot serving, prefill commit for generation)
  is the caller's contract, the randomness is the plan's.

Everything is a pure function of ``(plan, server_id, arguments)`` plus
monotone counters, so replays are bit-identical and a baseline run with
an empty plan is byte-identical to running without an injector at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

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
                 "failures_injected")

    def __init__(self, plan: "FaultPlan", server_id: int = 0) -> None:
        self.plan = plan
        self.server_id = server_id
        self.stretches = 0
        self.stretched_seconds = 0.0
        self.failures_injected = 0

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

    # -- crash windows -----------------------------------------------------

    def crashed(self, now: float) -> bool:
        """Is the bound server down at ``now``?"""
        return self.plan.crashed(self.server_id, now)

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
