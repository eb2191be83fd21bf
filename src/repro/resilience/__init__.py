"""Fault injection and recovery for the serving stack (ISSUE 2).

Four independent, composable mechanisms, all deterministic and seeded:

* :class:`FaultPlan` (:mod:`.faults`) — a scripted schedule of latency
  spikes, kernel stalls, transient request failures and server
  crash/recover windows; an empty plan is the identity.
* :class:`RetryPolicy` / :class:`RetryState` (:mod:`.retry`) — exponential
  backoff with seeded jitter, per-request attempt caps, and a run-wide
  retry budget that bounds retry storms.
* :class:`CircuitBreaker` (:mod:`.breaker`) — per-replica closed → open →
  half-open state machine over a sliding failure-rate window; consulted by
  the cluster router when placing work.
* :class:`DegradationLadder` / :class:`DegradationController`
  (:mod:`.degradation`) — graceful fallback to cheaper model versions
  under stress, with shedding as the optional last rung.

:class:`ResilienceConfig` bundles them for ``simulate_serving`` /
``simulate_cluster``; :func:`run_chaos` (:mod:`.chaos`) drives any
scenario of the one :data:`SCENARIOS` registry, encoder or generation,
end to end and asserts recovery (``python -m repro chaos``).
"""

from .breaker import BreakerState, CircuitBreaker
from .config import ResilienceConfig
from .degradation import (
    DegradationController,
    DegradationLadder,
    DegradationRung,
)
from .faults import (
    FaultPlan,
    KernelStall,
    LatencySpike,
    ServerCrash,
    TransientFailures,
    unit_hash,
)
from .retry import RetryPolicy, RetryState

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ResilienceConfig",
    "DegradationController",
    "DegradationLadder",
    "DegradationRung",
    "FaultPlan",
    "KernelStall",
    "LatencySpike",
    "ServerCrash",
    "TransientFailures",
    "unit_hash",
    "RetryPolicy",
    "RetryState",
    "ChaosReport",
    "ChaosScenario",
    "SCENARIOS",
    "run_chaos",
    "format_report",
]


def __getattr__(name: str):
    # The chaos harness imports the serving layer; loading it lazily keeps
    # ``repro.serving`` free to import this package without a cycle.
    if name in ("ChaosReport", "ChaosScenario", "SCENARIOS", "run_chaos",
                "format_report"):
        from . import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
