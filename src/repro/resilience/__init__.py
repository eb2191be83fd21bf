"""Fault injection and recovery for the serving stack.

Three independent, composable mechanisms, all deterministic and seeded:

* :class:`FaultPlan` (:mod:`.faults`) — a scripted schedule of latency
  spikes, transient request failures and server
  crash/recover windows; an empty plan is the identity.
* :class:`RetryPolicy` / :class:`RetryState` (:mod:`.retry`) — exponential
  backoff with seeded jitter, per-request attempt caps, and a run-wide
  retry budget that bounds retry storms.
* :class:`CircuitBreaker` (:mod:`.breaker`) — per-replica closed → open →
  half-open state machine over a sliding failure-rate window; consulted by
  the cluster router when placing work.

:class:`ResilienceConfig` bundles them for ``simulate_serving`` /
``simulate_cluster``; :func:`run_chaos` (:mod:`.chaos`) drives any
scenario of the one :data:`SCENARIOS` registry, encoder or generation,
end to end and asserts recovery (``python -m repro chaos``).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BreakerState": "breaker",
    "CircuitBreaker": "breaker",
    "ResilienceConfig": "config",
    "FaultPlan": "faults",
    "LatencySpike": "faults",
    "ServerCrash": "faults",
    "TransientFailures": "faults",
    "unit_hash": "faults",
    "RetryPolicy": "retry",
    "RetryState": "retry",
    "ChaosReport": "chaos",
    "ChaosScenario": "chaos",
    "SCENARIOS": "chaos",
    "run_chaos": "chaos",
    "format_report": "chaos",
})
