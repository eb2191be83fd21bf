"""The bundle a simulator needs to run resiliently.

:class:`ResilienceConfig` groups the three independent mechanisms — fault
plan, retry policy, circuit breakers — plus one admission knob (queue
capacity).  Every field has a disabled default, and
``simulate_serving`` / ``simulate_cluster`` treat ``resilience=None`` and
"config whose fault plan is empty and everything else is off" identically:
both produce byte-identical metrics to the pre-resilience code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .._checks import check_size
from .breaker import CircuitBreaker
from .faults import FaultPlan
from .retry import RetryPolicy


@dataclass
class ResilienceConfig:
    """Everything the serving stack consults when faults are in play.

    ``breaker_factory`` builds one :class:`CircuitBreaker` per server (the
    argument is the server id); ``None`` disables breakers.  The built
    breakers are exposed on the result side via their ``transitions``.
    """

    faults: FaultPlan = field(default_factory=FaultPlan)
    retry: Optional[RetryPolicy] = None
    breaker_factory: Optional[Callable[[int], CircuitBreaker]] = None
    queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        check_size("queue_capacity", self.queue_capacity, optional=True)
