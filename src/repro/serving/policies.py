"""Scheduler trigger policies (paper §5, last paragraph).

*Hungry*: the moment the runtime goes idle and the queue is non-empty,
schedule whatever is queued.  Best when request pressure is high and the
GPU should never sit idle.

*Lazy*: like Clipper's delayed batching — wait for ``max_batch`` requests
or a timeout, whichever first; additionally, if the front request's age
plus the estimated execution time of the current batch would exceed half
the latency SLO, fire immediately.  Best when small batches are very
inefficient on the runtime.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .._checks import check_size
from .mq import MessageQueue


class TriggerPolicy(abc.ABC):
    """Decides, at a given idle moment, whether to run the batch scheduler."""

    name: str = "base"

    @abc.abstractmethod
    def should_schedule(self, queue: MessageQueue, now_s: float) -> bool:
        """True if the scheduler should fire now."""

    def next_decision_time(self, queue: MessageQueue, now_s: float) -> float:
        """Earliest future time the decision could flip (for the simulator).

        Defaults to "re-ask when more work is queued" (infinity here;
        the driver re-asks an idle replica whenever work joins its
        queue)."""
        return float("inf")


@dataclass
class HungryPolicy(TriggerPolicy):
    """Schedule whenever there is anything to schedule."""

    name: str = "hungry"

    def should_schedule(self, queue: MessageQueue, now_s: float) -> bool:
        return bool(queue)


@dataclass
class LazyPolicy(TriggerPolicy):
    """Clipper-style delayed batching with an SLO escape hatch.

    Parameters
    ----------
    timeout_s: maximum time the oldest request may wait before firing.
    max_batch: fire as soon as this many requests are queued.
    latency_slo_s: service latency objective; fire if the front request's
        age plus ``estimated_exec_s`` exceeds half of it.
    estimated_exec_s: rough execution time of the pending batch (updated by
        the server from its cost table).

    Either ``timeout_s`` or ``latency_slo_s`` alone may be infinite (that
    trigger is off), but not both: then a partial batch never fires.
    """

    timeout_s: float = 0.010
    max_batch: int = 20
    latency_slo_s: float = 0.1
    estimated_exec_s: float = 0.0
    name: str = "lazy"

    def __post_init__(self) -> None:
        # ``not x > 0`` rejects NaN too: a NaN timeout would never fire
        # and a NaN SLO would silently disable the escape hatch.
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        check_size("max_batch", self.max_batch)
        if not self.latency_slo_s > 0:
            raise ValueError(f"latency_slo_s must be positive, got {self.latency_slo_s}")
        if self.timeout_s == self.latency_slo_s == float("inf"):
            raise ValueError("timeout_s and latency_slo_s are both infinite: "
                             "a partial batch would never fire")

    def should_schedule(self, queue: MessageQueue, now_s: float) -> bool:
        if not queue:
            return False
        if len(queue) >= self.max_batch:
            return True
        return now_s >= self._fire_at(queue.front())

    def next_decision_time(self, queue: MessageQueue, now_s: float) -> float:
        front = queue.front()
        if front is None:
            return float("inf")
        # A large estimated_exec_s can put the SLO escape in the past; the
        # decision cannot flip earlier than now, so clamp.
        return max(self._fire_at(front), now_s)

    def _fire_at(self, front) -> float:
        """When the front request's timeout or SLO escape fires.  Both
        ``should_schedule`` and ``next_decision_time`` compare against this
        one sum, so a trigger armed at it never finds the policy declining
        (``0.7 + 0.1`` minus ``0.7`` is not ``0.1`` in floating point)."""
        by_timeout = front.arrival_s + self.timeout_s
        by_slo = front.arrival_s + self.latency_slo_s / 2.0 - self.estimated_exec_s
        return min(by_timeout, by_slo)
