"""Retry with exponential backoff, seeded jitter and a run-wide budget.

Two layers:

* :class:`RetryPolicy` — immutable configuration: how many attempts a
  request gets, how backoff grows, how much deterministic jitter decorates
  it, and the *retry budget* (total re-enqueues allowed across the run);
* :class:`RetryState` — one run's mutable consumption of that policy;
  simulators create one per run so policies stay shareable.

The budget is what bounds retry storms: a permanently failing replica can
inflate total executed work by at most ``budget`` extra attempts, no
matter how many requests keep failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .faults import unit_hash

from ..serving.request import Request


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full determinism.

    ``max_attempts`` counts executions including the first (so 3 means at
    most 2 retries per request).  ``budget`` caps re-enqueues across the
    whole run (``None`` = unbounded).  Jitter is a multiplicative factor in
    ``[1, 1 + jitter)`` hashed from ``(seed, req_id, attempt)`` — the same
    request retries at the same instant in every replay.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.1
    budget: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        # Each rule fails NaN; an infinite backoff would park a retry
        # forever, so backoffs and the multiplier must be finite.
        if not 0 < self.base_backoff_s < math.inf:
            raise ValueError(
                f"base_backoff_s must be positive and finite, "
                f"got {self.base_backoff_s}"
            )
        if not 1.0 <= self.multiplier < math.inf:
            raise ValueError(
                f"multiplier must be finite and >= 1, got {self.multiplier}")
        if not self.base_backoff_s <= self.max_backoff_s < math.inf:
            raise ValueError(
                "max_backoff_s must be finite and >= base_backoff_s, "
                f"got {self.max_backoff_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")

    def backoff_s(self, attempt: int, req_id: int) -> float:
        """Delay before executing ``attempt`` (1 = first retry) of a request."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(
            self.base_backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        return raw * (1.0 + self.jitter * unit_hash(self.seed, req_id, attempt))


class RetryState:
    """One run's retry bookkeeping against a :class:`RetryPolicy`."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.retries_used = 0

    def next_retry_at(self, request: Request, now_s: float) -> Optional[float]:
        """Re-enqueue time for a failed request, or None (give up).

        Deadline-aware: a retry whose backoff lands past the request's
        deadline could never complete in time, so it is refused *before*
        any budget is consumed.  Consumes one unit of budget when a retry
        is granted.  Does *not* bump ``request.attempt`` — the caller owns
        request mutation.
        """
        next_attempt = request.attempt + 1
        if next_attempt >= self.policy.max_attempts:
            return None
        retry_at = now_s + self.policy.backoff_s(next_attempt, request.req_id)
        if request.deadline_s is not None and \
                retry_at > request.arrival_s + request.deadline_s:
            return None
        if self.policy.budget is not None and \
                self.retries_used >= self.policy.budget:
            return None
        self.retries_used += 1
        return retry_at
