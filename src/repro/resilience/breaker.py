"""Per-replica circuit breaker (closed → open → half-open → closed).

The breaker watches a sliding window of attempt outcomes on one server.
When the windowed failure rate crosses ``failure_threshold`` (with at
least ``min_samples`` observations) it *opens*: the router stops sending
work there.  After ``cooldown_s`` it becomes *half-open* and admits up to
``half_open_probes`` probe requests; one probe failure re-opens it, a full
set of probe successes closes it again.  ``cooldown_s`` must be positive
(NaN is rejected); ``inf`` is legal and means an open breaker never
half-opens.

Everything is driven by the caller's (virtual) clock, so breaker behaviour
is deterministic and replayable.  Transitions are recorded on the breaker
(``transitions``) and, when a :class:`~repro.observability.MetricsRegistry`
is attached, published as counters plus a ``breaker_state`` gauge series
(0 = closed, 1 = half-open, 2 = open).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional, Tuple

from .._observers import notify, observers


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge encoding of breaker states (for exported time series).
STATE_CODE = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


class CircuitBreaker:
    """Sliding-failure-rate breaker for one server/replica."""

    def __init__(
        self,
        window: int = 20,
        failure_threshold: float = 0.5,
        min_samples: int = 5,
        cooldown_s: float = 1.0,
        half_open_probes: int = 3,
        name: str = "server0",
        metrics=None,  # Optional[repro.observability.MetricsRegistry]
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_samples < 1 or min_samples > window:
            raise ValueError(
                f"min_samples must be in [1, window], got {min_samples}"
            )
        if not cooldown_s > 0:  # written so that NaN fails
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s}")
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self.name = name
        self.metrics = metrics

        self._state = BreakerState.CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=window)  # True = success
        self._opened_at = 0.0
        self._probes_allowed = 0
        self._probes_inflight = 0
        self._probe_successes = 0
        #: (time, from_state, to_state) of every transition, in order.
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []

    # -- state machine ---------------------------------------------------------

    def _transition(self, to: BreakerState, now_s: float) -> None:
        frm = self._state
        if frm is to:
            return
        self._state = to
        self.transitions.append((now_s, frm, to))
        if observers:
            notify("on_breaker", self, now_s, frm, to)
        if to is BreakerState.OPEN:
            self._opened_at = now_s
        elif to is BreakerState.HALF_OPEN:
            self._probes_allowed = self.half_open_probes
            self._probes_inflight = 0
            self._probe_successes = 0
        elif to is BreakerState.CLOSED:
            self._outcomes.clear()
        if self.metrics is not None:
            self.metrics.counter(
                "breaker_transitions_total", server=self.name, to=to.value
            ).inc()
            self.metrics.gauge("breaker_state", server=self.name).set(
                STATE_CODE[to], t=now_s
            )

    def state(self, now_s: float) -> BreakerState:
        """Current state, applying the open → half-open cooldown."""
        if self._state is BreakerState.OPEN and \
                now_s >= self._opened_at + self.cooldown_s:
            self._transition(BreakerState.HALF_OPEN, self._opened_at + self.cooldown_s)
        return self._state

    def probe_available(self, now_s: float) -> bool:
        """Pure query: would :meth:`allow` admit work right now?

        Consumes nothing — safe to call once per candidate per routing
        decision (the router's health scan).  Call :meth:`allow`
        only at the moment work is actually committed to this replica.
        """
        state = self.state(now_s)
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.OPEN:
            return False
        return self._probes_allowed > 0

    def allow(self, now_s: float) -> bool:
        """Commit (more) work to this replica right now?

        Half-open admits a limited number of probes and **reserves the
        probe slot on admission**: a True return in half-open decrements
        ``_probes_allowed`` immediately, so N concurrent callers cannot
        all launch probes and exceed ``half_open_probes``.  The outcome
        recorded later settles the reservation.
        """
        state = self.state(now_s)
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.OPEN:
            return False
        if self._probes_allowed <= 0:
            return False
        self._probes_allowed -= 1
        self._probes_inflight += 1
        return True

    def record(self, success: bool, now_s: float) -> None:
        """Feed one attempt outcome observed at ``now_s``."""
        state = self.state(now_s)
        if state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            if not success:
                self._transition(BreakerState.OPEN, now_s)
                return
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._transition(BreakerState.CLOSED, now_s)
            return
        self._outcomes.append(success)
        if state is BreakerState.CLOSED and \
                len(self._outcomes) >= self.min_samples:
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= self.failure_threshold:
                self._transition(BreakerState.OPEN, now_s)

    # -- reporting -------------------------------------------------------------

    @property
    def failure_rate(self) -> float:
        """Windowed failure rate (0.0 with an empty window)."""
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)
