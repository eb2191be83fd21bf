"""Latency/throughput statistics for serving runs (Fig. 12, Table 4)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .request import Request


@dataclass(frozen=True)
class LatencyStats:
    """avg (min, max) latency in milliseconds — Table 4's cell format —
    plus tail percentiles for SLO analysis (p50/p95/p99)."""

    avg_ms: float
    min_ms: float
    max_ms: float
    count: int
    p50_ms: float = float("inf")
    p95_ms: float = float("inf")
    p99_ms: float = float("inf")

    @staticmethod
    def _percentile(sorted_values: List[float], q: float) -> float:
        """Nearest-rank percentile on a pre-sorted list.

        Uses the textbook nearest-rank rule ``ceil(q * n)`` (1-indexed), so
        p50 of an even-length list is the lower middle element — not
        whatever ``round``'s banker's rounding happens to pick.
        """
        if not sorted_values:
            return float("inf")
        rank = math.ceil(q * len(sorted_values))
        return sorted_values[max(0, min(len(sorted_values) - 1, rank - 1))]

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "LatencyStats":
        # ``is_completed`` skips (rather than crashes on) requests that
        # ended in a non-completed terminal state (TIMED_OUT/FAILED/SHED):
        # they carry no response latency.
        return cls.from_completed(completed_requests(requests))

    @classmethod
    def from_completed(cls, completed: Sequence[Request]) -> "LatencyStats":
        """Stats over requests already known to have completed."""
        return cls.from_values([r.latency_s * 1e3 for r in completed])

    @classmethod
    def from_values(cls, values_ms: Sequence[float]) -> "LatencyStats":
        """Stats over raw millisecond samples (TTFT, TPOT, ...).

        Bit for bit what ``sorted(values_ms)`` and the built-in ``sum``
        over it would give, for finite samples that hold no ``-0.0``
        (a latency is a difference, and ``x - x`` is ``+0.0``): equal
        floats are interchangeable, so NumPy's unstable sort yields the
        same sequence.  The average stays the built-in ``sum`` over the
        sorted Python floats, so each interpreter keeps its own ``sum``
        (3.12's is compensated).  An ``array('d')`` sample is sorted
        without a copy.
        """
        if not len(values_ms):
            return cls(float("inf"), float("inf"), float("inf"), 0)
        ordered = np.sort(np.asarray(values_ms, dtype=np.float64)).tolist()
        return cls(
            avg_ms=sum(ordered) / len(ordered),
            min_ms=ordered[0],
            max_ms=ordered[-1],
            count=len(ordered),
            p50_ms=cls._percentile(ordered, 0.50),
            p95_ms=cls._percentile(ordered, 0.95),
            p99_ms=cls._percentile(ordered, 0.99),
        )

    def meets_slo(self, slo_ms: float, quantile: float = 0.95) -> bool:
        """True if the given latency quantile is within the SLO."""
        if quantile >= 0.99:
            value = self.p99_ms
        elif quantile >= 0.95:
            value = self.p95_ms
        else:
            value = self.p50_ms
        return value <= slo_ms

    def format_cell(self) -> str:
        """Render like the paper: ``avg (min, max)``."""
        if self.count == 0 or self.avg_ms == float("inf"):
            return "+inf"
        return f"{self.avg_ms:.2f} ({self.min_ms:.2f}, {self.max_ms:.2f})"


@dataclass(frozen=True)
class ResilienceStats:
    """Fault-handling outcome of one serving run with a resilience config,
    of either replica kind, built once by the driver's finalisation.

    All counts are whole-run totals; rates are derived against ``offered``
    by the caller (see
    :meth:`repro.resilience.chaos.EncoderChaosScenario.publish`).
    """

    retries: int = 0
    timed_out: int = 0
    failed: int = 0
    shed: int = 0
    rejected: int = 0
    breaker_transitions: int = 0

    @property
    def dropped(self) -> int:
        """Requests that never produced a response, for any reason."""
        return self.timed_out + self.failed + self.shed


@dataclass(frozen=True)
class ServingMetrics:
    """Outcome of one serving simulation.

    ``utilization`` is the fraction of the offered-load horizon the GPU
    spent executing batches — the quantity batching exists to raise
    ("small batch sizes lead to low GPU hardware utilization", §5).
    """

    system: str
    request_rate: float
    response_throughput: float
    latency: LatencyStats
    saturated: bool
    completed: int
    offered: int
    backlog_at_end: int
    utilization: float = 0.0
    batches_executed: int = 0
    resilience: Optional[ResilienceStats] = None

    @property
    def stable(self) -> bool:
        """True when the system keeps up with the offered load."""
        return not self.saturated


def response_throughput(
    requests: Sequence[Request], window_start_s: float, window_end_s: float
) -> float:
    """Responses completed per second inside a measurement window.

    The window is closed at both ends: the deterministic simulator lands
    batch completions exactly on arrival boundaries, so a half-open window
    would silently drop requests completing at the horizon.
    """
    return completed_throughput(completed_requests(requests),
                                window_start_s, window_end_s)


def completed_throughput(
    completed: Sequence[Request], window_start_s: float, window_end_s: float
) -> float:
    """:func:`response_throughput` over requests already known to have
    completed."""
    if window_end_s <= window_start_s:
        raise ValueError(
            f"empty window [{window_start_s}, {window_end_s}]"
        )
    done = sum(1 for r in completed
               if window_start_s <= r.completion_s <= window_end_s)
    return done / (window_end_s - window_start_s)


def completed_requests(requests: Sequence[Request]) -> List[Request]:
    return [r for r in requests if r.is_completed]
