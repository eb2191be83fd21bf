"""Common allocator interface for the Fig. 7 comparison.

Every allocator consumes one request's tensor usage records and reports how
much *new* device memory it had to ``cudaMalloc``, its footprint afterwards,
and the stall time charged by the device (raw malloc/free synchronize the
stream, see :mod:`repro.gpusim.memory`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

from ..gpusim.memory import DeviceMemory
from .plan import AllocationPlan
from .records import TensorUsageRecord


@dataclass(frozen=True)
class RequestAllocation:
    """Outcome of serving one request's intermediate-tensor memory.

    ``footprint_bytes`` is the memory held *after* the request (what a
    planner retains between requests); ``peak_bytes`` is the high-water
    mark *during* it (what an eager allocator needed while running).
    """

    new_bytes: int
    footprint_bytes: int
    peak_bytes: int
    stall_s: float
    plan: Optional[AllocationPlan] = None

    @property
    def new_mb(self) -> float:
        return self.new_bytes / (1024.0 * 1024.0)

    @property
    def footprint_mb(self) -> float:
        return self.footprint_bytes / (1024.0 * 1024.0)

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)


class BaseAllocator(abc.ABC):
    """Serves a stream of variable-length requests' memory needs.

    ``metrics`` (a :class:`repro.observability.MetricsRegistry`) is
    optional; when set, subclasses publish hit/miss counters and a
    footprint time series labeled with the allocator's ``name``.  The
    series x-axis is the request ordinal — allocators have no clock.
    """

    #: Human-readable name used in experiment tables.
    name: str = "base"

    def __init__(self, device_memory: Optional[DeviceMemory] = None,
                 metrics=None) -> None:
        self.device_memory = device_memory if device_memory is not None else DeviceMemory()
        self.metrics = metrics
        self.requests_processed = 0

    @abc.abstractmethod
    def process_request(self, records: Sequence[TensorUsageRecord]) -> RequestAllocation:
        """Prepare memory for one inference; returns per-request accounting."""

    @property
    def footprint_bytes(self) -> int:
        """Device bytes currently held by this allocator."""
        return self.device_memory.allocated_bytes

    def _begin_request(self) -> None:
        """Reset the per-request peak tracker (call at request start)."""
        self.requests_processed += 1
        self.device_memory.peak_bytes = self.device_memory.allocated_bytes

    def _observe_hit(self) -> None:
        if self.metrics is not None:
            self.metrics.counter("allocator_hits_total", allocator=self.name).inc()

    def _observe_miss(self) -> None:
        if self.metrics is not None:
            self.metrics.counter("allocator_misses_total", allocator=self.name).inc()

    def _observe_footprint(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "allocator_footprint_bytes", allocator=self.name
            ).set(self.footprint_bytes, t=self.requests_processed)

    def _snapshot(self, before_alloc: int, before_stall: float,
                  plan: Optional[AllocationPlan] = None) -> RequestAllocation:
        """Build a RequestAllocation from DeviceMemory counter deltas."""
        return RequestAllocation(
            new_bytes=self.device_memory.total_alloc_bytes - before_alloc,
            footprint_bytes=self.device_memory.allocated_bytes,
            peak_bytes=self.device_memory.peak_bytes,
            stall_s=self.device_memory.stall_s - before_stall,
            plan=plan,
        )
