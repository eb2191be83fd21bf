"""Workload driver and summary statistics for allocator comparisons (Fig. 7)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .base import BaseAllocator, RequestAllocation
from .records import TensorUsageRecord

MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class AllocatorWorkloadResult:
    """Aggregate view of one allocator over a request stream."""

    allocator_name: str
    per_request: List[RequestAllocation]

    @property
    def num_requests(self) -> int:
        return len(self.per_request)

    @property
    def max_footprint_mb(self) -> float:
        """High-water device memory across the stream (per-request peaks)."""
        return max((r.peak_mb for r in self.per_request), default=0.0)

    @property
    def avg_new_mb_per_request(self) -> float:
        """The paper's Fig. 7 headline metric (0.70 MB Turbo vs 2.78 MB GSOC)."""
        if not self.per_request:
            return 0.0
        return sum(r.new_bytes for r in self.per_request) / len(self.per_request) / MB

    @property
    def total_stall_s(self) -> float:
        return sum(r.stall_s for r in self.per_request)

    @property
    def allocation_events(self) -> int:
        """Requests that needed at least one fresh cudaMalloc."""
        return sum(1 for r in self.per_request if r.new_bytes > 0)


def run_allocator_workload(
    allocator: BaseAllocator,
    request_records: Sequence[Sequence[TensorUsageRecord]],
) -> AllocatorWorkloadResult:
    """Feed a sequence of requests (each a record list) to ``allocator``."""
    per_request = [allocator.process_request(records) for records in request_records]
    return AllocatorWorkloadResult(
        allocator_name=allocator.name, per_request=per_request
    )
