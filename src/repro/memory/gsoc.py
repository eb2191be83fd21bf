"""Greedy-by-Size for Offset Calculation (GSOC) baseline.

The offset-packing algorithm of Pisarchyk & Lee [23]/[15], which the paper
uses as its allocator baseline in Fig. 7.  GSOC computes a near-optimal
*contiguous* arena layout for a fixed set of usage records: tensors are
visited in non-increasing size order and placed at the lowest offset that
does not byte-overlap any already-placed, lifetime-overlapping tensor.

For fixed-length inference this is excellent.  For variable-length serving
its weakness — the one the paper's chunked allocator fixes — is that the
plan requires one *contiguous* buffer: whenever a new request's arena
exceeds the cached buffer, the whole arena must be re-``cudaMalloc``-ed
(a contiguous block cannot grow in place), so the per-request new-memory
cost is the full new arena size, not the delta.

Like Algorithm 1, the packing runs again for every request.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..gpusim.memory import DeviceMemory
from .base import BaseAllocator, RequestAllocation
from .plan import AllocationPlan, Placement
from .records import TensorUsageRecord, sort_by_size

#: Chunk id used for the single GSOC arena in emitted plans.
ARENA_CHUNK_ID = 0


def gsoc_offsets(records: Sequence[TensorUsageRecord]) -> Tuple[dict, int]:
    """Core GSOC packing: returns ({name: offset}, arena_size).

    O(n²): for each tensor (largest first), scan the placed tensors that
    overlap it in lifetime, offset-sorted, and take the first gap that fits.
    """
    placed: List[Tuple[TensorUsageRecord, int]] = []  # offset-sorted
    offsets = {}
    arena = 0
    for record in sort_by_size(records):
        prev_end = 0
        best: Optional[int] = None
        for other, offset in placed:
            if not record.overlaps(other):
                continue
            if offset - prev_end >= record.size:
                best = prev_end
                break
            prev_end = max(prev_end, offset + other.size)
        if best is None:
            best = prev_end
        offsets[record.name] = best
        arena = max(arena, best + record.size)
        placed.append((record, best))
        placed.sort(key=lambda item: item[1])
    return offsets, arena


class GsocAllocator(BaseAllocator):
    """GSOC re-planned per request over a cached contiguous arena."""

    name = "gsoc"

    def __init__(self, device_memory: Optional[DeviceMemory] = None) -> None:
        super().__init__(device_memory)
        self._arena_handle: Optional[int] = None
        self._arena_size = 0

    def process_request(self, records: Sequence[TensorUsageRecord]) -> RequestAllocation:
        self._begin_request()
        before_alloc = self.device_memory.total_alloc_bytes
        before_stall = self.device_memory.stall_s
        offsets, required = gsoc_offsets(records)
        if required > self._arena_size:
            # Contiguous arenas cannot grow in place: free + fresh malloc.
            if self._arena_handle is not None:
                self.device_memory.free(self._arena_handle)
            self._arena_handle = self.device_memory.malloc(required)
            self._arena_size = required
        plan = AllocationPlan(
            placements={name: Placement(ARENA_CHUNK_ID, off) for name, off in offsets.items()},
            chunk_sizes={ARENA_CHUNK_ID: self._arena_size} if offsets else {},
        )
        return self._snapshot(before_alloc, before_stall, plan)

    @property
    def arena_size(self) -> int:
        return self._arena_size
