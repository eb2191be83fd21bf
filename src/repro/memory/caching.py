"""Caching allocator baseline (PyTorch / PaddlePaddle / NVlabs-cub style).

PyTorch's CUDA caching allocator incrementally builds a cache of device
blocks and reassigns them to later allocations of compatible size; it never
returns memory to the device unless explicitly flushed.  It is fast (cache
hits avoid the cudaMalloc stall) but — as the paper's Fig. 7 shows — it is
graph-oblivious: tensors that never coexist still occupy distinct cached
blocks, and a variable-length workload populates the cache with blocks for
*every* size class it has ever seen, inflating the footprint well past the
live-tensor peak.

The model here follows the documented PyTorch policy: sizes are rounded
(512 B granularity below 1 MB, 2 MB granularity above), a freed block goes
to a size-keyed free pool, and a request is served from the pool only by a
block of the exact rounded size (no splitting, the dominant behaviour for
the equal-sized activations of DNN inference).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from ..gpusim.memory import DeviceMemory
from .base import BaseAllocator, RequestAllocation
from .records import TensorUsageRecord

SMALL_BLOCK_ROUND = 512
LARGE_BLOCK_ROUND = 2 * 1024 * 1024
SMALL_LIMIT = 1024 * 1024


def round_block_size(nbytes: int) -> int:
    """PyTorch-style size rounding."""
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    granularity = SMALL_BLOCK_ROUND if nbytes < SMALL_LIMIT else LARGE_BLOCK_ROUND
    return ((nbytes + granularity - 1) // granularity) * granularity


class CachingAllocator(BaseAllocator):
    """Eager per-op allocate/free against a block cache."""

    name = "caching"

    def __init__(self, device_memory: Optional[DeviceMemory] = None,
                 metrics=None) -> None:
        super().__init__(device_memory, metrics=metrics)
        self._free_pool: Dict[int, List[int]] = defaultdict(list)  # size -> handles
        self.cache_hits = 0
        self.cache_misses = 0

    # -- block cache --------------------------------------------------------

    def _acquire(self, nbytes: int) -> tuple:
        """Returns (handle, rounded_size); cache hit avoids the malloc stall."""
        rounded = round_block_size(nbytes)
        pool = self._free_pool.get(rounded)
        if pool:
            self.cache_hits += 1
            self._observe_hit()
            return pool.pop(), rounded
        self.cache_misses += 1
        self._observe_miss()
        return self.device_memory.malloc(rounded), rounded

    def _release(self, handle: int, rounded: int) -> None:
        """Freed blocks return to the cache, never to the device."""
        self._free_pool[rounded].append(handle)

    # -- request processing --------------------------------------------------

    def process_request(self, records: Sequence[TensorUsageRecord]) -> RequestAllocation:
        """Replay the request's op sequence with eager alloc/free.

        Tensors are acquired at their producing op and released after their
        last consuming op, exactly as framework reference-counting would.
        """
        self._begin_request()
        before_alloc = self.device_memory.total_alloc_bytes
        before_stall = self.device_memory.stall_s
        if records:
            last_op = max(r.last_op for r in records)
            by_first: Dict[int, List[TensorUsageRecord]] = defaultdict(list)
            by_last: Dict[int, List[TensorUsageRecord]] = defaultdict(list)
            for r in records:
                by_first[r.first_op].append(r)
                by_last[r.last_op].append(r)
            live: Dict[str, tuple] = {}
            for op in range(last_op + 1):
                for r in by_first.get(op, ()):
                    live[r.name] = self._acquire(r.size)
                for r in by_last.get(op, ()):
                    handle, rounded = live.pop(r.name)
                    self._release(handle, rounded)
            assert not live, f"leaked tensors: {sorted(live)}"
        self._observe_footprint()
        return self._snapshot(before_alloc, before_stall)

    def empty_cache(self) -> None:
        """`torch.cuda.empty_cache()` equivalent: return blocks to device."""
        for handles in self._free_pool.values():
            for handle in handles:
                self.device_memory.free(handle)
        self._free_pool.clear()
