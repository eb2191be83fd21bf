"""Device global-memory accounting.

Tracks cudaMalloc/cudaFree traffic for the simulated device.  The memory
allocators in :mod:`repro.memory` sit on top of this: they request chunks
(or individual tensors, for the naive baseline) from a :class:`DeviceMemory`
and the experiments read footprint statistics from it (Fig. 7).

A ``cudaMalloc``/``cudaFree`` pair is not free: on a busy device it
synchronizes the stream.  The paper measures 50% idle time on an M40 from
exactly this effect, so each raw allocation charges a stall that the
allocation-efficiency experiments can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Seconds one raw cudaMalloc or cudaFree stalls the device stream.
CUDA_MALLOC_STALL_S = 150e-6


class OutOfDeviceMemoryError(MemoryError):
    """Raised when an allocation would exceed the device's capacity."""


@dataclass
class DeviceMemory:
    """Byte-accurate cudaMalloc/cudaFree bookkeeping.

    Attributes
    ----------
    capacity_bytes:
        Total device memory, an ``int`` of at least 0 (0 means unlimited,
        useful in unit tests).
    """

    capacity_bytes: int = 0
    allocated_bytes: int = 0
    peak_bytes: int = 0
    malloc_calls: int = 0
    free_calls: int = 0
    total_alloc_bytes: int = 0
    stall_s: float = 0.0
    _live: Dict[int, int] = field(default_factory=dict)
    _next_handle: int = 0

    def __post_init__(self) -> None:
        capacity = self.capacity_bytes
        if not isinstance(capacity, int) or isinstance(capacity, bool):
            raise TypeError(f"capacity_bytes must be an int, got {capacity!r}")
        if capacity < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0 (0 = unlimited), got {capacity}")

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns an opaque handle."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        if self.capacity_bytes and self.allocated_bytes + nbytes > self.capacity_bytes:
            raise OutOfDeviceMemoryError(
                f"requested {nbytes} B with {self.allocated_bytes} B live "
                f"exceeds capacity {self.capacity_bytes} B"
            )
        handle = self._next_handle
        self._next_handle += 1
        self._live[handle] = nbytes
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        self.malloc_calls += 1
        self.total_alloc_bytes += nbytes
        self.stall_s += CUDA_MALLOC_STALL_S
        return handle

    def free(self, handle: int) -> None:
        """Release a handle returned by :meth:`malloc`."""
        try:
            nbytes = self._live.pop(handle)
        except KeyError:
            raise ValueError(f"handle {handle} is not a live allocation") from None
        self.allocated_bytes -= nbytes
        self.free_calls += 1
        self.stall_s += CUDA_MALLOC_STALL_S

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def reset_stats(self) -> None:
        """Zero the counters without touching live allocations."""
        self.peak_bytes = self.allocated_bytes
        self.malloc_calls = 0
        self.free_calls = 0
        self.total_alloc_bytes = 0
        self.stall_s = 0.0
