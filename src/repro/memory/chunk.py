"""Memory chunks and the best-gap search (paper Algorithm 2).

A chunk is a cached block of device memory (2 MB by default).  Tensors are
placed at offsets inside chunks; two tensors may share overlapping byte
ranges iff their lifetimes do not overlap.  ``Chunk.find_gap`` is a faithful
implementation of the paper's ``FindGapFromChunk`` — a best-fit scan over
the chunk's time-overlapping residents, a special case of 2-D strip packing
solved greedily in O(n) per tensor (O(n²) over a request's plan).

Note: line 17 of the paper's Algorithm 2 reads ``chunk_size − prev_offset ≤
size_t``, which would only accept tensors *larger* than the remaining tail;
the surrounding prose and Algorithm 1 make clear the intended condition is
``≥`` (the tail gap fits the tensor).  We implement the corrected form.

The scan itself is :func:`best_fit`: it reads only the ``(offset, end)``
spans of the residents whose lifetimes overlap the target, in offset
order.  :meth:`Chunk.find_gap` selects those residents by a linear
lifetime filter; the Algorithm 1 planner
(:class:`~repro.memory.turbo.TurboAllocator`) selects them through a
per-op occupancy index and feeds the same function.
:meth:`Chunk.find_gap_reference` keeps the original object-walking form;
the property tests assert both return identical offsets.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .records import TensorUsageRecord

#: Paper §4.2: chunks default to 2 MB.
DEFAULT_CHUNK_SIZE = 2 * 1024 * 1024

#: Paper Alg. 1 line 14: oversize tensors get a chunk of size * K_SCALE.
K_SCALE = 1.2

#: Sort/bisect key of a :class:`ChunkAssignment`: its offset.
offset_of = attrgetter("offset")


class ChunkAssignment(NamedTuple):
    """One tensor placed at ``offset`` within a chunk."""

    record: TensorUsageRecord
    offset: int

    @property
    def end(self) -> int:
        return self.offset + self.record.size


def best_fit(need: int, chunk_size: int,
             spans: Iterable[Tuple[int, int]]) -> Optional[int]:
    """Paper Algorithm 2 over the ``(offset, end)`` spans of the residents
    whose lifetimes overlap the target, in offset order.

    Returns the offset of the smallest interior gap that fits ``need``
    bytes, else the tail offset if the tail fits, else None.  Residents
    sharing an offset may come in any order: after the first, the gap
    before the others is either negative or the same gap again.
    """
    smallest_gap: Optional[int] = None
    best_offset: Optional[int] = None
    prev_end = 0
    for offset, end in spans:
        gap = offset - prev_end
        if need <= gap and (smallest_gap is None or gap < smallest_gap):
            smallest_gap = gap
            best_offset = prev_end
        if end > prev_end:
            prev_end = end
    if best_offset is None and chunk_size - prev_end >= need:
        best_offset = prev_end
    return best_offset


@dataclass
class Chunk:
    """A cached device-memory block holding offset-assigned tensors."""

    chunk_id: int
    size: int
    handle: Optional[int] = None  # DeviceMemory handle, if backed
    assignments: List[ChunkAssignment] = field(default_factory=list)
    unused_streak: int = 0  # consecutive plans that left this chunk empty

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"chunk size must be positive, got {self.size}")
        if self.assignments:
            self.assignments = sorted(self.assignments, key=offset_of)

    def clear(self) -> None:
        """Drop all assignments (start of a new request's plan)."""
        self.assignments.clear()

    def restore(self, assignments: Sequence[ChunkAssignment]) -> None:
        """Adopt an offset-sorted assignment list (a planned or replayed
        plan)."""
        self.assignments = list(assignments)

    def assign(self, record: TensorUsageRecord, offset: int) -> ChunkAssignment:
        """Place ``record`` at ``offset``; keeps assignments offset-sorted."""
        if offset < 0 or offset + record.size > self.size:
            raise ValueError(
                f"tensor {record.name!r} ({record.size} B at {offset}) "
                f"does not fit chunk {self.chunk_id} of {self.size} B"
            )
        assignment = ChunkAssignment(record, offset)
        index = bisect_right(self.assignments, offset, key=offset_of)
        self.assignments.insert(index, assignment)
        return assignment

    def find_gap(self, record: TensorUsageRecord) -> Optional[int]:
        """Paper Algorithm 2: best-fit offset for ``record`` or None.

        Only residents whose lifetime overlaps ``record`` constrain
        placement (L6-L8); :func:`best_fit` scans them in offset order.
        """
        need = record.size
        if need > self.size:
            # No gap in this chunk can ever fit the tensor; skip the scan
            # (the reference form reaches the same None via the tail check).
            return None
        first = record.first_op
        last = record.last_op
        return best_fit(need, self.size, [
            (offset, offset + resident.size)
            for resident, offset in self.assignments
            if resident.first_op <= last and first <= resident.last_op
        ])

    def find_gap_reference(self, record: TensorUsageRecord) -> Optional[int]:
        """The original object-walking Algorithm 2 (kept as test oracle)."""
        smallest_gap = float("inf")
        prev_offset = 0
        best_offset: Optional[int] = None
        for assignment in self.assignments:  # offset-sorted
            x = assignment.record
            if record.overlaps(x):
                gap = assignment.offset - prev_offset
                if record.size <= gap < smallest_gap:
                    smallest_gap = gap
                    best_offset = prev_offset
                prev_offset = max(prev_offset, assignment.end)
        if best_offset is None and self.size - prev_offset >= record.size:
            best_offset = prev_offset
        return best_offset

    @property
    def used_bytes(self) -> int:
        """High-water offset of the current plan (not a live-byte count)."""
        return max((a.end for a in self.assignments), default=0)

    @property
    def is_unused(self) -> bool:
        return not self.assignments


def new_chunk_size(tensor_size: int, default_size: int = DEFAULT_CHUNK_SIZE,
                   k_scale: float = K_SCALE) -> int:
    """Size for a freshly appended chunk (Alg. 1 line 14)."""
    if tensor_size <= 0:
        raise ValueError(f"tensor_size must be positive, got {tensor_size}")
    return max(default_size, int(tensor_size * k_scale))
