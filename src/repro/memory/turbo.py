"""The sequence-length-aware allocator (paper Algorithm 1).

Combines a chunk cache (allocation efficiency) with graph-topology-aware
offset packing (footprint): when a request's sequence length becomes known,
the per-tensor usage records are re-planned into the cached chunks; only if
no chunk has a fitting gap is a new chunk ``cudaMalloc``-ed, and chunks the
new plan leaves empty are released (Alg. 1 line 20).

A plan is one placement pass over plain tuples.  Each chunk keeps, for
the plan, a per-op occupancy index — the bitmask of resident slots whose
lifetime covers each op — so probing a chunk for a record reads only the
residents whose lifetimes overlap it (about one in 25 of a BERT chunk's
residents) and hands their spans to :func:`~repro.memory.chunk.best_fit`, the same
Algorithm 2 scan :meth:`Chunk.find_gap` runs.  The emitted
:class:`AllocationPlan` builds its ``placements`` dict on first read.

Planning is idempotent: re-planning the records of the last plan
reproduces its placements and mallocs nothing (release bookkeeping may
still free a chunk neither plan uses).  A plan starts from empty chunks
and reads only their sizes and order, the chunks it releases held
nothing, and a freshly malloc'ed chunk is appended, so it is probed
only after every older chunk has failed — exactly as in the plan that
created it.  The runtime's deferred warm-up rests on this
(:meth:`repro.runtime.InferenceRuntime._warm_memory_closed_form`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .._checks import check_size
from ..gpusim.memory import DeviceMemory
from .base import BaseAllocator, RequestAllocation
from .chunk import (DEFAULT_CHUNK_SIZE, K_SCALE, Chunk, ChunkAssignment,
                    best_fit, new_chunk_size, offset_of)
from .plan import AllocationPlan
from .records import TensorUsageRecord, sort_by_size


class TurboAllocator(BaseAllocator):
    """Paper Algorithm 1: chunked, lifetime-aware, re-planned per request.

    Parameters
    ----------
    device_memory:
        Backing device; chunks are real ``cudaMalloc`` allocations on it.
    chunk_size:
        ``DEFAULT_chunk_SIZE`` of the paper (2 MB); an ``int`` of at
        least 1.
    k_scale:
        Oversize factor for tensors larger than a default chunk (1.2);
        finite and at least 1.
    release_after:
        Alg. 1 line 20 releases chunks the new plan leaves unused.  Doing
        so *immediately* (``release_after=0``, the algorithm's literal
        reading) causes malloc churn on alternating long/short requests,
        which contradicts the paper's measured 0.70 MB/request — the
        deployed system evidently caches idle chunks briefly.  We release
        a chunk after it has sat unused for this many consecutive plans
        (default 8); ``None`` never releases.  An ``int`` of at least 0
        or ``None``.  Ablated in
        ``benchmarks/test_ablation_allocator_params.py``.
    gap_search:
        ``"fast"`` (default) runs the lifetime-indexed placement pass;
        ``"reference"`` runs the original object-walking Algorithm 2
        (:meth:`Chunk.find_gap_reference`) with one :meth:`Chunk.assign`
        per placement — the test oracle and benchmark baseline.  Every
        output is identical either way (differential-tested).
    """

    name = "turbo"

    def __init__(
        self,
        device_memory: Optional[DeviceMemory] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        k_scale: float = K_SCALE,
        release_after: Optional[int] = 8,
        metrics=None,
        gap_search: str = "fast",
    ) -> None:
        super().__init__(device_memory, metrics=metrics)
        if gap_search not in ("fast", "reference"):
            raise ValueError(
                f"gap_search must be 'fast' or 'reference', got {gap_search!r}"
            )
        check_size("chunk_size", chunk_size)
        # Written so that NaN fails.
        if not 1.0 <= k_scale < math.inf:
            raise ValueError(f"k_scale must be finite and >= 1.0, got {k_scale}")
        if release_after is not None:
            if (not isinstance(release_after, int)
                    or isinstance(release_after, bool)):
                raise TypeError("release_after must be an int or None, "
                                f"got {release_after!r}")
            if release_after < 0:
                raise ValueError(
                    f"release_after must be >= 0 or None, got {release_after}")
        self.chunk_size = chunk_size
        self.k_scale = k_scale
        self.release_after = release_after
        self.gap_search = gap_search
        self._chunks: List[Chunk] = []
        self._next_chunk_id = 0
        # Hit = record placed into an existing chunk's gap; miss = a new
        # chunk had to be cudaMalloc'ed (the allocator analogue of the
        # caching allocator's pool hits/misses).
        self.plan_hits = 0
        self.plan_misses = 0
        self.chunks_released = 0

    # -- Algorithm 1 ---------------------------------------------------------

    def plan(self, records: Sequence[TensorUsageRecord]) -> AllocationPlan:
        """Assign every record to a (chunk, offset); may grow the chunk list."""
        if self.gap_search == "reference":
            self._place_reference(records)
        else:
            self._place(records)
        self._release_unused()
        return AllocationPlan.from_assignments(
            {c.chunk_id: tuple(c.assignments) for c in self._chunks},
            {c.chunk_id: c.size for c in self._chunks if not c.is_unused})

    def _place(self, records: Sequence[TensorUsageRecord]) -> None:
        """L1-L18 in one pass over plain tuples.

        Each chunk gets a per-op occupancy index for this plan: slot ``i``
        holds the ``(offset, end)`` span of the chunk's ``i``-th placed
        record, and ``live[op]`` is the bitmask of the slots whose
        lifetime covers ``op``.  A probe ORs the masks over the record's
        ``[first_op, last_op]``, so :func:`best_fit` reads only the
        residents whose lifetimes overlap it.  Placements are collected
        per chunk and offset-sorted into one :meth:`Chunk.restore`.
        """
        n_ops = max((r.last_op for r in records), default=-1) + 1
        # Per chunk: (size, spans by slot, live masks by op, placements).
        states = [(c.size, [], [0] * n_ops, []) for c in self._chunks]
        hits = 0
        try:
            # L1: non-increasing size order.
            for record in sort_by_size(records):
                need = record.size
                first = record.first_op
                stop = record.last_op + 1
                # L4-L12: first chunk with a fitting gap.
                for size, spans, live, placed in states:
                    if need > size:
                        continue
                    mask = 0
                    for op_mask in live[first:stop]:
                        mask |= op_mask
                    if not mask:
                        offset = 0
                    else:
                        overlapping = []
                        while mask:
                            low = mask & -mask
                            overlapping.append(spans[low.bit_length() - 1])
                            mask ^= low
                        overlapping.sort()
                        offset = best_fit(need, size, overlapping)
                        if offset is None:
                            continue
                    hits += 1
                    break
                else:
                    self.plan_misses += 1
                    self._observe_miss()
                    # L13-L18: append a new chunk sized for the tensor.
                    size = new_chunk_size(need, self.chunk_size, self.k_scale)
                    self._chunks.append(Chunk(
                        chunk_id=self._next_chunk_id,
                        size=size,
                        handle=self.device_memory.malloc(size),
                    ))
                    self._next_chunk_id += 1
                    spans, live, placed = [], [0] * n_ops, []
                    states.append((size, spans, live, placed))
                    offset = 0
                bit = 1 << len(spans)
                spans.append((offset, offset + need))
                for op in range(first, stop):
                    live[op] |= bit
                placed.append(ChunkAssignment(record, offset))
        finally:
            # Also on a failed cudaMalloc, so the chunks and counters
            # show the partial plan exactly as the reference pass does.
            self.plan_hits += hits
            if self.metrics is not None and hits:
                self.metrics.counter(
                    "allocator_hits_total", allocator=self.name
                ).inc(hits)
            for chunk, (_, _, _, placed) in zip(self._chunks, states):
                # A stable sort keeps placement order among equal
                # offsets, exactly where Chunk.assign's bisect_right
                # would put them.
                placed.sort(key=offset_of)
                chunk.restore(placed)

    def _place_reference(self, records: Sequence[TensorUsageRecord]) -> None:
        """L1-L18 as originally written: per-record object-walking gap
        search and one :meth:`Chunk.assign` per placement."""
        for chunk in self._chunks:
            chunk.clear()
        for record in sort_by_size(records):
            for chunk in self._chunks:
                offset = chunk.find_gap_reference(record)
                if offset is not None:
                    chunk.assign(record, offset)
                    self.plan_hits += 1
                    self._observe_hit()
                    break
            else:
                self.plan_misses += 1
                self._observe_miss()
                size = new_chunk_size(record.size, self.chunk_size,
                                      self.k_scale)
                chunk = Chunk(
                    chunk_id=self._next_chunk_id,
                    size=size,
                    handle=self.device_memory.malloc(size),
                )
                self._next_chunk_id += 1
                self._chunks.append(chunk)
                chunk.assign(record, 0)

    def _release_unused(self) -> None:
        """L20: release chunks the plan leaves unused (after a grace
        period, see the release_after docstring)."""
        if self.release_after is None:
            return
        kept: List[Chunk] = []
        for chunk in self._chunks:
            if chunk.is_unused:
                chunk.unused_streak += 1
                if chunk.unused_streak > self.release_after:
                    if chunk.handle is not None:
                        self.device_memory.free(chunk.handle)
                    self.chunks_released += 1
                    if self.metrics is not None:
                        self.metrics.counter(
                            "allocator_chunks_released_total",
                            allocator=self.name,
                        ).inc()
                    continue
            else:
                chunk.unused_streak = 0
            kept.append(chunk)
        self._chunks = kept

    def process_request(self, records: Sequence[TensorUsageRecord]) -> RequestAllocation:
        self._begin_request()
        before_alloc = self.device_memory.total_alloc_bytes
        before_stall = self.device_memory.stall_s
        plan = self.plan(records)
        self._observe_footprint()
        return self._snapshot(before_alloc, before_stall, plan)

    # -- introspection --------------------------------------------------------

    @property
    def chunks(self) -> List[Chunk]:
        return list(self._chunks)

    def chunk_layout(self) -> Dict[int, List[str]]:
        """Tensor names per chunk, offset-ordered (for Fig. 6 rendering)."""
        return {
            c.chunk_id: [a.record.name for a in c.assignments] for c in self._chunks
        }
