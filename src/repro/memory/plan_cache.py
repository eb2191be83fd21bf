"""Sequence-length-aware allocation-plan cache (host fast path, paper §4.2).

Algorithm 1 re-plans every request, but its placement is a *pure function*
of (the ordered chunk list with sizes, the request's usage records): the
plan starts by clearing every chunk, the gap search reads only sizes,
offsets and lifetimes, and release bookkeeping happens after placement.
A long-running server sees the same (shape, chunk-state) pair over and
over — so the outcome can be cached and replayed instead of re-running the
O(n²) gap search.

:class:`PlanCache` keys entries by ``(records signature, chunk
fingerprint)``.  Every plan's outcome is stored under its *post-release*
chunk state: planning is idempotent — freshly malloc'ed chunks land at the
end of the list and are reached only when every earlier chunk fails, so a
fresh plan of the same records from the post-plan state reproduces the
same placements with zero mallocs.  The warm re-plan that follows every
cold plan is therefore always a hit.  Replay
restores the cached per-chunk assignments (sharing the immutable
:class:`~repro.memory.chunk.ChunkAssignment` tuples) and the caller then
runs release bookkeeping *live* — unused-streak state is deliberately
excluded from the fingerprint because placement never reads it, and
running it live keeps chunk-release timing (and its ``cudaFree`` stalls)
bit-identical to the uncached allocator.  So a hit allocates nothing, but
it is not free of stalls: its bookkeeping still advances every unused
chunk's streak and may ``cudaFree`` a chunk.  A warm re-plan does so only
when ``release_after`` is odd (the parity lemma in
:meth:`repro.runtime.InferenceRuntime._warm_memory_closed_form`).

The cache is transparent: counters, stalls, placements, and the emitted
:class:`~repro.memory.plan.AllocationPlan` are exactly what the uncached
path would have produced.  The runtime charges a hit the same planning
host cost as a miss, so the cache saves wall-clock time only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .chunk import Chunk, ChunkAssignment
from .plan import AllocationPlan
from .records import TensorUsageRecord

#: (name, first_op, last_op, size) per record, in sequence order.
RecordsSignature = Tuple[Tuple[str, int, int, int], ...]

#: (chunk_id, size) per cached chunk, in allocator list order.
ChunkFingerprint = Tuple[Tuple[int, int], ...]

PlanKey = Tuple[RecordsSignature, ChunkFingerprint]

#: Default maximum number of cached plans per allocator (LRU-evicted).
DEFAULT_CAPACITY = 256


def records_signature(records: Sequence[TensorUsageRecord]) -> RecordsSignature:
    """Hashable identity of a request's usage records."""
    return tuple((r.name, r.first_op, r.last_op, r.size) for r in records)


def chunk_fingerprint(chunks: Sequence[Chunk]) -> ChunkFingerprint:
    """Hashable identity of the chunk state placement depends on."""
    return tuple((c.chunk_id, c.size) for c in chunks)


@dataclass(frozen=True)
class CachedPlan:
    """Replayable outcome of one planning round (post-release state)."""

    #: chunk_id -> offset-sorted assignments (possibly empty per chunk).
    assignments: Dict[int, Tuple[ChunkAssignment, ...]]
    #: The emitted plan, built on read from ``assignments``; safe to
    #: share, plans are never mutated.
    plan: AllocationPlan
    #: Gap-search hits to replay onto the allocator's counters.
    hits: int


class PlanCache:
    """LRU cache of :class:`CachedPlan` keyed by (records, chunk state).

    ``capacity`` bounds the entry count (None = unbounded).  ``hits`` /
    ``misses`` / ``stores`` / ``invalidations`` count cache events; the
    owning allocator mirrors them into a
    :class:`~repro.observability.MetricsRegistry` when one is attached.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, CachedPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, records: Sequence[TensorUsageRecord],
            chunks: Sequence[Chunk]) -> PlanKey:
        return records_signature(records), chunk_fingerprint(chunks)

    def get(self, key: PlanKey) -> Optional[CachedPlan]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: PlanKey, entry: CachedPlan) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stores += 1
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> int:
        """Drop every entry (graph or allocator config changed); returns count."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += 1
        return dropped

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
        }
