"""KV-cache arena for generative serving (iteration-level batching).

Decoder-only generation keeps a per-request key/value cache that grows by
one position per generated token and dies only when the request completes.
Algorithm 1 packs *variable-size* intermediate tensors with known
lifetimes into chunks; KV state is the opposite shape.  It lives in
**pages** that all have the same size (``page_tokens * bytes_per_token``)
and persist across many decode steps, so offset packing would degenerate
to ``slot * page_bytes``.  The arena is therefore a **fixed-slot page
pool**, as in PagedAttention's block manager (Kwon et al., 2023): a new
page pops a free slot, or raises the high-water mark when none is free,
and a page whose refcount reaches zero pushes its slot back.  Allocation
and free are O(1), and the footprint is ``slots_high_water * page_bytes``
— the peak number of resident pages, with no chunk slack.

Capacity model (what bounds the decode batch instead of ``max_batch``):

* A :class:`KVRegion` holds an ordered list of :class:`KVPage` handles;
  page ``i`` backs token positions ``[i*P, (i+1)*P)``.  Pages carry a
  **refcount**: prefix caching and :meth:`fork` let several regions (and
  the :class:`~repro.memory.prefix_index.RadixPrefixIndex`) reference one
  physical page, and :meth:`release` frees only pages whose refcount hits
  zero.
* Shared pages are **counted once** everywhere: ``used_bytes`` is the
  bytes of distinct resident pages, and both admission gates charge a
  newcomer only for the pages it does not share.
* Admission is gated by a **high-watermark**: a request is admitted only
  while the arena's *committed* bytes (resident pages minus the
  reclaimable index-only ones, plus the newcomer's private reservation)
  stay under ``high_watermark * capacity_bytes``.
* Overflow is impossible by construction: admission also requires that
  committed bytes plus every live region's remaining growth budget fit
  ``capacity_bytes``.  Pages held only by the prefix index are excluded
  from that bound because they are reclaimed on demand (LRU leaf
  eviction) the moment an allocation needs the room — growth therefore
  never fails after admission.

Copy-on-write note: generation KV is append-only — a region only ever
*writes* the page holding its next position.  ``fork()`` therefore shares
the parent's fully-written (immutable) pages by refcount and copies the
one mutable partial tail page eagerly; the lazy-copy machinery a
random-write allocator needs would buy at most one page per fork here
while making the no-overflow accounting probabilistic.

``verify()`` audits slot disjointness (MEM220) and page-refcount
conservation (MEM224); ``python -m repro check`` drives a scripted arena
episode through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .._checks import check_size
from .._observers import notify, observers


class KVArenaError(RuntimeError):
    """An arena invariant was violated (unknown request, capacity breach)."""


def kv_bytes_per_token(num_layers: int, num_heads: int, head_size: int,
                       dtype_bytes: int = 4) -> int:
    """Bytes of K+V cache one token occupies across all layers."""
    if min(num_layers, num_heads, head_size, dtype_bytes) <= 0:
        raise ValueError("all KV geometry factors must be positive")
    return 2 * num_layers * num_heads * head_size * dtype_bytes


@dataclass(slots=True)
class KVPage:
    """One physical KV page: ``tokens`` positions, shared by refcount.

    ``slot`` is the page's place in the arena's pool (its bytes sit at
    ``slot * page_bytes``).  ``refcount`` is the number of
    :class:`KVRegion` references plus one if the prefix index holds the
    page (``in_index``).  The MEM224 conservation audit recomputes both
    from the ground truth and flags any divergence.
    """

    page_id: int
    tokens: int
    refcount: int = 0
    in_index: bool = False
    slot: int = 0


@dataclass
class KVRegion:
    """One live request's KV cache: length, budget and its page handles.

    ``pages[i]`` backs token positions ``[i*P, (i+1)*P)``; the first
    ``shared_tokens / P`` pages are an immutable shared prefix (attached
    from the prefix index or a :meth:`KVCacheArena.fork` parent) that
    this region never writes.
    """

    req_id: int
    tokens: int             # KV positions written so far (prompt + generated)
    worst_case_tokens: int  # page-rounded bound the region may grow to
    page_tokens: int        # the arena's page size (every page holds this)
    pages: List[KVPage] = field(default_factory=list)
    shared_tokens: int = 0  # immutable shared prefix (page-aligned)

    @property
    def reserved_tokens(self) -> int:
        """Page-rounded footprint this region references (shared + private).

        O(1): every page the arena builds holds ``page_tokens`` positions,
        so this is the page count times the page size —
        :meth:`KVCacheArena.verify` checks it against the page sum.
        """
        return len(self.pages) * self.page_tokens


class KVCacheArena:
    """Simulated KV-cache memory for a continuously-batched decode loop.

    Parameters
    ----------
    capacity_bytes:
        Total simulated device memory set aside for KV caches.
    bytes_per_token:
        Per-token KV footprint (see :func:`kv_bytes_per_token`).
    page_tokens:
        Reservation granularity; regions grow a page (one pool slot) at a
        time.
    high_watermark:
        Admission gate as a fraction of capacity; the remainder is growth
        headroom.
    metrics:
        Optional :class:`repro.observability.MetricsRegistry`; publishes
        admission/denial/release/replan counters and a used-bytes gauge.
    """

    def __init__(
        self,
        capacity_bytes: int,
        bytes_per_token: int,
        page_tokens: int = 16,
        high_watermark: float = 0.9,
        metrics=None,
    ) -> None:
        check_size("capacity_bytes", capacity_bytes)
        check_size("bytes_per_token", bytes_per_token)
        check_size("page_tokens", page_tokens)
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError(
                f"high_watermark must be in (0, 1], got {high_watermark}"
            )
        self.capacity_bytes = capacity_bytes
        self.bytes_per_token = bytes_per_token
        self.page_tokens = page_tokens
        self.page_bytes = page_tokens * bytes_per_token
        self.high_watermark = high_watermark
        self.metrics = metrics
        self._regions: Dict[int, KVRegion] = {}  # insertion-ordered
        self._pages: Dict[int, KVPage] = {}      # resident, allocation order
        self._next_page_id = 0
        # The slot pool: freed slots are reused (LIFO) before the
        # high-water mark grows, so it equals peak resident pages.
        self._free_slots: List[int] = []
        self.slots_high_water = 0
        self._index = None  # attached RadixPrefixIndex (reclaim callback)
        # Incremental token counters (the O(1) accounting behind the
        # per-admission gates; ``verify()`` recomputes them from the
        # ground truth and flags drift):
        self._resident_tokens = 0     # distinct resident page tokens
        self._growth_tokens = 0       # sum of worst_case - reserved (regions)
        self._reclaimable_tokens = 0  # pages held only by the prefix index
        self.admissions = 0
        self.denials = 0
        self.releases = 0
        self.replans = 0
        self.preemptions = 0
        self.restores = 0
        self.forks = 0
        self.pages_reclaimed = 0
        self.shared_tokens_attached = 0
        self.peak_used_bytes = 0

    # -- capacity accounting --------------------------------------------------

    @property
    def watermark_bytes(self) -> int:
        """Admission threshold in bytes."""
        return int(self.capacity_bytes * self.high_watermark)

    @property
    def used_bytes(self) -> int:
        """Bytes of distinct resident pages (shared pages counted once)."""
        return self._resident_tokens * self.bytes_per_token

    @property
    def reclaimable_bytes(self) -> int:
        """Bytes of pages held only by the prefix index (evictable on
        demand — excluded from both admission gates)."""
        return self._reclaimable_tokens * self.bytes_per_token

    @property
    def committed_bytes(self) -> int:
        """Resident bytes the arena cannot reclaim (region-referenced)."""
        return (self._resident_tokens - self._reclaimable_tokens) \
            * self.bytes_per_token

    @property
    def live_requests(self) -> int:
        return len(self._regions)

    def _pages_tokens(self, tokens: int) -> int:
        """Round a token count up to whole pages."""
        pages = -(-tokens // self.page_tokens)
        return pages * self.page_tokens

    def _pages_count(self, tokens: int) -> int:
        return -(-tokens // self.page_tokens)

    def region_of(self, req_id: int) -> KVRegion:
        try:
            return self._regions[req_id]
        except KeyError:
            raise KVArenaError(f"request {req_id} has no KV region") from None

    # -- page lifecycle -------------------------------------------------------

    def attach_index(self, index) -> None:
        """Register the prefix index as the arena's page reclaimer."""
        if self._index is not None and self._index is not index:
            raise KVArenaError("arena already has a prefix index attached")
        self._index = index

    def _reclaimable(self, page: KVPage) -> bool:
        return page.in_index and page.refcount == 1

    def _reclassify(self, page: KVPage, was: bool) -> None:
        """Track a page entering or leaving the index-only state; one
        that enters it is offered to the index as an eviction candidate."""
        now = self._reclaimable(page)
        if was != now:
            self._reclaimable_tokens += page.tokens if now else -page.tokens
            if now:
                self._index.page_unpinned(page)

    def _ref(self, page: KVPage, *, index: bool = False) -> None:
        was = self._reclaimable(page)
        if index:
            if page.in_index:
                raise KVArenaError(
                    f"page {page.page_id} is already index-referenced"
                )
            page.in_index = True
        page.refcount += 1
        self._reclassify(page, was)

    def _unref(self, page: KVPage, *, index: bool = False) -> None:
        if page.refcount <= 0 or page.page_id not in self._pages:
            raise KVArenaError(
                f"page {page.page_id} released below a zero refcount"
            )
        was = self._reclaimable(page)
        if index:
            if not page.in_index:
                raise KVArenaError(
                    f"page {page.page_id} is not index-referenced"
                )
            page.in_index = False
        page.refcount -= 1
        self._reclassify(page, was)
        if page.refcount == 0:
            del self._pages[page.page_id]
            self._resident_tokens -= page.tokens
            self._free_slots.append(page.slot)

    def index_ref(self, page: KVPage) -> None:
        """The prefix index takes a reference on a resident page."""
        if page.page_id not in self._pages:
            raise KVArenaError(
                f"page {page.page_id} is not resident in this arena"
            )
        self._ref(page, index=True)

    def index_unref(self, page: KVPage) -> None:
        """The prefix index drops its reference (eviction); frees the page
        if nothing else holds it."""
        self._unref(page, index=True)

    def _alloc_page(self) -> KVPage:
        """Allocate one private page in a pool slot, reclaiming index-only
        pages if the arena is at capacity (the admission gates guarantee
        the regions alone always fit, so reclaim can never come up
        short)."""
        tokens = self.page_tokens
        needed = (self._resident_tokens + tokens) * self.bytes_per_token \
            - self.capacity_bytes
        if needed > 0:
            if self._index is not None:
                freed = self._index.reclaim(
                    -(-needed // self.bytes_per_token))
                self.pages_reclaimed += freed // tokens
            if self.used_bytes + self.page_bytes \
                    > self.capacity_bytes:  # pragma: no cover - gate invariant
                raise KVArenaError(
                    "KV arena overflow — admission invariant violated"
                )
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self.slots_high_water
            self.slots_high_water += 1
        page_id = self._next_page_id
        page = KVPage(page_id, tokens, 1, False, slot)
        self._next_page_id = page_id + 1
        self._pages[page_id] = page
        self._resident_tokens += tokens
        return page

    def _validated_shared(self, shared_pages: Sequence[KVPage],
                          tokens: int) -> int:
        """Token span of an attached shared prefix (must be resident and
        no longer than the page-rounded region)."""
        shared = 0
        for page in shared_pages:
            if self._pages.get(page.page_id) is not page:
                raise KVArenaError(
                    f"shared page {page.page_id} is not resident in this arena"
                )
            shared += page.tokens
        if shared > self._pages_tokens(tokens):
            raise KVArenaError(
                f"shared prefix of {shared} tokens exceeds the "
                f"{self._pages_tokens(tokens)}-token region"
            )
        return shared

    def _pinned_delta_tokens(self, shared_pages: Sequence[KVPage]) -> int:
        """Tokens that would move from reclaimable to committed if these
        pages gained their first region reference."""
        return sum(p.tokens for p in shared_pages if self._reclaimable(p))

    # -- admission ------------------------------------------------------------

    def _deny(self) -> bool:
        self.denials += 1
        if self.metrics is not None:
            self.metrics.counter("kv_arena_denials_total").inc()
        return False

    def fits_at_all(self, prompt_tokens: int, max_total_tokens: int) -> bool:
        """Could this request *ever* be admitted (even into an empty arena)?

        The serving loop sheds requests for which this is False rather than
        letting them block the queue head forever.  Judged cache-blind (no
        shared-prefix credit) so shed decisions are identical with prefix
        caching on or off.
        """
        initial = self._pages_tokens(prompt_tokens) * self.bytes_per_token
        worst = self._pages_tokens(max_total_tokens) * self.bytes_per_token
        return initial <= self.watermark_bytes and worst <= self.capacity_bytes

    def can_admit(self, prompt_tokens: int, max_total_tokens: int,
                  shared_pages: Sequence[KVPage] = ()) -> bool:
        """True if admitting now keeps both capacity invariants.

        ``max_total_tokens`` is the request's worst-case KV length (prompt
        plus its full output budget).  ``shared_pages`` is an already-
        resident page-aligned prefix the newcomer would attach instead of
        allocating — those pages are charged once globally, so the gates
        only price the private remainder (plus the one-time pinning of
        shared pages currently held only by the index).
        """
        if prompt_tokens <= 0 or max_total_tokens < prompt_tokens:
            raise ValueError(
                f"invalid token counts: prompt {prompt_tokens}, "
                f"max_total {max_total_tokens}"
            )
        shared = self._validated_shared(shared_pages, prompt_tokens)
        pinned = self._pinned_delta_tokens(shared_pages)
        initial = self._pages_tokens(prompt_tokens) - shared
        worst = self._pages_tokens(max_total_tokens) - shared
        committed = self._resident_tokens - self._reclaimable_tokens
        bpt = self.bytes_per_token
        return ((committed + pinned + initial) * bpt <= self.watermark_bytes
                and (committed + pinned + self._growth_tokens + worst) * bpt
                <= self.capacity_bytes)

    def _materialize(self, req_id: int, tokens: int, max_total_tokens: int,
                     shared_pages: Sequence[KVPage]) -> None:
        """Build a region: attach the shared prefix, allocate the rest."""
        shared = sum(p.tokens for p in shared_pages)
        pages: List[KVPage] = []
        for page in shared_pages:
            self._ref(page)
            pages.append(page)
        for _ in range(self._pages_count(tokens)
                       - shared // self.page_tokens):
            pages.append(self._alloc_page())
        region = KVRegion(
            req_id=req_id,
            tokens=tokens,
            worst_case_tokens=self._pages_tokens(max_total_tokens),
            page_tokens=self.page_tokens,
            pages=pages,
            shared_tokens=shared,
        )
        self._regions[req_id] = region
        self._growth_tokens += region.worst_case_tokens \
            - region.reserved_tokens
        self.shared_tokens_attached += shared

    def admit(self, req_id: int, prompt_tokens: int, max_total_tokens: int,
              shared_pages: Sequence[KVPage] = ()) -> bool:
        """Reserve a KV region for a new request; False if the gate holds it.

        A successful admission attaches ``shared_pages`` (a resident,
        page-aligned prompt prefix — typically the longest
        :class:`~repro.memory.prefix_index.RadixPrefixIndex` match) by
        refcount and allocates private pages for the remainder of the
        page-rounded prompt.
        """
        if req_id in self._regions:
            raise KVArenaError(f"request {req_id} already has a KV region")
        if not self.can_admit(prompt_tokens, max_total_tokens, shared_pages):
            return self._deny()
        self._materialize(req_id, prompt_tokens, max_total_tokens,
                          shared_pages)
        self.admissions += 1
        if self.metrics is not None:
            self.metrics.counter("kv_arena_admissions_total").inc()
        self._layout_changed()
        if observers:
            notify("on_arena", self, "admit", req_id, prompt_tokens)
        return True

    def fork(self, parent_req_id: int, child_req_id: int,
             max_total_tokens: int) -> bool:
        """Copy-on-write fork: a new region sharing the parent's pages.

        The parent's fully-written pages are attached by refcount (both
        regions only ever append past them, so they are immutable); the
        partial tail page, if any, is the one page either side could
        still write, and is copied for the child up front.  The same dual
        admission gate applies, charging the child only for its private
        pages; False means the gate holds it.
        """
        parent = self.region_of(parent_req_id)
        if child_req_id in self._regions:
            raise KVArenaError(
                f"request {child_req_id} already has a KV region"
            )
        if max_total_tokens < parent.tokens:
            raise ValueError(
                f"invalid fork budget: parent holds {parent.tokens} tokens, "
                f"max_total {max_total_tokens}"
            )
        aligned = (parent.tokens // self.page_tokens) * self.page_tokens
        shared_pages = parent.pages[:aligned // self.page_tokens]
        if not self.can_admit(parent.tokens, max_total_tokens, shared_pages):
            return self._deny()
        self._materialize(child_req_id, parent.tokens, max_total_tokens,
                          shared_pages)
        self.forks += 1
        self._layout_changed()
        if observers:
            notify("on_arena", self, "admit", child_req_id, parent.tokens)
        return True

    # -- growth / release -----------------------------------------------------

    def append(self, req_id: int, tokens: int = 1) -> None:
        """Grow a region by ``tokens`` generated positions.

        Growing past the current reservation extends it a page at a time;
        the admission-time worst-case bound guarantees the extension fits
        — reclaiming index-only pages on the way if the arena is at
        capacity.
        """
        if tokens <= 0:
            raise ValueError(f"tokens must be positive, got {tokens}")
        try:
            region = self._regions[req_id]
        except KeyError:
            raise KVArenaError(f"request {req_id} has no KV region") from None
        region.tokens += tokens
        length = region.tokens
        if length > region.worst_case_tokens:
            raise KVArenaError(
                f"request {req_id} grew to {length} tokens past its "
                f"admitted worst case {region.worst_case_tokens}"
            )
        pages = region.pages
        page_tokens = self.page_tokens
        # ``len(pages) * page_tokens`` is ``region.reserved_tokens``.
        if length > len(pages) * page_tokens:
            while length > len(pages) * page_tokens:
                pages.append(self._alloc_page())
                self._growth_tokens -= page_tokens
            self._layout_changed()
        if observers:
            notify("on_arena", self, "append", req_id, tokens)

    def _drop_region(self, req_id: int) -> KVRegion:
        self.region_of(req_id)  # raises KVArenaError on unknown requests
        region = self._regions.pop(req_id)
        self._growth_tokens -= region.worst_case_tokens \
            - region.reserved_tokens
        for page in region.pages:
            self._unref(page)
        return region

    def release(self, req_id: int) -> None:
        """Free a completed request's pages (refcount-zero ones only).
        Pages the prefix index or a sibling region still references stay
        resident."""
        tokens = self._drop_region(req_id).tokens
        self.releases += 1
        if self.metrics is not None:
            self.metrics.counter("kv_arena_releases_total").inc()
        self._layout_changed()
        if observers:
            notify("on_arena", self, "release", req_id, tokens)

    # -- preemption / recovery ------------------------------------------------

    def preempt(self, req_id: int) -> int:
        """Evict a live region under pressure; returns the tokens dropped.

        The victim's *private* KV state is gone — the serving loop must
        re-queue it and recompute (prefill over prompt + already-generated
        tokens, minus any still-cached prefix) when it is re-admitted via
        :meth:`restore`.  Shared pages survive as long as the index or a
        sibling region references them.  Counted separately from
        :meth:`release` so chaos reports can distinguish completions from
        evictions.
        """
        region = self.region_of(req_id)
        tokens = region.tokens
        self._drop_region(req_id)
        self.preemptions += 1
        if self.metrics is not None:
            self.metrics.counter("kv_arena_preemptions_total").inc()
        self._layout_changed()
        if observers:
            notify("on_arena", self, "preempt", req_id, tokens)
        return tokens

    def restore(self, req_id: int, tokens: int, max_total_tokens: int,
                shared_pages: Sequence[KVPage] = ()) -> bool:
        """Re-admit a preempted (or crash-evicted) request's region.

        ``tokens`` is the recompute length (prompt + tokens generated
        before eviction); ``shared_pages`` is any still-resident cached
        prefix (the recompute then covers only the remainder).  The same
        dual admission gate applies — shared pages counted once — so a
        successful restore re-establishes the append-never-fails
        guarantee.  False means the gate still holds it — retry later.
        """
        if req_id in self._regions:
            raise KVArenaError(f"request {req_id} already has a KV region")
        if not self.can_admit(tokens, max_total_tokens, shared_pages):
            return self._deny()
        self._materialize(req_id, tokens, max_total_tokens, shared_pages)
        self.restores += 1
        if self.metrics is not None:
            self.metrics.counter("kv_arena_restores_total").inc()
        self._layout_changed()
        if observers:
            notify("on_arena", self, "restore", req_id, tokens)
        return True

    # -- accounting and audits ------------------------------------------------

    def _layout_changed(self) -> None:
        """Count a mutation of the resident page set (``replans``, kept
        under its historical name), track peak residency and the gauge."""
        self.replans += 1
        self.peak_used_bytes = max(self.peak_used_bytes, self.used_bytes)
        if self.metrics is not None:
            self.metrics.counter("kv_arena_replans_total").inc()
            self.metrics.gauge("kv_arena_used_bytes").set(
                self.used_bytes, t=self.replans
            )

    def verify(self, live_req_ids: Optional[List[int]] = None) -> List[str]:
        """Slot-pool + refcount-conservation verifier (empty == clean).

        Three audits:

        * **slot disjointness** (MEM220): resident pages hold distinct
          slots, and those plus the free list partition the pool's
          ``slots_high_water`` slots;
        * **refcount conservation** (MEM224): every resident page's
          refcount must equal the number of regions referencing it plus
          its index reference, no resident page may sit at refcount zero,
          and the O(1) token counters — each region's
          ``reserved_tokens`` among them — must match a from-scratch
          recount;
        * with ``live_req_ids`` given, the leak invariant: no region may
          outlive its request (after a completion, crash or preemption
          the region must be gone).  Chaos runs pass the set of requests
          still legitimately in flight — an empty set at end of run
          asserts the arena drained completely.
        """
        messages: List[str] = []
        owners: Dict[int, int] = {}
        for pid, page in self._pages.items():
            other = owners.setdefault(page.slot, pid)
            if other != pid:
                messages.append(
                    f"pages {other} and {pid} both occupy slot {page.slot}"
                )
        if sorted(list(owners) + self._free_slots) \
                != list(range(self.slots_high_water)):
            messages.append(f"resident and free slots do not partition the "
                            f"{self.slots_high_water}-slot pool")
        # Refcount conservation: recompute every page's references from
        # the ground truth (regions + index) and compare.
        expected: Dict[int, int] = {pid: 0 for pid in self._pages}
        for region in self._regions.values():
            for page in region.pages:
                if page.page_id in expected:
                    expected[page.page_id] += 1
                else:
                    messages.append(
                        f"region {region.req_id} references page "
                        f"{page.page_id} with a stale refcount (freed while "
                        f"referenced)"
                    )
        index_pages = set()
        if self._index is not None:
            for page in self._index.resident_pages():
                index_pages.add(page.page_id)
                if page.page_id in expected:
                    expected[page.page_id] += 1
                else:
                    messages.append(
                        f"prefix index references page {page.page_id} with "
                        f"a stale refcount (freed while referenced)"
                    )
        for pid, page in self._pages.items():
            if page.refcount != expected[pid]:
                messages.append(
                    f"page {pid} refcount {page.refcount} diverges from its "
                    f"{expected[pid]} reference(s)"
                )
            if page.in_index != (pid in index_pages):
                messages.append(
                    f"page {pid} refcount index flag {page.in_index} "
                    f"diverges from the prefix index"
                )
            if page.refcount == 0:
                messages.append(
                    f"page {pid} is resident at refcount zero"
                )
        resident = sum(p.tokens for p in self._pages.values())
        growth = 0
        for region in self._regions.values():
            reserved = sum(p.tokens for p in region.pages)
            if region.reserved_tokens != reserved:
                messages.append(
                    f"region {region.req_id} reserved_tokens "
                    f"{region.reserved_tokens} diverges from its page sum "
                    f"{reserved} (accounting drift)"
                )
            growth += region.worst_case_tokens - reserved
        reclaimable = sum(p.tokens for p in self._pages.values()
                          if self._reclaimable(p))
        for name, fast, slow in (
            ("resident", self._resident_tokens, resident),
            ("growth", self._growth_tokens, growth),
            ("reclaimable", self._reclaimable_tokens, reclaimable),
        ):
            if fast != slow:
                messages.append(
                    f"incremental {name} token counter {fast} diverges from "
                    f"the recounted {slow} (accounting drift)"
                )
        if live_req_ids is not None:
            live = set(live_req_ids)
            for req_id in self._regions:
                if req_id not in live:
                    messages.append(
                        f"KV region for request {req_id} outlives its "
                        f"request (leak)"
                    )
        return messages

    def stats(self) -> Dict[str, object]:
        """Deterministic counters (read by ``repro bench`` and tests)."""
        return {
            "admissions": self.admissions,
            "denials": self.denials,
            "releases": self.releases,
            "replans": self.replans,
            "preemptions": self.preemptions,
            "restores": self.restores,
            "forks": self.forks,
            "live": self.live_requests,
            "used_bytes": self.used_bytes,
            "peak_used_bytes": self.peak_used_bytes,
            "capacity_bytes": self.capacity_bytes,
            "footprint_bytes": self.slots_high_water * self.page_bytes,
            "pages_resident": len(self._pages),
            "pages_reclaimed": self.pages_reclaimed,
            "reclaimable_bytes": self.reclaimable_bytes,
            "shared_tokens_attached": self.shared_tokens_attached,
        }
