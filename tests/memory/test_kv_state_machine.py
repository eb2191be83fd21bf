"""Stateful differential test of the KV arena and the radix prefix index.

Hypothesis drives one :class:`KVCacheArena` + :class:`RadixPrefixIndex`
pair and a deliberately naive reference model through random sequences
of admit, append, fork (including beam-style fan-out of one parent),
preempt, restore, release, lookup, publish and reclaim.  The reference
keeps a dict of page refcounts, recomputes every admission gate from
scratch and picks eviction victims with an O(n) scan for the minimum
``(last_used, page_id)`` over unpinned leaves.  After every step the two
must agree on gate decisions, lookups, victims, refcounts and byte
counters, on ``replans`` (one per layout-changing call, however many
pages an append adds) and ``pages_reclaimed``, and on the order pages
are allocated with their ids and pool slots (a freed slot is reused LIFO,
and a reclaim frees its slots before the page that needed it takes one);
``verify()`` must be clean; every live region's O(1)
``reserved_tokens`` must equal its page sum; and the slot pool's
footprint must equal the peak number of distinct resident pages.
"""

from typing import Dict, List, Optional, Sequence, Set, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.memory import KVCacheArena, RadixPrefixIndex

FAMILIES = 3  # shared-prefix families the prompts draw from


def prompt_ids(family: int, shared: int, n: int, req: int) -> Tuple[int, ...]:
    """``shared`` ids of a family prefix, then ids unique to ``req``."""
    head = tuple(range(family * 1000, family * 1000 + shared))
    return head + tuple(100_000 + req * 100 + j for j in range(n - shared))


class LoggingArena(KVCacheArena):
    """Records the page of every index eviction and the ``(page_id,
    slot)`` of every allocation, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.evicted: List[int] = []
        self.allocated: List[Tuple[int, int]] = []

    def _alloc_page(self):
        page = super()._alloc_page()
        self.allocated.append((page.page_id, page.slot))
        return page

    def index_unref(self, page) -> None:
        self.evicted.append(page.page_id)
        super().index_unref(page)


class RefRegion:
    def __init__(self, tokens: int, worst: int, pages: List[int]) -> None:
        self.tokens = tokens
        self.worst = worst
        self.pages = pages


class Reference:
    """Arena + index semantics, recomputed from plain dicts every time."""

    def __init__(self, capacity_bytes: int, bpt: int, page_tokens: int,
                 watermark: float) -> None:
        self.capacity = capacity_bytes
        self.bpt = bpt
        self.P = page_tokens
        self.watermark = int(capacity_bytes * watermark)
        self.refs: Dict[int, int] = {}       # resident page -> refcount
        self.regions: Dict[int, RefRegion] = {}
        self.next_pid = 0
        self.peak_pages = 0
        # Index: page-key path -> (page, last_used).
        self.nodes: Dict[Tuple[Tuple[int, ...], ...], Tuple[int, int]] = {}
        self.clock = 0
        self.victims: List[int] = []
        # The slot pool: LIFO free list, high-water mark, page -> slot.
        self.free_slots: List[int] = []
        self.high_water = 0
        self.slot_of: Dict[int, int] = {}
        self.allocated: List[Tuple[int, int]] = []
        self.replans = 0
        self.pages_reclaimed = 0

    # -- pages ----------------------------------------------------------------

    def indexed(self) -> Set[int]:
        return {pid for pid, _ in self.nodes.values()}

    def reclaimable(self) -> List[int]:
        return [pid for pid in sorted(self.indexed()) if self.refs[pid] == 1]

    def committed_tokens(self) -> int:
        return (len(self.refs) - len(self.reclaimable())) * self.P

    def unref(self, pid: int) -> None:
        self.refs[pid] -= 1
        if self.refs[pid] == 0:
            del self.refs[pid]
            self.free_slots.append(self.slot_of.pop(pid))

    def alloc(self) -> int:
        needed = (len(self.refs) + 1) * self.P * self.bpt - self.capacity
        if needed > 0:
            self.pages_reclaimed += self.reclaim(-(-needed // self.bpt)) \
                // self.P
        assert (len(self.refs) + 1) * self.P * self.bpt <= self.capacity, \
            "reference overflow: an admitted region could not grow"
        pid = self.next_pid
        self.next_pid += 1
        self.refs[pid] = 1
        if self.free_slots:
            slot = self.free_slots.pop()
        else:
            slot = self.high_water
            self.high_water += 1
        self.slot_of[pid] = slot
        self.allocated.append((pid, slot))
        self.peak_pages = max(self.peak_pages, len(self.refs))
        return pid

    # -- regions --------------------------------------------------------------

    def rounded(self, tokens: int) -> int:
        return -(-tokens // self.P) * self.P

    def can_admit(self, tokens: int, max_total: int,
                  shared: Sequence[int]) -> bool:
        reclaimable = set(self.reclaimable())
        pinned = sum(self.P for pid in shared if pid in reclaimable)
        initial = self.rounded(tokens) - len(shared) * self.P
        worst = self.rounded(max_total) - len(shared) * self.P
        growth = sum(r.worst - len(r.pages) * self.P
                     for r in self.regions.values())
        committed = self.committed_tokens()
        return ((committed + pinned + initial) * self.bpt <= self.watermark
                and (committed + pinned + growth + worst) * self.bpt
                <= self.capacity)

    def materialize(self, req: int, tokens: int, max_total: int,
                    shared: Sequence[int]) -> bool:
        if not self.can_admit(tokens, max_total, shared):
            return False
        pages = list(shared)
        for pid in shared:
            self.refs[pid] += 1
        while len(pages) * self.P < tokens:
            pages.append(self.alloc())
        self.regions[req] = RefRegion(tokens, self.rounded(max_total), pages)
        self.replans += 1
        return True

    def fork(self, parent: int, child: int, max_total: int) -> bool:
        region = self.regions[parent]
        shared = region.pages[:region.tokens // self.P]
        return self.materialize(child, region.tokens, max_total, shared)

    def append(self, req: int, k: int) -> None:
        region = self.regions[req]
        region.tokens += k
        if len(region.pages) * self.P < region.tokens:
            self.replans += 1
        while len(region.pages) * self.P < region.tokens:
            region.pages.append(self.alloc())

    def drop(self, req: int) -> int:
        region = self.regions.pop(req)
        for pid in region.pages:
            self.unref(pid)
        self.replans += 1
        return region.tokens

    # -- index ----------------------------------------------------------------

    def keys(self, ids: Sequence[int], n: int) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(ids[i * self.P:(i + 1) * self.P]) for i in range(n))

    def lookup(self, ids: Sequence[int]) -> Tuple[int, List[int]]:
        self.clock += 1
        keys = self.keys(ids, max(0, (len(ids) - 1) // self.P))
        pages = []
        for i in range(len(keys)):
            path = keys[:i + 1]
            if path not in self.nodes:
                break
            pid = self.nodes[path][0]
            self.nodes[path] = (pid, self.clock)
            pages.append(pid)
        return len(pages) * self.P, pages

    def insert(self, ids: Sequence[int], pages: Sequence[int]) -> None:
        self.clock += 1
        keys = self.keys(ids, len(pages))
        for i, pid in enumerate(pages):
            path = keys[:i + 1]
            if path not in self.nodes:
                self.refs[pid] += 1
                self.nodes[path] = (pid, self.clock)
                continue
            existing = self.nodes[path][0]
            self.nodes[path] = (existing, self.clock)
            if existing != pid:
                break  # another publisher's page: nothing hangs below it

    def reclaim(self, tokens_needed: int) -> int:
        """The O(n) scan: evict the minimum ``(last_used, page_id)``
        unpinned leaf until enough tokens are free."""
        freed = 0
        while freed < tokens_needed:
            leaves = [(last, pid, path)
                      for path, (pid, last) in self.nodes.items()
                      if self.refs[pid] == 1 and not any(
                          len(other) == len(path) + 1
                          and other[:len(path)] == path
                          for other in self.nodes)]
            if not leaves:
                break
            _, pid, path = min(leaves)
            del self.nodes[path]
            self.unref(pid)
            self.victims.append(pid)
            freed += self.P
        return freed


class KVArenaMachine(RuleBasedStateMachine):
    @initialize(page_tokens=st.sampled_from([1, 2, 4]),
                capacity_pages=st.integers(1, 24),
                slack=st.integers(0, 3),
                bpt=st.sampled_from([1, 3]),
                watermark=st.sampled_from([0.5, 0.75, 0.9, 1.0]))
    def setup(self, page_tokens, capacity_pages, slack, bpt, watermark):
        capacity = (capacity_pages * page_tokens + slack) * bpt
        self.P = page_tokens
        self.arena = LoggingArena(capacity_bytes=capacity, bytes_per_token=bpt,
                                  page_tokens=page_tokens,
                                  high_watermark=watermark)
        self.index = RadixPrefixIndex(self.arena)
        self.ref = Reference(capacity, bpt, page_tokens, watermark)
        # req -> (prompt ids or None for forks, max_total)
        self.live: Dict[int, Tuple[Optional[tuple], int]] = {}
        # req -> (prompt ids or None, recompute tokens, max_total)
        self.preempted: Dict[int, Tuple[Optional[tuple], int, int]] = {}
        self.prompts: List[tuple] = []  # every prompt admitted so far
        self.next_req = 0

    def pick(self, reqs, n: int) -> int:
        return sorted(reqs)[n % len(reqs)]

    def new_req(self) -> int:
        self.next_req += 1
        return self.next_req - 1

    def cached_prefix(self, ids, cached: bool):
        """The serving loop's admission lookup, on both sides."""
        if not cached or ids is None:
            return [], []
        matched, pages = self.index.lookup(ids)
        want = self.ref.lookup(ids)
        assert (matched, [p.page_id for p in pages]) == want
        return pages, want[1]

    # -- rules ----------------------------------------------------------------

    @rule(family=st.integers(0, FAMILIES - 1), n=st.integers(1, 40),
          shared=st.integers(0, 40), extra=st.integers(0, 24),
          cached=st.booleans())
    def admit(self, family, n, shared, extra, cached):
        req = self.new_req()
        ids = prompt_ids(family, min(shared, n), n, req)
        self.prompts.append(ids)
        pages, ref_pages = self.cached_prefix(ids, cached)
        got = self.arena.admit(req, n, n + extra, shared_pages=pages)
        assert got == self.ref.materialize(req, n, n + extra, ref_pages)
        if got:
            self.live[req] = (ids, n + extra)

    @precondition(lambda self: self.live)
    @rule(n=st.integers(0, 10 ** 6), k=st.integers(1, 12))
    def append(self, n, k):
        req = self.pick(self.live, n)
        k = min(k, self.live[req][1] - self.ref.regions[req].tokens)
        if k > 0:
            self.arena.append(req, k)  # must never fail after admission
            self.ref.append(req, k)

    @precondition(lambda self: self.live)
    @rule(n=st.integers(0, 10 ** 6), width=st.integers(1, 4),
          extra=st.integers(0, 16))
    def fork(self, n, width, extra):
        """Beam-style fan-out: ``width`` children of one parent."""
        parent = self.pick(self.live, n)
        max_total = self.ref.regions[parent].tokens + extra
        for _ in range(width):
            child = self.new_req()
            got = self.arena.fork(parent, child, max_total)
            assert got == self.ref.fork(parent, child, max_total)
            if got:
                self.live[child] = (None, max_total)

    @precondition(lambda self: self.live)
    @rule(n=st.integers(0, 10 ** 6))
    def preempt(self, n):
        req = self.pick(self.live, n)
        tokens = self.arena.preempt(req)
        assert tokens == self.ref.drop(req)
        ids, max_total = self.live.pop(req)
        self.preempted[req] = (ids, tokens, max_total)

    @precondition(lambda self: self.preempted)
    @rule(n=st.integers(0, 10 ** 6), cached=st.booleans())
    def restore(self, n, cached):
        req = self.pick(self.preempted, n)
        ids, tokens, max_total = self.preempted[req]
        pages, ref_pages = self.cached_prefix(ids, cached)
        got = self.arena.restore(req, tokens, max_total, shared_pages=pages)
        assert got == self.ref.materialize(req, tokens, max_total, ref_pages)
        if got:
            del self.preempted[req]
            self.live[req] = (ids, max_total)

    @precondition(lambda self: self.live)
    @rule(n=st.integers(0, 10 ** 6))
    def release(self, n):
        req = self.pick(self.live, n)
        self.arena.release(req)
        self.ref.drop(req)
        del self.live[req]

    @precondition(lambda self: any(ids for ids, _ in self.live.values()))
    @rule(n=st.integers(0, 10 ** 6))
    def publish(self, n):
        """Index a live region's full prompt pages under its ids."""
        req = self.pick([r for r, (ids, _) in self.live.items() if ids], n)
        ids = self.live[req][0]
        full = len(ids) // self.P
        self.index.insert(ids, self.arena.region_of(req).pages[:full])
        self.ref.insert(ids, self.ref.regions[req].pages[:full])

    @precondition(lambda self: self.prompts)
    @rule(n=st.integers(0, 10 ** 6))
    def lookup(self, n):
        """Replay an earlier prompt: refreshes the LRU clock of its path."""
        self.cached_prefix(self.prompts[n % len(self.prompts)], True)

    @rule(tokens=st.integers(0, 24))
    def reclaim(self, tokens):
        assert self.index.reclaim(tokens) == self.ref.reclaim(tokens)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def agrees_with_reference(self):
        arena, ref = self.arena, self.ref
        assert arena.evicted == ref.victims
        assert arena.allocated == ref.allocated
        assert (arena.replans, arena.pages_reclaimed) == \
            (ref.replans, ref.pages_reclaimed)
        assert arena.verify(live_req_ids=sorted(self.live)) == []
        for req, region in ref.regions.items():
            reserved = arena.region_of(req).reserved_tokens
            assert reserved == sum(p.tokens
                                   for p in arena.region_of(req).pages)
            assert reserved == len(region.pages) * self.P
        indexed = ref.indexed()
        assert {pid: (p.refcount, p.in_index)
                for pid, p in arena._pages.items()} == \
            {pid: (count, pid in indexed) for pid, count in ref.refs.items()}
        page_bytes = self.P * ref.bpt
        assert arena.used_bytes == len(ref.refs) * page_bytes
        assert arena.committed_bytes == ref.committed_tokens() * ref.bpt
        stats = arena.stats()
        assert stats["footprint_bytes"] == ref.peak_pages * page_bytes
        assert stats["peak_used_bytes"] == ref.peak_pages * page_bytes


KVArenaMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestKVArenaStateMachine = KVArenaMachine.TestCase
