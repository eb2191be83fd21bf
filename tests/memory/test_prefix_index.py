"""Radix prefix index + copy-on-write page sharing on the KV arena."""

import pytest

from repro.memory import (
    KVArenaError,
    KVCacheArena,
    RadixPrefixIndex,
)

BPT = 64   # bytes per token (arbitrary, small)
P = 8      # page tokens


def arena(capacity_tokens=256, watermark=0.9, **kw):
    return KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                        bytes_per_token=BPT, page_tokens=P,
                        high_watermark=watermark, **kw)


def ids(n, base=0):
    return tuple(range(base, base + n))


class TestCowFork:
    def test_fork_shares_aligned_pages_and_copies_tail(self):
        a = arena()
        a.admit(0, prompt_tokens=20, max_total_tokens=40)  # 3 pages, tail partial
        parent = a.region_of(0)
        assert a.fork(0, 1, max_total_tokens=40)
        child = a.region_of(1)
        # Two full pages shared by refcount, the partial third copied.
        assert child.pages[:2] == parent.pages[:2]
        assert child.pages[2] is not parent.pages[2]
        assert all(p.refcount == 2 for p in parent.pages[:2])
        assert parent.pages[2].refcount == 1
        assert child.shared_tokens == 2 * P
        assert a.verify() == []

    def test_shared_pages_charged_once(self):
        a = arena(capacity_tokens=64, watermark=1.0)
        a.admit(0, prompt_tokens=44, max_total_tokens=48)
        # A full copy (48 tokens) would not fit in the 16 free tokens,
        # but the CoW fork's private footprint is just the 8-token tail.
        assert a.used_bytes == 48 * BPT
        assert a.fork(0, 1, max_total_tokens=48)
        assert a.used_bytes == (48 + P) * BPT
        assert a.verify() == []

    def test_fork_denied_when_private_tail_does_not_fit(self):
        a = arena(capacity_tokens=48, watermark=1.0)
        a.admit(0, prompt_tokens=40, max_total_tokens=40)
        # Tail page (8) fits, but a 16-token growth budget does not.
        assert not a.fork(0, 1, max_total_tokens=40 + 16)
        assert a.denials == 1

    def test_release_frees_only_refcount_zero_pages(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=32)
        a.fork(0, 1, max_total_tokens=32)
        a.release(0)
        # The child still references both shared pages: nothing freed.
        assert a.used_bytes == 16 * BPT
        assert all(p.refcount == 1 for p in a.region_of(1).pages)
        a.release(1)
        assert a.used_bytes == 0
        assert a.verify(live_req_ids=[]) == []

    def test_append_after_fork_never_touches_shared_pages(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=48)
        a.fork(0, 1, max_total_tokens=48)
        shared = list(a.region_of(0).pages)
        a.append(1, P)  # child grows into a fresh private page
        assert a.region_of(1).pages[:2] == shared
        assert a.region_of(1).pages[-1].refcount == 1
        assert a.verify() == []

    def test_fork_validation(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=32)
        with pytest.raises(KVArenaError, match="already has"):
            a.fork(0, 0, max_total_tokens=32)
        with pytest.raises(ValueError, match="fork budget"):
            a.fork(0, 1, max_total_tokens=8)


class TestRadixIndex:
    def publish(self, a, index, req_id, n_tokens, base=0):
        a.admit(req_id, prompt_tokens=n_tokens, max_total_tokens=n_tokens)
        pages = a.region_of(req_id).pages[:n_tokens // P]
        index.insert(ids(n_tokens, base), pages)
        return pages

    def test_lookup_miss_on_empty_index(self):
        a = arena()
        index = RadixPrefixIndex(a)
        assert index.lookup(ids(24)) == (0, [])
        assert index.stats()["lookups"] == 1
        assert index.stats()["hits"] == 0

    def test_insert_lookup_roundtrip(self):
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 24)
        matched, found = index.lookup(ids(24) + (99,))
        assert matched == 24 and found == pages
        # Pages gained one index reference each.
        assert all(p.refcount == 2 for p in pages)

    def test_never_matches_the_whole_prompt(self):
        # At least one token is always left for prefill: a prompt equal
        # to the cached prefix matches one page less.
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 16)
        matched, found = index.lookup(ids(16))
        assert matched == P and found == pages[:1]

    def test_diverging_suffix_matches_common_prefix_only(self):
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 24)
        other = ids(16) + ids(8, base=1000) + (7,)
        matched, found = index.lookup(other)
        assert matched == 16 and found == pages[:2]

    def test_first_publisher_wins(self):
        a = arena()
        index = RadixPrefixIndex(a)
        pages = self.publish(a, index, 0, 16)
        a.admit(1, prompt_tokens=16, max_total_tokens=16)
        rival = a.region_of(1).pages
        assert index.insert(ids(16), rival[:2]) == 0  # nothing new indexed
        assert index.lookup(ids(17))[1] == pages  # original pages stay
        assert all(p.refcount == 1 for p in rival)

    def test_publish_stops_at_another_requests_page(self):
        """A rival that shared the owner's first page but prefilled its
        own second page (the owner published it later) must not hang its
        private third page below the owner's second: that node would stay
        an index-only interior page after the owner leaves — counted as
        reclaimable, yet never a leaf the sweep can evict."""
        a = arena()
        index = RadixPrefixIndex(a)
        a.admit(0, prompt_tokens=16, max_total_tokens=16)
        owner = a.region_of(0).pages
        index.insert(ids(8), owner[:1])
        matched, shared = index.lookup(ids(25))
        assert matched == P and shared == owner[:1]
        a.admit(1, prompt_tokens=24, max_total_tokens=24,
                shared_pages=shared)
        index.insert(ids(16), owner)          # owner publishes page 2
        rival = a.region_of(1).pages
        assert index.insert(ids(24), rival) == 0  # stops at owner[1]
        a.release(0)
        assert a.reclaimable_bytes == P * BPT  # owner[1], index-only
        assert index.reclaim(1000) == P        # ... and a leaf
        assert a.reclaimable_bytes == 0
        assert a.verify(live_req_ids=[1]) == []

    def test_insert_validates_id_coverage(self):
        a = arena()
        a.admit(0, prompt_tokens=16, max_total_tokens=16)
        index = RadixPrefixIndex(a)
        with pytest.raises(KVArenaError, match="token ids"):
            index.insert(ids(8), a.region_of(0).pages)

    def test_release_keeps_indexed_pages_resident(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 24)
        a.release(0)
        assert a.used_bytes == 24 * BPT
        assert a.reclaimable_bytes == 24 * BPT
        assert a.committed_bytes == 0
        matched, _ = index.lookup(ids(25))
        assert matched == 24
        assert a.verify(live_req_ids=[]) == []

    def test_pinned_pages_are_not_evictable(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 24)  # region 0 still live: pinned
        assert index.reclaim(1000) == 0
        a.release(0)
        assert index.reclaim(1000) == 24
        assert len(index) == 0 and a.used_bytes == 0

    def test_reclaim_evicts_lru_leaves_first(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 16)            # path A: 2 nodes
        self.publish(a, index, 1, 16, base=500)  # path B: 2 nodes
        a.release(0)
        a.release(1)
        index.lookup(ids(17))  # touch path A: B's leaf becomes LRU
        assert index.reclaim(P) == P
        assert index.lookup(ids(17))[0] == 16        # A intact
        assert index.lookup(ids(17, base=500))[0] == P  # B lost its leaf
        assert a.verify(live_req_ids=[]) == []

    def test_eviction_heap_stays_bounded_under_repeated_touches(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 16)
        self.publish(a, index, 1, 16, base=500)
        a.release(0)
        a.release(1)
        for _ in range(500):  # every touch re-queues path A's leaf
            index.lookup(ids(17))
        assert len(index._heap) <= 2 * len(index) + 65
        # The rebuilt heap still yields the LRU victim: path B's leaf.
        assert index.reclaim(P) == P
        assert index.lookup(ids(17))[0] == 16
        assert index.lookup(ids(17, base=500))[0] == P

    def test_reclaim_cascades_through_exposed_parents(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 32)
        a.release(0)
        # Interior nodes become leaves as their children evict: one sweep
        # drains the whole 4-page path.
        assert index.reclaim(32) == 32
        assert len(index) == 0 and a.used_bytes == 0

    def test_allocation_pressure_triggers_reclaim(self):
        a = arena(capacity_tokens=32, watermark=1.0)
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 24)
        a.release(0)  # 24 tokens resident, all index-only
        # A 16-token admit exceeds 32-token residency: the allocator must
        # reclaim cached pages rather than deny (gates exclude them).
        assert a.admit(1, prompt_tokens=16, max_total_tokens=16)
        assert a.pages_reclaimed >= 1
        assert a.used_bytes <= 32 * BPT
        assert a.verify() == []

    def test_clear_drops_all_unpinned(self):
        a = arena()
        index = RadixPrefixIndex(a)
        self.publish(a, index, 0, 16)
        a.release(0)
        assert index.clear() == 16
        assert index.stats()["pages_evicted"] == 2


class TestPreemptRestoreSharedPages:
    def setup_shared(self):
        a = arena()
        index = RadixPrefixIndex(a)
        a.admit(0, prompt_tokens=24, max_total_tokens=24)
        pages = a.region_of(0).pages[:2]
        index.insert(ids(24), pages)
        a.release(0)
        return a, index, pages

    def test_preempt_keeps_indexed_prefix_resident(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=40,
                       shared_pages=pages)
        a.preempt(1)
        # Private pages are gone; the indexed prefix survives.
        assert a.used_bytes == 16 * BPT
        assert all(p.refcount == 1 for p in pages)
        assert index.lookup(ids(24) + (5,))[0] == 16
        assert a.verify(live_req_ids=[]) == []

    def test_restore_reattaches_still_cached_prefix(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=40,
                       shared_pages=pages)
        a.append(1, 8)  # generated a bit before eviction
        a.preempt(1)
        matched, found = index.lookup(ids(24))
        assert (matched, found) == (16, list(pages))
        assert a.restore(1, tokens=32, max_total_tokens=40,
                         shared_pages=found)
        region = a.region_of(1)
        assert region.pages[:2] == list(pages)
        assert region.shared_tokens == 16
        assert all(p.refcount == 2 for p in pages)
        assert a.verify() == []
        a.release(1)
        assert a.verify(live_req_ids=[]) == []

    def test_preempt_with_live_sibling_sharing_pages(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=32,
                       shared_pages=pages)
        assert a.admit(2, prompt_tokens=24, max_total_tokens=32,
                       shared_pages=pages)
        assert all(p.refcount == 3 for p in pages)  # index + two regions
        a.preempt(1)
        assert all(p.refcount == 2 for p in pages)
        # The sibling's region is untouched and the arena stays coherent.
        assert a.region_of(2).pages[:2] == list(pages)
        assert a.verify() == []

    def test_restore_without_cache_after_eviction(self):
        a, index, pages = self.setup_shared()
        assert a.admit(1, prompt_tokens=24, max_total_tokens=40,
                       shared_pages=pages)
        a.preempt(1)
        index.clear()  # cached prefix evicted while preempted
        assert a.used_bytes == 0
        assert a.restore(1, tokens=24, max_total_tokens=40)
        assert a.region_of(1).shared_tokens == 0
        assert a.verify() == []

    def test_stats_surface_sharing_counters(self):
        a, index, pages = self.setup_shared()
        a.admit(1, prompt_tokens=24, max_total_tokens=32, shared_pages=pages)
        a.fork(1, 2, max_total_tokens=32)
        stats = a.stats()
        assert stats["forks"] == 1
        assert stats["shared_tokens_attached"] >= 16
        assert stats["pages_resident"] == len(a._pages)

    def test_shared_page_from_foreign_arena_rejected(self):
        a, index, pages = self.setup_shared()
        other = arena()
        with pytest.raises(KVArenaError, match="not resident"):
            other.admit(0, prompt_tokens=24, max_total_tokens=24,
                        shared_pages=pages)
