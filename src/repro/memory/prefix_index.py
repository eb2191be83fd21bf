"""Radix-tree prefix index over page-aligned KV cache content.

Multi-tenant serving traffic shares long prompt prefixes — system prompts
and few-shot templates reused across millions of requests — so at high
arrival rates most prefill FLOPs recompute KV state the arena already
holds.  :class:`RadixPrefixIndex` maps the longest *cached* prefix of an
incoming prompt's token ids to resident :class:`~repro.memory.kv_arena.KVPage`
handles, so admission can attach those pages by refcount and run prefill
only over the uncached suffix.

Structure: one trie node per KV **page** (``page_tokens`` token ids), not
per token — a radix tree with fixed-width edges.  A prompt's cacheable
prefix is its page-aligned head; lookup walks child edges keyed by the
page's token-id tuple, so two prompts share a node exactly when they
agree on that page's whole content *and* everything before it (the path).
Page content is therefore content-addressed by construction: the path to
a node spells out the tokens its page holds.

Lifetime contract with the arena:

* Every indexed page carries one index reference
  (:meth:`KVCacheArena.index_ref`), so a completed request's
  :meth:`~repro.memory.kv_arena.KVCacheArena.release` keeps the page
  resident for future hits.
* Pages also referenced by a live region are **pinned** — eviction skips
  them; only unpinned *leaves* are evictable, and eviction cascades
  upward as parents become leaves.
* The arena calls :meth:`reclaim` from its page allocator when residency
  would overflow capacity, making index-only pages a best-effort cache
  that never blocks admission (both admission gates exclude them).

Everything is deterministic: the LRU clock is a logical counter bumped
per lookup/insert, and eviction ties break on ``page_id``.  Victims come
from a lazy-deletion min-heap of ``(last_used, page_id)``: a node is
pushed when it is touched, exposed or unpinned as an evictable leaf, and
entries gone stale since are skipped when popped (O(log n) per victim).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .kv_arena import KVArenaError, KVCacheArena, KVPage


class _Node:
    """One cached page: edge key is the page's token-id tuple."""

    __slots__ = ("key", "page", "parent", "children", "last_used")

    def __init__(self, key: Tuple[int, ...], page: KVPage,
                 parent: Optional["_Node"]) -> None:
        self.key = key
        self.page = page
        self.parent = parent
        self.children: Dict[Tuple[int, ...], "_Node"] = {}
        self.last_used = 0


class RadixPrefixIndex:
    """Longest-cached-prefix lookup over page-aligned token sequences.

    Attaches itself to ``arena`` as its reclaimer: under memory pressure
    the arena evicts unpinned leaf pages in LRU order until the needed
    room is free.
    """

    def __init__(self, arena: KVCacheArena) -> None:
        self.arena = arena
        self.page_tokens = arena.page_tokens
        arena.attach_index(self)
        self._root_children: Dict[Tuple[int, ...], _Node] = {}
        self._nodes: Dict[int, _Node] = {}  # page_id -> node, insertion order
        self._heap: List[Tuple[int, int]] = []  # (last_used, page_id)
        self._clock = 0
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.pages_inserted = 0
        self.pages_evicted = 0
        self.tokens_matched = 0

    def __len__(self) -> int:
        return len(self._nodes)

    def _page_keys(self, ids: Sequence[int],
                   limit_pages: int) -> List[Tuple[int, ...]]:
        P = self.page_tokens
        return [tuple(ids[i * P:(i + 1) * P]) for i in range(limit_pages)]

    # -- lookup ---------------------------------------------------------------

    def lookup(self, ids: Sequence[int]) -> Tuple[int, List[KVPage]]:
        """Longest cached prefix of ``ids``: ``(matched_tokens, pages)``.

        Matches whole pages only, and never the entire prompt — at least
        one token is always left for prefill (the model must still run to
        produce the first output token), so the match is capped at
        ``(len(ids) - 1) // page_tokens`` pages.  Touching a path bumps
        its LRU clock.
        """
        self.lookups += 1
        limit = max(0, (len(ids) - 1) // self.page_tokens)
        self._clock += 1
        node: Optional[_Node] = None
        pages: List[KVPage] = []
        children = self._root_children
        for key in self._page_keys(ids, limit):
            child = children.get(key)
            if child is None:
                break
            child.last_used = self._clock
            self._offer(child)
            pages.append(child.page)
            node = child
            children = child.children
        matched = len(pages) * self.page_tokens
        if pages:
            self.hits += 1
            self.tokens_matched += matched
        return matched, pages

    # -- insert ---------------------------------------------------------------

    def insert(self, ids: Sequence[int], pages: Sequence[KVPage]) -> int:
        """Publish a region's prompt pages under their token-id path.

        ``pages[i]`` must hold the KV state for ``ids[i*P:(i+1)*P]`` and
        be fully written (callers pass only the page-aligned prompt
        head).  Existing nodes win — a second publisher of the same
        content just refreshes the LRU clock, so concurrent requests
        converge on one physical page per distinct prefix.  Publishing
        stops at the first existing node that holds another page: a
        deeper private page hung below it would pin that node as an
        index-only interior page, which the arena counts as reclaimable
        but eviction (leaves only) cannot free.  Returns the number of
        pages newly indexed.
        """
        P = self.page_tokens
        if len(ids) < len(pages) * P:
            raise KVArenaError(
                f"insert of {len(pages)} pages needs {len(pages) * P} "
                f"token ids, got {len(ids)}"
            )
        self.inserts += 1
        self._clock += 1
        added = 0
        parent: Optional[_Node] = None
        children = self._root_children
        for key, page in zip(self._page_keys(ids, len(pages)), pages):
            node = children.get(key)
            if node is None:
                self.arena.index_ref(page)
                node = _Node(key, page, parent)
                children[key] = node
                self._nodes[page.page_id] = node
                added += 1
            node.last_used = self._clock
            self._offer(node)
            if node.page is not page:
                break
            parent = node
            children = node.children
        self.pages_inserted += added
        return added

    # -- eviction -------------------------------------------------------------

    def _evictable(self, node: _Node) -> bool:
        # Unpinned (index holds the only reference) and a leaf: interior
        # pages stay until their subtree drains, keeping the cached set
        # prefix-closed.
        return not node.children and node.page.refcount == 1

    def _offer(self, node: _Node) -> None:
        """Queue ``node`` if it is evictable now; rebuilding the heap once
        stale entries outnumber the nodes keeps it O(nodes)."""
        if not self._evictable(node):
            return
        if len(self._heap) > 2 * len(self._nodes) + 64:
            self._heap = [(n.last_used, pid) for pid, n in self._nodes.items()
                          if self._evictable(n)]
            heapify(self._heap)  # repro: allow(DET405) LRU order, not events
        entry = (node.last_used, node.page.page_id)
        heappush(self._heap, entry)  # repro: allow(DET405) LRU order, not events

    def page_unpinned(self, page: KVPage) -> None:
        """Arena callback: ``page`` just became index-only."""
        node = self._nodes.get(page.page_id)
        if node is not None:
            self._offer(node)

    def _evict(self, node: _Node) -> None:
        parent = node.parent
        siblings = parent.children if parent is not None \
            else self._root_children
        del siblings[node.key]
        del self._nodes[node.page.page_id]
        self.pages_evicted += 1
        self.arena.index_unref(node.page)
        if parent is not None:
            self._offer(parent)  # may now be an evictable leaf

    def reclaim(self, tokens_needed: int) -> int:
        """Evict LRU unpinned leaves until ``tokens_needed`` tokens of
        page room are free (or no candidate remains).  Cascades upward:
        evicting a leaf can expose its parent.  Returns tokens freed."""
        freed = 0
        while freed < tokens_needed and self._heap:
            entry = heappop(self._heap)  # repro: allow(DET405) LRU order, not events
            last_used, page_id = entry
            node = self._nodes.get(page_id)
            if node is None or node.last_used != last_used \
                    or not self._evictable(node):
                continue  # evicted, touched, pinned or interior since
            freed += node.page.tokens
            self._evict(node)
        return freed

    def clear(self) -> int:
        """Drop every unpinned cached page (full eviction sweep)."""
        return self.reclaim(len(self._nodes) * self.page_tokens or 1)

    # -- introspection --------------------------------------------------------

    def resident_pages(self) -> List[KVPage]:
        """Every page the index currently references (refcount audit)."""
        return [node.page for node in self._nodes.values()]

    def stats(self) -> Dict[str, int]:
        """Deterministic counters (read by bench and the sanitizer)."""
        return {
            "nodes": len(self._nodes),
            "lookups": self.lookups,
            "hits": self.hits,
            "inserts": self.inserts,
            "pages_inserted": self.pages_inserted,
            "pages_evicted": self.pages_evicted,
            "tokens_matched": self.tokens_matched,
        }
