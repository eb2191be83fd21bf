"""Response cache (the ``Resp Cache`` component of Fig. 2).

Like Clipper, frequent requests are answered from a cache of inference
results without touching the model.  The paper disables this during the
serving evaluation (we do too), but the component is part of the system,
so it ships with LRU eviction and hit statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

from .._checks import check_size

V = TypeVar("V")


class ResponseCache(Generic[V]):
    """Bounded LRU cache keyed by request payload.

    When a :class:`~repro.observability.metrics.MetricsRegistry` is
    attached, every lookup updates ``{name}_cache_hits_total`` /
    ``{name}_cache_misses_total`` counters and a
    ``{name}_cache_hit_rate`` gauge, so dashboards see cache
    effectiveness without polling the object.
    """

    def __init__(self, capacity: int = 1024, metrics=None,
                 name: str = "response") -> None:
        check_size("capacity", capacity)
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.metrics = metrics
        self.name = name

    def _record(self, hit: bool) -> None:
        if self.metrics is None:
            return
        which = "hits" if hit else "misses"
        self.metrics.counter(f"{self.name}_cache_{which}_total").inc()
        self.metrics.gauge(f"{self.name}_cache_hit_rate").set(self.hit_rate)

    def get(self, key: Hashable) -> Optional[V]:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            self._record(hit=True)
            return self._entries[key]
        self.misses += 1
        self._record(hit=False)
        return None

    def put(self, key: Hashable, value: V) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
