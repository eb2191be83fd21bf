"""Message queue and response cache."""

import random

import pytest

from repro.serving import (
    DPBatchScheduler,
    MessageQueue,
    Request,
    ResponseCache,
    ServingConfig,
    simulate_serving,
)


def req(i, arrival=0.0):
    return Request(req_id=i, seq_len=10, arrival_s=arrival)


class TestMessageQueue:
    def test_fifo_order(self):
        q = MessageQueue()
        for i in range(3):
            q.push(req(i))
        drained = q.drain()
        assert [r.req_id for r in drained] == [0, 1, 2]
        assert len(q) == 0

    def test_drain_limit(self):
        q = MessageQueue()
        for i in range(5):
            q.push(req(i))
        assert [r.req_id for r in q.drain(2)] == [0, 1]
        assert len(q) == 3

    def test_drain_invalid_limit(self):
        q = MessageQueue()
        with pytest.raises(ValueError):
            q.drain(0)

    def test_front_peeks_without_pop(self):
        q = MessageQueue()
        q.push(req(7))
        assert q.front().req_id == 7
        assert len(q) == 1

    def test_front_empty(self):
        assert MessageQueue().front() is None

    def test_stats(self):
        q = MessageQueue()
        for i in range(4):
            q.push(req(i))
        q.drain(3)
        q.push(req(9))
        assert q.total_enqueued == 5
        assert q.peak_depth == 4

    def test_bool(self):
        q = MessageQueue()
        assert not q
        q.push(req(0))
        assert q


class TestBoundedQueue:
    def test_unbounded_by_default(self):
        q = MessageQueue()
        assert q.capacity is None
        assert all(q.push(req(i)) for i in range(1000))
        assert q.total_rejected == 0

    def test_full_queue_rejects(self):
        q = MessageQueue(capacity=2)
        assert q.push(req(0))
        assert q.push(req(1))
        assert not q.push(req(2))
        assert len(q) == 2
        assert q.total_rejected == 1
        assert q.total_enqueued == 2

    def test_drain_frees_capacity(self):
        q = MessageQueue(capacity=1)
        q.push(req(0))
        assert not q.push(req(1))
        q.drain()
        assert q.push(req(2))
        assert [r.req_id for r in q] == [2]
        assert q.total_rejected == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            MessageQueue(capacity=0)
        with pytest.raises(ValueError):
            MessageQueue(capacity=-3)

    @pytest.mark.parametrize("capacity", [float("nan"), 2.5, True],
                             ids=["nan", "fraction", "bool"])
    def test_capacity_that_is_not_an_int_rejected(self, capacity):
        with pytest.raises(TypeError, match="capacity"):
            MessageQueue(capacity=capacity)


class TestResponseCache:
    def test_hit_and_miss(self):
        cache = ResponseCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = ResponseCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_put_refreshes_recency(self):
        cache = ResponseCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_hit_rate(self):
        cache = ResponseCache()
        cache.put("x", 1)
        cache.get("x")
        cache.get("y")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResponseCache(capacity=0)

    @pytest.mark.parametrize("capacity", [float("nan"), 2.5, True],
                             ids=["nan", "fraction", "bool"])
    def test_capacity_that_is_not_an_int_rejected(self, capacity):
        with pytest.raises(TypeError, match="capacity"):
            ResponseCache(capacity=capacity)

    def test_metrics_registry_wiring(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResponseCache(capacity=4, metrics=registry)
        cache.put("x", 1)
        cache.get("x")
        cache.get("y")
        cache.get("x")
        assert registry.value("response_cache_hits_total") == 2
        assert registry.value("response_cache_misses_total") == 1
        assert registry.value("response_cache_hit_rate") == \
            pytest.approx(2 / 3)

    def test_metrics_name_prefix(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResponseCache(capacity=4, metrics=registry, name="plan")
        cache.get("missing")
        assert registry.value("plan_cache_misses_total") == 1


def cost(seq_len, batch):
    return 0.002 + 0.00005 * seq_len * batch


class TestCachedServing:
    """The Fig. 2 response cache in front of the serving loop."""

    def _requests(self, payloads, gap=0.01):
        return [
            Request(req_id=i, seq_len=40, arrival_s=i * gap,
                    payload=(payload,))
            for i, payload in enumerate(payloads)
        ]

    def _serve(self, requests, cache, duration_s):
        return simulate_serving(requests, DPBatchScheduler(), cost,
                                ServingConfig(max_batch=20),
                                duration_s=duration_s, cache=cache)

    def test_cache_short_circuits_repeats(self):
        """Clipper-style response caching: repeated payloads skip the model."""
        cache = ResponseCache(capacity=4096)
        payloads = [0, 1, 2, 3] * 10  # heavy repetition
        metrics = self._serve(self._requests(payloads), cache, 1.0)
        assert cache.hits > 0
        # Cached responses complete at arrival: minimum latency is zero.
        assert metrics.latency.min_ms == pytest.approx(0.0)

    def test_cache_lowers_average_latency(self):
        skewed = [0] * 30 + list(range(30))
        random.Random(5).shuffle(skewed)
        with_cache = self._serve(self._requests(skewed, gap=0.004),
                                 ResponseCache(capacity=4096), 0.5)
        without = self._serve(self._requests(skewed, gap=0.004), None, 0.5)
        assert with_cache.latency.avg_ms < without.latency.avg_ms
