"""Ebird-style concurrent elastic batching (processor-sharing model)."""

import pytest

from repro.serving import (
    NoBatchScheduler,
    Request,
    RequestState,
    simulate_ebird_serving,
    simulate_serving,
)


def cost(seq_len, batch):
    return 0.002 + 0.00005 * seq_len * batch


def reqs(specs):
    """specs: list of (seq_len, arrival_s)."""
    return [Request(req_id=i, seq_len=l, arrival_s=t)
            for i, (l, t) in enumerate(specs)]


class TestEbirdSimulation:
    def test_everything_completes(self):
        requests = reqs([(100, 0.01 * i) for i in range(30)])
        metrics = simulate_ebird_serving(requests, cost, duration_s=0.5)
        assert metrics.completed == 30
        for r in requests:
            assert r.completion_s >= r.arrival_s

    def test_single_request_latency_matches_cost(self):
        requests = reqs([(100, 0.0)])
        simulate_ebird_serving(requests, cost, efficiency=1.0, duration_s=0.1)
        assert requests[0].latency_s == pytest.approx(cost(100, 1))

    def test_short_request_overtakes_long_batch(self):
        """The Ebird selling point: a short request dispatched while a long
        batch is in flight completes before it (processor sharing), unlike
        serial execution."""
        specs = [(500, 0.0), (10, 0.001)]
        concurrent = reqs(specs)
        simulate_ebird_serving(concurrent, cost, duration_s=0.05)
        serial = reqs(specs)
        simulate_serving(serial, NoBatchScheduler(), cost, duration_s=0.05)
        assert concurrent[1].completion_s < concurrent[0].completion_s
        # Serially the short request waits behind the long one.
        assert serial[1].completion_s > serial[0].completion_s
        assert concurrent[1].latency_s < serial[1].latency_s

    def test_sharing_conserves_capacity(self):
        """Concurrency reshuffles latency, it does not add throughput:
        total completion time of a fixed work set is (at best) serial."""
        specs = [(200, 0.0)] * 8
        concurrent = reqs(specs)
        simulate_ebird_serving(concurrent, cost, max_streams=4, max_batch=1,
                               efficiency=1.0, duration_s=0.1)
        makespan = max(r.completion_s for r in concurrent)
        serial_total = 8 * cost(200, 1)
        assert makespan == pytest.approx(serial_total, rel=0.01)

    def test_single_resident_batch_charged_efficiency(self):
        """Regression pin for a deliberate modelling choice: ``efficiency``
        applies even at k=1 (a solo batch progresses at ``efficiency``,
        not 1.0), because Ebird's elastic stream-pool dispatch overhead is
        a property of how work is launched, not of co-residency — and a
        discount at k=1 would make the progress rate discontinuous at the
        k=1 -> 2 boundary.  See the module docstring."""
        solo = reqs([(100, 0.0)])
        simulate_ebird_serving(solo, cost, efficiency=0.8, duration_s=0.1)
        assert solo[0].latency_s == pytest.approx(cost(100, 1) / 0.8)
        # Strictly slower than the uncharged run, by exactly 1/efficiency.
        ideal = reqs([(100, 0.0)])
        simulate_ebird_serving(ideal, cost, efficiency=1.0, duration_s=0.1)
        assert solo[0].latency_s == pytest.approx(
            ideal[0].latency_s / 0.8)

    def test_interference_efficiency_charged(self):
        fast = reqs([(200, 0.0)] * 4)
        simulate_ebird_serving(fast, cost, efficiency=1.0, duration_s=0.1)
        slow = reqs([(200, 0.0)] * 4)
        simulate_ebird_serving(slow, cost, efficiency=0.8, duration_s=0.1)
        assert max(r.completion_s for r in slow) > \
            max(r.completion_s for r in fast)

    def test_stream_limit_queues_excess(self):
        requests = reqs([(100, 0.0)] * 10)
        metrics = simulate_ebird_serving(
            requests, cost, max_streams=2, max_batch=1, duration_s=0.1
        )
        assert metrics.completed == 10
        # With 2 streams the last completions happen in later waves.
        completions = sorted(r.completion_s for r in requests)
        assert completions[-1] > completions[0] * 2

    def test_deterministic(self):
        a = reqs([(100, 0.005 * i) for i in range(20)])
        b = reqs([(100, 0.005 * i) for i in range(20)])
        ma = simulate_ebird_serving(a, cost, duration_s=0.2)
        mb = simulate_ebird_serving(b, cost, duration_s=0.2)
        assert ma.latency.avg_ms == mb.latency.avg_ms

    @pytest.mark.parametrize("kwargs", [
        {"max_streams": 0}, {"efficiency": 0.0}, {"efficiency": 1.5},
        {"max_batch": 0}, {"max_batch": -1},
    ])
    def test_validation(self, kwargs):
        """A bad argument is refused up front, by name, before any
        request is touched."""
        (name,) = kwargs
        requests = reqs([(10, 0.0), (20, 0.01)])
        with pytest.raises(ValueError, match=name):
            simulate_ebird_serving(requests, cost, duration_s=0.1, **kwargs)
        assert all(r.start_s is None and r.completion_s is None
                   and r.state is RequestState.PENDING and r.attempt == 0
                   for r in requests)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simulate_ebird_serving([], cost)


class TestBacklogSnapshot:
    def test_horizon_shorter_than_last_arrival(self):
        """The backlog is taken when the clock crosses the horizon, not
        after the last arrival: 50 light requests over [0, 1) s keep up,
        and a burst of 150 at t = 1.5 s lies outside the 1 s horizon.
        Waiting for every arrival used to report all 150 as backlog."""
        specs = [(20, 0.02 * i) for i in range(50)] + [(20, 1.5)] * 150
        metrics = simulate_ebird_serving(reqs(specs), cost, duration_s=1.0)
        assert metrics.completed == 200
        assert metrics.backlog_at_end == 0
        assert not metrics.saturated

    def test_backlog_inside_the_horizon_still_counts(self):
        specs = [(500, 0.0001 * i) for i in range(200)] + [(20, 1.5)]
        metrics = simulate_ebird_serving(reqs(specs), cost, duration_s=0.02)
        assert metrics.backlog_at_end > 100
        assert metrics.saturated


class TestBurstyWorkload:
    def test_bursty_rate_matches_average(self, rng):
        from repro.serving import bursty_arrivals

        times = bursty_arrivals(rng, 200, 20.0)
        assert len(times) / 20.0 == pytest.approx(200, rel=0.15)

    def test_all_arrivals_inside_on_windows(self, rng):
        from repro.serving import bursty_arrivals

        times = bursty_arrivals(rng, 100, 10.0, on_fraction=0.25, cycle_s=1.0)
        assert ((times % 1.0) < 0.25 + 1e-9).all()

    def test_validation(self, rng):
        from repro.serving import bursty_arrivals

        with pytest.raises(ValueError):
            bursty_arrivals(rng, 10, 1.0, on_fraction=0.0)
        with pytest.raises(ValueError):
            bursty_arrivals(rng, 10, 1.0, cycle_s=0.0)
