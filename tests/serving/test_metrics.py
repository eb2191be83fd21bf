"""Latency/throughput metrics."""

from array import array
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import (
    LatencyStats,
    Request,
    RequestState,
    response_throughput,
)
from repro.serving.driver import tally_requests
from repro.serving.metrics import completed_requests, completed_throughput


def completed(req_id, arrival, completion, seq_len=10):
    r = Request(req_id=req_id, seq_len=seq_len, arrival_s=arrival)
    r.completion_s = completion
    return r


class TestLatencyStats:
    def test_avg_min_max(self):
        requests = [
            completed(0, 0.0, 0.010),
            completed(1, 0.0, 0.020),
            completed(2, 0.0, 0.060),
        ]
        stats = LatencyStats.from_requests(requests)
        assert stats.avg_ms == pytest.approx(30.0)
        assert stats.min_ms == pytest.approx(10.0)
        assert stats.max_ms == pytest.approx(60.0)
        assert stats.count == 3

    def test_pending_requests_ignored(self):
        requests = [completed(0, 0.0, 0.010), Request(1, 10, 0.0)]
        assert LatencyStats.from_requests(requests).count == 1

    def test_empty_is_infinite(self):
        stats = LatencyStats.from_requests([])
        assert stats.avg_ms == float("inf")
        assert stats.format_cell() == "+inf"

    def test_format_cell_matches_paper_style(self):
        stats = LatencyStats(avg_ms=77.71, min_ms=10.61, max_ms=158.06, count=9)
        assert stats.format_cell() == "77.71 (10.61, 158.06)"


class TestResponseThroughput:
    def test_counts_only_window(self):
        requests = [
            completed(0, 0.0, 0.5),
            completed(1, 0.0, 1.5),
            completed(2, 0.0, 2.5),  # outside [0, 2]
        ]
        assert response_throughput(requests, 0.0, 2.0) == pytest.approx(1.0)

    def test_completion_exactly_at_window_end_counted(self):
        """Regression (ISSUE 1): the window is closed at both ends.  The
        deterministic simulator lands batch completions exactly on the
        horizon; a half-open window silently dropped them."""
        requests = [completed(0, 0.0, 1.0), completed(1, 0.0, 2.0)]
        assert response_throughput(requests, 0.0, 2.0) == pytest.approx(1.0)

    def test_completion_exactly_at_window_start_counted(self):
        requests = [completed(0, 0.0, 1.0)]
        assert response_throughput(requests, 1.0, 2.0) == pytest.approx(1.0)

    def test_completion_after_window_end_dropped(self):
        requests = [completed(0, 0.0, 2.0 + 1e-9)]
        assert response_throughput(requests, 0.0, 2.0) == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            response_throughput([], 1.0, 1.0)


class TestNearestRankPercentile:
    """Pin p50/p95/p99 to the textbook nearest-rank rule, ceil(q*n)
    (ISSUE 1): Python's round() uses banker's rounding, which made p50 of
    an even-length list implementation folklore (off by one element)."""

    def test_p50_even_list_is_lower_middle(self):
        assert LatencyStats._percentile([1.0, 2.0], 0.50) == 1.0
        assert LatencyStats._percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0

    def test_p50_odd_list_is_middle(self):
        assert LatencyStats._percentile([1.0, 2.0, 3.0], 0.50) == 2.0
        assert LatencyStats._percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.50) == 3.0

    def test_hundred_values_hit_exact_ranks(self):
        values = [float(i) for i in range(1, 101)]
        assert LatencyStats._percentile(values, 0.50) == 50.0
        assert LatencyStats._percentile(values, 0.95) == 95.0
        assert LatencyStats._percentile(values, 0.99) == 99.0

    def test_extremes(self):
        values = [5.0, 6.0, 7.0]
        assert LatencyStats._percentile(values, 0.0) == 5.0
        assert LatencyStats._percentile(values, 1.0) == 7.0

    def test_singleton(self):
        assert LatencyStats._percentile([4.2], 0.5) == 4.2
        assert LatencyStats._percentile([4.2], 0.99) == 4.2

    def test_empty_is_infinite(self):
        assert LatencyStats._percentile([], 0.5) == float("inf")


class TestPercentiles:
    def test_percentiles_ordered(self):
        requests = [completed(i, 0.0, 0.001 * (i + 1)) for i in range(100)]
        stats = LatencyStats.from_requests(requests)
        assert stats.min_ms <= stats.p50_ms <= stats.p95_ms <= stats.p99_ms <= stats.max_ms

    def test_median_of_uniform_grid(self):
        requests = [completed(i, 0.0, 0.001 * (i + 1)) for i in range(101)]
        stats = LatencyStats.from_requests(requests)
        assert stats.p50_ms == pytest.approx(51.0)

    def test_p99_catches_tail_outlier(self):
        requests = [completed(i, 0.0, 0.010) for i in range(50)]
        requests.append(completed(50, 0.0, 1.0))
        stats = LatencyStats.from_requests(requests)
        assert stats.p99_ms >= 100.0  # nearest-rank p99 lands on the outlier
        assert stats.p95_ms == pytest.approx(10.0)

    def test_meets_slo(self):
        requests = [completed(i, 0.0, 0.010) for i in range(20)]
        stats = LatencyStats.from_requests(requests)
        assert stats.meets_slo(15.0, quantile=0.95)
        assert not stats.meets_slo(5.0, quantile=0.95)

    def test_empty_percentiles_infinite(self):
        stats = LatencyStats.from_requests([])
        assert stats.p99_ms == float("inf")


def sorted_reference(values_ms):
    """``LatencyStats.from_values`` as a ``sorted()`` over the samples and
    the built-in ``sum`` over that order."""
    if not values_ms:
        return LatencyStats(float("inf"), float("inf"), float("inf"), 0)
    ordered = sorted(values_ms)
    return LatencyStats(
        avg_ms=sum(ordered) / len(ordered),
        min_ms=ordered[0],
        max_ms=ordered[-1],
        count=len(ordered),
        p50_ms=LatencyStats._percentile(ordered, 0.50),
        p95_ms=LatencyStats._percentile(ordered, 0.95),
        p99_ms=LatencyStats._percentile(ordered, 0.99),
    )


def bits(stats):
    """Every field with its exact type, floats by their bit pattern."""
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in astuple(stats)]


#: Finite samples >= 0 (``min_value=0.0`` draws no ``-0.0``), mostly in a
#: latency's range so the order of the additions shows in the average,
#: drawn from a small pool so duplicates are common, with zeros among them.
SAMPLE = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4),
                   st.floats(min_value=0.0, allow_infinity=False))
SAMPLES = st.lists(SAMPLE, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=100))


class TestFromValuesMatchesSorted:
    """The NumPy sort gives the same stats as ``sorted()``, bit for bit
    and as Python floats, on every interpreter's own ``sum``."""

    @settings(max_examples=300, deadline=None)
    @given(values=SAMPLES)
    @example(values=[])
    @example(values=[0.0])
    @example(values=[7.25])
    @example(values=[0.1, 0.2, 0.3, 0.0, 0.1, 1e16, 1.0])
    def test_every_field_bit_for_bit(self, values):
        want = bits(sorted_reference(values))
        assert bits(LatencyStats.from_values(values)) == want
        # The driver's tally hands over an array('d').
        assert bits(LatencyStats.from_values(array("d", values))) == want


class TestTallyRequests:
    """The driver's one pass over a finished run against the four
    passes it replaces: ``completed_requests``, the latency samples of
    ``LatencyStats.from_completed``, ``completed_throughput`` and the
    backlog rule."""

    HORIZON = 1.0
    WINDOW_START = 0.25
    #: (state, start set, completion set): every terminal state, a
    #: legacy ``PENDING`` request carrying a completion, and states a
    #: run never leaves with a completion.
    SHAPES = [(state, started, done)
              for state in RequestState
              for started in (False, True)
              for done in (False, True)]

    @staticmethod
    def reference(requests, window_start, horizon):
        done = completed_requests(requests)
        backlog = sum(
            1 for r in requests
            if r.arrival_s <= horizon and r.state is not RequestState.SHED
            and (r.start_s is None or r.start_s > horizon))
        return (done, LatencyStats.from_completed(done),
                completed_throughput(done, window_start, horizon), backlog)

    def tally(self, requests):
        done, latencies_ms, in_window, backlog = tally_requests(
            requests, self.WINDOW_START, self.HORIZON)
        return (done, LatencyStats.from_values(latencies_ms),
                in_window / (self.HORIZON - self.WINDOW_START), backlog)

    @staticmethod
    def request(req_id, arrival, state, start=None, completion=None):
        r = Request(req_id=req_id, seq_len=10, arrival_s=arrival)
        r.state = state
        r.start_s = start
        r.completion_s = completion
        return r

    def test_edge_cases_match_the_four_passes(self):
        requests = [
            # A legacy path's completion: PENDING with completion_s set.
            self.request(0, 0.1, RequestState.PENDING, 0.2, 0.5),
            # Service starting exactly at the horizon is not backlog.
            self.request(1, 0.9, RequestState.COMPLETED, 1.0, 1.2),
            self.request(2, 0.9, RequestState.COMPLETED, 1.1, 1.3),
            self.request(3, 0.5, RequestState.SHED),
            self.request(4, 0.5, RequestState.TIMED_OUT, 0.6),
            self.request(5, 0.6, RequestState.FAILED, 1.5),
            self.request(6, 1.2, RequestState.COMPLETED, 1.2, 1.4),
            self.request(7, 0.0, RequestState.COMPLETED, 0.0, 0.25),
            self.request(8, 0.3, RequestState.PENDING),
        ]
        got = self.tally(requests)
        assert got == self.reference(requests, self.WINDOW_START,
                                     self.HORIZON)
        done, stats, _, backlog = got
        assert [r.req_id for r in done] == [0, 1, 2, 6, 7]
        assert stats.count == 5 and backlog == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8),  # arrival, quarter ticks
                              st.sampled_from(range(len(SHAPES))),
                              st.integers(0, 4),  # start - arrival
                              st.integers(0, 4)),  # completion - start
                    max_size=30))
    def test_matches_the_four_passes(self, draws):
        requests = []
        for req_id, (arrival, shape, wait, service) in enumerate(draws):
            state, started, done = self.SHAPES[shape]
            start = (arrival + wait) / 4 if started or done else None
            completion = (arrival + wait + service) / 4 if done else None
            requests.append(self.request(req_id, arrival / 4, state, start,
                                         completion))
        assert self.tally(requests) == self.reference(
            requests, self.WINDOW_START, self.HORIZON)
