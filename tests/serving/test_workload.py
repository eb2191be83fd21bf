"""Workload generation: length distributions and Poisson arrivals."""

import math

import numpy as np
import pytest

from repro.serving import (
    MAX_LEN,
    MIN_LEN,
    generate_requests,
    normal_lengths,
    poisson_arrivals,
    uniform_lengths,
)


class TestLengths:
    def test_normal_within_range(self, rng):
        lengths = normal_lengths(rng, 2000)
        assert lengths.min() >= MIN_LEN
        assert lengths.max() <= MAX_LEN

    def test_normal_centered(self, rng):
        lengths = normal_lengths(rng, 5000)
        assert abs(lengths.mean() - (MIN_LEN + MAX_LEN) / 2) < 10

    def test_uniform_within_range(self, rng):
        lengths = uniform_lengths(rng, 2000, 10, 50)
        assert lengths.min() >= 10
        assert lengths.max() <= 50

    def test_uniform_covers_range(self, rng):
        lengths = uniform_lengths(rng, 5000, 1, 10)
        assert set(np.unique(lengths)) == set(range(1, 11))

    def test_invalid_ranges(self, rng):
        with pytest.raises(ValueError):
            normal_lengths(rng, 10, lo=10, hi=5)
        with pytest.raises(ValueError):
            uniform_lengths(rng, 10, lo=0, hi=5)


class TestPoisson:
    def test_arrivals_sorted_within_horizon(self, rng):
        times = poisson_arrivals(rng, rate_per_s=100, duration_s=5.0)
        assert (np.diff(times) >= 0).all()
        assert times.max() < 5.0

    def test_rate_approximately_honoured(self, rng):
        times = poisson_arrivals(rng, rate_per_s=200, duration_s=20.0)
        rate = len(times) / 20.0
        assert rate == pytest.approx(200, rel=0.1)

    def test_exponential_gaps(self, rng):
        times = poisson_arrivals(rng, rate_per_s=50, duration_s=50.0)
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(1 / 50, rel=0.1)
        # Memorylessness: std of exponential equals its mean.
        assert gaps.std() == pytest.approx(gaps.mean(), rel=0.15)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 0, 1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 10, 0)

    @pytest.mark.parametrize("rate, duration", [
        (math.nan, 1.0), (math.inf, 1.0), (10, math.nan), (10, math.inf)])
    def test_rejects_non_finite(self, rng, rate, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            poisson_arrivals(rng, rate, duration)


class TestGenerateRequests:
    def test_deterministic_given_seed(self):
        a = generate_requests(50, 2.0, seed=9)
        b = generate_requests(50, 2.0, seed=9)
        assert [(r.seq_len, r.arrival_s) for r in a] == \
               [(r.seq_len, r.arrival_s) for r in b]

    def test_ids_unique_and_ordered(self):
        requests = generate_requests(100, 2.0, seed=0)
        ids = [r.req_id for r in requests]
        assert ids == sorted(set(ids))

    def test_custom_length_sampler(self):
        requests = generate_requests(
            50, 2.0, seed=0,
            length_sampler=lambda rng, n: uniform_lengths(rng, n, 7, 7),
        )
        assert all(r.seq_len == 7 for r in requests)
