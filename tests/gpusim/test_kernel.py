"""Roofline kernel cost model."""

import pytest

from repro.gpusim import (
    RTX_2060,
    TESLA_V100,
    KernelTiming,
    elementwise_time,
    gemm_time,
    gemm_utilization,
    kernel_total_s,
    memcpy_time,
)


class TestKernelTiming:
    def test_total_is_launch_plus_roofline_max(self):
        t = KernelTiming("k", launch_s=1e-6, compute_s=5e-6, memory_s=3e-6)
        assert t.device_s == 5e-6
        assert t.total_s == pytest.approx(6e-6)
        assert not t.is_memory_bound

    def test_memory_bound_detection(self):
        t = KernelTiming("k", launch_s=0.0, compute_s=1e-6, memory_s=9e-6)
        assert t.is_memory_bound

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            KernelTiming("k", launch_s=-1e-6, compute_s=0.0, memory_s=1e-6)

    @pytest.mark.parametrize("terms", [(1e-6, 5e-6, 3e-6), (0.0, 1e-6, 9e-6),
                                       (3e-7, 0.0, 0.0)])
    def test_kernel_total_s_is_total_s(self, terms):
        assert kernel_total_s(*terms) == KernelTiming("k", *terms).total_s

    @pytest.mark.parametrize("terms", [(-1e-6, 0.0, 1e-6),
                                       (0.0, float("nan"), 1e-6),
                                       (0.0, 1e-6, float("inf"))])
    def test_kernel_total_s_rejects_like_kernel_timing(self, terms):
        with pytest.raises(ValueError) as timing:
            KernelTiming("k", *terms)
        with pytest.raises(ValueError) as total:
            kernel_total_s(*terms)
        assert str(total.value) == str(timing.value)

    def test_scaled(self):
        t = KernelTiming("k", launch_s=1e-6, compute_s=4e-6, memory_s=2e-6)
        half = t.scaled(0.5)
        assert half.compute_s == pytest.approx(2e-6)
        assert half.launch_s == t.launch_s  # launch unaffected

    def test_scaled_rejects_nonpositive(self):
        t = KernelTiming("k", 1e-6, 1e-6, 1e-6)
        with pytest.raises(ValueError):
            t.scaled(0.0)


class TestGemm:
    def test_flops_dominate_large_gemm(self):
        t = gemm_time(TESLA_V100, 8192, 8192, 8192)
        assert not t.is_memory_bound
        # 2*8192^3 flops at 75% of 15.7 TF
        expected = 2 * 8192**3 / (15.7e12 * 0.75)
        assert t.compute_s == pytest.approx(expected, rel=1e-6)

    def test_small_gemm_runs_at_low_efficiency(self):
        """Underfilled GEMMs achieve far less of peak than saturating ones."""
        small = gemm_time(TESLA_V100, 4, 64, 64)
        large = gemm_time(TESLA_V100, 8192, 8192, 8192)
        small_rate = 2 * 4 * 64 * 64 / small.device_s
        large_rate = 2 * 8192**3 / large.device_s
        assert small_rate < 0.2 * large_rate

    def test_utilization_saturates(self):
        assert gemm_utilization(TESLA_V100, 100000, 768) == 1.0

    def test_utilization_penalizes_small_m(self):
        small = gemm_utilization(RTX_2060, 10, 768)
        large = gemm_utilization(RTX_2060, 5000, 768)
        assert small < large == 1.0

    def test_batching_raises_utilization(self):
        """The mechanism behind Fig. 8's batching gain."""
        u1 = gemm_utilization(RTX_2060, 64, 768, batch=1)
        u8 = gemm_utilization(RTX_2060, 64, 768, batch=8)
        assert u8 > u1

    def test_batched_gemm_cost_scales(self):
        t1 = gemm_time(TESLA_V100, 128, 128, 64, batch=1)
        t16 = gemm_time(TESLA_V100, 128, 128, 64, batch=16)
        assert t16.device_s > t1.device_s

    @pytest.mark.parametrize("m,n,k,batch", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 1, 0)])
    def test_validation(self, m, n, k, batch):
        with pytest.raises(ValueError):
            gemm_time(TESLA_V100, m, n, k, batch)


class TestElementwise:
    def test_bandwidth_bound(self):
        t = elementwise_time(TESLA_V100, 10_000_000, reads=1, writes=1)
        assert t.is_memory_bound
        assert t.memory_s == pytest.approx(2 * 4 * 10_000_000 / 720e9)

    def test_more_passes_cost_more(self):
        one = elementwise_time(TESLA_V100, 1_000_000, reads=1, writes=1)
        three = elementwise_time(TESLA_V100, 1_000_000, reads=2, writes=1)
        assert three.memory_s > one.memory_s

    def test_zero_passes_rejected(self):
        with pytest.raises(ValueError):
            elementwise_time(TESLA_V100, 100, reads=0, writes=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            elementwise_time(TESLA_V100, 0)


class TestMemcpy:
    def test_counts_read_and_write(self):
        t = memcpy_time(TESLA_V100, 720_000_000)  # 720 MB
        assert t.memory_s == pytest.approx(2.0 * 720e6 / 720e9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            memcpy_time(TESLA_V100, 0)
