"""cudaMalloc/cudaFree accounting."""

import pytest

from repro.gpusim import CUDA_MALLOC_STALL_S, DeviceMemory, OutOfDeviceMemoryError


class TestDeviceMemory:
    def test_malloc_free_cycle(self):
        mem = DeviceMemory()
        h = mem.malloc(1024)
        assert mem.allocated_bytes == 1024
        assert mem.live_allocations == 1
        mem.free(h)
        assert mem.allocated_bytes == 0
        assert mem.live_allocations == 0

    def test_peak_tracks_high_water(self):
        mem = DeviceMemory()
        a = mem.malloc(100)
        b = mem.malloc(200)
        mem.free(a)
        mem.free(b)
        assert mem.peak_bytes == 300
        assert mem.allocated_bytes == 0

    def test_each_call_stalls_the_stream(self):
        mem = DeviceMemory()
        h = mem.malloc(64)
        mem.free(h)
        assert mem.stall_s == pytest.approx(2 * CUDA_MALLOC_STALL_S)

    def test_total_alloc_is_cumulative(self):
        mem = DeviceMemory()
        for _ in range(3):
            mem.free(mem.malloc(50))
        assert mem.total_alloc_bytes == 150
        assert mem.allocated_bytes == 0

    def test_capacity_enforced(self):
        mem = DeviceMemory(capacity_bytes=100)
        mem.malloc(80)
        with pytest.raises(OutOfDeviceMemoryError):
            mem.malloc(21)

    def test_unlimited_when_capacity_zero(self):
        mem = DeviceMemory(capacity_bytes=0)
        mem.malloc(10**12)  # fine

    @pytest.mark.parametrize("capacity, error", [
        (float("nan"), TypeError),
        (float("inf"), TypeError),
        (2.5, TypeError),
        (True, TypeError),
        (-1, ValueError),
    ], ids=["nan", "inf", "frac", "bool", "negative"])
    def test_capacity_checked_at_entry(self, capacity, error):
        with pytest.raises(error):
            DeviceMemory(capacity_bytes=capacity)

    def test_double_free_rejected(self):
        mem = DeviceMemory()
        h = mem.malloc(10)
        mem.free(h)
        with pytest.raises(ValueError):
            mem.free(h)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            DeviceMemory().malloc(0)

    def test_reset_stats_keeps_live(self):
        mem = DeviceMemory()
        mem.malloc(100)
        mem.reset_stats()
        assert mem.allocated_bytes == 100
        assert mem.malloc_calls == 0
        assert mem.total_alloc_bytes == 0
        assert mem.peak_bytes == 100
