"""FaultPlan: windows, determinism, and the gpusim stall hook."""

import pytest

from repro.gpusim import KernelTiming, Stream
from repro.resilience import (
    FaultPlan,
    KernelStall,
    LatencySpike,
    ServerCrash,
    TransientFailures,
    unit_hash,
)


class TestWindows:
    def test_empty_plan_is_identity(self):
        plan = FaultPlan()
        assert plan.empty
        assert plan.latency_multiplier(0, 1.0) == 1.0
        assert not plan.crashed(0, 1.0)
        assert plan.failure_rate(0, 1.0) == 0.0
        assert not plan.attempt_fails(0, 0, 0, 1.0)
        assert plan.stall_multiplier("gemm", 1.0) == 1.0
        assert plan.kernel_stall_fn() is None
        assert plan.last_fault_end_s() == 0.0

    def test_window_half_open(self):
        spike = LatencySpike(start_s=1.0, end_s=2.0, multiplier=3.0)
        assert not spike.active(0, 0.999)
        assert spike.active(0, 1.0)
        assert spike.active(0, 1.999)
        assert not spike.active(0, 2.0)

    def test_spikes_multiply(self):
        plan = FaultPlan(spikes=(
            LatencySpike(start_s=0.0, end_s=2.0, multiplier=2.0),
            LatencySpike(start_s=1.0, end_s=3.0, multiplier=3.0, server_id=0),
            LatencySpike(start_s=1.0, end_s=3.0, multiplier=5.0, server_id=1),
        ))
        assert plan.latency_multiplier(0, 0.5) == 2.0
        assert plan.latency_multiplier(0, 1.5) == 6.0
        assert plan.latency_multiplier(1, 1.5) == 10.0
        assert plan.latency_multiplier(0, 2.5) == 3.0

    def test_failure_rate_is_max_of_active(self):
        plan = FaultPlan(failures=(
            TransientFailures(start_s=0.0, end_s=2.0, failure_rate=0.2),
            TransientFailures(start_s=1.0, end_s=2.0, failure_rate=0.7,
                              server_id=1),
        ))
        assert plan.failure_rate(0, 1.5) == 0.2
        assert plan.failure_rate(1, 1.5) == 0.7

    def test_crash_queries(self):
        plan = FaultPlan(crashes=(ServerCrash(start_s=1.0, end_s=3.0,
                                              server_id=1),))
        assert plan.crashed(1, 2.0)
        assert not plan.crashed(0, 2.0)
        assert plan.crash_end(1, 2.0) == 3.0
        assert plan.crash_end(1, 5.0) == 5.0  # no crash covering t
        assert plan.crashed_during(1, 0.5, 2.0) == 1.0
        assert plan.crashed_during(1, 2.5, 2.9) == 2.5
        assert plan.crashed_during(1, 3.5, 4.0) is None
        assert plan.crashed_during(0, 0.0, 10.0) is None
        assert plan.last_fault_end_s() == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencySpike(start_s=2.0, end_s=1.0, multiplier=2.0)
        with pytest.raises(ValueError):
            LatencySpike(start_s=0.0, end_s=1.0, multiplier=0.5)
        with pytest.raises(ValueError):
            TransientFailures(start_s=0.0, end_s=1.0, failure_rate=1.5)
        with pytest.raises(ValueError):
            ServerCrash(start_s=0.0, end_s=1.0, server_id=-1)

    @pytest.mark.parametrize("make", [
        lambda: LatencySpike(start_s=float("nan"), end_s=1.0, multiplier=2.0),
        lambda: LatencySpike(start_s=0.0, end_s=1.0, multiplier=float("nan")),
        lambda: LatencySpike(start_s=0.0, end_s=1.0, multiplier=float("inf")),
        lambda: KernelStall(start_s=0.0, end_s=1.0, multiplier=float("inf")),
        lambda: TransientFailures(start_s=0.0, end_s=float("nan"),
                                  failure_rate=0.5),
    ], ids=["spike-nan-start", "spike-nan-multiplier", "spike-inf-multiplier",
            "stall-inf-multiplier", "failures-nan-end"])
    def test_rejects_nan_and_infinite_inputs(self, make):
        with pytest.raises(ValueError):
            make()

    def test_open_ended_window_is_legal(self):
        crash = ServerCrash(start_s=0.5, end_s=float("inf"), server_id=0)
        assert FaultPlan(crashes=(crash,)).crashed(0, 1e9)


class TestDeterminism:
    def test_unit_hash_stable_and_uniform_ish(self):
        values = [unit_hash(0, i, 0) for i in range(1000)]
        assert values == [unit_hash(0, i, 0) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_attempt_fails_replayable_and_seeded(self):
        plan = FaultPlan(seed=0, failures=(
            TransientFailures(start_s=0.0, end_s=10.0, failure_rate=0.5),))
        verdicts = [plan.attempt_fails(i, 0, 0, 1.0) for i in range(200)]
        assert verdicts == [plan.attempt_fails(i, 0, 0, 1.0)
                            for i in range(200)]
        assert 40 < sum(verdicts) < 160  # roughly half fail
        other = FaultPlan(seed=1, failures=plan.failures)
        assert verdicts != [other.attempt_fails(i, 0, 0, 1.0)
                            for i in range(200)]

    def test_attempt_fails_rate_edges(self):
        always = FaultPlan(failures=(
            TransientFailures(start_s=0.0, end_s=1.0, failure_rate=1.0),))
        never = FaultPlan(failures=(
            TransientFailures(start_s=0.0, end_s=1.0, failure_rate=0.0),))
        assert all(always.attempt_fails(i, 0, 0, 0.5) for i in range(50))
        assert not any(never.attempt_fails(i, 0, 0, 0.5) for i in range(50))

    def test_retry_attempt_changes_the_draw(self):
        plan = FaultPlan(failures=(
            TransientFailures(start_s=0.0, end_s=1.0, failure_rate=0.5),))
        first = [plan.attempt_fails(i, 0, 0, 0.5) for i in range(200)]
        second = [plan.attempt_fails(i, 1, 0, 0.5) for i in range(200)]
        assert first != second


def timing(name="gemm", compute=1e-3):
    return KernelTiming(name=name, launch_s=1e-5, compute_s=compute,
                        memory_s=0.5e-3)


class TestKernelStallHook:
    def test_stalled_scales_every_component(self):
        t = timing()
        s = t.stalled(3.0)
        assert s.launch_s == pytest.approx(3 * t.launch_s)
        assert s.compute_s == pytest.approx(3 * t.compute_s)
        assert s.memory_s == pytest.approx(3 * t.memory_s)
        assert s.total_s == pytest.approx(3 * t.total_s)
        assert t.stalled(1.0) is t
        with pytest.raises(ValueError):
            t.stalled(0.5)

    def test_stream_applies_stall_window(self):
        plan = FaultPlan(stalls=(
            KernelStall(start_s=0.0, end_s=1e-3, multiplier=4.0,
                        name_contains="gemm"),))
        stream = Stream(stall_fn=plan.kernel_stall_fn())
        clean = Stream()
        first = timing()  # submitted at t=0: inside the window, stalled 4x
        for s in (stream, clean):
            s.submit(first)
            # Second submit lands after the window on the stalled stream.
            s.submit(timing(name="softmax"))
        assert stream.time_matching("gemm") == \
            pytest.approx(4 * clean.time_matching("gemm"))
        assert stream.time_matching("softmax") == \
            pytest.approx(clean.time_matching("softmax"))

    def test_no_stalls_means_untouched_stream(self):
        assert FaultPlan().kernel_stall_fn() is None
        stream = Stream(stall_fn=None)
        stream.submit(timing())
        assert stream.elapsed_s == pytest.approx(timing().total_s)
