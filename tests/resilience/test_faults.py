"""FaultPlan: windows and determinism."""

import pytest

from repro.resilience import (
    FaultPlan,
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
        lambda: TransientFailures(start_s=0.0, end_s=float("nan"),
                                  failure_rate=0.5),
    ], ids=["spike-nan-start", "spike-nan-multiplier", "spike-inf-multiplier",
            "failures-nan-end"])
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
