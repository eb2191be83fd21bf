"""Engine-level fault injection: stretch, crash queries, attempt verdicts."""

import pytest

from repro.engine import Engine, EngineError, EngineFaultInjector, EventKind
from repro.observability import MetricsRegistry
from repro.resilience import (
    FaultPlan,
    KernelStall,
    LatencySpike,
    ResilienceConfig,
    ServerCrash,
    TransientFailures,
)
from repro.serving import DPBatchScheduler, Request, simulate_serving


def plan(**kw):
    defaults = dict(seed=0)
    defaults.update(kw)
    return FaultPlan(**defaults)


class TestStretch:
    def test_identity_off_fault(self):
        inj = EngineFaultInjector(plan(), server_id=0)
        d = 0.125
        assert inj.stretch(d, 10.0) is d  # same float object, no drift
        assert inj.stretches == 0
        assert inj.stretched_seconds == 0.0

    def test_spike_window_stretches(self):
        inj = EngineFaultInjector(plan(
            spikes=(LatencySpike(1.0, 2.0, multiplier=3.0, server_id=0),)
        ))
        assert inj.stretch(0.1, 0.5) == pytest.approx(0.1)
        assert inj.stretch(0.1, 1.5) == pytest.approx(0.3)
        assert inj.stretch(0.1, 2.0) == pytest.approx(0.1)  # half-open
        assert inj.stretches == 1
        assert inj.stretched_seconds == pytest.approx(0.2)

    def test_spike_bound_to_server(self):
        p = plan(spikes=(LatencySpike(0.0, 10.0, 2.0, server_id=1),))
        assert EngineFaultInjector(p, 0).stretch(1.0, 5.0) == 1.0
        assert EngineFaultInjector(p, 1).stretch(1.0, 5.0) == 2.0

    def test_stall_applies_only_to_matching_label(self):
        inj = EngineFaultInjector(plan(
            stalls=(KernelStall(0.0, 10.0, 4.0, name_contains="gemm"),)
        ))
        assert inj.stretch(1.0, 5.0) == 1.0               # unlabeled
        assert inj.stretch(1.0, 5.0, label="softmax") == 1.0
        assert inj.stretch(1.0, 5.0, label="gemm_qk") == 4.0

    def test_instrumentation_counts_faults(self):
        """A serving run with a registry publishes its injector's
        stretches as ``engine_faults_total{kind="stretch"}``."""
        registry = MetricsRegistry()
        simulate_serving(
            [Request(req_id=0, seq_len=8, arrival_s=5.0)],
            DPBatchScheduler(), lambda n, b: 1.0, duration_s=6.0,
            metrics=registry, resilience=ResilienceConfig(faults=plan(
                spikes=(LatencySpike(0.0, 10.0, 2.0),))))
        assert registry.value("engine_faults_total", kind="stretch") == 1
        exported = registry.to_dict()
        names = {(c["name"], tuple(sorted(c["labels"].items())))
                 for c in exported["counters"]}
        assert ("engine_faults_total", (("kind", "stretch"),)) in names


class TestCrashQueries:
    def test_window_half_open(self):
        inj = EngineFaultInjector(plan(
            crashes=(ServerCrash(2.0, 3.0, server_id=0),)
        ))
        assert not inj.crashed(1.9)
        assert inj.crashed(2.0)
        assert not inj.crashed(3.0)  # recovery instant is up
        assert inj.crash_end(2.5) == 3.0
        assert inj.crash_end(1.0) == 1.0

    def test_crashed_during_truncates_window(self):
        inj = EngineFaultInjector(plan(
            crashes=(ServerCrash(2.0, 3.0, server_id=0),)
        ))
        assert inj.crashed_during(0.0, 1.0) is None
        assert inj.crashed_during(1.5, 2.5) == 2.0
        assert inj.crashed_during(2.2, 2.8) == pytest.approx(2.2)


class TestAttemptVerdicts:
    def test_outside_window_never_fails(self):
        inj = EngineFaultInjector(plan(
            failures=(TransientFailures(1.0, 2.0, 1.0),)
        ))
        assert not inj.attempt_fails(0, 0, 0.5)
        assert inj.failures_injected == 0

    def test_rate_one_always_fails_and_counts(self):
        inj = EngineFaultInjector(plan(
            failures=(TransientFailures(1.0, 2.0, 1.0),)
        ))
        assert inj.attempt_fails(0, 0, 1.5)
        assert inj.failures_injected == 1

    def test_verdict_deterministic_per_attempt(self):
        p = plan(failures=(TransientFailures(0.0, 10.0, 0.5),))
        a = EngineFaultInjector(p, 0)
        b = EngineFaultInjector(p, 0)
        verdicts_a = [a.attempt_fails(i, 0, 5.0) for i in range(50)]
        verdicts_b = [b.attempt_fails(i, 0, 5.0) for i in range(50)]
        assert verdicts_a == verdicts_b
        assert any(verdicts_a) and not all(verdicts_a)


class TestEngineIntegration:
    def test_advance_stretches_under_installed_injector(self):
        """A replica stretches its window with its own injector, then the
        engine runs to the stretched end."""
        inj = EngineFaultInjector(plan(
            spikes=(LatencySpike(0.0, 10.0, 2.0),)
        ))
        engine = Engine()
        engine.run_until(engine.now + inj.stretch(1.0, engine.now))
        assert engine.now == pytest.approx(2.0)
        assert inj.stretches == 1

    def test_last_advance_s_exact_off_fault(self):
        """Off-fault the stretch is the very same float, so the window end
        busy accounting charges is byte-identical."""
        inj = EngineFaultInjector(plan())
        engine = Engine()
        d = 0.3
        assert inj.stretch(d, engine.now) is d
        assert engine.run_until(engine.now + d) == d

    def test_run_until_is_not_a_busy_window(self):
        """Sleeping out an outage dispatches due events but never
        stretches: the engine runs to the end it is given."""
        inj = EngineFaultInjector(plan(
            spikes=(LatencySpike(0.0, 10.0, 5.0),)
        ))
        engine = Engine()
        seen = []
        engine.schedule(1.0, EventKind.ARRIVAL,
                        lambda e: seen.append(engine.now))
        assert engine.run_until(2.0) == 2.0
        assert engine.now == 2.0
        assert seen == [1.0]
        assert inj.stretches == 0

    def test_run_until_rejects_past(self):
        engine = Engine()
        engine.run_until(1.0)
        with pytest.raises(EngineError):
            engine.run_until(0.5)
