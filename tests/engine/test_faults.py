"""Engine-level fault injection: stretch, crash queries, attempt verdicts,
and the segment cache behind ``window`` and ``crashed``."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineError, EngineFaultInjector, EventKind
from repro.observability import MetricsRegistry
from repro.resilience import (
    FaultPlan,
    LatencySpike,
    ResilienceConfig,
    ServerCrash,
    TransientFailures,
)
from repro.serving import DPBatchScheduler, Request, simulate_serving


def run_window(engine, end):
    """Run one busy window to ``end`` as a replica does: a spawned task
    yields it, and the engine steps until the WAKE there resumes it."""
    def run():
        yield end

    task = engine.spawn(run())
    while not task.done:
        engine.step()
    return engine.now


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


#: Fault edges on a quarter-second grid, so windows share edges often.
EDGE = st.integers(0, 12).map(lambda i: i * 0.25)
SERVER = st.sampled_from([None, 0, 1])


def _span(draw):
    start = draw(EDGE)
    return start, start + draw(st.integers(1, 6)) * 0.25


@st.composite
def fault_plans(draw):
    """Spikes of every server binding, transient failures and crashes,
    all on the edge grid."""
    def group(build, max_size):
        return tuple(build() for _ in range(draw(st.integers(0, max_size))))

    return FaultPlan(
        seed=0,
        spikes=group(lambda: LatencySpike(
            *_span(draw), draw(st.sampled_from([1.0, 1.5, 3.0])),
            server_id=draw(SERVER)), 3),
        failures=group(lambda: TransientFailures(
            *_span(draw), draw(st.sampled_from([0.0, 0.5, 1.0])),
            server_id=draw(SERVER)), 2),
        crashes=group(lambda: ServerCrash(
            *_span(draw), server_id=draw(st.sampled_from([0, 1]))), 3),
    )


def _probe_times(plan):
    """Every edge of either server, one ULP either side of it, the
    midpoints between edges and points before and past them all."""
    edges = sorted(set(plan.boundaries(0)) | set(plan.boundaries(1))
                   | {0.0, 0.25})
    points = {-0.0, 5.0, 9.5}
    for e in edges:
        points.update((e, math.nextafter(e, -math.inf),
                       math.nextafter(e, math.inf)))
    points.update((a + b) / 2 for a, b in zip(edges, edges[1:]))
    return sorted(p for p in points if p >= 0.0)


class TestSegmentCache:
    """``window`` and ``crashed`` answer from a cached segment of the
    plan's edges; they must equal the plan scans for queries in any
    order, with starts and ends on edges and one ULP from them."""

    @given(plan=fault_plans(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_segment_answers_equal_the_plan(self, plan, data):
        points = _probe_times(plan)
        point = st.sampled_from(points)
        for sid in (0, 1):
            inj = EngineFaultInjector(plan, sid)
            ref = EngineFaultInjector(plan, sid)
            for _ in range(data.draw(st.integers(1, 25))):
                started = data.draw(point)
                end = data.draw(point)
                dur = (end - started if end >= started
                       else data.draw(st.sampled_from([0.0, 0.1, 0.25])))
                want_dur = ref.stretch(dur, started)
                want = (want_dur, ref.crashed_during(started,
                                                     started + want_dur))
                assert inj.window(started, dur) == want
                t = data.draw(point)
                assert inj.crashed(t) == plan.crashed(sid, t)
                assert inj.crashed(started) == plan.crashed(sid, started)
                assert (inj.stretches, inj.stretched_seconds) == \
                    (ref.stretches, ref.stretched_seconds)

    def test_crash_starting_at_the_window_end_cuts_it(self):
        inj = EngineFaultInjector(plan(
            crashes=(ServerCrash(2.0, 3.0, server_id=0),)))
        assert inj.window(1.0, 0.5) == (0.5, None)
        assert inj.window(1.5, 0.5) == (0.5, 2.0)
        assert inj.window(0.5, 0.25) == (0.25, None)  # a backwards query

    def test_quiet_window_returns_the_same_float(self):
        inj = EngineFaultInjector(plan(
            spikes=(LatencySpike(4.0, 5.0, 2.0),)))
        d = 0.125
        dur, cut = inj.window(1.0, d)
        assert dur is d and cut is None
        assert inj.stretches == 0


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
        run_window(engine, engine.now + inj.stretch(1.0, engine.now))
        assert engine.now == pytest.approx(2.0)
        assert inj.stretches == 1

    def test_last_advance_s_exact_off_fault(self):
        """Off-fault the stretch is the very same float, so the window end
        busy accounting charges is byte-identical."""
        inj = EngineFaultInjector(plan())
        engine = Engine()
        d = 0.3
        assert inj.stretch(d, engine.now) is d
        assert run_window(engine, engine.now + d) == d

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
        assert run_window(engine, 2.0) == 2.0
        assert engine.now == 2.0
        assert seen == [1.0]
        assert inj.stretches == 0

    def test_run_until_rejects_past(self):
        """A window run until a time before ``now`` is rejected."""
        engine = Engine()
        run_window(engine, 1.0)
        with pytest.raises(EngineError):
            run_window(engine, 0.5)
