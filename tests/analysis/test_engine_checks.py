"""Engine-trace recorder + verifiers.

Two kinds of coverage: the recorder's hook plumbing over *real* engine /
arena / breaker executions, and seeded mutations — each invariant is
broken on purpose and must produce exactly the matching stable code.
"""

import pytest

from repro._observers import observers
from repro.analysis.engine_checks import (
    EngineTraceRecorder,
    verify_engine_trace,
    verify_kv_ledger,
    verify_lifecycle,
    verify_trace,
)
from repro.engine import Engine, EventKind
from repro.engine.faults import EngineFaultInjector
from repro.memory import KVCacheArena
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.faults import FaultPlan, ServerCrash
from repro.resilience.retry import RetryPolicy
from repro.serving.request import Request, RequestState


def make_request(req_id: int = 0, arrival_s: float = 0.0) -> Request:
    return Request(req_id=req_id, seq_len=8, arrival_s=arrival_s)


def codes(diags):
    return sorted(d.code for d in diags)


def drain(engine):
    """Step until nothing is pending, as the serving driver's loop does."""
    while engine.step() is not None:
        pass


def emit_every_site():
    """Reach each of the nine emission sites once: ``Engine.__init__``,
    ``Request.resolve`` (from an ARRIVAL dispatch), the six arena
    mutations and one breaker transition."""
    engine = Engine()
    engine.schedule(0.0, EventKind.ARRIVAL,
                    lambda e: e.payload.resolve(RequestState.COMPLETED, 0.0),
                    make_request(1))
    drain(engine)
    arena = KVCacheArena(capacity_bytes=8192, bytes_per_token=16,
                         page_tokens=4)
    arena.admit(1, prompt_tokens=8, max_total_tokens=32)
    arena.fork(1, 2, max_total_tokens=32)
    arena.append(2, 1)
    tokens = arena.preempt(2)
    arena.restore(2, tokens=tokens, max_total_tokens=32)
    arena.release(2)
    CircuitBreaker(min_samples=1, name="b").record(False, 0.5)


def log(rec):
    """Everything a recorder keeps, sequence numbers included."""
    return (rec.engines, rec.dispatches, rec.requests, rec.resolves,
            rec.arena_events, rec.breaker_events, rec.retry_dispatches)


ONE_RUN = {"engines": 1, "dispatches": 1, "requests": 1, "resolves": 1,
           "arena_events": 6, "breaker_transitions": 1}


class TestRecorder:
    def test_each_emission_site_reaches_the_recorder_once(self):
        with EngineTraceRecorder() as rec:
            emit_every_site()
        assert rec.stats() == ONE_RUN
        assert [(op, req_id, tokens) for _, _, op, req_id, tokens
                in rec.arena_events] == [
            ("admit", 1, 8), ("admit", 2, 8), ("append", 2, 1),
            ("preempt", 2, 9), ("restore", 2, 9), ("release", 2, 9)]
        assert [(name, now, frm, to) for _, name, now, frm, to
                in rec.breaker_events] == [
            ("b", 0.5, BreakerState.CLOSED, BreakerState.OPEN)]
        (_, _, _, state, faults), = rec.resolves
        assert state is RequestState.COMPLETED and faults is None
        seqs = sorted(s for entries in (rec.dispatches, rec.resolves,
                                        rec.arena_events, rec.breaker_events)
                      for s, *_ in entries)
        assert seqs == list(range(1, 10))

    def test_no_site_reaches_a_detached_recorder(self):
        before = observers
        rec = EngineTraceRecorder().attach()
        assert observers == [rec]
        rec.detach()
        assert observers == [] and observers is before
        emit_every_site()
        assert set(rec.stats().values()) == {0}

    def test_two_recorders_record_identical_logs(self):
        first, second = EngineTraceRecorder(), EngineTraceRecorder()
        with first, second:
            emit_every_site()
            assert log(first) == log(second)
            first.detach()
            emit_every_site()
        assert first.stats() == ONE_RUN
        assert second.stats() == {k: 2 * v for k, v in ONE_RUN.items()}

    def test_detached_recorder_sees_nothing(self):
        rec = EngineTraceRecorder()
        engine = Engine()
        engine.schedule(0.0, EventKind.ARRIVAL, payload=make_request())
        drain(engine)
        assert rec.stats() == {
            "engines": 0, "dispatches": 0, "requests": 0,
            "resolves": 0, "arena_events": 0, "breaker_transitions": 0,
        }

    def test_records_dispatches_and_attributes_arrivals(self):
        with EngineTraceRecorder() as rec:
            engine = Engine()
            r = make_request(req_id=7)
            engine.schedule(
                0.5, EventKind.ARRIVAL,
                lambda e: e.payload.resolve(RequestState.COMPLETED, 0.5),
                r,
            )
            drain(engine)
        stats = rec.stats()
        assert stats["engines"] == 1
        assert stats["dispatches"] == 1
        assert stats["requests"] == 1
        assert stats["resolves"] == 1
        (idx, attributed), = rec.requests.values()
        assert idx == 0 and attributed is r
        assert verify_trace(rec) == []

    def test_detach_stops_recording(self):
        rec = EngineTraceRecorder().attach()
        rec.detach()
        Engine()  # constructed after detach: must not be recorded
        assert rec.stats()["engines"] == 0

    def test_double_attach_rejected(self):
        with EngineTraceRecorder() as rec:
            with pytest.raises(RuntimeError):
                rec.attach()

    def test_sequence_numbers_order_cross_layer_events(self):
        with EngineTraceRecorder() as rec:
            engine = Engine()
            arena = KVCacheArena(capacity_bytes=4096, bytes_per_token=16,
                                 page_tokens=4)

            def work(event):
                arena.admit(1, prompt_tokens=4, max_total_tokens=8)
                event.payload.resolve(RequestState.COMPLETED, engine.now)
                arena.release(1)

            engine.schedule(0.1, EventKind.ARRIVAL, work, make_request(1))
            drain(engine)
        seqs = ([s for s, *_ in rec.dispatches]
                + [s for s, *_ in rec.resolves]
                + [s for s, *_ in rec.arena_events])
        assert sorted(seqs) == list(range(1, len(seqs) + 1))


class TestEngineTraceMutations:
    def test_clock_regression_is_eng501(self):
        rec = EngineTraceRecorder()
        rec.dispatches = [(1, 0, 1.0, 1.0, 0), (2, 0, 0.5, 0.5, 0)]
        assert codes(verify_engine_trace(rec)) == ["ENG501"]

    def test_past_dispatch_is_eng502(self):
        rec = EngineTraceRecorder()
        rec.dispatches = [(1, 0, 0.5, 1.0, 0)]
        assert codes(verify_engine_trace(rec)) == ["ENG502"]

    def test_nested_dispatch_is_eng502(self):
        # A handler that steps the engine inside its own dispatch: its
        # event reaches the observers only after the nested one, late.
        with EngineTraceRecorder() as rec:
            engine = Engine()
            engine.schedule(1.0, EventKind.WAKE)
            engine.schedule(0.0, EventKind.WAKE, lambda _e: engine.step())
            drain(engine)
        assert codes(verify_engine_trace(rec)) == ["ENG502"]

    def test_eng501_and_eng502_deduplicate_per_engine(self):
        rec = EngineTraceRecorder()
        rec.dispatches = [(1, 0, 1.0, 2.0, 0), (2, 0, 0.4, 2.0, 0),
                          (3, 0, 0.2, 2.0, 0)]
        assert codes(verify_engine_trace(rec)) == ["ENG501", "ENG502"]

    def test_lost_wakeup_is_eng503_plus_life601(self):
        # The scheduler "forgets" the request: its ARRIVAL is dispatched
        # but nothing ever resolves it, and the engine drains.
        with EngineTraceRecorder() as rec:
            engine = Engine()
            engine.schedule(0.0, EventKind.ARRIVAL, payload=make_request(3))
            drain(engine)
        found = codes(verify_trace(rec))
        assert "ENG503" in found and "LIFE601" in found


class TestLifecycleMutations:
    def test_double_terminal_resolve_is_life602(self):
        with EngineTraceRecorder() as rec:
            r = make_request(5)
            r.resolve(RequestState.COMPLETED, 1.0)
            r.resolve(RequestState.FAILED)
        assert codes(verify_lifecycle(rec)) == ["LIFE602"]

    def test_completion_before_arrival_is_life605(self):
        with EngineTraceRecorder() as rec:
            r = make_request(6, arrival_s=1.0)
            r.resolve(RequestState.COMPLETED, 0.25)
        assert codes(verify_lifecycle(rec)) == ["LIFE605"]

    def test_completion_inside_crash_window_is_life603(self):
        plan = FaultPlan(
            crashes=(ServerCrash(start_s=1.0, end_s=2.0, server_id=0),)
        )
        with EngineTraceRecorder() as rec:
            injector = EngineFaultInjector(plan, 0)
            engine = Engine()
            engine.schedule(
                1.5, EventKind.ARRIVAL,
                lambda e: e.payload.resolve(RequestState.COMPLETED,
                                            engine.now, faults=injector),
                make_request(9),
            )
            drain(engine)
        assert codes(verify_lifecycle(rec)) == ["LIFE603"]

    def test_completion_attributed_to_resolving_replica_is_life603(self):
        # The completion carries the completing replica's injector.
        plan = FaultPlan(
            crashes=(ServerCrash(start_s=1.0, end_s=2.0, server_id=1),)
        )
        with EngineTraceRecorder() as rec:
            replicas = [EngineFaultInjector(plan, i) for i in range(2)]
            engine = Engine()
            for req_id, replica in ((9, replicas[0]), (10, replicas[1])):
                engine.schedule(
                    1.5, EventKind.ARRIVAL,
                    lambda e, inj=replica: e.payload.resolve(
                        RequestState.COMPLETED, engine.now, faults=inj),
                    make_request(req_id),
                )
            drain(engine)
        [finding] = verify_lifecycle(rec)
        assert finding.code == "LIFE603"
        assert "request 10" in finding.message

    def test_crash_window_boundary_completion_is_legal(self):
        plan = FaultPlan(
            crashes=(ServerCrash(start_s=1.0, end_s=2.0, server_id=0),)
        )
        with EngineTraceRecorder() as rec:
            injector = EngineFaultInjector(plan, 0)
            engine = Engine()
            engine.schedule(
                2.0, EventKind.ARRIVAL,
                lambda e: e.payload.resolve(RequestState.COMPLETED,
                                            engine.now, faults=injector),
                make_request(9),
            )
            drain(engine)
        assert verify_lifecycle(rec) == []

    def test_retry_storm_past_max_attempts_is_life604(self):
        retry = RetryPolicy(max_attempts=2, budget=100)
        with EngineTraceRecorder() as rec:
            engine = Engine()
            r = make_request(4)
            for i in range(3):  # max_attempts=2 allows a single retry
                engine.schedule(0.1 * (i + 1), EventKind.RETRY, payload=r)
            drain(engine)
            r.resolve(RequestState.FAILED)
        assert codes(verify_lifecycle(rec, retry=retry)) == ["LIFE604"]

    def test_retries_past_global_budget_is_life604(self):
        retry = RetryPolicy(max_attempts=10, budget=2)
        with EngineTraceRecorder() as rec:
            engine = Engine()
            reqs = [make_request(i) for i in range(3)]
            for r in reqs:
                engine.schedule(0.1, EventKind.RETRY, payload=r)
            drain(engine)
            for r in reqs:
                r.resolve(RequestState.FAILED)
        assert codes(verify_lifecycle(rec, retry=retry)) == ["LIFE604"]

    def test_unlimited_budget_only_checks_attempts(self):
        retry = RetryPolicy(max_attempts=2)  # budget=None: no run-wide cap
        with EngineTraceRecorder() as rec:
            engine = Engine()
            reqs = [make_request(i) for i in range(3)]
            for r in reqs:
                engine.schedule(0.1, EventKind.RETRY, payload=r)
            drain(engine)
            for r in reqs:
                r.resolve(RequestState.FAILED)
        assert verify_lifecycle(rec, retry=retry) == []

    def test_retries_within_limits_are_clean(self):
        retry = RetryPolicy(max_attempts=3, budget=100)
        with EngineTraceRecorder() as rec:
            engine = Engine()
            r = make_request(4)
            engine.schedule(0.1, EventKind.RETRY, payload=r)
            engine.schedule(0.2, EventKind.RETRY, payload=r)
            drain(engine)
            r.resolve(RequestState.COMPLETED, 0.3)
        assert verify_lifecycle(rec, retry=retry) == []

    def test_illegal_breaker_transition_is_life606(self):
        with EngineTraceRecorder() as rec:
            breaker = CircuitBreaker(name="mutant")
            # closed -> half_open skips the open state entirely.
            breaker._transition(BreakerState.HALF_OPEN, 0.5)
        assert codes(verify_lifecycle(rec)) == ["LIFE606"]

    def test_legal_breaker_cycle_is_clean(self):
        with EngineTraceRecorder() as rec:
            breaker = CircuitBreaker(window=4, min_samples=2, cooldown_s=0.1,
                                     half_open_probes=1, name="ok")
            breaker.record(False, 0.0)
            breaker.record(False, 0.01)      # trips open
            breaker.state(0.2)               # cooldown: half-open
            assert breaker.allow(0.2)
            breaker.record(True, 0.25)       # probe success: closed
        assert len(rec.breaker_events) == 3
        assert verify_lifecycle(rec) == []


class TestKVLedgerMutations:
    def arena(self):
        return KVCacheArena(capacity_bytes=8192, bytes_per_token=16,
                            page_tokens=4)

    def test_full_episode_is_clean(self):
        with EngineTraceRecorder() as rec:
            arena = self.arena()
            arena.admit(1, prompt_tokens=8, max_total_tokens=32)
            arena.append(1, 4)
            dropped = arena.preempt(1)
            arena.restore(1, tokens=dropped, max_total_tokens=32)
            arena.release(1)
        assert verify_kv_ledger(rec) == []

    def test_suppressed_release_leaks_mem221(self):
        # Mutation: the completion path "forgets" to release the region.
        with EngineTraceRecorder() as rec:
            arena = self.arena()
            arena.admit(2, prompt_tokens=8, max_total_tokens=32)
        found = codes(verify_kv_ledger(rec))
        assert "MEM221" in found  # ledger side and arena.verify agree

    def test_expected_live_suppresses_mem221(self):
        with EngineTraceRecorder() as rec:
            arena = self.arena()
            arena.admit(2, prompt_tokens=8, max_total_tokens=32)
        assert verify_kv_ledger(rec, expected_live=[2]) == []

    def test_op_on_dead_region_is_mem222(self):
        rec = EngineTraceRecorder()
        rec.arena_events = [(1, 0, "append", 7, 1)]
        assert codes(verify_kv_ledger(rec)) == ["MEM222"]

    def test_token_count_divergence_is_mem222(self):
        rec = EngineTraceRecorder()
        rec.arena_events = [(1, 0, "admit", 7, 16), (2, 0, "release", 7, 99)]
        assert codes(verify_kv_ledger(rec)) == ["MEM222"]

    def test_restore_without_preempt_is_mem223(self):
        rec = EngineTraceRecorder()
        rec.arena_events = [(1, 0, "restore", 7, 16), (2, 0, "release", 7, 16)]
        assert codes(verify_kv_ledger(rec)) == ["MEM223"]

    def test_shrinking_restore_is_mem223(self):
        rec = EngineTraceRecorder()
        rec.arena_events = [
            (1, 0, "admit", 7, 16), (2, 0, "preempt", 7, 16),
            (3, 0, "restore", 7, 8), (4, 0, "release", 7, 8),
        ]
        assert codes(verify_kv_ledger(rec)) == ["MEM223"]

    def test_failover_restore_on_other_arena_is_legal(self):
        # gen-blackout shape: preempted on the crashed replica's arena,
        # restored (recompute-on-resume) on the failover replica's.
        rec = EngineTraceRecorder()
        rec.arena_events = [
            (1, 0, "admit", 7, 16), (2, 0, "preempt", 7, 16),
            (3, 1, "restore", 7, 16), (4, 1, "release", 7, 16),
        ]
        assert verify_kv_ledger(rec) == []

    def test_failover_preempt_claimed_only_once(self):
        rec = EngineTraceRecorder()
        rec.arena_events = [
            (1, 0, "admit", 7, 16), (2, 0, "preempt", 7, 16),
            (3, 1, "restore", 7, 16), (4, 1, "release", 7, 16),
            (5, 2, "restore", 7, 16), (6, 2, "release", 7, 16),
        ]
        assert codes(verify_kv_ledger(rec)) == ["MEM223"]
