"""The discrete-event core: ordering, invariants, busy windows, tasks.

Runs are driven the way the serving driver drives them: ``step`` until
nothing is pending (:func:`drain`), with each busy window a spawned
task's ``yield`` of the window end."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineError, EventKind
from repro.observability import MetricsRegistry, Tracer
from repro.serving import DPBatchScheduler, simulate_serving
from repro.serving.driver import dispatch_counter
from repro.serving.request import Request


def drain(engine):
    """Step until nothing is pending, as the serving driver's loop does."""
    while engine.step() is not None:
        pass


def windows(engine, ends, on_resume=lambda: None):
    """A task yielding each busy-window end in ``ends`` (as a replica's
    ``run`` does), calling ``on_resume()`` when the WAKE at each end
    resumes it."""
    def run():
        for end in ends:
            yield end
            on_resume()
    return engine.spawn(run())


class TestEventOrdering:
    def _run_scrambled(self):
        """Schedule one event of each kind at the same instant, in an
        order that disagrees with the documented dispatch order."""
        engine = Engine()
        order = []
        for kind in (EventKind.TRIGGER, EventKind.WAKE,
                     EventKind.ARRIVAL, EventKind.RETRY):
            engine.schedule(1.0, kind,
                            lambda e: order.append(e.kind))
        drain(engine)
        return order

    def test_same_time_kinds_dispatch_in_documented_order(self):
        assert self._run_scrambled() == [
            EventKind.ARRIVAL, EventKind.RETRY,
            EventKind.WAKE, EventKind.TRIGGER,
        ]

    def test_ordering_is_identical_across_runs(self):
        assert self._run_scrambled() == self._run_scrambled()

    def test_seq_breaks_ties_in_schedule_order(self):
        engine = Engine()
        order = []
        for tag in ("first", "second", "third"):
            engine.schedule(2.0, EventKind.ARRIVAL,
                            lambda e: order.append(e.payload), tag)
        drain(engine)
        assert order == ["first", "second", "third"]

    def test_earlier_time_beats_priority(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, EventKind.TRIGGER,  # repro: allow(DET407)
                        lambda e: order.append("early-trigger"))
        engine.schedule(2.0, EventKind.ARRIVAL,
                        lambda e: order.append("late-arrival"))
        drain(engine)
        assert order == ["early-trigger", "late-arrival"]


class TestClockInvariants:
    """Virtual time only ever advances to real event timestamps — the
    invariant that makes the old ``clock + 1e-9`` anti-stall nudge
    unnecessary by construction."""

    def test_clock_lands_exactly_on_event_timestamps(self):
        engine = Engine()
        times = [0.125, 0.125, 0.75, 2.5]
        for t in times:
            engine.schedule(t, EventKind.WAKE)
        seen = []
        engine.add_dispatch_hook(
            lambda event: seen.append((engine.now, event.time)))
        drain(engine)
        # The clock at each dispatch is the event's own timestamp, no
        # epsilon offsets, and it never lands anywhere else.
        assert [now for now, _ in seen] == times
        assert all(now == t for now, t in seen)
        assert engine.now == times[-1]

    def test_clock_is_monotone(self):
        engine = Engine()
        for t in (0.5, 0.1, 0.3, 0.1):
            engine.schedule(t, EventKind.WAKE)
        trajectory = []
        engine.add_dispatch_hook(lambda _e: trajectory.append(engine.now))
        drain(engine)
        assert trajectory == sorted(trajectory)

    def test_scheduling_into_the_past_raises(self):
        engine = Engine()
        engine.schedule(1.0, EventKind.WAKE)
        drain(engine)
        assert engine.now == 1.0
        with pytest.raises(EngineError):
            engine.schedule(0.5, EventKind.ARRIVAL)

    def test_scheduling_at_now_is_allowed(self):
        engine = Engine()
        engine.schedule(1.0, EventKind.WAKE)
        drain(engine)
        fired = []
        engine.schedule(1.0, EventKind.WAKE, lambda e: fired.append(engine.now))
        drain(engine)
        assert fired == [1.0]

    def test_step_refuses_to_move_the_clock_backwards(self):
        engine = Engine()
        engine.schedule(2.9, EventKind.WAKE)
        engine.now = 3.0  # repro: allow(DET406) forge a clock regression
        with pytest.raises(EngineError):
            engine.step()


class TestNonFiniteTimes:
    """A NaN compares False with everything, so ``time < now`` would let
    it through; every time the engine takes must compare ``>= now``."""

    NAN = float("nan")

    def test_schedule_rejects_nan(self):
        engine = Engine()
        with pytest.raises(EngineError):
            engine.schedule(self.NAN, EventKind.WAKE)
        assert not engine.pending
        engine.schedule(1.0, EventKind.WAKE)
        drain(engine)
        assert engine.now == 1.0

    def test_run_until_rejects_nan(self):
        """A task yielding a NaN window end is rejected at the yield."""
        engine = Engine()
        with pytest.raises(EngineError):
            windows(engine, [self.NAN])
        assert (engine.now, engine.events_dispatched) == (0.0, 0)
        assert not engine.pending

    @pytest.mark.parametrize("times", [
        [float("nan")], [0.5, float("nan")], [float("nan"), 0.5],
        [0.5, float("nan"), 1.0],
    ])
    def test_arrivals_reject_nan(self, times):
        engine = Engine()
        payloads = [type("P", (), {"arrival_s": t})() for t in times]
        with pytest.raises(EngineError):
            engine.arrivals(payloads, lambda e: None)
        assert not engine.pending

    def test_task_yielding_nan_raises(self):
        engine = Engine()
        fired = []

        def work():
            yield 0.5
            fired.append(engine.now)
            yield float("nan")

        engine.spawn(work())
        with pytest.raises(EngineError):
            drain(engine)
        assert fired == [0.5] and engine.now == 0.5

    def test_nan_cost_fn_fails_the_serving_run(self):
        """A cost model returning NaN used to finish with NaN latencies,
        then failed late in the engine; it now fails where the batch is
        priced, naming the cell."""
        requests = [Request(req_id=i, seq_len=8, arrival_s=0.1 * i)
                    for i in range(3)]
        with pytest.raises(ValueError, match=r"cost_fn\(8, 1\) returned nan"):
            simulate_serving(requests, DPBatchScheduler(),
                             lambda n, b: float("nan"), duration_s=1.0)

    @pytest.mark.parametrize("field, value", [
        ("arrival_s", float("nan")), ("arrival_s", float("inf")),
        ("arrival_s", -1.0), ("deadline_s", float("nan")),
        ("deadline_s", 0.0),
    ])
    def test_requests_reject_non_finite_times(self, field, value):
        from repro.serving.continuous import GenRequest

        kwargs = dict(req_id=0, seq_len=8, arrival_s=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            Request(**kwargs)
        with pytest.raises(ValueError):
            GenRequest(**kwargs)


class TestEventRecord:
    def test_fields_repr_and_identity(self):
        engine = Engine()
        a = engine.schedule(1.0, EventKind.WAKE, payload="x")
        b = engine.schedule(1.0, EventKind.RETRY)
        assert (a.time, a.priority, a.seq, a.kind, a.callback, a.payload,
                a.cancelled, a.dispatched) == \
            (1.0, 2, 0, EventKind.WAKE, None, "x", False, False)
        assert (b.priority, b.seq, b.kind) == (1, 1, EventKind.RETRY)
        assert repr(a) == (
            "Event(time=1.0, priority=2, seq=0, kind=<EventKind.WAKE: 2>, "
            "callback=None, payload='x', cancelled=False, dispatched=False)")
        assert a == a and a != b
        with pytest.raises(AttributeError):
            a.extra = 1  # slotted: no per-instance __dict__


class TestAdvance:
    """Busy windows: a spawned task's ``yield end`` advances the clock
    over a window, and the WAKE at ``end`` resumes it."""

    def test_advance_dispatches_window_events_at_true_times(self):
        engine = Engine()
        landed = []
        engine.schedule(0.25, EventKind.ARRIVAL,
                        lambda e: landed.append(engine.now))
        engine.schedule(0.75, EventKind.ARRIVAL,
                        lambda e: landed.append(engine.now))
        windows(engine, [1.0], lambda: landed.append(("resume", engine.now)))
        drain(engine)
        assert landed == [0.25, 0.75, ("resume", 1.0)]
        assert engine.now == 1.0

    def test_advance_leaves_post_window_events_pending(self):
        engine = Engine()
        engine.schedule(5.0, EventKind.ARRIVAL)
        seen = []
        windows(engine, [1.0], lambda: seen.append((engine.now,
                                                    engine.pending)))
        drain(engine)
        assert seen == [(1.0, True)]

    def test_arrival_tied_with_window_end_dispatches_before_resume(self):
        """ARRIVAL sorts before WAKE at the same instant, even when the
        arrival stream is registered after the window began."""
        engine = Engine()
        log = []
        windows(engine, [1.0], lambda: log.append("resume"))
        engine.arrivals([Request(req_id=0, seq_len=8, arrival_s=1.0)],
                        lambda e: log.append("arrival"))
        drain(engine)
        assert log == ["arrival", "resume"]

    def test_advance_by_zero_stays_put(self):
        engine = Engine()
        task = windows(engine, [0.0])
        drain(engine)
        assert task.done and engine.now == 0.0

    def test_advance_negative_raises(self):
        engine = Engine()
        windows(engine, [1.0, 0.9])
        with pytest.raises(EngineError):
            drain(engine)
        assert engine.now == 1.0


class TestArrivalStream:
    @staticmethod
    def _payloads(times):
        return [Request(req_id=i, seq_len=8, arrival_s=t)
                for i, t in enumerate(times)]

    def _dispatch_log(self, use_stream):
        engine = Engine()
        log = []
        engine.add_dispatch_hook(
            lambda e: log.append((engine.now, e.seq, e.kind, e.payload)))
        engine.schedule(0.5, EventKind.WAKE, payload="timer")
        payloads = self._payloads([0.0, 0.5, 0.5, 1.0])
        if use_stream:
            engine.arrivals(payloads, lambda e: None)
        else:
            for p in payloads:
                engine.schedule(p.arrival_s, EventKind.ARRIVAL, payload=p)
        engine.schedule(0.5, EventKind.RETRY, payload="retry")
        drain(engine)
        return log

    def test_stream_dispatches_like_one_event_per_arrival(self):
        assert self._dispatch_log(True) == self._dispatch_log(False)

    def test_stream_stays_out_of_the_heap(self):
        engine = Engine()
        engine.arrivals(self._payloads([0.1 * i for i in range(100)]),
                        lambda e: None)
        assert engine.pending and engine._heap == []
        drain(engine)
        assert engine.events_dispatched == 100 and not engine.pending

    def test_peeked_arrival_is_the_dispatched_event(self):
        engine = Engine()
        engine.arrivals(self._payloads([1.0]), lambda e: None)
        peeked = engine.peek()
        assert peeked.kind is EventKind.ARRIVAL
        assert engine.step() is peeked

    def test_cancelling_a_peeked_arrival_drops_only_it(self):
        engine = Engine()
        seen = []
        payloads = self._payloads([1.0, 2.0])
        engine.arrivals(payloads, lambda e: seen.append(e.payload))
        engine.cancel(engine.peek())
        drain(engine)
        assert seen == [payloads[1]]

    def test_unsorted_past_or_overlapping_streams_rejected(self):
        engine = Engine()
        with pytest.raises(EngineError):
            engine.arrivals(self._payloads([1.0, 0.5]), lambda e: None)
        engine.arrivals(self._payloads([1.0]), lambda e: None)
        with pytest.raises(EngineError):
            engine.arrivals(self._payloads([2.0]), lambda e: None)
        drain(engine)
        with pytest.raises(EngineError):
            engine.arrivals(self._payloads([0.5]), lambda e: None)
        engine.arrivals(self._payloads([1.5]), lambda e: None)
        drain(engine)
        assert engine.now == 1.5

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.sampled_from([0, 0, 1, 2, 5]), max_size=30),
           steps=st.lists(st.tuples(st.booleans(), st.integers(0, 6)),
                          min_size=1, max_size=12))
    def test_window_hands_over_arrivals_up_to_bisect_right(self, gaps,
                                                           steps):
        """A window ending at ``end`` hands over exactly the arrivals
        ``bisect_right(times, end)`` counts before its task resumes, ties
        with ``end`` included (ARRIVAL sorts before the window's WAKE):
        the cursor rule of the encoder's closed-form rounds.  Arrival
        ticks have same-instant ties; each window end either lands
        exactly on an arrival at or after the clock or moves a drawn
        number of ticks on."""
        tick = 1.0 / 64
        times, ticks = [], 0
        for gap in gaps:
            ticks += gap
            times.append(ticks * tick)
        payloads = self._payloads(times)
        handed = []
        engine = Engine()
        engine.arrivals(payloads, lambda e: handed.append(e.payload))
        resumes = []

        def run():
            end = 0.0
            for on_arrival, move in steps:
                later = [t for t in times if t >= end]
                end = later[min(move, len(later) - 1)] \
                    if on_arrival and later else end + move * tick
                yield end
                resumes.append(end)
                assert handed == payloads[:bisect_right(times, end)]
                assert engine.now == end

        engine.spawn(run())
        drain(engine)
        assert len(resumes) == len(steps)


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, EventKind.WAKE,
                                lambda e: fired.append("no"))
        engine.cancel(event)
        drain(engine)
        assert fired == []
        assert not engine.pending

    def test_cancel_is_idempotent(self):
        engine = Engine()
        keep = engine.schedule(1.0, EventKind.WAKE)
        drop = engine.schedule(2.0, EventKind.WAKE)
        engine.cancel(drop)
        engine.cancel(drop)
        assert engine.pending  # ``keep`` is still live
        assert engine.peek() is keep

    def test_peek_skips_cancelled(self):
        engine = Engine()
        drop = engine.schedule(1.0, EventKind.WAKE)
        keep = engine.schedule(2.0, EventKind.WAKE)
        engine.cancel(drop)
        assert engine.peek() is keep


class TestTasks:
    def test_task_first_segment_runs_synchronously(self):
        engine = Engine()
        log = []

        def work():
            log.append(("start", engine.now))
            yield 0.5
            log.append(("mid", engine.now))
            yield 0.75
            log.append(("end", engine.now))

        task = engine.spawn(work())
        assert log == [("start", 0.0)]  # ran before any dispatch
        drain(engine)
        assert log == [("start", 0.0), ("mid", 0.5), ("end", 0.75)]
        assert task.done

    def test_task_negative_delay_raises(self):
        """A task yielding a time before ``now``."""
        engine = Engine()
        engine.schedule(1.0, EventKind.WAKE)
        drain(engine)

        def bad():
            yield 0.5

        with pytest.raises(EngineError):
            engine.spawn(bad())


class TestInstrumentation:
    """What a serving run with a registry and a tracer reports: dispatch
    counts through the dispatch hook the driver attaches, the queue depth
    and each batch window's span."""

    def test_dispatch_counter_labelled_by_kind(self):
        metrics = MetricsRegistry()
        engine = Engine()
        engine.add_dispatch_hook(dispatch_counter(metrics))
        engine.schedule(1.0, EventKind.ARRIVAL)
        engine.schedule(1.0, EventKind.TRIGGER)  # repro: allow(DET407)
        engine.schedule(2.0, EventKind.ARRIVAL)
        drain(engine)
        assert engine.events_dispatched == 3
        assert metrics.counter(
            "engine_events_dispatched_total", kind="arrival").value == 2
        assert metrics.counter(
            "engine_events_dispatched_total", kind="trigger").value == 1

    def test_queue_depth_fans_out_to_trace_and_gauge(self):
        """One sample feeds both the trace counter and the metrics gauge,
        so the two can never disagree again (the pre-engine loop sampled
        them at different points and the trace showed ~0).  Seven
        requests arrive together: each arrival samples the queue on the
        trace, then the round's pre-drain sample of 7 goes to both."""
        tracer = Tracer()
        metrics = MetricsRegistry()
        requests = [Request(req_id=i, seq_len=8, arrival_s=1.5)
                    for i in range(7)]
        simulate_serving(requests, DPBatchScheduler(), lambda n, b: 0.01,
                         duration_s=2.0, tracer=tracer, metrics=metrics)
        queue = [e for e in tracer.events
                 if e.get("ph") == "C" and e["name"] == "queue"]
        assert [e["args"] for e in queue[:7]] == [
            {"depth": float(d)} for d in range(1, 8)]
        counters = queue[7:]  # the round's sample
        assert len(counters) == 1
        assert counters[0]["name"] == "queue"
        assert counters[0]["args"] == {"depth": 7.0}
        assert counters[0]["ts"] == 1.5e6
        assert metrics.gauge("serving_queue_depth").series == [(1.5, 7.0)]

    def test_window_end_is_one_wake_dispatch(self):
        """Each window end is one WAKE, counted and seen by every hook."""
        metrics = MetricsRegistry()
        engine = Engine()
        engine.add_dispatch_hook(dispatch_counter(metrics))
        hooked = []
        engine.add_dispatch_hook(
            lambda e: hooked.append((engine.now, e.kind, e.seq)))
        engine.schedule(0.25, EventKind.ARRIVAL)
        windows(engine, [0.5, 1.0])
        drain(engine)
        assert hooked == [(0.25, EventKind.ARRIVAL, 0),
                          (0.5, EventKind.WAKE, 1),
                          (1.0, EventKind.WAKE, 2)]
        assert engine.events_dispatched == 3
        assert metrics.counter(
            "engine_events_dispatched_total", kind="wake").value == 2

    def test_advance_emits_span_for_labelled_window(self):
        """A busy window's span: one complete event with its attributes."""
        tracer = Tracer()
        requests = [Request(req_id=i, seq_len=8, arrival_s=0.0)
                    for i in range(3)]
        simulate_serving(requests, DPBatchScheduler(), lambda n, b: 0.5,
                         duration_s=1.0, tracer=tracer)
        spans = [e for e in tracer.events
                 if e.get("ph") == "X" and e["tid"] == "gpu"]
        assert len(spans) == 1
        assert spans[0]["name"] == "batch x3"
        assert spans[0]["args"]["size"] == 3
        assert (spans[0]["ts"], spans[0]["dur"]) == (0.0, 0.5e6)
