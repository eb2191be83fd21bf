"""Stateful differential test: the engine against a sorted-list reference.

The reference is the engine's contract written as plainly as possible:
every pending event is an entry ``(time, priority, seq)`` in a list, the
next dispatch is the minimum live entry, and a task resumes at each time
it yields.  Random programs of ``schedule`` / ``cancel`` (of pending and
of already fired events) / ``arrivals`` / ``peek`` / ``step`` (once, or
until nothing is pending, as the serving driver's loop does) / ``spawn``
run against both, and the combined log — handler calls and dispatch-hook
calls, in order — plus the clock, ``pending``,
``observed`` and ``events_dispatched`` must agree after every step.  The
hook also keeps every :class:`Event` it receives: each must still read
its own dispatch's ``(time, priority, seq, kind)`` after later
dispatches, so the engine never reuses a record it handed out.

Times are multiples of 0.25 so that ties between kinds, seqs and task
resumes are frequent and exact.

A second machine starts with no dispatch hook, which a rule may attach
mid-run; its log is compared without hook entries, arrival clocks
included, so an unobserved engine dispatches exactly as an observed one.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import Engine, EventKind

DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
KINDS = st.sampled_from(list(EventKind))


@dataclass
class Arrival:
    arrival_s: float
    tag: int


@dataclass
class Entry:
    """One pending event of the reference."""

    time: float
    priority: int
    seq: int
    kind: int
    tag: int
    #: Delay of the event its handler schedules, if any.
    child: Optional[float] = None
    #: Remaining delays of the task this entry resumes, if any.
    task: Optional[List[float]] = None
    task_step: int = 0
    cancelled: bool = False
    handle: object = field(default=None, repr=False)

    @property
    def key(self):
        return (self.time, self.priority, self.seq)


class Reference:
    """The engine's documented semantics over a plain list."""

    def __init__(self) -> None:
        self.clock = 0.0
        self.seq = 0
        self.entries: List[Entry] = []
        self.log: List[tuple] = []
        self.dispatched = 0
        self.stream_left = 0
        #: Engine handles of scheduled entries that already fired.
        self.fired: List[object] = []

    def live(self) -> List[Entry]:
        return [e for e in self.entries if not e.cancelled]

    def next(self) -> Optional[Entry]:
        live = self.live()
        return min(live, key=lambda e: e.key) if live else None

    def push(self, time, kind, tag, **extra) -> Entry:
        entry = Entry(time, int(kind), self.seq, int(kind), tag, **extra)
        self.seq += 1
        self.entries.append(entry)
        return entry

    def observe(self, time, priority, seq, kind) -> None:
        self.dispatched += 1
        self.log.append(("hook", self.clock, time, priority, seq, kind))

    def step(self) -> Optional[Entry]:
        entry = self.next()
        if entry is None:
            return None
        self.entries.remove(entry)
        if entry.tag < 0:
            self.stream_left -= 1
        if entry.handle is not None:
            self.fired.append(entry.handle)
        self.clock = entry.time
        if entry.task is not None:
            self.log.append(("task", self.clock, entry.tag, entry.task_step))
            self.resume_task(entry.tag, entry.task, entry.task_step)
        else:
            self.log.append(("cb", self.clock, entry.tag))
            if entry.child is not None:
                self.push(self.clock + entry.child, EventKind.WAKE,
                          entry.tag + 1000)
        self.observe(entry.time, entry.priority, entry.seq, entry.kind)
        return entry

    def resume_task(self, tag, delays, done) -> None:
        if done < len(delays):
            self.push(self.clock + delays[done], EventKind.WAKE, tag,
                      task=delays, task_step=done + 1)


class EngineMachine(RuleBasedStateMachine):
    #: Start with no dispatch hook.
    UNOBSERVED = False

    def __init__(self) -> None:
        super().__init__()
        self.engine = Engine()
        self.ref = Reference()
        self.log: List[tuple] = []
        #: ``(event, (time, priority, seq, kind))`` of every hooked dispatch.
        self.retained: List[tuple] = []
        self.tags = 0
        if not self.UNOBSERVED:
            self._hook()

    def _hook(self) -> None:
        engine = self.engine

        def hook(e) -> None:
            key = (e.time, e.priority, e.seq, int(e.kind))
            self.log.append(("hook", engine.now) + key)
            self.retained.append((e, key))

        engine.add_dispatch_hook(hook)

    def _tag(self) -> int:
        self.tags += 1
        return self.tags

    def _handler(self, child: Optional[float]):
        engine = self.engine

        def handle(event) -> None:
            self.log.append(("cb", engine.now, event.payload))
            if child is not None:
                engine.schedule(engine.now + child, EventKind.WAKE,
                                handle_child, event.payload + 1000)

        def handle_child(event) -> None:
            self.log.append(("cb", engine.now, event.payload))

        return handle

    # -- rules --------------------------------------------------------------

    @rule(delay=DELAYS, kind=KINDS,
          child=st.none() | DELAYS)
    def schedule(self, delay, kind, child):
        tag = self._tag()
        at = self.engine.now + delay
        handle = self.engine.schedule(at, kind, self._handler(child), tag)
        entry = self.ref.push(self.ref.clock + delay, kind, tag, child=child)
        entry.handle = handle

    @rule(data=st.data())
    def cancel(self, data):
        scheduled = [e for e in self.ref.live() if e.handle is not None]
        if not scheduled:
            return
        entry = data.draw(st.sampled_from(scheduled))
        self.engine.cancel(entry.handle)
        self.engine.cancel(entry.handle)  # idempotent
        entry.cancelled = True

    @precondition(lambda self: self.ref.fired)
    @rule(data=st.data())
    def cancel_fired(self, data):
        """Cancelling an event that already fired is a no-op: a stale
        handle must not drop the live count of the events still pending."""
        self.engine.cancel(data.draw(st.sampled_from(self.ref.fired)))

    @rule()
    def peek_and_cancel(self):
        """Peeking builds the stream head; cancelling it must drop exactly
        that arrival."""
        event = self.engine.peek()
        entry = self.ref.next()
        assert (event is None) == (entry is None)
        if event is None:
            return
        assert (event.time, event.priority, event.seq) == entry.key
        self.engine.cancel(event)
        entry.cancelled = True
        if entry.tag < 0:
            self.ref.stream_left -= 1

    @precondition(lambda self: self.ref.stream_left == 0)
    @rule(delays=st.lists(DELAYS, max_size=6))
    def arrivals(self, delays):
        times = sorted(self.engine.now + d for d in delays)
        payloads = [Arrival(t, -self._tag()) for t in times]
        self.engine.arrivals(
            payloads, lambda e: self.log.append(
                ("cb", self.engine.now, e.payload.tag)))
        for p in payloads:
            self.ref.push(p.arrival_s, EventKind.ARRIVAL, p.tag)
        self.ref.stream_left = len(payloads)

    @rule(delays=st.lists(DELAYS, max_size=4))
    def spawn(self, delays):
        tag = self._tag()
        engine = self.engine

        def work():
            self.log.append(("task", engine.now, tag, 0))
            for i, d in enumerate(delays):
                yield engine.now + d
                self.log.append(("task", engine.now, tag, i + 1))

        engine.spawn(work())
        self.ref.log.append(("task", self.ref.clock, tag, 0))
        self.ref.resume_task(tag, delays, 0)

    @rule()
    def step(self):
        event = self.engine.step()
        entry = self.ref.step()
        assert (event is None) == (entry is None)

    @rule()
    def drain(self):
        while self.engine.step() is not None:
            pass
        while self.ref.step() is not None:
            pass

    # -- invariants ---------------------------------------------------------

    @invariant()
    def agrees_with_reference(self):
        if self.UNOBSERVED:
            assert unhooked(self.log) == unhooked(self.ref.log)
        else:
            assert self.log == self.ref.log
            assert self.engine.observed
        assert self.engine.now == self.ref.clock
        assert self.engine.pending == bool(self.ref.live())
        assert self.engine.events_dispatched == self.ref.dispatched
        assert all((e.time, e.priority, e.seq, int(e.kind)) == key
                   for e, key in self.retained)


def unhooked(log: List[tuple]) -> List[tuple]:
    """A log without hook entries."""
    return [entry for entry in log if entry[0] != "hook"]


class UnobservedEngineMachine(EngineMachine):
    UNOBSERVED = True

    @precondition(lambda self: not self.engine.observed)
    @rule()
    def attach_hook(self):
        """From here on the hook sees every dispatch."""
        self._hook()


EngineMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestEngineStateMachine = EngineMachine.TestCase
UnobservedEngineMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None)
TestBulkEngineStateMachine = UnobservedEngineMachine.TestCase
