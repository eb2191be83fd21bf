"""The one discrete-event core under every serving simulator.

The repo's serving half used to carry four hand-rolled copies of the same
virtual-time loop (the one-shot, continuous-batching, Ebird and cluster
servers), and they diverged enough to harbor real bugs — epsilon time
nudges, stale queue-depth traces, scheduling against the wrong cost
model.  This module is the single
replacement: a virtual clock, an event heap plus an arrival stream with a
*documented* deterministic ordering, and cooperative tasks/timers, so a server is just
a set of event handlers plus plain code that occupies busy windows.  One
driver builds an engine, :class:`repro.serving.driver.Driver`, for the
encoder replicas (one-shot, cluster and Ebird) and the generation ones.

Event ordering
--------------
Events are dispatched in ``(time, priority, seq)`` order.  ``priority``
is the :class:`EventKind` value, so at the **same virtual time**
the documented order is::

    ARRIVAL (0)  <  RETRY (1)  <  WAKE (2)  <  TRIGGER (3)

i.e. new work enters the queue first, failed attempts re-enter next,
timer continuations (batch completions, task resumes, an idle replica's
start) run after the queues are current, and the lazy trigger policy's
decision timer observes everything that happened at that instant.
``seq`` (schedule order) breaks remaining ties, so two runs of the same
workload dispatch identically.

Arrivals do not go through the heap.  ``arrivals(sorted_payloads,
callback)`` reserves one contiguous block of seqs, one per payload, and
keeps the list as a stream beside the heap; ``peek``/``step`` merge the
stream's next ``(arrival_s, ARRIVAL, seq)`` key with the heap top, and
build that arrival's :class:`Event` only when it is peeked or
dispatched.  The order is exactly that of scheduling every ARRIVAL one by
one, but the heap holds only the few live timers instead of the whole
workload.

Invariants
----------
* The clock (the plain attribute ``now``) is owned by the engine: it
  advances **only** to the timestamp of a real scheduled event (a busy
  window's end is its task's WAKE), never by epsilon nudges, and
  ``step`` refuses to move it backwards.  Zero-progress rounds are
  impossible by construction.
* Scheduling into the past raises :class:`EngineError`; scheduling *at*
  ``now`` is allowed (the event dispatches before time moves on).  Every
  time the engine takes (``schedule``, ``arrivals``, a task's yield)
  must compare ``>= now``, so a NaN is rejected the same way.
* Cancelled events never fire; cancellation is O(1) (lazy heap deletion)
  and a no-op for an event that already fired.

The Event record
----------------
:class:`Event` is a slotted record built by a plain positional
constructor: ``schedule`` makes one per timer with one priority lookup
and one heap push.  An Event compares by identity and is never reused
after it fires, so a dispatch hook may keep the events it receives and
read each one's ``(time, kind, seq)`` after the run.

Dispatch
--------
Two calls drive a run.  ``step()`` dispatches the next event; the
serving driver's one dispatch loop calls it until nothing is pending,
so every event, arrivals included, is dispatched by ``step``.
``spawn(generator)`` runs a cooperative task: the generator yields the
absolute end of each busy window (a batch executing, a decode run, a
crash outage, priced and fault-stretched by the caller) and is resumed
by a WAKE timer there.  Every serving replica, lone or beside others,
runs its windows this way, so events due inside a window — arrivals
landing in queues at their true timestamps — dispatch before the
resume, and an arrival tied with the window end sorts first (ARRIVAL
before WAKE).
"""

from __future__ import annotations

import enum
import heapq
import operator
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from .._observers import notify, observers


class EngineError(RuntimeError):
    """An engine invariant was violated (e.g. scheduling into the past)."""


class EventKind(enum.IntEnum):
    """Event vocabulary; the value doubles as the same-time priority."""

    ARRIVAL = 0  #: a request entering the system at its arrival timestamp
    RETRY = 1    #: a failed attempt re-entering after its backoff
    WAKE = 2     #: a timer: busy-window end, task resume, replica start
    TRIGGER = 3  #: the lazy trigger policy's decision timer


class Event:
    """One scheduled occurrence.  Sorts by ``(time, priority, seq)``.

    A slotted record with a plain positional constructor (the engine
    builds one per scheduled timer).  Each Event is its own occurrence:
    it compares by identity, and the engine never reuses one, so a hook
    that keeps the events it sees reads each dispatch's own fields later.
    """

    __slots__ = ("time", "priority", "seq", "kind", "callback", "payload",
                 "cancelled", "dispatched")

    def __init__(self, time: float, priority: int, seq: int,
                 kind: EventKind,
                 callback: Optional[Callable[["Event"], None]] = None,
                 payload: Any = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.kind = kind
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.dispatched = False

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, kind={self.kind!r}, "
                f"callback={self.callback!r}, payload={self.payload!r}, "
                f"cancelled={self.cancelled!r}, "
                f"dispatched={self.dispatched!r})")


_ARRIVAL = int(EventKind.ARRIVAL)
#: The member itself, read once: an enum attribute read costs several
#: times a global one, and every task resume schedules a WAKE.
_WAKE_KIND = EventKind.WAKE
#: Each kind's priority, its value (one dict lookup per schedule).
_PRIORITY = {kind: int(kind) for kind in EventKind}


class Task:
    """A cooperative task: a generator yielding absolute virtual times.

    The first segment runs synchronously at ``spawn``; each ``yield t``
    suspends the task and a WAKE timer at ``t`` resumes it (a ``t``
    before ``now`` raises :class:`EngineError`).  ``done`` flips when the
    generator returns.
    """

    __slots__ = ("engine", "gen", "done")

    def __init__(self, engine: "Engine",
                 gen: Generator[float, None, None]) -> None:
        self.engine = engine
        self.gen = gen
        self.done = False
        self._resume(None)

    def _resume(self, _event: Optional[Event]) -> None:
        try:
            end = self.gen.send(None)
        except StopIteration:
            self.done = True
            return
        self.engine.schedule(end, _WAKE_KIND, self._resume)


class Engine:
    """Virtual clock + deterministic event heap + arrival stream +
    cooperative timers."""

    def __init__(self) -> None:
        #: Virtual time.  Only the dispatch loop moves it (DET406).
        self.now = 0.0  # repro: allow(DET406)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        # The arrival stream: payloads sorted by ``arrival_s``, payload i
        # holding the reserved seq ``_stream_seq0 + i``; ``_stream_head``
        # is the built Event of the next one (None until peeked).
        self._stream: Sequence[Any] = ()
        self._stream_at = 0
        self._stream_seq0 = 0
        self._stream_callback: Optional[Callable[[Event], None]] = None
        self._stream_head: Optional[Event] = None
        self._dispatch_hooks: List[Callable[[Event], None]] = []
        self.events_dispatched = 0
        if observers:
            notify("on_engine", self)

    # -- scheduling ------------------------------------------------------
    def schedule(
        self,
        time: float,
        kind: EventKind,
        callback: Optional[Callable[[Event], None]] = None,
        payload: Any = None,
    ) -> Event:
        """Schedule an event; ``time`` must be >= ``now`` (NaN never is)."""
        if not time >= self.now:
            raise EngineError(
                f"cannot schedule {kind.name} at {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        priority = _PRIORITY[kind]
        event = Event(time, priority, seq, kind, callback, payload)
        heapq.heappush(self._heap, (time, priority, seq, event))  # repro: allow(DET405)
        self._live += 1
        return event

    def arrivals(self, payloads: Sequence[Any],
                 callback: Callable[[Event], None]) -> None:
        """Schedule one ARRIVAL per payload, at its ``arrival_s``.

        ``payloads`` must be sorted by ``arrival_s``, start at or after
        ``now``, and no earlier stream may still be pending.  The call
        reserves one contiguous block of seqs, so dispatch order is
        exactly that of scheduling the same ARRIVALs one by one, but the
        stream stays out of the heap: its next arrival is merged in at
        ``peek``/``step`` and its Event built only then.  ``step``
        dispatches each arrival to ``callback``.
        """
        if self._stream_at < len(self._stream):
            raise EngineError("an arrival stream is still pending")
        times = [p.arrival_s for p in payloads]
        if times and not times[0] >= self.now:
            raise EngineError(
                f"cannot schedule ARRIVAL at {times[0]} < now {self.now}"
            )
        if not all(map(operator.le, times, times[1:])):
            raise EngineError("arrival stream is not sorted by arrival_s")
        self._stream = payloads
        self._stream_at = 0
        self._stream_seq0 = self._seq
        self._stream_callback = callback
        self._stream_head = None
        self._seq += len(payloads)
        self._live += len(payloads)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent; O(1)).  An event that
        already fired is left alone: a stale handle must not drop the
        live count a second time."""
        if not event.cancelled and not event.dispatched:
            event.cancelled = True
            self._live -= 1
            if event is self._stream_head:
                self._stream_head = None
                self._stream_at += 1

    # -- inspection ------------------------------------------------------
    @property
    def pending(self) -> bool:
        return self._live > 0

    def peek(self) -> Optional[Event]:
        """Next live event without dispatching it (skims cancelled ones)."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)  # repro: allow(DET405)
        head = self._stream_head
        if head is None:
            at = self._stream_at
            if at == len(self._stream):
                return heap[0][3] if heap else None
            payload = self._stream[at]
            head = self._stream_head = Event(
                payload.arrival_s, _ARRIVAL, self._stream_seq0 + at,
                EventKind.ARRIVAL, self._stream_callback, payload)
        if heap:
            top = heap[0]
            if top[0] < head.time or (top[0] == head.time and (
                    top[1], top[2]) < (_ARRIVAL, head.seq)):
                return top[3]
        return head

    @property
    def observed(self) -> bool:
        """Whether a dispatch hook sees every dispatch."""
        return bool(self._dispatch_hooks)

    def add_dispatch_hook(self, hook: Callable[[Event], None]) -> None:
        """Observe every dispatched event (after its handler ran)."""
        self._dispatch_hooks.append(hook)

    # -- dispatch --------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Dispatch the next event: advance the clock to its timestamp,
        run its callback, then notify the dispatch hooks."""
        event = self.peek()
        if event is None:
            return None
        if event is self._stream_head:
            self._stream_head = None
            self._stream_at += 1
        else:
            heapq.heappop(self._heap)  # repro: allow(DET405)
        self._live -= 1
        event.dispatched = True
        t = event.time
        if not t >= self.now:
            raise EngineError(
                f"clock cannot move backwards: {t} < {self.now}"
            )
        self.now = t  # repro: allow(DET406)
        self.events_dispatched += 1
        if event.callback is not None:
            event.callback(event)
        for hook in self._dispatch_hooks:
            hook(event)
        return event

    # -- tasks -----------------------------------------------------------
    def spawn(self, gen: Generator[float, None, None]) -> Task:
        """Run a cooperative task (see :class:`Task`)."""
        return Task(self, gen)
