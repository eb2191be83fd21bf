"""Engine-trace recorder + verifier: dynamic sanitizing of real runs.

The static checkers in this package prove properties of *artifacts*
(graphs, plans, schedules, source).  This module proves properties of
*executions*: an :class:`EngineTraceRecorder` attaches to the one run
observer list (:mod:`repro._observers`) that the engine, serving, memory
and resilience layers emit to, and records one deterministic event log
per run — engine dispatches, request state transitions (via
:meth:`Request.resolve`, with the resolving replica's fault injector),
KV-arena mutations, breaker transitions — and :func:`verify_trace`
replays that log against the invariants every scheduler on the shared
engine must uphold:

* **ENG5xx** — the clock never moves backwards (ENG501), no event is
  observed with the clock off its scheduled time (ENG502: not reached yet,
  or already run on by a handler nesting dispatches inside its own), and no
  engine goes quiescent while requests attributed to it are still
  unresolved — the classic lost wakeup (ENG503).
* **LIFE6xx** — every admitted request reaches a terminal state (LIFE601)
  exactly once (LIFE602), never completes strictly inside its replica's
  crash window (LIFE603), never retries past the policy's attempt or
  budget limits (LIFE604), never completes before it arrived (LIFE605),
  and circuit breakers only take legal transitions (LIFE606).
* **MEM22x** — the KV token-conservation ledger: per-region tokens at
  preempt/release must equal the admitted base plus every recorded append
  (MEM222), restores must pair with a preceding preempt and never shrink
  the region (MEM223), and at drain no region outlives its request
  (MEM221, cross-checked against :meth:`KVCacheArena.verify`).

Recording is strictly opt-in: the observer list is empty in normal runs,
and every emitter tests it before building a notification, so the
zero-tolerance bench-equivalence gates see byte-identical behaviour with
the recorder detached.  New schedulers opt in for free by construction —
they run on the shared :class:`Engine`, resolve requests through
:meth:`Request.resolve`, and touch KV through :class:`KVCacheArena`,
which is exactly the surface the recorder taps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .._observers import observers
from ..engine.core import Engine, Event, EventKind
from ..engine.faults import EngineFaultInjector
from ..memory.kv_arena import KVCacheArena
from ..resilience.breaker import BreakerState, CircuitBreaker
from ..resilience.retry import RetryPolicy
from ..serving.request import Request, RequestState
from .diagnostics import Diagnostic, diag
from .memory_checks import arena_diag_code

#: The breaker state machine's legal edges (see ``resilience.breaker``):
#: closed trips open, open cools into half-open, and half-open either
#: re-opens on a failed probe or closes on a full probe set.
VALID_BREAKER_TRANSITIONS: Set[Tuple[BreakerState, BreakerState]] = {
    (BreakerState.CLOSED, BreakerState.OPEN),
    (BreakerState.OPEN, BreakerState.HALF_OPEN),
    (BreakerState.HALF_OPEN, BreakerState.OPEN),
    (BreakerState.HALF_OPEN, BreakerState.CLOSED),
}


class EngineTraceRecorder:
    """Records one deterministic event log across every hooked layer.

    Use as a context manager around a run::

        with EngineTraceRecorder() as rec:
            simulate_serving(requests, scheduler, cost_fn, resilience=res)
        diagnostics = verify_trace(rec, retry=res.retry)

    The recorder is a run observer (:mod:`repro._observers`): attaching
    appends it to the one observer list, detaching removes it, and its
    ``on_engine``, ``on_resolve``, ``on_arena`` and ``on_breaker``
    methods record what the emitters report.  Every engine constructed
    while attached also gets a dispatch hook (via
    :meth:`Engine.add_dispatch_hook`) that attributes ARRIVAL / RETRY
    payloads to that engine.  All records carry one global,
    monotonically increasing sequence number so cross-layer ordering is
    total.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._recording = False
        #: Engines in creation order; the index is the engine id in records.
        self.engines: List[Engine] = []
        #: Arenas in first-touch order; the index is the arena id in records.
        self.arenas: List[KVCacheArena] = []
        self._arena_ids: Dict[int, int] = {}
        #: (seq, engine_idx, now_at_hook, scheduled_time, kind_value)
        self.dispatches: List[Tuple[int, int, float, float, int]] = []
        #: (seq, request_key, request, terminal_state, resolving injector)
        self.resolves: List[Tuple[int, int, Request, RequestState,
                                  Optional[EngineFaultInjector]]] = []
        #: (seq, arena_idx, op, req_id, tokens)
        self.arena_events: List[Tuple[int, int, str, int, int]] = []
        #: (seq, breaker_name, now_s, from_state, to_state)
        self.breaker_events: List[
            Tuple[int, str, float, BreakerState, BreakerState]] = []
        #: request_key -> (engine_idx, request): ARRIVAL payload attribution.
        self.requests: Dict[int, Tuple[int, Request]] = {}
        #: (seq, request_key) for every RETRY dispatch carrying a request.
        self.retry_dispatches: List[Tuple[int, int]] = []

    # -- observer methods -------------------------------------------------

    def _next(self) -> int:
        self._seq += 1
        return self._seq

    def on_engine(self, engine: Engine) -> None:
        idx = len(self.engines)
        self.engines.append(engine)

        def on_dispatch(event: Event) -> None:
            if not self._recording:
                return
            self.dispatches.append((self._next(), idx, engine.now,
                                    event.time, int(event.kind)))
            payload = event.payload
            if isinstance(payload, Request):
                if event.kind is EventKind.ARRIVAL:
                    self.requests.setdefault(id(payload), (idx, payload))
                elif event.kind is EventKind.RETRY:
                    self.retry_dispatches.append((self._seq, id(payload)))

        engine.add_dispatch_hook(on_dispatch)

    def on_resolve(self, request: Request, state: RequestState,
                   faults: Optional[EngineFaultInjector]) -> None:
        self.resolves.append((self._next(), id(request), request, state,
                              faults))

    def on_arena(self, arena: KVCacheArena, op: str, req_id: int,
                 tokens: int) -> None:
        idx = self._arena_ids.get(id(arena))
        if idx is None:
            idx = len(self.arenas)
            self._arena_ids[id(arena)] = idx
            self.arenas.append(arena)
        self.arena_events.append((self._next(), idx, op, req_id, tokens))

    def on_breaker(self, breaker: CircuitBreaker, now_s: float,
                   frm: BreakerState, to: BreakerState) -> None:
        self.breaker_events.append((self._next(), breaker.name, now_s, frm,
                                    to))

    def attach(self) -> "EngineTraceRecorder":
        if self._recording:
            raise RuntimeError("recorder is already attached")
        self._recording = True
        observers.append(self)
        return self

    def detach(self) -> None:
        if not self._recording:
            return
        self._recording = False
        observers.remove(self)

    def __enter__(self) -> "EngineTraceRecorder":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    # -- summary ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Deterministic coverage counters for ``report.checked``."""
        return {
            "engines": len(self.engines),
            "dispatches": len(self.dispatches),
            "requests": len(self.requests),
            "resolves": len(self.resolves),
            "arena_events": len(self.arena_events),
            "breaker_transitions": len(self.breaker_events),
        }


# -- verifiers -------------------------------------------------------------


def verify_engine_trace(rec: EngineTraceRecorder,
                        context: str = "trace") -> List[Diagnostic]:
    """ENG5xx: clock monotonicity, no past-dispatch, no lost wakeup.

    One diagnostic per (engine, code): a broken clock corrupts every
    subsequent dispatch, so repeating the finding per event would bury
    the root cause.
    """
    out: List[Diagnostic] = []
    flagged: Set[Tuple[int, str]] = set()
    last_now: Dict[int, float] = {}
    for _seq, idx, now, scheduled, kind in rec.dispatches:
        prev = last_now.get(idx)
        if prev is not None and now < prev and (idx, "ENG501") not in flagged:
            flagged.add((idx, "ENG501"))
            out.append(diag(
                "ENG501",
                f"{context}: engine #{idx} clock moved backwards at a "
                f"{EventKind(kind).name} dispatch: {now} after {prev}",
                node=f"engine{idx}",
            ))
        last_now[idx] = now
        if now != scheduled and (idx, "ENG502") not in flagged:
            flagged.add((idx, "ENG502"))
            why = ("clock never reached the event time" if now < scheduled
                   else "its handler ran the clock on inside its own "
                   "dispatch, so observers saw it late")
            out.append(diag(
                "ENG502",
                f"{context}: engine #{idx} dispatched a "
                f"{EventKind(kind).name} scheduled for {scheduled} with the "
                f"clock at {now} ({why})",
                node=f"engine{idx}",
            ))
    # Lost wakeup: the run finished (no live events anywhere on the
    # engine) while requests attributed to it are still non-terminal —
    # they can never make progress again.
    for idx, engine in enumerate(rec.engines):
        if engine.pending:
            continue
        stuck = sorted(
            req.req_id for (eng_idx, req) in rec.requests.values()
            if eng_idx == idx and not req.state.is_terminal
        )
        if stuck:
            shown = ", ".join(str(r) for r in stuck[:5])
            out.append(diag(
                "ENG503",
                f"{context}: engine #{idx} is quiescent (empty heap) with "
                f"{len(stuck)} unresolved request(s): {shown}"
                + ("…" if len(stuck) > 5 else ""),
                node=f"engine{idx}",
            ))
    return out


def verify_lifecycle(rec: EngineTraceRecorder,
                     retry: Optional[RetryPolicy] = None,
                     context: str = "trace") -> List[Diagnostic]:
    """LIFE6xx: terminal-state conservation, crash windows, retry limits."""
    out: List[Diagnostic] = []

    # LIFE602: more than one terminal resolve per request object.
    resolve_counts: Dict[int, int] = {}
    for _seq, key, _req, _state, _faults in rec.resolves:
        resolve_counts[key] = resolve_counts.get(key, 0) + 1
    seen_double: Set[int] = set()
    for _seq, key, req, _state, _faults in rec.resolves:
        if resolve_counts[key] > 1 and key not in seen_double:
            seen_double.add(key)
            out.append(diag(
                "LIFE602",
                f"{context}: request {req.req_id} resolved terminally "
                f"{resolve_counts[key]} times (final state "
                f"{req.state.value})",
                node=f"req{req.req_id}",
            ))

    # LIFE601: admitted (ARRIVAL-dispatched) requests that never resolved.
    for _key, (idx, req) in sorted(rec.requests.items(),
                                   key=lambda kv: kv[1][1].req_id):
        if not req.state.is_terminal:
            out.append(diag(
                "LIFE601",
                f"{context}: request {req.req_id} on engine #{idx} never "
                f"reached a terminal state (still {req.state.value})",
                node=f"req{req.req_id}",
            ))

    # LIFE605 + LIFE603 over completions.
    for _seq, _key, req, state, injector in rec.resolves:
        if state is not RequestState.COMPLETED or req.completion_s is None:
            continue
        if req.completion_s < req.arrival_s:
            out.append(diag(
                "LIFE605",
                f"{context}: request {req.req_id} completed at "
                f"{req.completion_s} before its arrival at {req.arrival_s}",
                node=f"req{req.req_id}",
            ))
        # The completing replica passes its own injector to resolve().
        if injector is None:
            continue
        for crash in injector.plan.crashes:
            if (crash.server_id == injector.server_id
                    and crash.start_s < req.completion_s < crash.end_s):
                out.append(diag(
                    "LIFE603",
                    f"{context}: request {req.req_id} completed at "
                    f"{req.completion_s} strictly inside server "
                    f"{injector.server_id}'s crash window "
                    f"[{crash.start_s}, {crash.end_s}]",
                    node=f"req{req.req_id}",
                ))
                break

    # LIFE604: retry dispatches vs the policy's attempt/budget limits.
    if retry is not None:
        per_request: Dict[int, int] = {}
        for _seq, key in rec.retry_dispatches:
            per_request[key] = per_request.get(key, 0) + 1
        for key, count in per_request.items():
            if count > retry.max_attempts - 1:
                req = next((r for (_s, k, r, _st, _f) in rec.resolves
                            if k == key),
                           rec.requests.get(key, (None, None))[1])
                req_id = req.req_id if req is not None else key
                out.append(diag(
                    "LIFE604",
                    f"{context}: request {req_id} retried {count} times — "
                    f"more than max_attempts {retry.max_attempts} allows",
                    node=f"req{req_id}",
                ))
        total = sum(per_request.values())
        if retry.budget is not None and total > retry.budget:
            out.append(diag(
                "LIFE604",
                f"{context}: {total} retries dispatched across the trace "
                f"exceed the retry budget of {retry.budget}",
            ))

    # LIFE606: breaker transition legality.
    for _seq, name, now_s, frm, to in rec.breaker_events:
        if (frm, to) not in VALID_BREAKER_TRANSITIONS:
            out.append(diag(
                "LIFE606",
                f"{context}: breaker {name} took an illegal transition "
                f"{frm.value} -> {to.value} at t={now_s}",
                node=name,
            ))
    return out


def verify_kv_ledger(rec: EngineTraceRecorder,
                     expected_live: Sequence[int] = (),
                     context: str = "trace") -> List[Diagnostic]:
    """MEM22x: replay the arena event log as a token-conservation ledger.

    Tracks every region episode (admit/restore … append* … release/
    preempt) independently of the arena's own bookkeeping, so a mutation
    that corrupts either side shows up as a divergence; at drain the
    ledger's open episodes and the arenas' own :meth:`verify` audit must
    both be clean.
    """
    out: List[Diagnostic] = []
    live = set(expected_live)
    # (arena_idx, req_id) -> [open, base_tokens, appended_tokens,
    #                         preempted_tokens_or_None]
    ledger: Dict[Tuple[int, int], List] = {}
    for _seq, idx, op, req_id, tokens in rec.arena_events:
        key = (idx, req_id)
        episode = ledger.get(key)
        is_open = episode is not None and episode[0]
        node = f"arena{idx}/req{req_id}"
        if op == "admit":
            ledger[key] = [True, tokens, 0, None]
        elif op == "append":
            if not is_open:
                out.append(diag(
                    "MEM222",
                    f"{context}: append of {tokens} token(s) to request "
                    f"{req_id} with no live region on arena #{idx}",
                    node=node,
                ))
            else:
                episode[2] += tokens
        elif op in ("release", "preempt"):
            if not is_open:
                out.append(diag(
                    "MEM222",
                    f"{context}: {op} of request {req_id} with no live "
                    f"region on arena #{idx}",
                    node=node,
                ))
                continue
            expected = episode[1] + episode[2]
            if tokens != expected:
                out.append(diag(
                    "MEM222",
                    f"{context}: {op} of request {req_id} returned "
                    f"{tokens} token(s) but the ledger holds {expected} "
                    f"(admitted {episode[1]} + appended {episode[2]})",
                    node=node,
                ))
            episode[0] = False
            episode[3] = tokens if op == "preempt" else None
        elif op == "restore":
            if is_open:
                out.append(diag(
                    "MEM222",
                    f"{context}: restore of request {req_id} while its "
                    f"region is still live on arena #{idx}",
                    node=node,
                ))
            preempted = episode[3] if episode is not None else None
            if preempted is None:
                # Failover: a crash victim preempted on one replica's
                # arena is legitimately restored (recompute-on-resume) on
                # another's.  Claim the preempted episode cross-arena.
                for other_key in sorted(k for k in ledger
                                        if k[1] == req_id and k[0] != idx):
                    other = ledger[other_key]
                    if not other[0] and other[3] is not None:
                        preempted = other[3]
                        other[3] = None
                        break
            if preempted is None:
                out.append(diag(
                    "MEM223",
                    f"{context}: restore of request {req_id} on arena "
                    f"#{idx} has no matching preempt",
                    node=node,
                ))
            elif tokens < preempted:
                out.append(diag(
                    "MEM223",
                    f"{context}: restore of request {req_id} with {tokens} "
                    f"token(s) shrinks the {preempted} token(s) preempted",
                    node=node,
                ))
            ledger[key] = [True, tokens, 0, None]
    # Drain audit: ledger side …
    for (idx, req_id), episode in sorted(ledger.items()):
        if episode[0] and req_id not in live:
            out.append(diag(
                "MEM221",
                f"{context}: KV region for request {req_id} on arena "
                f"#{idx} still live at drain "
                f"({episode[1] + episode[2]} token(s))",
                node=f"arena{idx}/req{req_id}",
            ))
    # … cross-checked against the arenas' own audit.
    for idx, arena in enumerate(rec.arenas):
        for message in arena.verify(live_req_ids=sorted(live)):
            out.append(diag(
                arena_diag_code(message),
                f"{context}: arena #{idx}: {message}",
                node=f"arena{idx}",
            ))
    return out


def verify_trace(rec: EngineTraceRecorder,
                 retry: Optional[RetryPolicy] = None,
                 expected_live: Sequence[int] = (),
                 context: str = "trace") -> List[Diagnostic]:
    """Run every trace verifier over one recorded execution."""
    out = verify_engine_trace(rec, context=context)
    out.extend(verify_lifecycle(rec, retry=retry, context=context))
    out.extend(verify_kv_ledger(rec, expected_live=expected_live,
                                context=context))
    return out
