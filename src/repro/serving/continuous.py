"""Iteration-level continuous batching for generative serving.

The paper's DP scheduler (Alg. 3) batches at *request* granularity: a
batch is formed once, executes, and only then does the queue get another
chance.  That is the right shape for one-shot BERT inference but wrong for
GPT-style generation, where a request occupies its batch slot for as many
decode steps as it generates tokens: under request-level batching a decode
batch runs until its **longest** member finishes while finished slots burn
padded-slot work, and newly arrived requests wait behind the whole batch.

:class:`ContinuousBatchingServer` re-forms the decode batch at **every
decode step** — the iteration-level design of modern LLM serving systems:

* finished requests exit their slot immediately (the next step is priced
  at the smaller batch width — no retired-slot work);
* queued requests are admitted mid-flight: their prefill runs as one
  round between decode steps (one pass for the whole admitted set, or
  its chunks overlapped with decode steps) and they join the decode batch
  at the next step;
* admission is **KV-cache-aware**: a request joins only while the
  :class:`~repro.memory.KVCacheArena` high-watermark holds, so the batch
  is bounded by simulated KV memory rather than a fixed ``max_batch``.

:class:`RequestLevelGenerationServer` is the control: the same cost model,
workload and KV arena, but batches formed once by a (DP) scheduler, full
batch width charged until the longest member finishes, arrivals waiting
for the next round.  The gap between the two is the experiment
``experiments/gen_serving_throughput.py`` measures.

One replica, one driver
-----------------------
:class:`GenReplica` is one GPU running the iteration-level loop.  It owns
its KV arena, its optional radix prefix index, its queue and its active
set, plus the fault injector and circuit breaker the driver binds; its
transitions are methods (admit, prefill round, decode run, evict, crash)
and :meth:`GenReplica.run` is a generator that yields the end of each
busy window.  The generation driver is the one serving driver
(:class:`repro.serving.driver.Driver`, whose backlog, retry, routing,
window, counter and wake rules it follows) with the generation ingest
rule.
Every generation system is that driver:

* :class:`ContinuousBatchingServer` over one replica;
* :func:`repro.serving.simulate_generation_cluster` over N replicas
  behind a least-loaded, health- and breaker-aware router — the paper's
  §5 picture of one server's scheduler repeated behind a Nexus-style
  balancer;
* :class:`RequestLevelGenerationServer` over one replica under the
  *request-level rule*: only an idle replica admits, an empty round
  drains the whole queue once through the DP scheduler, the round's
  batches are admitted one at a time in DP order, and decode is priced
  at the batch's full width and padded length.

The rules every replica follows:

* **crash truncation** — a pass cut off by a crash is lost at the crash
  instant; its requests lose their KV and go through the retry path, so
  nothing completes inside a crash window;
* **wake** — the driver's rule: every ARRIVAL and RETRY of an idle
  replica's instant is queued before its first admission;
* **queue during an outage** — queued work fails fast to the retry path
  while some other replica is up, or at once when the outage never ends;
  otherwise it stays queued while the replica sleeps out the outage.  A
  replica down for good yields no window: work that reaches it later
  fails fast the same way;
* **preemption** — a KV-pressure victim re-enters through the retry
  policy, or at once without one; breakers record failures for crashes
  and failed attempts, not for KV-pressure preemption;
* **faults** — each replica stretches its own busy windows under its
  injector's latency spikes.

Every admitted set gets one prefill round, planned and then committed.
:meth:`GenReplica.plan_round` prices it and logs its
:class:`~repro.serving.rounds.RoundRecord`: one whole-pass chunk on an
unchunked replica, or the chunker's chunks plus the decode steps that
fit inside the prefill on a chunked one.
:meth:`GenReplica.commit_round` runs the record as one busy window,
yields its end, then charges busy and stall time, traces, and commits
the decode steps and the prefill.  Only how a round is reported depends
on the mode (a serial pass draws one span before its window and counts
no chunk).

A decode run steps the live batch back to back while the queue is
empty, as one window up to the engine's next live event: a step ending
strictly before that event commits without yielding, and the run yields
at the step that reaches it, at a crash cut and before it returns.
It stays its own loop, with no plan: decode steps outnumber prefill
rounds five- to twelvefold on the benchmark workloads, so planning or
logging them would cost far more memory and host time than the round log
does.

Everything is simulator-time and deterministic given the workload; costs
come from :class:`~repro.runtime.GenerationRuntime` (prefill and per-step
decode against the growing KV cache).
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from .._checks import check_size
from ..engine import EngineFaultInjector, EventKind
# ``execute_schedule`` stays importable from here: perf/layers.py patches
# ``continuous.execute_schedule``, although rounds are timed by
# ``round_timing``.
from ..gpusim.multistream import StreamSchedule, execute_schedule  # noqa: F401
from ..memory.kv_arena import KVCacheArena
from ..memory.prefix_index import RadixPrefixIndex
from ..observability import MetricsRegistry, Tracer
from ..runtime.chunked import PrefillChunker
from .driver import Driver, Replica, publish_tally
from .metrics import LatencyStats, ServingMetrics
from .request import Request, RequestState
from .rounds import RoundRecord, Step, round_program, round_timing
from .router import crashed, queue_fails_fast
from .scheduler import BatchScheduler, CostFn, PrunedDPBatchScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience import ResilienceConfig


@dataclass(slots=True)
class GenRequest(Request):
    """A generation request: prompt of ``seq_len`` tokens, up to
    ``max_new_tokens`` output tokens.

    ``generated`` counts produced tokens (the prefill pass yields the
    first); ``first_token_s`` is stamped when that first token appears —
    TTFT is ``first_token_s - arrival_s``.

    ``prompt_ids`` optionally carries the actual prompt token ids (with
    ``len(prompt_ids) == seq_len``) so prefix caching can match shared
    prompt heads; ``None`` means content-less (no prefix matching — the
    pre-caching behaviour).
    """

    max_new_tokens: int = 1
    generated: int = 0
    first_token_s: Optional[float] = None
    prompt_ids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        # Explicit: slots=True rebuilds the class, so a zero-argument
        # super() would see the pre-slots class and fail.
        Request.__post_init__(self)
        check_size("max_new_tokens", self.max_new_tokens)
        if self.prompt_ids is not None and len(self.prompt_ids) != self.seq_len:
            raise ValueError(
                f"prompt_ids length {len(self.prompt_ids)} != seq_len "
                f"{self.seq_len}"
            )

    @property
    def prompt_len(self) -> int:
        return self.seq_len

    @property
    def ttft_s(self) -> float:
        """Arrival-to-first-token latency; raises if no token yet."""
        if self.first_token_s is None:
            raise ValueError(f"request {self.req_id} has produced no token")
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Mean per-output-token latency after the first (0 if single-token)."""
        if self.completion_s is None or self.first_token_s is None:
            raise ValueError(f"request {self.req_id} has not completed")
        if self.generated < 2:
            return 0.0
        return (self.completion_s - self.first_token_s) / (self.generated - 1)


@dataclass(frozen=True)
class GenServingMetrics(ServingMetrics):
    """One generative serving run: the base serving outcome plus the
    generation-specific quantities (TTFT, TPOT, token goodput, KV use)."""

    ttft: LatencyStats = LatencyStats(float("inf"), float("inf"),
                                      float("inf"), 0)
    tpot_ms_avg: float = float("inf")
    tokens_generated: int = 0
    decode_steps: int = 0
    prefill_batches: int = 0
    goodput_tokens_per_s: float = 0.0
    kv_denials: int = 0
    kv_peak_bytes: int = 0
    # Resilience outcome (all zero on fault-free runs).
    preemptions: int = 0
    tokens_recomputed: int = 0
    retries: int = 0
    attempts_failed: int = 0
    # Chunked-prefill / dual-stream overlap outcome (``prefill_chunks``
    # and ``overlap_saved_s`` are zero with ``chunk_tokens=None``;
    # ``stall_s`` is the decode-side head-of-line blocking — the seconds
    # live decoders spent stalled behind prefill work).
    prefill_chunks: int = 0
    overlap_saved_s: float = 0.0
    stall_s: float = 0.0
    # Prefix-cache outcome (all zero with ``prefix_cache=False`` or a
    # workload without prompt ids).  ``prefill_flops_saved`` converts the
    # skipped prefill seconds into device FLOPs at the runtime device's
    # fp32 peak — a hardware-independent "work not done" figure.
    prefix_hits: int = 0
    prefix_tokens_reused: int = 0
    prefill_flops_saved: float = 0.0


@dataclass(frozen=True)
class KVPreemptionPolicy:
    """Victim selection for KV-pressure preemption.

    When the arena watermark holds the queue head, the loop evicts up to
    ``max_victims_per_event`` live requests and re-queues them with
    recompute-on-resume pricing.  Victims are picked least-progress-first
    (fewest generated tokens — the cheapest recompute), ties broken
    deadline-aware (most slack preempted first, deadline-less requests
    preferred over deadlined ones).
    """

    max_victims_per_event: int = 1

    def __post_init__(self) -> None:
        check_size("max_victims_per_event", self.max_victims_per_event)

    def victim_order(self, active: Sequence["GenRequest"],
                     now_s: float) -> List["GenRequest"]:
        """Candidates in eviction order (best victim first)."""

        def key(r: "GenRequest"):
            slack = float("inf") if r.deadline_s is None else \
                (r.arrival_s + r.deadline_s) - now_s
            return (r.generated, -slack, r.req_id)

        return sorted(active, key=key)


@dataclass
class ContinuousBatchingConfig:
    """Knobs of the iteration-level loop (one replica's config)."""

    #: Optional slot cap on top of the KV gate (None = KV-bound only).
    max_batch: Optional[int] = None
    warmup_fraction: float = 0.1
    #: Optional KV-pressure preemption (None = watermark holds the head,
    #: exactly the pre-resilience behaviour).
    preemption: Optional[KVPreemptionPolicy] = None
    #: Chunked prefill + dual-stream overlap: split every prefill pass
    #: into chunks of at most this many prompt positions and overlap the
    #: chunks with decode steps on a second simulated stream.  ``None``
    #: keeps the classic serial loop, byte-identical to the pre-chunking
    #: behaviour.  Chunk boundaries are pure bookkeeping — generated
    #: tokens are identical either way; only timing changes.
    chunk_tokens: Optional[int] = None
    #: Radix-tree prefix caching over CoW KV pages: admission consults a
    #: :class:`~repro.memory.prefix_index.RadixPrefixIndex`, attaches the
    #: longest cached page-aligned prompt prefix by refcount, and runs
    #: prefill only over the uncached suffix.  Requires the workload to
    #: carry ``GenRequest.prompt_ids``; a pure timing/accounting change —
    #: token streams, admission order and completion sets are identical
    #: to ``False`` (the ``--verify-gen`` gate enforces it).
    prefix_cache: bool = False

    def __post_init__(self) -> None:
        check_size("max_batch", self.max_batch, optional=True)
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        check_size("chunk_tokens", self.chunk_tokens, optional=True)


#: An unchunked replica's chunker: one chunk tiles the whole pass, and
#: :meth:`PrefillChunker.chunk_latency` prices it as the serial pass.
_WHOLE_PASS = PrefillChunker(sys.maxsize)


def _next_event_time(engine) -> float:
    """When the engine's next live event is due (``inf`` with none)."""
    event = engine.peek()
    return math.inf if event is None else event.time


def _window_overlap(start: float, dur: float, horizon: float) -> float:
    """Busy seconds a [start, start+dur] dispatch spends inside the horizon."""
    return max(0.0, min(start + dur, horizon) - min(start, horizon))


class GenReplica(Replica):
    """One GPU replica of the iteration-level loop.

    Owns its KV arena, its optional radix prefix index, its queue and its
    active (decoding) set; a driver binds it to one run's engine, fault
    injector and circuit breaker (:meth:`bind`).  :meth:`run` is the
    replica's loop: it admits from the queue, plans and commits a prefill
    round (:meth:`plan_round`, :meth:`commit_round`; a serial pass is a
    round of one chunk with no overlapped decode) or runs a decode run,
    and yields the end of each busy window until nothing is runnable.
    """

    def __init__(self, server_id: int, runtime, arena: KVCacheArena,
                 config: ContinuousBatchingConfig) -> None:
        self.server_id = server_id
        self.runtime = runtime
        self.arena = arena
        self.config = config
        self.chunker: Optional[PrefillChunker] = None
        if config.chunk_tokens is not None:
            self.chunker = PrefillChunker(config.chunk_tokens)
        self.prefix_index = None
        if config.prefix_cache:
            self.prefix_index = RadixPrefixIndex(arena)
        self.bind(None, None, None)

    def bind(self, driver: Optional["_GenDriver"],
             faults: Optional[EngineFaultInjector], breaker) -> None:
        super().bind(driver, faults, breaker)
        self.queue: Deque[GenRequest] = deque()
        self.active: List[GenRequest] = []
        #: One :class:`RoundRecord` per prefill round of the run, chunked
        #: or not, in planning order (a round a crash cuts is logged too).
        self.round_log: List[RoundRecord] = []
        #: Successful admissions of the run, in order (req_ids; restores
        #: included).
        self.admission_order: List[int] = []
        #: Cached-prefix tokens attached at admission, consumed at the
        #: prefill commit (publish + recompute accounting).
        self._cached_len: Dict[int, int] = {}
        #: This replica's KV-arena trace counter: ``kv_arena`` when it
        #: serves alone, ``{tid}:kv_arena`` beside other replicas.
        self.kv_track = ("kv_arena" if driver is None or driver.lone
                         else f"{self.tid}:kv_arena")

    @property
    def emitted_schedules(self) -> List[StreamSchedule]:
        """Per-round :class:`StreamSchedule` programs of the run, one per
        prefill round (a serial pass's has one chunk launch and no decode
        launch), built from :attr:`round_log` on each read — audited by
        the SCHED3xx race detector."""
        page = self.arena.page_tokens
        return [round_program(record, page)[0] for record in self.round_log]

    # -- routing view -----------------------------------------------------

    @property
    def load(self) -> int:
        """Requests this replica is responsible for right now."""
        return len(self.queue) + len(self.active)

    def enqueue(self, r: GenRequest) -> None:
        """Queue a routed request, waking the replica if idle."""
        self.queue.append(r)
        self.schedule_wake()

    # -- the loop ---------------------------------------------------------

    def run(self):
        """Drive the GPU until nothing is runnable, yielding the end of
        each busy window."""
        engine = self.driver.engine
        while True:
            now = engine.now
            if crashed(self, now):
                end = self.crash(now)
                if end == math.inf:
                    break
                yield end
                continue
            admitted = self.admit(now)
            if admitted is None:
                continue  # victims preempted: retry with the freed pages
            if admitted:
                yield from self.commit_round(admitted,
                                             self.plan_round(admitted))
                continue
            if self.active:
                yield from self.decode_run()
                continue
            # Nothing runnable.  (Fault-free, a non-empty queue here is
            # impossible: an empty arena admits anything that passed
            # fits_at_all at ingest.  Under resilience the head may
            # legitimately wait — e.g. for a retry backoff.)
            assert self.driver.res is not None or not self.queue, \
                "admission stalled with an empty arena"
            break
        self.running = False

    def admit(self, now: float) -> Optional[List[GenRequest]]:
        """KV-aware admission: fold every admissible queued request into
        one prefill pass.  Resumed victims (``generated > 0``) re-enter
        through ``arena.restore`` with their recompute length.  Returns
        ``None`` when watermark preemption evicted victims instead (the
        caller retries admission with the freed pages)."""
        admitted: List[GenRequest] = []
        cap = self.config.max_batch
        while self.queue and (cap is None
                              or len(self.active) + len(admitted) < cap):
            r = self.queue[0]
            matched, shared = self._prefix_lookup(r)
            if r.generated > 0:
                ok = self.arena.restore(
                    r.req_id, r.seq_len + r.generated,
                    r.seq_len + r.max_new_tokens, shared_pages=shared,
                )
                if not ok and not self.arena.fits_at_all(
                    r.seq_len + r.generated, r.seq_len + r.max_new_tokens,
                ):
                    # Grew past what an empty arena could restore:
                    # unrecoverable, don't block the FIFO head.
                    self.queue.popleft()
                    self.driver.drop(r, RequestState.FAILED, now)
                    continue
            else:
                ok = self.arena.admit(r.req_id, r.seq_len,
                                      r.seq_len + r.max_new_tokens,
                                      shared_pages=shared)
            if not ok:
                break  # high-watermark holds the FIFO head
            self.queue.popleft()
            admitted.append(r)
            self._count_hit(matched)
            self._cached_len[r.req_id] = matched
            self.admission_order.append(r.req_id)
        if not admitted and self.queue and self.active and \
                self.config.preemption is not None and \
                self._preempt_for_head(now):
            return None
        return admitted

    def _preempt_for_head(self, now: float) -> bool:
        """The watermark holds the head while others run: evict victims
        so it can make progress (bounded by the retry budget)."""
        policy = self.config.preemption
        head = self.queue[0]
        evicted = 0
        for victim in policy.victim_order(self.active, now):
            if evicted >= policy.max_victims_per_event:
                break
            if not self.arena.fits_at_all(
                victim.seq_len + victim.generated,
                victim.seq_len + victim.max_new_tokens,
            ):
                continue  # could never be restored: skip
            self.active.remove(victim)
            self.evict(victim, now, failed=False)
            evicted += 1
            if self.arena.can_admit(head.seq_len + head.generated,
                                    head.seq_len + head.max_new_tokens):
                break
        return evicted > 0

    def _window(self, started: float,
                dur: float) -> Tuple[float, Optional[float]]:
        """The busy window of a pass starting at ``started``: its duration
        stretched under the injector's latency spikes, and the crash
        instant inside it, if any — a pass a crash cuts short is lost
        there."""
        if self.faults is None:
            return dur, None
        return self.faults.window(started, dur)

    def _decode_shape(self) -> Tuple[int, int]:
        """``(width, past)`` the next decode step is priced at: live slots
        only (finished requests already exited), KV padded to the
        longest."""
        return len(self.active), max(r.seq_len + r.generated
                                     for r in self.active)

    def decode_run(self):
        """Decode steps back to back over the live batch while the queue
        is empty, so admission would take nothing.  Each step is priced
        at :meth:`_decode_shape` and commits at its own end; the shape is
        recomputed only when a member finishes — otherwise every member
        gained one token, so ``past`` grows by one.

        A step whose end falls strictly before the engine's next live
        event (:meth:`Engine.peek`) commits without yielding: nothing can
        happen inside it, so its own window would dispatch only its end.
        The run yields the end of the step that reaches that event (the
        event dispatches first, as in a window of its own), the cut of a
        crash, and, before returning (the batch drained or the queue is
        non-empty), the last step's end — so the clock is on it whenever
        :meth:`run` reads it.  The rule is the same for a lone replica and
        one beside others.  A step needs no crash check before the next:
        a crash starting inside a step or at its end cuts that step
        (:meth:`_window`), so a step that completes never ends inside a
        crash window."""
        d = self.driver
        engine = d.engine
        runtime = self.runtime
        horizon = d.horizon
        b, past = self._decode_shape()
        end = engine.now
        next_at = _next_event_time(engine)
        while True:
            started = end
            step_s = runtime.decode_step_latency(b, past)
            if d.trace_on:
                runtime.trace_decode_stride(d.tracer, started, step_s, b,
                                            past, tokens=len(self.active),
                                            tid=self.tid)
            dur, cut = self._window(started, step_s)
            if cut is not None:
                yield cut
                self._lose(self.active)
                self.active = []
                return
            end = started + dur
            landed = end >= next_at
            if landed:
                yield end
                next_at = _next_event_time(engine)
            if end <= horizon:
                d.busy_s += end - started  # _window_overlap, bit for bit
            else:
                d.busy_s += _window_overlap(started, dur, horizon)
            if self._commit_decode(self.active, end):
                self.active = [r for r in self.active
                               if r.generated < r.max_new_tokens]
                self._trace_kv(end)
                if not self.active:
                    break
                b, past = self._decode_shape()
            else:
                self._trace_kv(end)
                past += 1
            if self.queue:
                break
        if not landed:
            yield end

    def plan_round(self, admitted: List[GenRequest]) -> RoundRecord:
        """Plan the prefill round of an admitted set and log its
        :class:`RoundRecord`; nothing is committed yet.

        The pass runs only the positions past the shortest attached
        prefix (the prefix-cache credit: the cached head's cost, launch
        overhead cancelled, is skipped work).  A chunked replica splits
        them with its chunker and plans the live batch's decode steps that
        fit **inside** the prefill, so the round never outlasts it: the
        next admission happens exactly when a serial pass would have
        re-checked the queue, and every overlapped step is pure profit.
        An unchunked replica plans one chunk over the whole pass, priced
        as the serial pass, and no decode step: its live decoders stall
        for the pass.
        """
        d = self.driver
        runtime = self.runtime
        d.rounds += 1
        b = len(admitted)
        prompt = max(r.seq_len + r.generated for r in admitted)
        pass_start = min(self._cached_len[r.req_id] for r in admitted)
        chunker = self.chunker or _WHOLE_PASS
        chunks = chunker.chunks(prompt, start=pass_start)
        chunk_lats = [chunker.chunk_latency(runtime, b, c,
                                            pass_start=pass_start)
                      for c in chunks]
        if pass_start > 0:
            d.prefill_saved_s += min(runtime.prefill_latency(b, prompt),
                                     runtime.prefill_latency(b, pass_start))
        steps = (() if self.chunker is None
                 else self._overlapped_steps(sum(chunk_lats)))
        record = RoundRecord(
            d.rounds,
            tuple((r.req_id, self._cached_len[r.req_id],
                   r.seq_len + r.generated) for r in admitted),
            chunks, chunk_lats, steps,
        )
        self.round_log.append(record)
        return record

    def _overlapped_steps(self, prefill_s: float) -> List[Step]:
        """The live batch's decode steps, back to back from the round
        start, that end within ``prefill_s``.  ``extra`` counts the tokens
        each member produces within the round without mutating it."""
        steps: List[Step] = []
        dec = list(self.active)
        extra: Dict[int, int] = {}
        elapsed = 0.0
        while dec:
            past = max(r.seq_len + r.generated + extra.get(r.req_id, 0)
                       for r in dec)
            step_s = self.runtime.decode_step_latency(len(dec), past)
            if elapsed + step_s > prefill_s:
                break
            steps.append(([(r, r.seq_len + r.generated
                            + extra.get(r.req_id, 0)) for r in dec], step_s))
            elapsed += step_s
            nxt: List[GenRequest] = []
            for r in dec:
                extra[r.req_id] = extra.get(r.req_id, 0) + 1
                if r.generated + extra[r.req_id] < r.max_new_tokens:
                    nxt.append(r)
            dec = nxt
        return steps

    def commit_round(self, admitted: List[GenRequest], record: RoundRecord):
        """Run a planned round as one busy window: yield its end, then
        charge it and commit its decode steps and its prefill.

        The round is timed on per-stream clocks (:func:`round_timing`, the
        closed form of executing its stream program); the plan never lets
        decode outlast the prefill, so the makespan is the prefill and the
        window is ``[started, started + prefill_s]``, stretched under
        latency spikes.  Span times inside it scale by ``dur / prefill_s``
        so every commit stays inside the window.  Each decode step commits
        at its own end and the admitted set at the prefill's end (TTFT is
        unchanged by the overlap; the win is that the *round* costs only
        the prefill, so the queue drains sooner).  Live decoders left
        after the planned steps stall from the last one to the prefill's
        end.

        Only the report depends on the mode: a serial pass draws one
        ``prefill xB`` span on the replica track before its window and
        counts no chunk; a chunked round draws per-stream spans and counts
        its chunks.
        """
        d = self.driver
        started = d.engine.now
        timing = round_timing(record.chunk_lats,
                              [step_s for _, step_s in record.steps])
        prefill_s = timing.prefill_s
        serial = self.chunker is None
        if serial:
            self.runtime.trace_prefill(d.tracer, started, prefill_s,
                                       len(admitted), record.chunks[-1].end,
                                       tid=self.tid)
        dur, cut = self._window(started, prefill_s)
        yield started + dur if cut is None else cut
        if cut is not None:
            self._lose(admitted)
            return
        ratio = dur / prefill_s if prefill_s > 0 else 1.0
        d.busy_s += _window_overlap(started, dur, d.horizon)
        d.overlap_saved_s += timing.overlap_saved_s * ratio
        d.prefills += 1
        if not serial:
            d.prefill_chunks += len(record.chunks)
            if d.trace_on:
                for kernel, stream, start, end in timing.spans():
                    if kernel != "batch.reform":
                        d.tracer.complete(
                            kernel, started + start * ratio,
                            (end - start) * ratio,
                            tid=f"{self.tid}:{stream}", cat=stream,
                            round=record.index,
                        )
        if record.steps:  # only a decode step can finish a live request
            elapsed = 0.0
            for members, step_s in record.steps:
                elapsed += step_s
                self._commit_decode([r for r, _kv in members],
                                    started + elapsed * ratio)
            self.active = [r for r in self.active
                           if r.generated < r.max_new_tokens]
        if self.active:
            d.stall_s += (prefill_s - timing.decode_s) * ratio
        self._commit_prefill(admitted, started, started + prefill_s * ratio)
        self._trace_kv(d.engine.now)

    # -- commits ----------------------------------------------------------

    def _commit_prefill(self, admitted: List[GenRequest], started: float,
                        end: float) -> None:
        """Commit a prefill pass that ran ``[started, end]``: each member
        yields its (first or next) token, or — on a transient failure at
        the commit — loses its region and re-enters via the retry path."""
        d = self.driver
        now = d.engine.now
        for r in admitted:
            matched = self._cached_len.pop(r.req_id, 0)
            if self.faults is not None and self.faults.attempt_fails(
                r.req_id, r.attempt, started
            ):
                self.arena.preempt(r.req_id)
                d.fail(r, self, now)
                continue
            if self.breaker is not None:
                self.breaker.record(True, now)
            self._publish_prefix(r)
            if r.first_token_s is None:
                r.start_s = started
                r.generated = 1  # prefill yields the first token
                r.first_token_s = end
            else:
                # Resumed after eviction: the prefix (prompt + prior
                # tokens) past any still-cached head was recomputed and
                # the pass yields the next token.  The restored region
                # already holds the recomputed prefix — the token just
                # produced joins it at the next decode step.
                d.tokens_recomputed += r.seq_len + r.generated - matched
                r.generated += 1
            d.tokens += 1
            if r.generated >= r.max_new_tokens:
                self._complete(r, end)
            else:
                self.active.append(r)

    def _commit_decode(self, members: List[GenRequest], end: float) -> int:
        """Commit one decode step ending at ``end``: every member gains a
        token; finished ones complete, the rest append it to their KV.
        Returns how many members finished."""
        d = self.driver
        d.decode_steps += 1
        d.tokens += len(members)
        d.decode_tokens += len(members)
        finished = 0
        for r in members:
            r.generated += 1
            if r.generated >= r.max_new_tokens:
                self._complete(r, end)
                finished += 1
            else:
                # The token just produced joins the KV cache and is
                # attended to from the next step on.
                self.arena.append(r.req_id, 1)
        return finished

    def _complete(self, r: GenRequest, now: float) -> None:
        self.driver.complete(r, now, self.faults)
        self.completed += 1
        self.arena.release(r.req_id)

    def _trace_kv(self, now: float) -> None:
        """Sample this replica's KV use and live slots at ``now``."""
        d = self.driver
        if d.trace_on:
            d.tracer.counter(self.kv_track, now, {
                "used_mb": self.arena.used_bytes / (1024.0 * 1024.0),
                "slots": float(len(self.active)),
            })

    # -- evictions --------------------------------------------------------

    def evict(self, r: GenRequest, now: float, failed: bool) -> None:
        """Drop a live request's KV and send it through the retry path;
        ``failed`` (a crash, not KV pressure) also tells the breaker."""
        d = self.driver
        self.arena.preempt(r.req_id)
        d.preemptions += 1
        if failed:
            d.fail(r, self, now)
        else:
            d.requeue(r, now)

    def _lose(self, reqs: List[GenRequest]) -> None:
        """A crash cut the pass short: its requests lose their KV."""
        now = self.driver.engine.now
        for r in reqs:
            self._cached_len.pop(r.req_id, None)
            self.evict(r, now, failed=True)

    def crash(self, now: float) -> float:
        """Down: in-flight KV is gone; queued work fails fast to the retry
        path while another replica is up or when the outage never ends
        (else it waits out the outage).  Returns the recovery time,
        ``inf`` for a crash that never ends."""
        for r in self.active:
            self.evict(r, now, failed=True)
        self.active = []
        end = self.faults.crash_end(now)
        if queue_fails_fast(self.driver.replicas, self, now, end):
            while self.queue:
                self.driver.fail(self.queue.popleft(), self, now)
        return end

    # -- prefix cache -----------------------------------------------------

    def _prefix_lookup(self, r: GenRequest) -> Tuple[int, Sequence]:
        """Longest cached page-aligned prefix for an arriving/resumed
        request: ``(matched_tokens, pages)`` — ``(0, ())`` with the cache
        off or a content-less workload."""
        if self.prefix_index is None or r.prompt_ids is None:
            return 0, ()
        return self.prefix_index.lookup(r.prompt_ids)

    def _count_hit(self, matched: int) -> None:
        """Account a cache hit once its admission succeeded (a denied head
        retries its lookup next pass — don't double-count it)."""
        if not matched:
            return
        d = self.driver
        d.prefix_hits += 1
        d.prefix_tokens_reused += matched

    def _publish_prefix(self, r: GenRequest) -> None:
        """Index the request's full prompt pages after a successful
        prefill commit (first-publisher-wins; shared pages converge on one
        physical page per distinct prefix)."""
        if self.prefix_index is None or r.prompt_ids is None:
            return
        n_full = r.seq_len // self.arena.page_tokens
        if n_full:
            region = self.arena.region_of(r.req_id)
            self.prefix_index.insert(r.prompt_ids, region.pages[:n_full])


class _GenDriver(Driver):
    """The driver over a set of :class:`GenReplica`: the generation ingest
    rule (shed what no empty arena could hold, wake an idle replica),
    preemption re-entry and the counters every replica of the
    run adds to (one accumulator each, in event order).  The replicas
    share one runtime and config."""

    def __init__(self, replicas: Sequence[GenReplica],
                 tracer: Optional[Tracer], metrics: Optional[MetricsRegistry],
                 system_name: str,
                 resilience: Optional["ResilienceConfig"]) -> None:
        super().__init__(replicas, system_name,
                         replicas[0].config.warmup_fraction, resilience,
                         tracer, metrics)
        self.runtime = replicas[0].runtime
        self.decode_steps = self.prefills = self.tokens = 0
        self.decode_tokens = 0
        self.preemptions = self.tokens_recomputed = 0
        self.rounds = self.prefill_chunks = 0
        self.overlap_saved_s = self.stall_s = 0.0
        self.prefix_hits = self.prefix_tokens_reused = 0
        self.prefill_saved_s = 0.0

    def name_tracks(self) -> None:
        for rep in self.replicas:
            tid = rep.tid
            self.tracer.thread_name(tid, f"{tid} (prefill + decode steps)")
            if rep.chunker is not None:
                self.tracer.thread_name(f"{tid}:prefill",
                                        f"{tid} stream: prefill chunks")
                self.tracer.thread_name(f"{tid}:decode",
                                        f"{tid} stream: decode steps")

    # -- request bookkeeping ----------------------------------------------

    def request_args(self, r: GenRequest) -> dict:
        return {"prompt_len": r.seq_len, "max_new_tokens": r.max_new_tokens}

    def ingest(self, r: GenRequest, now: float, arrival: bool) -> None:
        rep = self.route(r, now)
        if arrival and not rep.arena.fits_at_all(
                r.seq_len, r.seq_len + r.max_new_tokens):
            # Could never be admitted even into an empty arena: shed
            # instead of blocking the FIFO head forever.
            self.drop(r, RequestState.SHED, now)
            return
        rep.enqueue(r)

    def complete(self, r: GenRequest, now: float,
                 faults: Optional[EngineFaultInjector]) -> None:
        r.resolve(RequestState.COMPLETED, now, faults=faults)
        self.runtime.publish_request_metrics(
            self.metrics, r.req_id, r.ttft_s, r.tpot_s,
            system=self.system,
        )
        if self.trace_on:
            self.tracer.async_end(
                "request", now, r.req_id, cat="request", path="model",
                ttft_ms=round(r.ttft_s * 1e3, 4), tokens=r.generated,
            )

    def requeue(self, r: GenRequest, now: float) -> None:
        """A KV-pressure victim re-enters: through the retry policy if
        there is one, else at this instant (preemption is no failure)."""
        if self.retry_state is None:
            self.engine.schedule(now, EventKind.RETRY, self._on_retry, r)
        else:
            self.retry(r, now)

    def result(self, done: List[GenRequest],
               **common: object) -> GenServingMetrics:
        clock = self.engine.now
        ttft = LatencyStats.from_values(
            [(r.first_token_s - r.arrival_s) * 1e3 for r in done
             if r.first_token_s is not None]
        )
        tpots = [r.tpot_s * 1e3 for r in done if r.generated >= 2]
        tpot_ms = sum(tpots) / len(tpots) if tpots else float("inf")
        device = getattr(self.runtime, "device", None)
        peak_flops = device.peak_fp32_flops if device is not None else 0.0
        result = GenServingMetrics(
            **common,
            batches_executed=self.decode_steps + self.prefills,
            ttft=ttft,
            tpot_ms_avg=tpot_ms,
            tokens_generated=self.tokens,
            decode_steps=self.decode_steps,
            prefill_batches=self.prefills,
            goodput_tokens_per_s=self.tokens / clock if clock > 0 else 0.0,
            kv_denials=sum(rep.arena.denials for rep in self.replicas),
            kv_peak_bytes=max(rep.arena.peak_used_bytes
                              for rep in self.replicas),
            preemptions=self.preemptions,
            tokens_recomputed=self.tokens_recomputed,
            retries=self.retries,
            attempts_failed=self.failures_injected,
            prefill_chunks=self.prefill_chunks,
            overlap_saved_s=self.overlap_saved_s,
            stall_s=self.stall_s,
            prefix_hits=self.prefix_hits,
            prefix_tokens_reused=self.prefix_tokens_reused,
            prefill_flops_saved=self.prefill_saved_s * peak_flops,
        )
        if self.metrics is not None:
            self.metrics.gauge("generation_goodput_tokens_per_s",
                               system=result.system).set(
                result.goodput_tokens_per_s
            )
            if result.prefill_chunks or result.stall_s:
                self.metrics.gauge("gen_overlap_saved_s",
                                   system=result.system).set(
                    result.overlap_saved_s
                )
                self.metrics.gauge("gen_prefill_stall_s",
                                   system=result.system).set(result.stall_s)
            if result.prefix_hits:
                self.metrics.gauge("gen_prefill_flops_saved",
                                   system=result.system).set(
                    result.prefill_flops_saved
                )
            for name, value in (
                    ("gen_prefill_batches_total", result.prefill_batches),
                    ("gen_prefill_chunks_total", result.prefill_chunks),
                    ("gen_decode_steps_total", result.decode_steps),
                    ("gen_tokens_total", self.decode_tokens),
                    ("gen_preemptions_total", result.preemptions),
                    ("gen_prefix_hits_total", result.prefix_hits),
                    ("gen_prefix_tokens_reused_total",
                     result.prefix_tokens_reused)):
                publish_tally(self.metrics, name, value,
                              system=result.system)
        return result


class ContinuousBatchingServer:
    """Iteration-level decode loop with KV-cache-aware admission: the
    generation driver over one :class:`GenReplica`."""

    name = "continuous"

    def __init__(
        self,
        runtime,
        arena: KVCacheArena,
        config: Optional[ContinuousBatchingConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        system_name: str = "Turbo-Continuous",
        resilience: Optional["ResilienceConfig"] = None,
    ) -> None:
        config = config or ContinuousBatchingConfig()
        self.arena = arena
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        self.system_name = system_name
        self.resilience = resilience
        self.replica = GenReplica(0, runtime, arena, config)

    @property
    def prefix_index(self):
        return self.replica.prefix_index

    @property
    def emitted_schedules(self) -> List[StreamSchedule]:
        """Per-round :class:`StreamSchedule` programs of the last
        ``serve()`` call, one per prefill round, built from the round log
        on read — audited by the SCHED3xx race detector via ``repro check
        --sanitize continuous`` and tests."""
        return self.replica.emitted_schedules

    @property
    def admission_order(self) -> List[int]:
        """Successful admissions of the last ``serve()`` call, in order
        (req_ids; restores included).  The ``--verify-gen`` gate compares
        this log across configs."""
        return self.replica.admission_order

    def serve(self, requests: Sequence[GenRequest],
              duration_s: Optional[float] = None) -> GenServingMetrics:
        """Run the continuous-batching simulation to completion.

        Like :func:`~repro.serving.server.simulate_serving`, ``duration_s``
        is the offered-load horizon (defaults to the last arrival); the
        loop always drains, and saturation is judged from the backlog at
        the horizon.
        """
        return _GenDriver([self.replica], self.tracer, self.metrics,
                          self.system_name, self.resilience).serve(
            requests, duration_s)


def request_level_cost_fn(runtime, est_new_tokens: int = 16) -> CostFn:
    """Scheduling cost for request-level generation batching.

    Prices a candidate ``(padded_len, batch)`` as one full generation —
    prefill plus ``est_new_tokens`` decode steps — through the runtime's
    cached cost models.  Used by the DP scheduler to partition the queue;
    execution is then priced step by step.
    """
    check_size("est_new_tokens", est_new_tokens)

    def cost(seq_len: int, batch: int) -> float:
        return runtime.generate_latency(seq_len, est_new_tokens, batch)

    return cost


class _RequestLevelReplica(GenReplica):
    """A :class:`GenReplica` under the request-level rule.

    Only an idle replica (no live decoder) admits.  An empty round drains
    the whole queue once through the DP scheduler; the round's batches
    are then admitted one at a time, in DP order, each prefilled together
    and decoded at its full width until its longest member finishes.  If
    the KV gate denies a member, it and the rest of its batch stay at the
    round's head as one batch — an idle arena admits anything that passed
    ``fits_at_all`` at ingest, so every admission makes progress.
    """

    def __init__(self, runtime, arena: KVCacheArena,
                 config: ContinuousBatchingConfig, scheduler: BatchScheduler,
                 cost_fn: CostFn) -> None:
        super().__init__(0, runtime, arena, config)
        self.scheduler = scheduler
        self.cost_fn = cost_fn

    def bind(self, driver: Optional[_GenDriver],
             faults: Optional[EngineFaultInjector], breaker) -> None:
        super().bind(driver, faults, breaker)
        #: The current round's batches not yet admitted, in DP order.
        self.batches: Deque[List[GenRequest]] = deque()
        #: Width and padded prompt length of the batch decoding now.
        self._width = self._padded = 0

    def admit(self, now: float) -> List[GenRequest]:
        if self.active:
            return []
        if not self.batches:
            if not self.queue:
                return []
            taken = list(self.queue)
            self.queue.clear()
            self.batches.extend(
                list(batch.requests) for batch in self.scheduler.schedule(
                    taken, self.cost_fn, self.config.max_batch))
        batch = self.batches.popleft()
        admitted: List[GenRequest] = []
        for r in batch:
            if not self.arena.admit(r.req_id, r.seq_len,
                                    r.seq_len + r.max_new_tokens):
                self.batches.appendleft(batch[len(admitted):])
                break
            admitted.append(r)
            self._cached_len[r.req_id] = 0
            self.admission_order.append(r.req_id)
        assert admitted, "an idle arena denied the round's head"
        self._width = len(admitted)
        self._padded = max(r.seq_len for r in admitted)
        return admitted

    def _decode_shape(self) -> Tuple[int, int]:
        """Full batch width — retired slots are still charged — and KV
        padded to the batch's longest prompt plus the step (members
        decode in lockstep)."""
        return self._width, self._padded + self.active[0].generated


class RequestLevelGenerationServer:
    """Request-granularity control: batches formed once, run to the longest.

    The generation driver over one replica under the request-level rule.
    The decode batch keeps its full width until the **longest** member
    finishes — retired slots are still charged (the padded-slot work
    iteration-level batching eliminates) — and arrivals during a round
    wait for the next one.  Members' responses are released at their own
    completion step, so the latency gap vs. continuous batching comes from
    queueing and admission, not from response buffering.  ``arena`` is
    the KV budget, as for :class:`ContinuousBatchingServer`.
    """

    name = "request-level"

    def __init__(
        self,
        runtime,
        arena: KVCacheArena,
        scheduler: Optional[BatchScheduler] = None,
        max_batch: int = 8,
        est_new_tokens: int = 16,
        warmup_fraction: float = 0.1,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        system_name: str = "Turbo-DP-Request",
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.system_name = system_name
        self.replica = _RequestLevelReplica(
            runtime, arena,
            ContinuousBatchingConfig(max_batch=max_batch,
                                     warmup_fraction=warmup_fraction),
            scheduler if scheduler is not None else PrunedDPBatchScheduler(),
            request_level_cost_fn(runtime, est_new_tokens),
        )

    def serve(self, requests: Sequence[GenRequest],
              duration_s: Optional[float] = None) -> GenServingMetrics:
        return _GenDriver([self.replica], self.tracer, self.metrics,
                          self.system_name, None).serve(requests, duration_s)
