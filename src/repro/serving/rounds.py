"""One prefill round: its closed-form timing and its audit program.

Every prefill round runs the admitted set's prefill chunks back to back
on the ``prefill`` stream and, beside them, decode steps of the live
batch on the ``decode`` stream.  The decode stream then waits for the
last chunk (the join) before it re-forms the batch around the newcomers.
As a :class:`~repro.gpusim.multistream.StreamSchedule` that is::

    prefill: launch c0, launch c1, ..., record done
    decode:  launch s0, launch s1, ..., wait done, launch batch.reform (0 s)

A serial (unchunked) pass is the round of one whole-pass chunk with no
decode step.  A chunked round plans only the steps that end within the
prefill, so in every round the prefill's end is the makespan.

The serving loop needs only the timing of this program, and
:func:`round_timing` computes it in closed form on two clocks, with the
float additions in :func:`~repro.gpusim.multistream.execute_schedule`'s
order, so every value is bit-identical to executing the schedule.  Only
the SCHED3xx race detector reads the program itself, with its KV-page
buffer annotations; :func:`round_program` builds it from the compact
:class:`RoundRecord` a replica logs per round.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from ..gpusim.multistream import StreamSchedule
from ..runtime.chunked import PrefillChunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .continuous import GenRequest

#: One planned decode step: its members with the KV length each attends
#: over, and its latency.
Step = Tuple[List[Tuple["GenRequest", int]], float]


class RoundRecord(NamedTuple):
    """A planned round: what its commit and its audit program depend on,
    captured when it is planned (requests mutate at the commit)."""

    index: int
    #: ``(req_id, cached prefix tokens, KV length)`` per admitted request.
    admitted: Tuple[Tuple[int, int, int], ...]
    chunks: Sequence[PrefillChunk]
    chunk_lats: Sequence[float]
    steps: Sequence[Step]


class RoundTiming(NamedTuple):
    """The outcome of executing a round's program, in closed form.

    Times are relative to the round start.  Both streams start there and
    run back to back, so each stream's spans tile ``[0, end]`` with no
    gap.
    """

    chunk_lats: Sequence[float]
    step_lats: Sequence[float]
    #: End of the last chunk: the instant the join's event records.
    prefill_s: float
    #: End of the last decode step, before the join.
    decode_s: float
    #: Sum of every launch's duration, in issue order.
    serial_s: float

    @property
    def makespan_s(self) -> float:
        """The join: the decode stream passes the wait, and the zero-length
        re-form launch ends the round."""
        return max(self.decode_s, self.prefill_s)

    @property
    def overlap_saved_s(self) -> float:
        return self.serial_s - self.makespan_s

    def spans(self) -> Iterator[Tuple[str, str, float, float]]:
        """``(kernel, stream, start, end)`` of every launch, in issue
        order — the spans ``execute_schedule`` returns."""
        clock = 0.0
        for j, lat in enumerate(self.chunk_lats):
            yield f"prefill.c{j}", "prefill", clock, clock + lat
            clock += lat
        clock = 0.0
        for j, lat in enumerate(self.step_lats):
            yield f"decode.s{j}", "decode", clock, clock + lat
            clock += lat
        join = self.makespan_s
        yield "batch.reform", "decode", join, join + 0.0


def round_timing(chunk_lats: Sequence[float],
                 step_lats: Sequence[float]) -> RoundTiming:
    """Time a round's program on two clocks (durations non-negative)."""
    prefill = 0.0
    for lat in chunk_lats:
        prefill += lat
    decode = 0.0
    for lat in step_lats:
        decode += lat
    serial = prefill
    for lat in step_lats:
        serial += lat
    return RoundTiming(chunk_lats, step_lats, prefill, decode, serial)


def _kv_pages(req_id: int, lo: int, hi: int, page: int) -> List[str]:
    """Logical page-buffer names backing token positions [lo, hi)."""
    return [f"kv/{req_id:08d}/p{p}"
            for p in range(lo // page, (hi - 1) // page + 1)]


def round_program(record: RoundRecord, page_tokens: int,
                  ) -> Tuple[StreamSchedule, Dict[str, float]]:
    """Encode a round as an issue-order stream program and its durations.

    Chunk launches write the admitted requests' KV pages; decode launches
    append to the live requests' pages (disjoint request sets — the
    overlap is race-free by construction); the EventRecord / EventWait
    pair is the chunk↔decode join: the decode stream may not re-form the
    batch around the newcomers (reading their freshly written KV) until
    every prefill chunk has completed.
    """
    sched = StreamSchedule(name=f"round{record.index}")
    durations: Dict[str, float] = {}
    for c, lat in zip(record.chunks, record.chunk_lats):
        writes: List[str] = []
        for req_id, cached, length in record.admitted:
            # Cached-prefix positions are already resident (the attached
            # pages) — the pass never writes them.
            lo = max(c.start, cached)
            hi = min(c.end, length)
            if lo < hi:
                writes.extend(_kv_pages(req_id, lo, hi, page_tokens))
        kernel = f"prefill.c{c.index}"
        sched.launch(kernel, "prefill", reads=("weights",),
                     writes=tuple(writes))
        durations[kernel] = lat
    done = f"prefill.done.{record.index}"
    sched.record(done, "prefill")
    for j, (members, step_s) in enumerate(record.steps):
        reads: List[str] = ["weights"]
        writes = []
        for r, cached in members:
            reads.extend(_kv_pages(r.req_id, max(0, cached - 1), cached,
                                   page_tokens))
            writes.extend(_kv_pages(r.req_id, cached, cached + 1,
                                    page_tokens))
        kernel = f"decode.s{j}"
        sched.launch(kernel, "decode", reads=tuple(reads),
                     writes=tuple(writes))
        durations[kernel] = step_s
    sched.wait(done, "decode")
    reform_reads = ["weights"]
    for req_id, _cached, length in record.admitted:
        reform_reads.extend(_kv_pages(req_id, length - 1, length,
                                      page_tokens))
    sched.launch("batch.reform", "decode", reads=tuple(reform_reads))
    durations["batch.reform"] = 0.0
    return sched, durations
