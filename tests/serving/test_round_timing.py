"""Closed-form round timing vs executing the round's stream program.

``round_timing`` is what the serving loop uses to time an overlapped
round; ``round_program`` is the audit encoding the SCHED3xx detector
reads.  For any chunk latencies and decode-step list — empty lists and
zero-length launches included — the closed form must equal
``execute_schedule`` on the materialised program field for field, with
``==``, and the two-interval busy charge must equal merging every scaled
span.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedule_checks import check_emitted_schedules
from repro.gpusim.multistream import execute_schedule
from repro.runtime.chunked import PrefillChunk
from repro.serving.continuous import _merged_busy_in_horizon
from repro.serving.rounds import RoundRecord, round_program, round_timing

PAGE = 4
LATENCY = st.one_of(st.just(0.0),
                    st.floats(0.0, 0.05, allow_nan=False,
                              allow_infinity=False))


def make_record(chunk_lats, step_lats, chunk_tokens=3):
    """A round whose admitted request 7 fills the chunks and whose decoding
    request 9 takes every step."""
    chunks = [PrefillChunk(index=j, start=j * chunk_tokens,
                           tokens=chunk_tokens)
              for j in range(len(chunk_lats))]
    length = max(1, len(chunks) * chunk_tokens)
    decoder = SimpleNamespace(req_id=9)
    steps = [([(decoder, 5 + j)], lat) for j, lat in enumerate(step_lats)]
    return RoundRecord(3, ((7, 0, length),), chunks, list(chunk_lats), steps)


@settings(max_examples=300, deadline=None)
@given(chunk_lats=st.lists(LATENCY, max_size=8),
       step_lats=st.lists(LATENCY, max_size=12))
def test_closed_form_equals_execute_schedule(chunk_lats, step_lats):
    schedule, durations = round_program(make_record(chunk_lats, step_lats),
                                        PAGE)
    executed = execute_schedule(schedule, durations)
    timing = round_timing(chunk_lats, step_lats)
    assert timing.makespan_s == executed.makespan_s
    assert timing.serial_s == executed.serial_s
    assert timing.overlap_saved_s == executed.overlap_saved_s
    assert list(timing.spans()) == [
        (t.op.kernel, t.op.stream, t.start_s, t.end_s)
        for t in executed.spans
    ]
    busy = {"decode": timing.decode_s}
    if chunk_lats:
        busy = {"prefill": timing.prefill_s, **busy}
    assert busy == executed.per_stream_busy


@settings(max_examples=300, deadline=None)
@given(chunk_lats=st.lists(LATENCY, max_size=8),
       step_lats=st.lists(LATENCY, max_size=12),
       started=st.floats(0.0, 10.0), ratio=st.floats(0.5, 4.0),
       horizon=st.floats(0.0, 10.2))
def test_stream_intervals_charge_the_merged_spans(chunk_lats, step_lats,
                                                  started, ratio, horizon):
    # Each stream's spans tile one interval from the round start, so two
    # intervals give the same busy charge as every span of the round.
    timing = round_timing(chunk_lats, step_lats)
    spans = [(started + start * ratio, started + end * ratio)
             for _, _, start, end in timing.spans()]
    intervals = [(started, started + timing.prefill_s * ratio),
                 (started, started + timing.makespan_s * ratio)]
    assert _merged_busy_in_horizon(intervals, horizon) == \
        _merged_busy_in_horizon(spans, horizon)


def test_empty_round_program_is_race_free():
    schedule, durations = round_program(make_record([], []), PAGE)
    assert execute_schedule(schedule, durations).makespan_s == 0.0
    assert check_emitted_schedules([schedule]) == []


def test_program_annotates_kv_pages():
    record = make_record([0.001, 0.002], [0.0005])
    schedule, _ = round_program(record, PAGE)
    launches = {op.kernel: op for op in schedule.launches()}
    # Chunk 1 covers positions [3, 6) of request 7: pages 0 and 1.
    assert launches["prefill.c1"].writes == ("kv/00000007/p0",
                                             "kv/00000007/p1")
    # The step reads request 9's last cached position and writes the next.
    assert launches["decode.s0"].reads == ("weights", "kv/00000009/p1")
    assert launches["decode.s0"].writes == ("kv/00000009/p1",)
