"""The runtime layer's size knobs and lookup shapes follow the size rule.

A size is an ``int`` of at least 1 (``repro._checks.check_size``).  A NaN
stride priced every ``generate_latency`` as NaN, a NaN chunk length made
a chunk of ``nan`` tokens, and ``True`` ran as a size of 1.  The
generation runtime's lookups index cost rows by batch width and length,
so a float or ``bool`` there is refused too, with ``TypeError``.
"""

import math
from dataclasses import replace

import pytest

from repro.gpusim import RTX_2060
from repro.models import (
    build_decode_step_graph,
    build_decoder_step_graph,
    build_prefill_graph,
    seq2seq_decoder,
    tiny_gpt,
)
from repro.runtime import (
    TURBO_CHARACTERISTICS,
    DecoderRuntime,
    GenerationRuntime,
    PrefillChunker,
)

GPT = tiny_gpt()
PREFILL = build_prefill_graph(GPT)
DECODE = build_decode_step_graph(GPT)
DECODER_STEP = build_decoder_step_graph(seq2seq_decoder())


def _generation(stride=1):
    return GenerationRuntime(PREFILL, DECODE, TURBO_CHARACTERISTICS,
                             RTX_2060, stride=stride)


#: Each runtime-layer size knob, built with one value.
SIZE_KNOBS = {
    "stride": _generation,
    "chunk_tokens": lambda v: PrefillChunker(chunk_tokens=v),
    "beam_size": lambda v: DecoderRuntime(DECODER_STEP,
                                          TURBO_CHARACTERISTICS, RTX_2060,
                                          beam_size=v),
    "decoder stride": lambda v: DecoderRuntime(
        DECODER_STEP, TURBO_CHARACTERISTICS, RTX_2060, beam_size=4,
        stride=v),
    "reduction_x_elems": lambda v: replace(TURBO_CHARACTERISTICS,
                                           reduction_x_elems=v),
    "pad_to_multiple": lambda v: replace(TURBO_CHARACTERISTICS,
                                         pad_to_multiple=v),
}


@pytest.mark.parametrize("value", [math.nan, 2.5, True])
@pytest.mark.parametrize("knob", sorted(SIZE_KNOBS))
def test_size_knob_must_be_an_int(knob, value):
    name = knob.split()[-1]
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        SIZE_KNOBS[knob](value)
    SIZE_KNOBS[knob](2)


@pytest.fixture(scope="module")
def runtime():
    rt = _generation()
    # Batch width 1 has both rows, so a bad shape cannot slip through a
    # row that already holds its length.
    rt.prefill_latency(1, 8)
    rt.decode_step_latency(1, 8)
    return rt


@pytest.mark.parametrize("batch, length, bad", [
    (1.0, 8, "batch"), (True, 8, "batch"), (math.nan, 8, "batch"),
    (1, 8.0, "length"), (1, 2.5, "length"), (1, True, "length"),
    (1, math.nan, "length"),
])
@pytest.mark.parametrize("lookup, length_name", [
    ("prefill_latency", "prompt_len"), ("decode_step_latency", "past"),
])
def test_lookup_shape_must_be_ints(runtime, lookup, length_name, batch,
                                   length, bad):
    name = "batch" if bad == "batch" else length_name
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        getattr(runtime, lookup)(batch, length)


@pytest.mark.parametrize("lookup", ["prefill_latency",
                                    "decode_step_latency"])
@pytest.mark.parametrize("batch, length", [(0, 8), (1, 0), (-1, 8),
                                           (1, -3)])
def test_lookup_shape_must_be_positive(runtime, lookup, batch, length):
    # A negative length would otherwise read a row from its end.
    with pytest.raises(ValueError, match="must be positive"):
        getattr(runtime, lookup)(batch, length)
