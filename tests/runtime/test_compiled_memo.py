"""Per-cell memo of ``CompiledCostModel.total``: bit-identical to the
interpretive path over interleaved, repeated shape sequences.

``total()`` memoises each cell's ``total_s`` by the values of the cell's
own free symbols (a decode-step GEMM over ``batch`` alone is priced once
per width), skips the memo for cells bound by every symbol of the graph,
and keeps the node-order sum.  One model instance serves a whole random
sequence of shapes, so memo entries written by one shape are read by
later ones with other values of the remaining symbols.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import RTX_2060
from repro.models import (
    build_decode_step_graph,
    build_encoder_graph,
    build_prefill_graph,
    gpt_small,
    tiny_bert,
    tiny_gpt,
)
from repro.runtime import TURBO_CHARACTERISTICS, CompiledCostModel, \
    verify_equivalence
from repro.runtime.cost import graph_cost

#: name -> (graph nodes, the symbol paired with ``batch``)
GRAPHS = {
    "prefill": (build_prefill_graph(tiny_gpt()).nodes, "seq"),
    "decode-step": (build_decode_step_graph(tiny_gpt()).nodes, "past"),
    "decode-step-gpt2": (build_decode_step_graph(gpt_small()).nodes, "past"),
    "bert-encoder": (build_encoder_graph(tiny_bert()).nodes, "seq"),
}

#: Small ranges so that shapes and single symbol values repeat.
SHAPES = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 48)),
                  min_size=1, max_size=24)


def reference_total(nodes, bindings) -> float:
    """The interpretive pass drained like a Stream: node-order additions."""
    elapsed = 0.0
    for timing in graph_cost(nodes, bindings, TURBO_CHARACTERISTICS,
                             RTX_2060):
        elapsed += timing.total_s
    return elapsed


@pytest.mark.parametrize("name", sorted(GRAPHS))
@settings(max_examples=25, deadline=None)
@given(shapes=SHAPES)
def test_memoised_total_bit_identical(name, shapes):
    nodes, other = GRAPHS[name]
    model = CompiledCostModel(nodes, TURBO_CHARACTERISTICS, RTX_2060)
    bindings_list = [{"batch": b, other: n} for b, n in shapes]
    for bindings in bindings_list + bindings_list[::-1]:
        elapsed, launches = model.total(bindings)
        assert elapsed == reference_total(nodes, bindings)
        assert launches == len(nodes)
    assert verify_equivalence(nodes, bindings_list, TURBO_CHARACTERISTICS,
                              RTX_2060, compiled=model) == []


def test_decode_step_cells_mostly_depend_on_batch_alone():
    # The memo pays on the decode step: most of its cells are GEMMs and
    # elementwise ops over ``batch`` only; attention alone reads ``past``.
    model = CompiledCostModel(GRAPHS["decode-step-gpt2"][0],
                              TURBO_CHARACTERISTICS, RTX_2060)
    assert model.symbols == ("batch", "past")
    batch_only = sum(1 for names in model._cell_symbols
                     if names == ("batch",))
    assert batch_only == 9 and model.cell_count == 12
