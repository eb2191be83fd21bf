"""Cost rows are exact: every entry is its shape's scalar price, bit for bit.

:class:`GenerationRuntime` reads latencies from per-batch-width rows that
:meth:`CompiledCostModel.row` prices a block of lengths at a time, with
the varying dim bound to an int64 array.  Each entry must equal the
scalar path for its shape alone — ``CompiledCostModel.total`` and the
Stream-order sum of the interpretive ``graph_cost``, bound by host
dispatch, plus the pass overhead — under fused and unfused graphs, FP32
and FP16, all four reduction kernels and a GEMM tuning other than 1.
The lengths cover both sides of the row blocks' ends, of warp multiples
(no divergence penalty), of the one-warp block and of the 1024-thread
cap.  A float32 accumulation or a reassociated node sum fails here.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    RTX_2060,
    ReductionImpl,
    Stream,
    boundary_divergence_cycles,
    elementwise_terms,
    gemm_terms,
    gemm_utilization,
    kernel_total_s,
    layernorm_terms,
    smem_tree_reduce_cycles,
    softmax_terms,
)
from repro.graph import OpType
from repro.models import build_decode_step_graph, build_prefill_graph, gpt_small
from repro.runtime import (
    PYTORCH_CHARACTERISTICS,
    TENSORRT_CHARACTERISTICS,
    TURBO_CHARACTERISTICS,
    GenerationRuntime,
)
from repro.runtime.cost import gemm_node_terms, graph_cost, reduction_node_terms
from repro.runtime.generation import ROW_BLOCK

CONFIG = gpt_small()

#: Fused Turbo; unfused PyTorch; FP16 Turbo; TensorRT (FasterTransformer
#: reductions, GEMM tuning 1.05); a derated cuDNN-reduction runtime.
CHARS = {
    "turbo": TURBO_CHARACTERISTICS,
    "pytorch": PYTORCH_CHARACTERISTICS,
    "turbo-fp16": replace(TURBO_CHARACTERISTICS, precision_bytes=2),
    "tensorrt": TENSORRT_CHARACTERISTICS,
    "cudnn-derated": replace(PYTORCH_CHARACTERISTICS, fuse_kernels=True,
                             reduction_impl=ReductionImpl.CUDNN,
                             gemm_tuning=0.7),
}

#: Both sides of each block end, warp multiples, the one-warp block
#: (row_len <= 32) and the 1024-thread cap.
EDGE_LENGTHS = sorted({1, 2, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025,
                       1056, 1057}
                      | {k * ROW_BLOCK + d for k in range(1, 5)
                         for d in (-1, 0, 1)})


@lru_cache(maxsize=None)
def runtime(name: str) -> GenerationRuntime:
    return GenerationRuntime(build_prefill_graph(CONFIG),
                             build_decode_step_graph(CONFIG), CHARS[name],
                             RTX_2060, step_overhead_s=0.1e-3)


def passes(rt: GenerationRuntime):
    """Per graph: (lookup, graph, compiled model, length symbol, pass
    overhead)."""
    return (
        (rt.prefill_latency, rt.prefill_graph, rt.prefill_model, "seq",
         rt.chars.fixed_overhead_s),
        (rt.decode_step_latency, rt.decode_graph, rt.decode_model, "past",
         rt.step_overhead_s),
    )


def scalar_latency(rt, model, bindings, overhead_s):
    """The scalar path: ``total`` bound by host dispatch, plus overhead."""
    elapsed_s, launches = model.total(bindings)
    return max(elapsed_s, rt.chars.host_dispatch_s * launches) + overhead_s


@pytest.mark.parametrize("name", sorted(CHARS))
@pytest.mark.parametrize("batch", [1, 32])
def test_every_entry_of_a_row_matches_total(name, batch):
    """Whole rows, looked up out of order so blocks are priced from a
    partly grown row as well as from an empty one."""
    rt = runtime(name)
    top = EDGE_LENGTHS[-1]
    for lookup, _, model, symbol, overhead_s in passes(rt):
        for length in (ROW_BLOCK + 1, top, 1):
            lookup(batch, length)
        for length in range(1, top + 1):
            assert lookup(batch, length) == scalar_latency(
                rt, model, {"batch": batch, symbol: length}, overhead_s), \
                (name, batch, symbol, length)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CHARS)), batch=st.integers(1, 32),
       length=st.one_of(st.sampled_from(EDGE_LENGTHS),
                        st.integers(1, EDGE_LENGTHS[-1])))
def test_entry_matches_total_and_stream_sum(name, batch, length):
    rt = runtime(name)
    for lookup, graph, model, symbol, overhead_s in passes(rt):
        bindings = {"batch": batch, symbol: length}
        stream = Stream(trace_enabled=False)
        stream.extend(graph_cost(graph.nodes, bindings, rt.chars, rt.device))
        assert model.total(bindings) == (stream.elapsed_s, stream.launches)
        assert lookup(batch, length) == \
            scalar_latency(rt, model, bindings, overhead_s)


def test_scalar_callers_get_builtin_numbers():
    """Scalar dims stay on math and the builtins: no NumPy scalar may
    reach a repr or a digest."""
    dev = RTX_2060
    tuned = replace(TURBO_CHARACTERISTICS, gemm_tuning=1.3)
    floats = [gemm_utilization(dev, 100, 768, 2),
              *gemm_terms(dev, 100, 768, 64, 2),
              *elementwise_terms(dev, 4096),
              kernel_total_s(1e-6, 2e-6, 3e-6),
              boundary_divergence_cycles(dev, 33),
              boundary_divergence_cycles(dev, 64),
              *gemm_node_terms(100, 768, 64, 2, tuned, dev),
              *reduction_node_terms(24, 100, OpType.SOFTMAX, tuned, dev),
              *reduction_node_terms(24, 768, OpType.LAYERNORM, tuned, dev)]
    for impl in ReductionImpl:
        floats += [*softmax_terms(dev, 24, 1100, impl),
                   *layernorm_terms(dev, 24, 768, impl)]
    rt = runtime("turbo")
    floats += [rt.prefill_latency(3, 40), rt.decode_step_latency(3, 40)]
    assert all(type(x) is float for x in floats), \
        [type(x) for x in floats]
    # A cycle count: a builtin int, as it always was.
    assert type(smem_tree_reduce_cycles(dev, 96)) is int
