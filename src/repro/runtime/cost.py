"""Graph-node -> kernel-timing mapping.

Each :class:`~repro.graph.OpNode` carries symbolic cost attributes (GEMM
``m/n/k``, reduction ``rows/row_len``, elementwise ``nelems``/pass counts).
Given a request's dim bindings and a runtime's characteristics (fusion,
reduction implementation, GEMM tuning, host dispatch overhead), this module
prices every node with the :mod:`repro.gpusim` models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from .._checks import check_size
from ..gpusim import (
    DeviceSpec,
    KernelTiming,
    ReductionImpl,
    Terms,
    dims,
    elementwise_time,
    gemm_terms,
    gemm_utilization,
    layernorm_terms,
    softmax_terms,
)
from ..graph import DimBindings, OpNode, OpType, resolve_dim

DimProduct = Union[int, str, Sequence[Union[int, str]]]


def resolve_product(value: DimProduct, bindings: DimBindings) -> int:
    """Resolve an attr that is a dim, or a product of dims, to an int.

    ``("batch", 12, "seq")`` under ``{"batch": 2, "seq": 10}`` -> 240.
    """
    if isinstance(value, (int, str)):
        return resolve_dim(value, bindings)
    result = 1
    for part in value:
        result *= resolve_dim(part, bindings)
    return result


@dataclass(frozen=True)
class RuntimeCharacteristics:
    """How one runtime executes the graph (the Table 1 feature matrix).

    Attributes
    ----------
    name: display name used in experiment tables.
    fuse_kernels: run the fusion pass over the graph (Fig. 3).
    reduction_impl: which Softmax/LayerNorm kernels the runtime ships.
    reduction_x_elems: the X of ``warpAllReduceSum_XElem`` (Turbo only).
    gemm_tuning: multiplier on GEMM throughput (TensorRT autotunes > 1;
        conservative code generators < 1).  The boost only helps where the
        GEMM underfills the device — effective efficiency is capped at the
        hand-tuned-library peak, so autotuning wins small/medium problems
        but cannot beat cuBLAS on saturating ones.
    host_dispatch_s: host-side time to dispatch one operator (eager
        frameworks pay Python dispatch; compiled runtimes pay almost none).
        With asynchronous launches the host runs ahead of the device, so a
        whole graph (or one decode step, where the beam search forces a
        sync) costs ``max(n_ops * host_dispatch, sum of kernel times)`` —
        dispatch binds only when the host is the bottleneck.
    fixed_overhead_s: per-inference constant (Python API call, H2D/D2H
        transfer, final stream sync) paid once per request regardless of
        size — why no runtime accelerates 5-token requests (Fig. 10).
    supports_variable_length: can serve a new length without re-tuning.
    preprocess_s: one-time tuning cost when the input dimension changes
        (engine build for TensorRT, XLA compile, FT profile); charged per
        *new* fixed length, never per request.
    pad_to_multiple: fixed-length runtimes pad requests up to a bucket.
    usage: qualitative integration difficulty (Table 1).
    """

    name: str
    fuse_kernels: bool
    reduction_impl: ReductionImpl
    reduction_x_elems: int = 2
    gemm_tuning: float = 1.0
    host_dispatch_s: float = 0.0
    fixed_overhead_s: float = 0.0
    supports_variable_length: bool = True
    preprocess_s: float = 0.0
    pad_to_multiple: int = 1
    usage: str = "easy"
    precision_bytes: int = 4  # 4 = FP32 (the paper); 2 = FP16 extension

    def __post_init__(self) -> None:
        if self.gemm_tuning <= 0:
            raise ValueError(f"gemm_tuning must be positive, got {self.gemm_tuning}")
        check_size("reduction_x_elems", self.reduction_x_elems)
        check_size("pad_to_multiple", self.pad_to_multiple)
        if self.precision_bytes not in (2, 4):
            raise ValueError(
                f"precision_bytes must be 2 or 4, got {self.precision_bytes}"
            )

    def padded_length(self, seq_len: int) -> int:
        """Length the runtime actually executes for a request of seq_len."""
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        m = self.pad_to_multiple
        return ((seq_len + m - 1) // m) * m


# -- pricing stage (resolved integer dims -> KernelTiming) -------------------
#
# Node costing is split into two stages: *resolution* (symbolic attrs ->
# concrete ints under the request's dim bindings) and *pricing* (ints ->
# KernelTiming).  The interpretive path below and the compiled path in
# :mod:`repro.runtime.compiled` share these pricing functions, which is what
# makes the compiled fast path bit-identical by construction: both paths
# execute exactly the same floating-point operations on exactly the same
# resolved integers; only the resolution work is moved to compile time.
# Each ``price_*`` wraps a ``*_terms`` float core returning ``(compute_s,
# memory_s)``; the compiled path's totals read the core alone.


def gemm_node_terms(
    m: dims.Dim, n: dims.Dim, k: dims.Dim, batch: dims.Dim,
    chars: RuntimeCharacteristics, device: DeviceSpec,
    ops: dims.Ops = dims.SCALAR,
) -> Terms:
    """``(compute_s, memory_s)`` of a GEMM node from resolved dims (ints,
    or int64 rows with ``ops=dims.ROW``), under the runtime's precision
    and GEMM tuning."""
    compute_s, memory_s = gemm_terms(device, m, n, k, batch,
                                     chars.precision_bytes, ops)
    if chars.gemm_tuning != 1.0:
        # Boosts (autotuning) only recover underfill: cap at the efficiency
        # a fully-utilized cuBLAS GEMM already achieves.  Derates apply as-is.
        utilization = gemm_utilization(device, m, n, batch, ops)
        effective = ops.minimum(1.0,
                                utilization * max(chars.gemm_tuning, 1.0))
        effective *= min(chars.gemm_tuning, 1.0)
        scale = effective / utilization  # > 1 speeds up, < 1 slows down
        compute_s = compute_s / scale
    return compute_s, memory_s


def price_gemm(
    m: int, n: int, k: int, batch: int,
    chars: RuntimeCharacteristics, device: DeviceSpec, name: str,
) -> KernelTiming:
    """Price a GEMM node from resolved dims (shared by both cost paths)."""
    compute_s, memory_s = gemm_node_terms(m, n, k, batch, chars, device)
    return KernelTiming(name, device.launch_overhead_s, compute_s, memory_s)


def reduction_node_terms(
    rows: dims.Dim, row_len: dims.Dim, op_type: OpType,
    chars: RuntimeCharacteristics, device: DeviceSpec,
    ops: dims.Ops = dims.SCALAR,
) -> Terms:
    """``(compute_s, memory_s)`` of a Softmax/LayerNorm node from resolved
    dims (ints, or int64 rows with ``ops=dims.ROW``), under the runtime's
    reduction kernels."""
    if op_type is OpType.SOFTMAX:
        return softmax_terms(device, rows, row_len, chars.reduction_impl,
                             x_elems=chars.reduction_x_elems,
                             elem_bytes=chars.precision_bytes, ops=ops)
    return layernorm_terms(device, rows, row_len, chars.reduction_impl,
                           elem_bytes=chars.precision_bytes, ops=ops)


def price_reduction(
    rows: int, row_len: int, op_type: OpType, name: str,
    chars: RuntimeCharacteristics, device: DeviceSpec,
) -> KernelTiming:
    """Price a Softmax/LayerNorm node from resolved dims."""
    compute_s, memory_s = reduction_node_terms(rows, row_len, op_type,
                                               chars, device)
    kernel = "softmax" if op_type is OpType.SOFTMAX else "layernorm"
    return KernelTiming(f"{kernel}[{chars.reduction_impl.value}]:{name}",
                        device.launch_overhead_s, compute_s, memory_s)


def price_elementwise(
    nelems: int, reads: int, writes: int, flops: float,
    device: DeviceSpec, name: str, elem_bytes: int = 4,
) -> KernelTiming:
    """Price an elementwise-class node from a resolved element count."""
    return elementwise_time(
        device, nelems, reads=reads, writes=writes, flops_per_elem=flops,
        name=name, elem_bytes=elem_bytes,
    )


def elementwise_passes(attrs: Dict[str, Any], fused_region: bool = False
                       ) -> Tuple[int, int, float]:
    """(reads, writes, flops_per_elem) of an ELEMENTWISE node's attrs."""
    if fused_region:
        # Inside a fused kernel intermediates stay in registers: the
        # constituent contributes one data pass total instead of r+w.
        return 1, 0, float(attrs.get("flops_per_elem", 1.0))
    return (int(attrs.get("reads", 1)), int(attrs.get("writes", 1)),
            float(attrs.get("flops_per_elem", 1.0)))


# -- interpretive resolution (attrs resolved on every call) -------------------


def _gemm_node_cost(
    node: OpNode, bindings: DimBindings, chars: RuntimeCharacteristics,
    device: DeviceSpec,
) -> KernelTiming:
    m = resolve_product(node.attrs["m"], bindings)
    n = resolve_product(node.attrs["n"], bindings)
    k = resolve_product(node.attrs["k"], bindings)
    batch = resolve_product(node.attrs.get("batch", 1), bindings)
    return price_gemm(m, n, k, batch, chars, device, f"gemm:{node.name}")


def _reduction_node_cost(
    node: OpNode, bindings: DimBindings, chars: RuntimeCharacteristics,
    device: DeviceSpec, op_type: OpType, name: str, attrs: Dict[str, Any],
) -> KernelTiming:
    rows = resolve_product(attrs["rows"], bindings)
    row_len = resolve_product(attrs["row_len"], bindings)
    return price_reduction(rows, row_len, op_type, name, chars, device)


def _elementwise_node_cost(
    bindings: DimBindings, device: DeviceSpec, name: str,
    attrs: Dict[str, Any], fused_region: bool = False,
    elem_bytes: int = 4,
) -> KernelTiming:
    nelems = resolve_product(attrs["nelems"], bindings)
    reads, writes, flops = elementwise_passes(attrs, fused_region)
    return price_elementwise(nelems, reads, writes, flops, device,
                             f"elementwise:{name}", elem_bytes)


def _fused_node_cost(
    node: OpNode, bindings: DimBindings, chars: RuntimeCharacteristics,
    device: DeviceSpec,
) -> KernelTiming:
    """One launch; constituents priced with intra-fusion memory savings."""
    compute_s = 0.0
    memory_s = 0.0
    for op in node.attrs["fused_ops"]:
        op_type = OpType(op["op_type"])
        attrs = op["attrs"]
        if op_type in (OpType.SOFTMAX, OpType.LAYERNORM):
            timing = _reduction_node_cost(
                node, bindings, chars, device, op_type, op["name"], attrs
            )
        elif op_type in (OpType.ELEMENTWISE, OpType.TRANSPOSE):
            if op_type is OpType.TRANSPOSE:
                attrs = {**attrs, "reads": 1, "writes": 1,
                         "flops_per_elem": attrs.get("flops_per_elem", 0.5)}
            timing = _elementwise_node_cost(
                bindings, device, op["name"], attrs, fused_region=True,
                elem_bytes=chars.precision_bytes,
            )
        else:
            raise ValueError(
                f"fused node {node.name!r} contains unfusable op {op_type}"
            )
        compute_s += timing.compute_s
        memory_s += timing.memory_s
    return KernelTiming(
        name=f"fused:{node.name}",
        launch_s=device.launch_overhead_s,
        compute_s=compute_s,
        memory_s=memory_s,
    )


def node_cost(
    node: OpNode,
    bindings: DimBindings,
    chars: RuntimeCharacteristics,
    device: DeviceSpec,
) -> KernelTiming:
    """Price one graph node under the given runtime and request dims."""
    if node.op_type.is_gemm:
        timing = _gemm_node_cost(node, bindings, chars, device)
    elif node.op_type in (OpType.SOFTMAX, OpType.LAYERNORM):
        timing = _reduction_node_cost(
            node, bindings, chars, device, node.op_type, node.name, node.attrs
        )
    elif node.op_type is OpType.ELEMENTWISE:
        timing = _elementwise_node_cost(bindings, device, node.name, node.attrs,
                                        elem_bytes=chars.precision_bytes)
    elif node.op_type is OpType.TRANSPOSE:
        attrs = {**node.attrs, "reads": 1, "writes": 1,
                 "flops_per_elem": node.attrs.get("flops_per_elem", 0.5)}
        timing = _elementwise_node_cost(bindings, device, node.name, attrs,
                                        elem_bytes=chars.precision_bytes)
    elif node.op_type is OpType.EMBEDDING:
        attrs = {**node.attrs, "reads": 2, "writes": 1, "flops_per_elem": 2.0}
        timing = _elementwise_node_cost(bindings, device, node.name, attrs,
                                        elem_bytes=chars.precision_bytes)
    elif node.op_type is OpType.FUSED:
        timing = _fused_node_cost(node, bindings, chars, device)
    else:  # pragma: no cover - exhaustive
        raise ValueError(f"no cost model for op type {node.op_type}")
    return timing


def graph_cost(
    nodes: Iterable[OpNode],
    bindings: DimBindings,
    chars: RuntimeCharacteristics,
    device: DeviceSpec,
) -> List[KernelTiming]:
    """Price every node; callers accumulate via a :class:`~repro.gpusim.Stream`."""
    return [node_cost(node, bindings, chars, device) for node in nodes]
