"""Compiled cost models: one-time lowering of graph pricing (host fast path).

The interpretive path (:func:`repro.runtime.cost.graph_cost`) re-resolves
every node's symbolic attrs — dict lookups, ``resolve_product`` loops, attr
overlay copies — on *every* call, even though for a given graph the set of
free dimensions is fixed.  :class:`CompiledCostModel` performs that
resolution once per graph:

* each node's dims are lowered to ``(const, free_names)`` coefficient
  records (integer products are exact, so folding the constant part early
  changes nothing) and kernel names are precomputed;
* nodes that price identically up to their name — e.g. the per-layer
  copies of the same GEMM in a 12-layer encoder — are deduplicated into
  shared *cells*, so one evaluation prices all twelve;
* nodes whose dims have no free symbols are constant-folded at compile
  time;
* each cell records the free symbols it depends on, and :meth:`total`
  memoises the cell's total seconds by their values — a decode-step GEMM
  over ``batch`` alone is priced once per batch width, not once per
  ``(batch, past)`` shape;
* :meth:`row` prices a block of consecutive values of one symbol (the
  generation runtime's ``seq`` or ``past``) in one pass: that symbol is
  bound to an int64 array, the cells over it evaluate once on the whole
  array (the float cores take rows of dims with ``ops=ROW``, see
  :mod:`repro.gpusim.dims`), and the other cells stay scalars through
  the same memo.

A cell evaluates to the float terms ``(compute_s, memory_s)``: it feeds
the resolved ints to the *same* float cores
(:func:`~repro.runtime.cost.gemm_node_terms` /
:func:`~repro.runtime.cost.reduction_node_terms` /
:func:`~repro.gpusim.elementwise_terms`) the interpretive path's
``price_*`` wrappers call, and a fused cell adds its parts' terms in
region order, as ``graph_cost`` does.  Evaluation is then a tight
O(nodes) loop over cell results.  :meth:`CompiledCostModel.total` sums
``launch + max(compute, memory)`` per node as plain floats
(:func:`~repro.gpusim.kernel_total_s`, checked like a
:class:`~repro.gpusim.KernelTiming`) and builds no timing object;
:meth:`CompiledCostModel.timings` stamps each node's name onto the same
terms.  Both paths therefore execute identical floating-point operations
on identical inputs in identical order — bit-identical timings and
totals by construction, asserted by :func:`verify_equivalence` and the
test suite.  (Sharing a cell across same-shaped nodes is exact, not
approximate: the node name is display metadata that never enters the
arithmetic.)  A row entry is too: :meth:`row` adds the node totals in
execution order onto a zero row, so each entry takes the additions
:meth:`total` takes for its value alone.

The compiled path assumes positive integer bindings (the runtime validates
request shapes before it gets here); unbound symbols raise ``KeyError``
exactly like the interpretive path.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..gpusim import (
    DeviceSpec,
    KernelTiming,
    Terms,
    elementwise_terms,
    kernel_total_s,
)
from ..gpusim.dims import ROW, SCALAR, Ops
from ..graph import ComputationGraph, DimBindings, OpNode, OpType
from .cost import (
    DimProduct,
    RuntimeCharacteristics,
    gemm_node_terms,
    graph_cost,
    reduction_node_terms,
)

#: A lowered dim product: concrete factor plus the free symbol names whose
#: bound values multiply it at evaluation time.
LoweredDim = Tuple[int, Tuple[str, ...]]

#: A compiled pricing cell: ``(bindings, ops) -> (compute_s, memory_s)``;
#: ``ops`` (default :data:`repro.gpusim.dims.SCALAR`) is
#: :data:`~repro.gpusim.dims.ROW` when a binding is an int64 row.
CellEval = Callable[..., Terms]

#: The free symbol names a cell's timing depends on, sorted.
Symbols = Tuple[str, ...]


def lower_product(value: DimProduct) -> LoweredDim:
    """Lower a dim attr (int | symbol | product sequence) to coefficients.

    ``("batch", 12, "seq")`` -> ``(12, ("batch", "seq"))``.  Integer
    multiplication is exact, so evaluating ``const * prod(bindings[n])``
    equals :func:`~repro.runtime.cost.resolve_product` for every binding.
    """
    if isinstance(value, bool):
        raise TypeError("dimension cannot be a bool")
    if isinstance(value, int):
        if value <= 0:
            raise ValueError(f"concrete dims must be positive, got {value}")
        return value, ()
    if isinstance(value, str):
        return 1, (value,)
    const = 1
    names: List[str] = []
    for part in value:
        if isinstance(part, bool):
            raise TypeError("dimension cannot be a bool")
        if isinstance(part, int):
            if part <= 0:
                raise ValueError(f"concrete dims must be positive, got {part}")
            const *= part
        else:
            names.append(part)
    return const, tuple(names)


def _free_symbols(*lowered: LoweredDim) -> Symbols:
    """Sorted union of the free symbol names of some lowered dims."""
    return tuple(sorted({n for _, names in lowered for n in names}))


def _dim_eval(lowered: LoweredDim) -> Callable[[DimBindings], int]:
    """Fast evaluator for one lowered dim product."""
    const, names = lowered
    if not names:
        return lambda b, c=const: c
    if len(names) == 1:
        return lambda b, c=const, n=names[0]: c * b[n]
    if len(names) == 2:
        return lambda b, c=const, n0=names[0], n1=names[1]: c * b[n0] * b[n1]

    def many(b: DimBindings, c: int = const, ns: Tuple[str, ...] = names) -> int:
        for n in ns:
            c *= b[n]
        return c

    return many


class CompiledCostModel:
    """Per-graph compiled pricing: ``timings(bindings)`` with no re-resolution.

    Parameters
    ----------
    nodes:
        Graph nodes in execution order (already fused if the runtime fuses).
    chars, device:
        Same meaning as for :func:`~repro.runtime.cost.graph_cost`.

    Attributes
    ----------
    node_count / cell_count:
        Graph nodes vs distinct pricing cells after deduplication.
    folded_nodes:
        Nodes whose timing was computed once at compile time (no free dims).
    evals:
        Number of :meth:`timings`/:meth:`total`/:meth:`row` calls served
        so far.
    """

    def __init__(
        self,
        nodes: Sequence[OpNode],
        chars: RuntimeCharacteristics,
        device: DeviceSpec,
    ) -> None:
        self.chars = chars
        self.device = device
        # Every kernel model charges the device's launch overhead.
        self._launch_s = device.launch_overhead_s
        self.node_count = len(nodes)
        self.evals = 0
        self._cells: List[CellEval] = []
        #: Per cell: the free symbols its timing depends on (sorted).
        self._cell_symbols: List[Symbols] = []
        self._cell_index: Dict[Hashable, int] = {}
        #: Per node: index into ``_cells`` and the display name the
        #: interpretive path would stamp on this node's timing.
        self._node_cells: List[int] = []
        self._node_names: List[str] = []
        for node in nodes:
            key, name, build = self._lower_node(node)
            index = self._cell_index.get(key)
            if index is None:
                index = len(self._cells)
                fn, symbols = build()
                if not symbols:
                    terms = fn({})  # constant-fold once at compile time
                    fn = lambda b, ops=SCALAR, t=terms: t  # noqa: E731
                self._cells.append(fn)
                self._cell_symbols.append(symbols)
                self._cell_index[key] = index
            self._node_cells.append(index)
            self._node_names.append(name)
        self.cell_count = len(self._cells)
        self.folded_nodes = sum(
            1 for ci in self._node_cells if not self._cell_symbols[ci]
        )
        #: Every free symbol of the graph.
        self.symbols: Symbols = tuple(sorted(
            {n for names in self._cell_symbols for n in names}))
        self._cell_totals = [self._cell_total(fn, names) for fn, names
                             in zip(self._cells, self._cell_symbols)]

    # -- compilation -------------------------------------------------------

    def _lower_node(
        self, node: OpNode
    ) -> Tuple[Hashable, str, Callable[[], Tuple[CellEval, Symbols]]]:
        """(dedup key, per-node display name, cell builder) for one node."""
        chars, device = self.chars, self.device
        if node.op_type.is_gemm:
            dims = tuple(lower_product(node.attrs[a]) for a in ("m", "n", "k"))
            batch = lower_product(node.attrs.get("batch", 1))
            name = f"gemm:{node.name}"

            def build() -> Tuple[CellEval, Symbols]:
                m, n, k = (_dim_eval(d) for d in dims)
                bt = _dim_eval(batch)
                return (lambda b, ops=SCALAR: gemm_node_terms(
                            m(b), n(b), k(b), bt(b), chars, device, ops),
                        _free_symbols(*dims, batch))

            return ("g", dims, batch), name, build
        if node.op_type in (OpType.SOFTMAX, OpType.LAYERNORM):
            key, name, build = self._lower_reduction(
                node.op_type, node.name, node.attrs)
            return key, name, build
        if node.op_type in (OpType.ELEMENTWISE, OpType.TRANSPOSE,
                            OpType.EMBEDDING):
            return self._lower_elementwise(node.op_type, node.name, node.attrs)
        if node.op_type is OpType.FUSED:
            return self._lower_fused(node)
        raise ValueError(f"no cost model for op type {node.op_type}")

    def _lower_reduction(
        self, op_type: OpType, name: str, attrs: Dict[str, Any]
    ) -> Tuple[Hashable, str, Callable[[], Tuple[CellEval, Symbols]]]:
        chars, device = self.chars, self.device
        rows = lower_product(attrs["rows"])
        row_len = lower_product(attrs["row_len"])

        # The node name is display-only, so cells may still be shared
        # across nodes; timings() stamps each node's own name.
        def build() -> Tuple[CellEval, Symbols]:
            r, l = _dim_eval(rows), _dim_eval(row_len)
            return (lambda b, ops=SCALAR: reduction_node_terms(
                        r(b), l(b), op_type, chars, device, ops),
                    _free_symbols(rows, row_len))

        impl = chars.reduction_impl.value
        prefix = ("softmax" if op_type is OpType.SOFTMAX else "layernorm")
        return (("r", op_type, rows, row_len),
                f"{prefix}[{impl}]:{name}", build)

    def _lower_elementwise(
        self, op_type: OpType, name: str, attrs: Dict[str, Any],
        fused_region: bool = False,
    ) -> Tuple[Hashable, str, Callable[[], Tuple[CellEval, Symbols]]]:
        # Mirrors node_cost's per-type pass overlays, resolved at compile
        # time (see cost.elementwise_passes and the TRANSPOSE/EMBEDDING
        # branches of node_cost).
        chars, device = self.chars, self.device
        if op_type is OpType.EMBEDDING:
            reads, writes, flops = 2, 1, 2.0
        elif op_type is OpType.TRANSPOSE:
            reads, writes = 1, 1
            flops = float(attrs.get("flops_per_elem", 0.5))
        else:
            reads = int(attrs.get("reads", 1))
            writes = int(attrs.get("writes", 1))
            flops = float(attrs.get("flops_per_elem", 1.0))
        if fused_region:
            reads, writes = 1, 0
        nelems = lower_product(attrs["nelems"])
        kname = f"elementwise:{name}"
        elem_bytes = chars.precision_bytes

        def build() -> Tuple[CellEval, Symbols]:
            ne = _dim_eval(nelems)
            return (lambda b, ops=SCALAR: elementwise_terms(
                        device, ne(b), reads, writes, flops, elem_bytes, ops),
                    _free_symbols(nelems))

        return ("e", nelems, reads, writes, flops), kname, build

    def _lower_fused(
        self, node: OpNode
    ) -> Tuple[Hashable, str, Callable[[], Tuple[CellEval, Symbols]]]:
        lowered = []
        for op in node.attrs["fused_ops"]:
            op_type = OpType(op["op_type"])
            if op_type in (OpType.SOFTMAX, OpType.LAYERNORM):
                lowered.append(self._lower_reduction(op_type, op["name"],
                                                     op["attrs"]))
            elif op_type in (OpType.ELEMENTWISE, OpType.TRANSPOSE):
                lowered.append(self._lower_elementwise(
                    op_type, op["name"], op["attrs"], fused_region=True))
            else:
                raise ValueError(
                    f"fused node {node.name!r} contains unfusable op {op_type}"
                )
        name = f"fused:{node.name}"

        def build() -> Tuple[CellEval, Symbols]:
            built = [b() for _, _, b in lowered]
            parts = [fn for fn, _ in built]
            symbols = tuple(sorted({n for _, names in built for n in names}))

            def fn(b: DimBindings, ops: Ops = SCALAR) -> Terms:
                compute_s = 0.0
                memory_s = 0.0
                for part in parts:
                    part_compute, part_memory = part(b, ops)
                    compute_s += part_compute
                    memory_s += part_memory
                return compute_s, memory_s

            return fn, symbols

        key = ("f", tuple(k for k, _, _ in lowered))
        return key, name, build

    def _cell_total(self, fn: CellEval,
                    names: Symbols) -> Callable[[DimBindings], float]:
        """``bindings -> kernel_total_s(launch, *fn(bindings))`` for
        :meth:`total`, memoised by the values of the cell's own free
        symbols.  A constant cell is read once; a cell bound by every
        symbol of the graph is priced on each call, since a shape repeats
        only through the caller's cost rows."""
        launch_s = self._launch_s
        if not names:
            total_s = kernel_total_s(launch_s, *fn({}))
            return lambda b: total_s
        if names == self.symbols:
            return lambda b: kernel_total_s(launch_s, *fn(b))
        memo: Dict[Tuple[int, ...], float] = {}

        def memoised(b: DimBindings) -> float:
            key = tuple([b[n] for n in names])
            total_s = memo.get(key)
            if total_s is None:
                total_s = memo[key] = kernel_total_s(launch_s, *fn(b))
            return total_s

        return memoised

    # -- evaluation --------------------------------------------------------

    def timings(self, bindings: DimBindings) -> List[KernelTiming]:
        """Per-node timings — elementwise identical to ``graph_cost``.

        Shared cells are priced once; each node's own kernel name is
        stamped onto the cell's terms (equal floats in, equal floats out).
        """
        self.evals += 1
        cache: List[Optional[Terms]] = [None] * len(self._cells)
        out: List[KernelTiming] = []
        cells = self._cells
        launch_s = self._launch_s
        for ci, name in zip(self._node_cells, self._node_names):
            terms = cache[ci]
            if terms is None:
                terms = cache[ci] = cells[ci](bindings)
            out.append(KernelTiming(name, launch_s, *terms))
        return out

    def total(self, bindings: DimBindings) -> Tuple[float, int]:
        """(elapsed_s, launches) accumulated exactly like a Stream.

        Sums each node's ``launch + max(compute, memory)`` in execution
        order — the same float additions :meth:`repro.gpusim.Stream.submit`
        performs on ``total_s`` — so the result is bit-identical to
        draining :meth:`timings` through a Stream, without building a
        single :class:`KernelTiming`.  Each cell's total is memoised by the
        values of the symbols it depends on (a decode-step GEMM over
        ``batch`` alone is priced once per batch width, not once per
        ``(batch, past)`` shape).
        """
        self.evals += 1
        totals = [total(bindings) for total in self._cell_totals]
        elapsed = 0.0
        for ci in self._node_cells:
            elapsed += totals[ci]
        return elapsed, self.node_count

    def kernel_s(self, bindings: DimBindings) -> float:
        """One pass under async dispatch: device or host, whichever is slower."""
        elapsed_s, launches = self.total(bindings)
        return max(elapsed_s, self.chars.host_dispatch_s * launches)

    def row(self, bindings: DimBindings, symbol: str,
            values: np.ndarray) -> np.ndarray:
        """:meth:`kernel_s` of ``bindings`` with ``symbol`` bound to each
        of ``values`` (an int64 array) in turn, as a float64 array.

        A cell over ``symbol`` is evaluated once on the whole array (its
        float cores called with ``ops=ROW``); every other cell is a scalar
        read through :meth:`total`'s memo.  Node totals are added in
        execution order onto a zero row, then bound by host dispatch, so
        each entry goes through exactly the IEEE operations
        :meth:`kernel_s` performs for its value alone.
        """
        self.evals += 1
        varying = dict(bindings)
        varying[symbol] = values
        launch_s = self._launch_s
        totals = [kernel_total_s(launch_s, *fn(varying, ROW), ROW)
                  if symbol in names
                  else total(bindings)
                  for fn, names, total in zip(self._cells, self._cell_symbols,
                                              self._cell_totals)]
        elapsed = np.zeros(len(values))
        for ci in self._node_cells:
            elapsed += totals[ci]
        return np.maximum(elapsed,
                          self.chars.host_dispatch_s * self.node_count)

    def stats(self, prefix: str = "compiled") -> Dict[str, int]:
        """Deterministic host-path counters, keyed ``{prefix}_{name}``."""
        return {
            f"{prefix}_evals": self.evals,
            f"{prefix}_nodes": self.node_count,
            f"{prefix}_cells": self.cell_count,
            f"{prefix}_folded_nodes": self.folded_nodes,
        }

    def __len__(self) -> int:
        return self.node_count


def compile_graph(
    graph: ComputationGraph,
    chars: RuntimeCharacteristics,
    device: DeviceSpec,
) -> CompiledCostModel:
    """Compile an (already fused, if applicable) graph's pricing."""
    return CompiledCostModel(graph.nodes, chars, device)


def verify_equivalence(
    nodes: Iterable[OpNode],
    bindings_list: Sequence[DimBindings],
    chars: RuntimeCharacteristics,
    device: DeviceSpec,
    compiled: Optional[CompiledCostModel] = None,
) -> List[str]:
    """Cross-check compiled vs interpretive pricing; return mismatch strings.

    Bit-exact comparison, no tolerance: ``==`` on every KernelTiming field
    of :meth:`CompiledCostModel.timings`, and :meth:`CompiledCostModel.total`
    against the Stream-order sum of the interpretive ``total_s`` (the float
    path the runtimes price with).  An empty list means the two paths are
    indistinguishable on these shapes.
    """
    nodes = list(nodes)
    model = compiled or CompiledCostModel(nodes, chars, device)
    problems: List[str] = []
    for bindings in bindings_list:
        reference = graph_cost(nodes, bindings, chars, device)
        fast = model.timings(bindings)
        if len(reference) != len(fast):
            problems.append(
                f"{bindings}: node count {len(fast)} != {len(reference)}")
            continue
        for node, ref, got in zip(nodes, reference, fast):
            if (ref.name != got.name or ref.launch_s != got.launch_s
                    or ref.compute_s != got.compute_s
                    or ref.memory_s != got.memory_s):
                problems.append(
                    f"{bindings}: node {node.name!r}: compiled {got} "
                    f"!= interpretive {ref}")
        stream_s = 0.0
        for ref in reference:
            stream_s += ref.total_s
        total = model.total(bindings)
        if total != (stream_s, len(reference)):
            problems.append(
                f"{bindings}: total {total} != Stream-order sum "
                f"{(stream_s, len(reference))}")
    return problems
