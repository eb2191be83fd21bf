"""Padding-free ("packed") batching cost model.

The production TurboTransformers line later added *smart batching*: instead
of zero-padding a batch to its longest member, the requests' token
sequences are concatenated along the sequence axis.  Token-proportional
kernels (all GEMM projections, FFNs, elementwise sweeps, LayerNorm) then
process exactly ``sum(lengths)`` tokens with no waste; only the kernels
that are *quadratic* in the sequence length (attention scores/context and
the softmax over them) must still run per request.

This module prices a packed batch from the same symbolic graph: a node is
classified per-request if the ``seq`` symbol appears more than once in its
cost attributes (quadratic), and shared otherwise (priced once at the
total token count).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..gpusim import DeviceSpec, KernelTiming, Stream
from ..graph import ComputationGraph, OpNode, fuse_graph
from .cost import RuntimeCharacteristics, node_cost

_COST_ATTR_KEYS = ("m", "n", "k", "batch", "rows", "row_len", "nelems")


def _count_symbol(value, symbol: str) -> int:
    if isinstance(value, str):
        return 1 if value == symbol else 0
    if isinstance(value, (tuple, list)):
        return sum(_count_symbol(v, symbol) for v in value)
    return 0


def seq_occurrences(node: OpNode, symbol: str = "seq") -> int:
    """Total occurrences of ``symbol`` across the node's cost attrs.

    A GEMM with ``m=seq, n=seq`` or a softmax with ``rows=(.., seq),
    row_len=seq`` counts 2 — its cost is quadratic in the sequence length.
    FUSED nodes take the max over their constituents (one quadratic
    constituent makes the whole fused kernel per-request).
    """
    if node.op_type.value == "fused":
        return max(
            (
                sum(
                    _count_symbol(op["attrs"].get(key), symbol)
                    for key in _COST_ATTR_KEYS
                )
                for op in node.attrs.get("fused_ops", [])
            ),
            default=0,
        )
    return sum(
        _count_symbol(node.attrs.get(key), symbol) for key in _COST_ATTR_KEYS
    )


def is_quadratic_in_seq(node: OpNode) -> bool:
    """True for attention-core nodes whose cost grows with seq^2."""
    return seq_occurrences(node) >= 2


class PackedRuntime:
    """Prices padding-free batches over a model graph."""

    def __init__(
        self,
        graph: ComputationGraph,
        chars: RuntimeCharacteristics,
        device: DeviceSpec,
    ) -> None:
        self.graph = fuse_graph(graph) if chars.fuse_kernels else graph
        self.chars = chars
        self.device = device
        self._shared_nodes: List[OpNode] = []
        self._quadratic_nodes: List[OpNode] = []
        for node in self.graph.nodes:
            (self._quadratic_nodes if is_quadratic_in_seq(node)
             else self._shared_nodes).append(node)
        self._cache: Dict[Tuple[int, ...], float] = {}

    @property
    def quadratic_node_count(self) -> int:
        return len(self._quadratic_nodes)

    def packed_latency(self, lengths: Sequence[int]) -> float:
        """Latency of one packed batch containing the given request lengths."""
        if not lengths:
            raise ValueError("a packed batch needs at least one request")
        if any(l <= 0 for l in lengths):
            raise ValueError(f"lengths must be positive, got {list(lengths)}")
        key = tuple(sorted(lengths))
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        stream = Stream(trace_enabled=False)
        total_tokens = sum(lengths)
        # Token-proportional kernels sweep the concatenated batch once.
        shared_bindings = {"batch": 1, "seq": total_tokens}
        for node in self._shared_nodes:
            stream.submit(node_cost(node, shared_bindings, self.chars, self.device))
        # Quadratic (attention-core) kernels run per request — but share
        # launches: the per-request work is expressed as one batched kernel
        # per node, so only the device time is summed per request.
        for node in self._quadratic_nodes:
            for i, length in enumerate(lengths):
                timing = node_cost(node, {"batch": 1, "seq": length},
                                   self.chars, self.device)
                if i > 0:  # one launch per node, per-request device time
                    timing = KernelTiming(
                        name=timing.name, launch_s=0.0,
                        compute_s=timing.compute_s, memory_s=timing.memory_s,
                    )
                stream.submit(timing)
        host_s = self.chars.host_dispatch_s * stream.launches
        latency = max(stream.elapsed_s, host_s) + self.chars.fixed_overhead_s
        self._cache[key] = latency
        return latency
