"""Tensor lifetime analysis: graph + request dims -> usage records.

This is the bridge between the computation graph and the sequence-length-
aware allocator: once the request's ``(batch, seq_len)`` is known, every
intermediate tensor's byte size becomes concrete and its ``[first_op,
last_op]`` interval follows from the topological order (paper §4.2).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..memory.records import TensorUsageRecord
from .graph import ComputationGraph
from .tensor import DimBindings, TensorKind, resolve_dim


def tensor_usage_records(
    graph: ComputationGraph, bindings: DimBindings
) -> List[TensorUsageRecord]:
    """Compute usage records for every intermediate tensor of ``graph``.

    ``first_op`` is the producer's position in the topological order;
    ``last_op`` is the last consumer's position (or the producer's, for
    graph outputs that no later node reads).
    """
    graph.validate()
    order = graph.topo_sort()
    position: Dict[int, int] = {node_idx: pos for pos, node_idx in enumerate(order)}
    producers = graph.producer_index()
    consumers = graph.consumer_indices()

    records: List[TensorUsageRecord] = []
    for spec in graph.tensors.values():
        if spec.kind is not TensorKind.INTERMEDIATE:
            continue
        first = position[producers[spec.name]]
        uses = [position[c] for c in consumers[spec.name]]
        last = max(uses) if uses else first
        records.append(
            TensorUsageRecord(
                name=spec.name,
                first_op=first,
                last_op=last,
                size=spec.nbytes(bindings),
            )
        )
    return records


class UsageRecordTemplates:
    """Shape-independent usage-record structure, compiled once per graph.

    The ``[first_op, last_op]`` lifetime intervals and the record order are
    properties of the graph alone; only the byte sizes depend on the
    request's bindings, and each size is an exact integer product
    ``const * prod(bindings[symbol])``.  :meth:`evaluate` therefore
    produces records identical to :func:`tensor_usage_records` — same
    order, same fields, same integers — in one multiply per symbol per
    tensor instead of a full validate/topo-sort/consumer sweep.

    Like the compiled cost model, evaluation assumes positive integer
    bindings; unbound symbols raise ``KeyError``.
    """

    def __init__(self, graph: ComputationGraph) -> None:
        # Run the interpretive analysis machinery once to fix lifetimes.
        graph.validate()
        order = graph.topo_sort()
        position: Dict[int, int] = {n: p for p, n in enumerate(order)}
        producers = graph.producer_index()
        consumers = graph.consumer_indices()
        #: Per record: its size-independent fields (name, first_op,
        #: last_op), the constant factor of its byte size and the names
        #: of the symbols that multiply it.
        self.templates: List[Tuple[Dict[str, object], int, Tuple[str, ...]]] = []
        for spec in graph.tensors.values():
            if spec.kind is not TensorKind.INTERMEDIATE:
                continue
            first = position[producers[spec.name]]
            uses = [position[c] for c in consumers[spec.name]]
            last = max(uses) if uses else first
            const = spec.dtype_bytes
            symbols: List[str] = []
            for dim in spec.dims:
                if isinstance(dim, str):
                    symbols.append(dim)
                else:
                    const *= resolve_dim(dim, {})  # validates the literal
            # Validate the lifetime once, here, by building a probe record.
            TensorUsageRecord(name=spec.name, first_op=first, last_op=last,
                              size=1)
            self.templates.append((
                {"name": spec.name, "first_op": first, "last_op": last},
                const, tuple(symbols),
            ))

    def evaluate(self, bindings: DimBindings) -> List[TensorUsageRecord]:
        """Records under ``bindings`` — identical to the interpretive sweep.

        Lifetimes were validated once, at compile time, so each record is
        built without the dataclass ``__init__``/``__post_init__``; only
        the size, the one field that depends on ``bindings``, is checked.
        """
        new = object.__new__
        out: List[TensorUsageRecord] = []
        for fields, const, symbols in self.templates:
            size = const
            for symbol in symbols:
                size *= bindings[symbol]
            if size <= 0:
                raise ValueError(
                    f"{fields['name']}: size must be positive, got {size}")
            record = new(TensorUsageRecord)
            attrs = record.__dict__
            attrs.update(fields)
            attrs["size"] = size
            out.append(record)
        return out

    def __len__(self) -> int:
        return len(self.templates)
