"""Padding-free batch scheduler (the "smart batching" extension).

Pairs with :class:`repro.runtime.packed.PackedRuntime`: requests are
concatenated rather than padded, so batching composition no longer trades
off padding waste — the scheduler simply fills batches in arrival order up
to a request cap and a total-token cap (the GEMM ``m`` dimension), and pins
each batch's execution cost from the packed cost model via
``Batch.cost_override``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .._checks import check_size
from .request import Batch, Request, make_batch
from .scheduler import BatchScheduler, CostFn

PackedCostFn = Callable[[Sequence[int]], float]


class PackedBatchScheduler(BatchScheduler):
    """Concatenating scheduler bounded by request and token caps."""

    name = "packed"

    def __init__(self, packed_cost_fn: PackedCostFn, max_tokens: int = 4096) -> None:
        check_size("max_tokens", max_tokens)
        self.packed_cost_fn = packed_cost_fn
        self.max_tokens = max_tokens

    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        self._check_args(requests, max_batch)
        batches: List[Batch] = []
        current: List[Request] = []
        tokens = 0
        for request in requests:
            over_requests = len(current) >= max_batch
            over_tokens = tokens + request.seq_len > self.max_tokens
            if current and (over_requests or over_tokens):
                batches.append(self._finish(current))
                current, tokens = [], 0
            current.append(request)
            tokens += request.seq_len
        if current:
            batches.append(self._finish(current))
        return batches

    def _finish(self, requests: List[Request]) -> Batch:
        lengths = [r.seq_len for r in requests]
        return make_batch(requests, cost_override=self.packed_cost_fn(lengths))
