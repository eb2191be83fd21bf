"""Clipper-style adaptive batching (the paper's §2.2 baseline lineage).

Clipper "dynamically finds and adapts the maximum batch size" under a
latency SLO.  This scheduler reproduces that behaviour two ways, matching
Clipper's design:

* **model-based**: each batch is grown only while the profiled cost of the
  padded batch stays within the SLO budget;
* **AIMD feedback**: the global batch-size cap is additively increased
  after every SLO-compliant execution and multiplicatively decreased on a
  violation (the server reports observed latencies via :meth:`observe`).

Unlike the paper's DP scheduler it is *length-oblivious* — requests are
batched in arrival order — which is exactly the gap the DP scheduler
closes on variable-length workloads.
"""

from __future__ import annotations

from typing import List, Sequence

from .._checks import check_size
from .request import Batch, Request, make_batch
from .scheduler import BatchScheduler, CostFn


class AdaptiveBatchScheduler(BatchScheduler):
    """SLO-bounded arrival-order batching with an AIMD cap."""

    name = "adaptive"

    def __init__(
        self,
        latency_slo_s: float = 0.1,
        additive_step: int = 1,
        multiplicative_backoff: float = 0.5,
        initial_cap: int = 1,
    ) -> None:
        # ``not x > 0`` rejects NaN too, under which every ``cost <= slo``
        # test fails; an infinite SLO is legal and means none.
        if not latency_slo_s > 0:
            raise ValueError(f"latency_slo_s must be positive, got {latency_slo_s}")
        check_size("additive_step", additive_step)
        if not 0.0 < multiplicative_backoff < 1.0:
            raise ValueError(
                f"multiplicative_backoff must be in (0, 1), got {multiplicative_backoff}"
            )
        check_size("initial_cap", initial_cap)
        self.latency_slo_s = latency_slo_s
        self.additive_step = additive_step
        self.multiplicative_backoff = multiplicative_backoff
        self.cap = initial_cap
        self.slo_violations = 0
        self.observations = 0

    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        self._check_args(requests, max_batch)
        limit = min(self.cap, max_batch)
        batches: List[Batch] = []
        current: List[Request] = []
        current_max_len = 0
        for request in requests:  # arrival order (length-oblivious)
            candidate_len = max(current_max_len, request.seq_len)
            candidate_size = len(current) + 1
            fits_cap = candidate_size <= limit
            # Only price the candidate when it is within the cap — cost
            # tables may reject batch sizes beyond their profiled range.
            fits_slo = fits_cap and (
                cost_fn(candidate_len, candidate_size) <= self.latency_slo_s
            )
            if current and not (fits_cap and fits_slo):
                batches.append(make_batch(current))
                current, current_max_len = [], 0
            current.append(request)
            current_max_len = max(current_max_len, request.seq_len)
        if current:
            batches.append(make_batch(current))
        return batches

    def observe(self, batch: Batch, observed_latency_s: float) -> None:
        """AIMD feedback from the server after executing one batch."""
        self.observations += 1
        if observed_latency_s > self.latency_slo_s:
            self.slo_violations += 1
            self.cap = max(1, int(self.cap * self.multiplicative_backoff))
        else:
            self.cap += self.additive_step
