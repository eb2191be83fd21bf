"""Batch schedulers, including the paper's DP scheduler (Algorithm 3).

Given the requests currently in the message queue and a profiled cost
function ``cost(seq_len, batch_size) -> seconds`` (the ``cached_cost`` table
from warm-up), a scheduler partitions the requests into padded batches.

The paper's formulation writes the cost term as a per-request average times
the batch size; we use the equivalent whole-batch latency directly.  Sorting
by length first means every candidate batch is a *contiguous* slice of the
sorted list padded to its last (longest) element — the key insight that
makes the O(n²) DP optimal over this family of schedules.
"""

from __future__ import annotations

import abc
import math
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

from .request import Batch, Request, make_batch, trusted_batch

CostFn = Callable[[int, int], float]
#: ``(order, ends, costs)``, see :meth:`BatchScheduler.partition`.
Partition = Tuple[List[Request], List[int], List[float]]

_seq_len = attrgetter("seq_len")


def _bad_cost(seq_len: int, batch: int, cost: float) -> ValueError:
    return ValueError(
        f"cost_fn({seq_len}, {batch}) returned {cost!r}: the cost of the "
        f"(seq_len, batch) cell must be a finite number of seconds >= 0")


class BatchScheduler(abc.ABC):
    """Partition pending requests into executable batches."""

    name: str = "base"

    @abc.abstractmethod
    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        """Return batches covering every request exactly once."""

    def partition(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> Partition:
        """The round as ``(order, ends, costs)``: batch ``k`` is
        ``order[ends[k - 1]:ends[k]]`` (from 0 for the first) and costs
        ``costs[k]`` seconds, in execution order.

        This default reads :meth:`schedule` and prices each batch with
        :func:`batch_execution_cost`, so ``cost_override`` and a padded
        batch dimension price as they execute."""
        order: List[Request] = []
        ends: List[int] = []
        costs: List[float] = []
        for batch in self.schedule(requests, cost_fn, max_batch):
            order.extend(batch.requests)
            ends.append(len(order))
            costs.append(batch_execution_cost(batch, cost_fn))
        return order, ends, costs

    @staticmethod
    def _check_args(requests: Sequence[Request], max_batch: int) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if not requests:
            raise ValueError("cannot schedule an empty request list")


class DPBatchScheduler(BatchScheduler):
    """Paper Algorithm 3: throughput-optimal batching via dynamic programming.

    ``states[i]`` is the minimum time to process the first ``i`` requests of
    the length-sorted list; the transition considers every batch ending at
    request ``i`` (up to ``max_batch`` long, padded to request ``i``'s
    length).  Reconstruction walks ``start_idx_list`` backwards.
    """

    name = "dp"

    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        self._check_args(requests, max_batch)
        # L1: sort in increasing order of sequence length (stable: FIFO ties).
        order = sorted(requests, key=lambda r: r.seq_len)
        n = len(order)
        states = [0.0] * (n + 1)
        start_idx = [0] * (n + 1)
        for i in range(1, n + 1):
            cur_length = order[i - 1].seq_len  # longest request in any batch ending at i
            best_cost = cost_fn(cur_length, 1) + states[i - 1]
            best_start = i - 1
            j = i - 1
            lower = max(0, i - max_batch)
            while j > lower:
                batch_size = i - j + 1
                tmp = states[j - 1] + cost_fn(cur_length, batch_size)
                if tmp < best_cost:
                    best_cost = tmp
                    best_start = j - 1
                j -= 1
            states[i] = best_cost
            start_idx[i] = best_start
        # L21-L26: reconstruct the optimal partition.
        batches: List[Batch] = []
        i = n
        while i > 0:
            start = start_idx[i]
            batches.append(make_batch(list(order[start:i])))
            i = start
        batches.reverse()
        return batches

    def optimal_makespan(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> float:
        """Total processing time of the optimal schedule (for tests)."""
        batches = self.schedule(requests, cost_fn, max_batch)
        return sum(cost_fn(b.padded_len, b.size) for b in batches)


class PrunedDPBatchScheduler(DPBatchScheduler):
    """Algorithm 3 with the host fast path: cost rows memoised per
    distinct length.

    Produces the *identical* partition to :class:`DPBatchScheduler` (not
    merely one of equal makespan).  Every transition for a position
    inside a run of equal sequence lengths prices batches from the same
    cost row ``C_L[s] = cost_fn(L, s)``.  Rows are built once per
    distinct length and memoized across rounds, so ``cost_fn`` is
    evaluated O(#distinct lengths x max_batch) times in all instead of
    O(n x max_batch) per round.  Each round runs the DP in full from
    fresh state lists: a hungry round drains the whole queue, so
    consecutive rounds share no request to resume from.  The name is
    kept for the CLI and callers (``"dp-pruned"``); no transition is
    pruned, since a warmed profile is not monotone (see
    :mod:`repro.runtime.profiler`).

    :meth:`partition` is the one DP body.  It hands back the batches as
    index ranges over the sorted order with the row cells the DP priced
    them with, so a caller that only needs ``(members, cost)`` per batch
    (the closed-form serving rounds) builds no :class:`Batch` and prices
    nothing twice.  :meth:`schedule` is ``partition`` plus one
    :func:`trusted_batch` per slice, since a contiguous slice of the
    sorted order padded to its last member cannot fail
    :class:`Batch`'s checks.

    Memoized rows are invalidated whenever ``cost_fn`` or ``max_batch``
    differ from the previous call (or via :meth:`reset`).  Instances are
    therefore stateful; share one per (server, cost table) like the
    other schedulers.
    """

    name = "dp-pruned"

    def __init__(self) -> None:
        self.reset()
        # Cumulative fast-path counters (read by ``repro bench``).
        self.rounds = 0
        self.cost_calls = 0

    def reset(self) -> None:
        """Drop memoized cost rows."""
        self._cost_fn: Optional[CostFn] = None
        self._max_batch: Optional[int] = None
        self._rows: dict = {}  # length -> [cost_fn(length, s) for s=1..max_batch]

    def _row(self, length: int, max_batch: int, cost_fn: CostFn) -> List[float]:
        """Price and memoise the row of ``length``.  A raising ``cost_fn``
        or a rejected cell stores no row and counts no calls."""
        row = [cost_fn(length, s) for s in range(1, max_batch + 1)]
        for s, cost in enumerate(row, 1):
            if not 0.0 <= cost < math.inf:
                raise _bad_cost(length, s, cost)
        self.cost_calls += len(row)
        self._rows[length] = row
        return row

    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        order, ends, _ = self.partition(requests, cost_fn, max_batch)
        # Each batch is a non-empty contiguous slice of the sorted order,
        # padded to its last (longest) member: nothing left to validate.
        batches: List[Batch] = []
        start = 0
        for end in ends:
            batches.append(trusted_batch(tuple(order[start:end]),
                                         order[end - 1].seq_len))
            start = end
        return batches

    def partition(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> Partition:
        """Algorithm 3 over the round's queue.  ``order`` is the
        length-sorted queue, and each cost is the memoised row cell
        ``cost_fn(L, size)`` the DP priced the batch with.

        The DP walks ``order`` itself, tries at most ``min(i, max_batch)``
        batch sizes at position ``i`` and records the cell it chose
        there, so the walk back reads each batch's cost off that record
        instead of looking its row up again."""
        if max_batch <= 0 or not requests:
            self._check_args(requests, max_batch)
        self.rounds += 1
        if cost_fn is not self._cost_fn or max_batch != self._max_batch:
            self.reset()
            self._cost_fn = cost_fn
            self._max_batch = max_batch
        rows = self._rows
        if len(requests) == 1:
            # Half the rounds of a light load: once its row is priced, a
            # lone request is one batch at the row's first cell.
            r = requests[0]
            row = rows.get(r.seq_len)
            if row is not None:
                return [r], [1], [row[0]]
        order = sorted(requests, key=_seq_len)
        states = [0.0]
        starts = [0]
        cells = [0.0]
        i = 0
        for r in order:
            row = rows.get(r.seq_len)
            if row is None:
                row = self._row(r.seq_len, max_batch, cost_fn)
            # Cell k prices a batch of k + 1 after states[i - k]; k
            # ascending == the reference DP's descending j, and strict-<
            # updates keep its exact tie-breaking.
            best_cost = states[i] + row[0]
            best = 0
            for k in range(1, i + 1 if i < max_batch else max_batch):
                candidate = states[i - k] + row[k]
                if candidate < best_cost:
                    best_cost = candidate
                    best = k
            states.append(best_cost)
            starts.append(i - best)
            cells.append(row[best])
            i += 1
        # L21-L26: walk the starts back; batch [start, i) pads to its
        # last member's length and costs the cell chosen at i.
        ends: List[int] = []
        costs: List[float] = []
        while i > 0:
            ends.append(i)
            costs.append(cells[i])
            i = starts[i]
        ends.reverse()
        costs.reverse()
        return order, ends, costs

    def stats(self) -> dict:
        """Cumulative fast-path counters (for bench/observability)."""
        return {
            "rounds": self.rounds,
            "cost_calls": self.cost_calls,
            "distinct_lengths": len(self._rows),
        }


class NaiveBatchScheduler(BatchScheduler):
    """Turbo-Naive-Batch baseline: everything in the queue into one batch
    (chunked at ``max_batch``), padded to the longest member."""

    name = "naive"

    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        self._check_args(requests, max_batch)
        return [
            make_batch(list(requests[i : i + max_batch]))
            for i in range(0, len(requests), max_batch)
        ]


class NoBatchScheduler(BatchScheduler):
    """No batching: one request per inference (Turbo/PyTorch-NoBatch)."""

    name = "nobatch"

    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        self._check_args(requests, max_batch)
        return [make_batch([r]) for r in requests]


class FixedPadScheduler(BatchScheduler):
    """TF-serving baseline: static batch size, every sequence padded to the
    model's maximum length, zero-request slots padded too."""

    name = "fixedpad"

    def __init__(self, pad_len: int, batch_size: int) -> None:
        if pad_len <= 0 or batch_size <= 0:
            raise ValueError(
                f"pad_len and batch_size must be positive, got {pad_len}, {batch_size}"
            )
        self.pad_len = pad_len
        self.batch_size = batch_size

    def schedule(
        self, requests: Sequence[Request], cost_fn: CostFn, max_batch: int
    ) -> List[Batch]:
        self._check_args(requests, max_batch)
        too_long = [r for r in requests if r.seq_len > self.pad_len]
        if too_long:
            raise ValueError(
                f"requests longer than the static pad length {self.pad_len}: "
                f"{[r.req_id for r in too_long[:3]]}"
            )
        return [
            make_batch(
                list(requests[i : i + self.batch_size]),
                execution_size=self.batch_size,
                padded_len=self.pad_len,
            )
            for i in range(0, len(requests), self.batch_size)
        ]


def round_padding_ratio(batches: Sequence[Batch]) -> float:
    """Fraction of executed tokens that are zero padding in one round."""
    executed = sum(b.padded_len * b.cost_batch_size for b in batches)
    if executed <= 0:
        return 0.0
    return sum(b.padding_waste for b in batches) / executed


def observe_round(
    batches: Sequence[Batch],
    now_s: float,
    scheduler_name: str,
    metrics=None,
    tracer=None,
) -> None:
    """Record one scheduling round's decisions (batches chosen, sizes,
    padding ratio) into an observability registry/tracer.

    ``metrics`` is a :class:`repro.observability.MetricsRegistry`,
    ``tracer`` a :class:`repro.observability.Tracer`; both optional so the
    uninstrumented hot path stays free.
    """
    ratio = round_padding_ratio(batches)
    if metrics is not None:
        metrics.counter("scheduler_rounds_total", scheduler=scheduler_name).inc()
        metrics.counter(
            "scheduler_batches_chosen_total", scheduler=scheduler_name
        ).inc(len(batches))
        metrics.gauge(
            "scheduler_padding_ratio", scheduler=scheduler_name
        ).set(ratio, t=now_s)
        size_hist = metrics.histogram("scheduler_batch_size",
                                      scheduler=scheduler_name)
        for b in batches:
            size_hist.observe(b.size)
    if tracer is not None and tracer.enabled:
        tracer.instant(
            "scheduling_round", now_s, tid="scheduler", cat="scheduler",
            batches=len(batches),
            requests=sum(b.size for b in batches),
            padding_ratio=round(ratio, 6),
        )
        tracer.counter("padding_ratio", now_s, {scheduler_name: ratio})


def batch_execution_cost(batch: Batch, cost_fn: CostFn) -> float:
    """Latency of executing one batch under the profiled cost function
    (schedulers with their own cost model may pin it via cost_override).
    A cost that is NaN, negative or infinite raises :class:`ValueError`
    naming its ``(seq_len, batch)`` cell."""
    if batch.cost_override is not None:
        return batch.cost_override
    cost = cost_fn(batch.padded_len, batch.cost_batch_size)
    if not 0.0 <= cost < math.inf:
        raise _bad_cost(batch.padded_len, batch.cost_batch_size, cost)
    return cost


def schedule_makespan(
    batches: Sequence[Batch], cost_fn: CostFn
) -> float:
    """Total serial execution time of a schedule."""
    return sum(batch_execution_cost(b, cost_fn) for b in batches)


def throughput_of_schedule(
    batches: Sequence[Batch], cost_fn: CostFn
) -> float:
    """Responses per second the schedule achieves (Fig. 9's metric)."""
    total_requests = sum(b.size for b in batches)
    makespan = schedule_makespan(batches, cost_fn)
    if makespan <= 0:
        raise ValueError("schedule has non-positive makespan")
    return total_requests / makespan


def contiguous_optimal_makespan(
    requests: Sequence[Request], cost_fn: CostFn, max_batch: Optional[int] = None
) -> float:
    """Optimum over contiguous partitions of the length-sorted list: the
    Algorithm 3 recurrence, memoised.  It cross-checks the DP's
    implementations, not the sort-then-partition step they share;
    the tests certify that step against an enumeration of every set
    partition.  Like every scheduler, it rejects an empty request list
    and a non-positive ``max_batch``."""
    BatchScheduler._check_args(requests,
                               1 if max_batch is None else max_batch)
    order = sorted(requests, key=lambda r: r.seq_len)
    n = len(order)
    if n > 20:
        raise ValueError("the reference is for small instances only")
    cap = max_batch if max_batch is not None else n
    best = {0: 0.0}

    def solve(i: int) -> float:
        if i in best:
            return best[i]
        result = float("inf")
        for j in range(max(0, i - cap), i):
            cost = cost_fn(order[i - 1].seq_len, i - j) + solve(j)
            result = min(result, cost)
        best[i] = result
        return result

    return solve(n)
