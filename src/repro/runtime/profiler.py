"""Warm-up cost profiling: the ``cached_cost`` table of Algorithm 3.

After a service starts, the paper runs the runtime across all feasible
(sequence length, batch size) pairs and persists the measured latencies;
the DP batch scheduler then prices candidate batches from this table.  Here
the table wraps :meth:`InferenceRuntime.latency` with length bucketing
(rounding a length *up* to the nearest profiled one, the length the batch
is padded to) and optional JSON persistence — mirroring the paper's
store-on-disk/database behaviour.

Profiled cost is *not* monotone everywhere: kernel tiling makes some
cells cheaper than a smaller neighbour.  The BERT-base table warmed on
the RTX 2060 (lengths 16..512 step 16, batches 1..20) has 7 such cells —
lengths 80, 144 and 208 at batch 1 each price below the length 16
shorter, and batches 5, 9, 13 and 17 at length 16 each price below one
request fewer.  Algorithm 3's sort-then-partition step is provably
optimal only under a cost monotone in length, and a bound that prunes
DP transitions is sound only under a cost monotone in both, so the DP
scheduler prunes nothing and runs every transition.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .base import InferenceRuntime


class CostTable:
    """``cached_cost[seq_len][batch_size] -> seconds`` (paper Alg. 3 input).

    A length between profiled grid points is priced at its bucket, the
    measured cost at the length a server pads to.
    """

    def __init__(self, lengths: Iterable[int], max_batch: int) -> None:
        self.lengths: List[int] = sorted(set(int(x) for x in lengths))
        if not self.lengths or self.lengths[0] <= 0:
            raise ValueError(f"lengths must be positive, got {self.lengths[:3]}...")
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = max_batch
        self._grid = frozenset(self.lengths)
        self._table: Dict[int, Dict[int, float]] = {}
        self._bucket_memo: Dict[int, int] = {}
        self._row_memo: Dict[int, Dict[int, float]] = {}

    def bucket(self, seq_len: int) -> int:
        """Smallest profiled length >= seq_len (the length a batch is
        padded to), clamped to the largest profiled length.

        ``self.lengths`` is sorted, so the linear scan this used to do is
        a ``bisect_left``; schedulers price the same handful of lengths
        over and over, so resolved buckets are memoized.
        """
        cached = self._bucket_memo.get(seq_len)
        if cached is not None:
            return cached
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        index = bisect_left(self.lengths, seq_len)
        result = self.lengths[index] if index < len(self.lengths) else self.lengths[-1]
        self._bucket_memo[seq_len] = result
        return result

    def set(self, seq_len: int, batch: int, seconds: float) -> None:
        """Record a profiled cost; ``(seq_len, batch)`` must be a cell of
        the grid that :meth:`cost` reads."""
        if seq_len not in self._grid:
            raise ValueError(
                f"length {seq_len} is not on the profiled grid {self.lengths}"
            )
        if batch <= 0 or batch > self.max_batch:
            raise ValueError(f"batch must be in [1, {self.max_batch}], got {batch}")
        # ``not 0 < x < inf`` rejects NaN too, which ``json`` writes and
        # reads back, so a persisted table cannot smuggle one in.
        if not 0 < seconds < math.inf:
            raise ValueError(f"cost of cell ({seq_len}, {batch}) must be "
                             f"positive and finite, got {seconds}")
        self._table.setdefault(seq_len, {})[batch] = seconds

    def cost(self, seq_len: int, batch: int) -> float:
        """Latency of a batch of ``batch`` requests padded to ``seq_len``."""
        if batch <= 0 or batch > self.max_batch:
            raise ValueError(f"batch must be in [1, {self.max_batch}], got {batch}")
        # seq_len -> its bucket's row, so a call is one dict lookup;
        # only rows that exist are memoised, and set() updates a row in
        # place, so the memo never goes stale.
        row = self._row_memo.get(seq_len)
        if row is None:
            row = self._table.get(self.bucket(seq_len))
            if row is None:
                return self._entry(self.bucket(seq_len), batch)
            self._row_memo[seq_len] = row
        try:
            return row[batch]
        except KeyError:
            return self._entry(self.bucket(seq_len), batch)

    def _entry(self, length: int, batch: int) -> float:
        try:
            return self._table[length][batch]
        except KeyError:
            raise KeyError(
                f"cost table has no entry for length {length}, batch {batch}; "
                f"run warm-up profiling first"
            ) from None

    # -- persistence (the paper stores the table in a database/disk) --------

    def to_json(self, path: Union[str, Path]) -> None:
        payload = {
            "lengths": self.lengths,
            "max_batch": self.max_batch,
            "table": {str(k): {str(b): v for b, v in row.items()}
                      for k, row in self._table.items()},
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CostTable":
        payload = json.loads(Path(path).read_text())
        table = cls(payload["lengths"], payload["max_batch"])
        for length, row in payload["table"].items():
            for batch, seconds in row.items():
                table.set(int(length), int(batch), float(seconds))
        return table


def warmup_profile(
    runtime: InferenceRuntime,
    max_batch: int = 20,
    lengths: Optional[Iterable[int]] = None,
    max_length: int = 512,
    length_step: int = 16,
) -> CostTable:
    """Run the warm-up sweep and build the cost table.

    Default grid: lengths ``{step, 2*step, ..., max_length}`` x batches
    ``1..max_batch``, matching the paper's "all possible batch sizes and
    sequence lengths" at a practical granularity.
    """
    if lengths is None:
        lengths = range(length_step, max_length + 1, length_step)
    table = CostTable(lengths, max_batch)
    for length in table.lengths:
        for batch in range(1, max_batch + 1):
            table.set(length, batch, runtime.latency(batch, length))
    return table
