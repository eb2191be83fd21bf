"""What the benchmark runs: each workload's rate, size and capacity ladder.

``BENCHMARK.json`` at the repository root declares the workloads' names
and reasons, the run length and every metric's name, unit, direction and
bound; this module reads them from there.  Standard library only, so
``run.py`` can read it before any child process has imported NumPy or
the simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Run length the workload sizes below are set for.  ``--seconds``
#: scales every request count by ``seconds / RUN_SECONDS``.
RUN_SECONDS = float(DECLARED["run_seconds"])
_WHY = {w["name"]: w["why"] for w in DECLARED["workloads"]}

#: Smallest scaled run.
MIN_REQUESTS = 150


@dataclass(frozen=True)
class Workload:
    """One named traffic mix.

    ``requests`` requests arrive at ``rate`` req/s in the measured run of
    a ``RUN_SECONDS`` invocation.  ``ladder`` lists the capacity ladder's
    rates, ascending; a rung equal to ``rate`` reuses the measured run and
    every other rung runs ``rung_requests`` requests.
    """

    name: str
    kind: str  # "gen" (one server), "cluster" (two replicas) or "bert"
    rate: float
    requests: int
    ladder: Tuple[float, ...]
    rung_requests: int

    @property
    def why(self) -> str:
        return _WHY[self.name]

    def size(self, seconds: float, requests: int) -> int:
        """Request count of a run scaled to ``seconds``; at least
        ``MIN_REQUESTS`` so the tail percentile keeps 10 samples above
        it."""
        return max(MIN_REQUESTS, round(requests * seconds / RUN_SECONDS))

    @property
    def extra_rungs(self) -> Tuple[float, ...]:
        """Ladder rates that need runs of their own."""
        return tuple(r for r in self.ladder if r != self.rate)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("chat-mix", "gen", rate=20.0, requests=3000,
             ladder=(20.0, 30.0, 40.0), rung_requests=600),
    Workload("tenant-prefix", "gen", rate=65.0, requests=1200,
             ladder=(65.0,), rung_requests=0),
    Workload("replica-failover", "cluster", rate=50.0, requests=4000,
             ladder=(50.0,), rung_requests=0),
    Workload("bert-dp", "bert", rate=70.0, requests=168_000,
             ladder=(50.0, 60.0, 80.0), rung_requests=8400),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end metrics only


#: ``--trace 0``, in declaration order.
END_TO_END: Tuple[Metric, ...] = tuple(
    Metric(**m) for m in DECLARED["end_to_end"])
#: ``--trace 1``: one traced run.
PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(**m) for m in DECLARED["per_layer"])
