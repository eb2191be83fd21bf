"""Fig. 12 / Table 4: end-to-end serving throughput and latency.

Five systems serve the same Poisson / normal-length BERT workload on the
simulated RTX 2060:

* ``TF-serving``       — XLA-grade runtime, static batches padded to the
                         model maximum (500), the paper's worst case.
* ``PyTorch-NoBatch``  — PyTorch runtime, one request per inference.
* ``Turbo-NoBatch``    — Turbo runtime, one request per inference.
* ``Turbo-Naive-Batch``— Turbo runtime, whole queue in one padded batch.
* ``Turbo-DP-Batch``   — Turbo runtime, Algorithm 3 scheduler (hungry).

Fig. 12 sweeps the offered request rate and reports response throughput;
Table 4 reports avg (min, max) latency at each system's measured
saturation rate (the paper's 60/98/120/144 req/s are exactly its systems'
saturation points, so we recompute those points for our cost model).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..gpusim import RTX_2060, DeviceSpec
from ..models import bert_base, build_encoder_graph
from ..runtime import CostTable, pytorch_runtime, turbo_runtime, warmup_profile, xla_runtime
from ..serving import (
    BatchScheduler,
    CostFn,
    DPBatchScheduler,
    FixedPadScheduler,
    NaiveBatchScheduler,
    NoBatchScheduler,
    PrunedDPBatchScheduler,
    ServingConfig,
    ServingMetrics,
    generate_requests,
    simulate_serving,
)
from .tables import format_table

#: Static padding target of the TF-serving baseline (model max length).
TFSERVING_PAD = 500
TFSERVING_BATCH = 8

#: Offered request rates for the Fig. 12 sweep (req/s).
FIG12_RATES: Tuple[int, ...] = (20, 40, 60, 80, 100, 120, 150, 200, 400, 800, 1500)

#: Virtual seconds of offered load per simulation point.
DEFAULT_DURATION_S = 10.0

MAX_BATCH = 20


@dataclass(frozen=True)
class ServingSystem:
    """A named (scheduler, cost table) pair."""

    name: str
    scheduler: BatchScheduler
    cost_table: CostTable

    @cached_property
    def cost_fn(self) -> CostFn:
        """``cost_table.cost``, bound once per system: the DP scheduler
        keeps its memoised cost rows only while every point hands it the
        same function."""
        return self.cost_table.cost


class ServingBench:
    """Builds the systems (warm-up profiling included) once, runs many rates."""

    def __init__(self, device: DeviceSpec = RTX_2060, max_batch: int = MAX_BATCH) -> None:
        self.device = device
        self.max_batch = max_batch
        graph = build_encoder_graph(bert_base())
        lengths = range(16, 513, 16)
        turbo_table = warmup_profile(
            turbo_runtime(graph=graph, device=device), max_batch, lengths
        )
        pytorch_table = warmup_profile(
            pytorch_runtime(graph=graph, device=device), max_batch, lengths
        )
        tf_table = warmup_profile(
            xla_runtime(graph=graph, device=device), max_batch, lengths
        )
        self.systems: List[ServingSystem] = [
            ServingSystem("TF-serving",
                          FixedPadScheduler(TFSERVING_PAD, TFSERVING_BATCH), tf_table),
            ServingSystem("PyTorch-NoBatch", NoBatchScheduler(), pytorch_table),
            ServingSystem("Turbo-NoBatch", NoBatchScheduler(), turbo_table),
            ServingSystem("Turbo-Naive-Batch", NaiveBatchScheduler(), turbo_table),
            # Pruned DP emits the identical partition to DPBatchScheduler
            # (property-tested) but prices batches from memoized per-length
            # rows — same figure, a fraction of the host time.
            ServingSystem("Turbo-DP-Batch", PrunedDPBatchScheduler(), turbo_table),
        ]

    def system(self, name: str) -> ServingSystem:
        for s in self.systems:
            if s.name == name:
                return s
        raise KeyError(f"unknown serving system {name!r}")

    def run_point(
        self, system: ServingSystem, rate: float,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
    ) -> ServingMetrics:
        requests = generate_requests(rate, duration_s, seed=seed)
        return simulate_serving(
            requests,
            system.scheduler,
            system.cost_fn,
            ServingConfig(max_batch=self.max_batch),
            duration_s=duration_s,
            system_name=system.name,
        )

    def run_sweep(
        self, rates: Sequence[float] = FIG12_RATES,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
    ) -> Dict[str, List[ServingMetrics]]:
        return {
            system.name: [
                self.run_point(system, rate, duration_s, seed) for rate in rates
            ]
            for system in self.systems
        }

    def saturation_throughput(
        self, system: ServingSystem, overload_rate: float = 400.0,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
    ) -> float:
        """Service capacity: responses/s sustained under heavy overload."""
        return self.run_point(system, overload_rate, duration_s, seed).response_throughput


def run_table4(
    bench: Optional[ServingBench] = None,
    duration_s: float = DEFAULT_DURATION_S,
) -> Tuple[List[float], Dict[str, List[ServingMetrics]]]:
    """Latency table at the four Turbo/PyTorch systems' saturation rates.

    The paper's 60/98/120/144 req/s rows are its systems' saturation
    points with finite latency, i.e. the offered load sits just *below*
    each capacity; we therefore sample at 80% of the measured overload capacity (queue-depth
    effects make overload throughput exceed the stable-load capacity).
    """
    bench = bench or ServingBench()
    ordered = ["PyTorch-NoBatch", "Turbo-Naive-Batch", "Turbo-NoBatch", "Turbo-DP-Batch"]
    rates = [
        max(1, round(0.8 * bench.saturation_throughput(
            bench.system(name), duration_s=duration_s)))
        for name in ordered
    ]
    metrics = {
        name: [
            bench.run_point(bench.system(name), rate, duration_s) for rate in rates
        ]
        for name in ordered
    }
    return rates, metrics


def format_fig12(bench: Optional[ServingBench] = None) -> str:
    bench = bench or ServingBench()
    sweep = bench.run_sweep()
    rows = []
    for rate_idx, rate in enumerate(FIG12_RATES):
        cells: List[object] = [rate]
        for system in bench.systems:
            m = sweep[system.name][rate_idx]
            cells.append(f"{m.response_throughput:.0f}")
        rows.append(cells)
    return format_table(
        ["req/s"] + [s.name for s in bench.systems], rows
    )


def format_table4(bench: Optional[ServingBench] = None) -> str:
    bench = bench or ServingBench()
    rates, metrics = run_table4(bench)
    systems = list(metrics)
    rows = []
    for i, rate in enumerate(rates):
        cells: List[object] = [rate]
        for name in systems:
            m = metrics[name][i]
            cells.append("+inf" if m.saturated else m.latency.format_cell())
        rows.append(cells)
    return format_table(["req/s"] + systems, rows)
