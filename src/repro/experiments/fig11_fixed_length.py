"""Fig. 11: runtime comparison on the fixed-length BERT task.

Every runtime is tuned (offline) for each exact input dimension; the grid
is sequence lengths 10-500 x batch {1, 20} on both the simulated RTX 2060
and Tesla V100.  Values are normalized speedups of TurboTransformers over
each baseline (> 1 means Turbo is faster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..gpusim import RTX_2060, DeviceSpec
from ..models import bert_base, build_encoder_graph
from ..runtime import (
    fastertransformer_runtime,
    onnxruntime_runtime,
    tensorrt_runtime,
    turbo_runtime,
    xla_runtime,
)
from .tables import format_table

FIG11_LENGTHS: Tuple[int, ...] = (10, 50, 100, 150, 200, 250, 300, 350, 400, 500)
FIG11_BATCHES: Tuple[int, ...] = (1, 20)

BASELINE_FACTORIES = {
    "TensorFlow-XLA": xla_runtime,
    "FasterTransformers": fastertransformer_runtime,
    "TensorRT": tensorrt_runtime,
    "onnxruntime": onnxruntime_runtime,
}


@dataclass(frozen=True)
class FixedLengthCase:
    device: str
    batch: int
    seq: int
    turbo_s: float
    baseline_s: Dict[str, float]

    def speedup(self, baseline: str) -> float:
        return self.baseline_s[baseline] / self.turbo_s


def run_fig11(
    device: DeviceSpec,
    lengths: Sequence[int] = FIG11_LENGTHS,
    batches: Sequence[int] = FIG11_BATCHES,
) -> List[FixedLengthCase]:
    graph = build_encoder_graph(bert_base())
    turbo = turbo_runtime(graph=graph, device=device)
    baselines = {
        name: factory(graph=graph, device=device)
        for name, factory in BASELINE_FACTORIES.items()
    }
    cases: List[FixedLengthCase] = []
    for batch in batches:
        for seq in lengths:
            cases.append(
                FixedLengthCase(
                    device=device.name,
                    batch=batch,
                    seq=seq,
                    turbo_s=turbo.latency(batch, seq),
                    baseline_s={
                        name: rt.latency(batch, seq) for name, rt in baselines.items()
                    },
                )
            )
    return cases


def win_count(cases: Sequence[FixedLengthCase], baseline: str) -> int:
    """Cases where Turbo strictly beats the given baseline."""
    return sum(1 for c in cases if c.speedup(baseline) > 1.0)


def format_fig11(device: DeviceSpec = RTX_2060) -> str:
    cases = run_fig11(device)
    names = sorted(BASELINE_FACTORIES)
    rows = [
        [f"({c.batch},{c.seq})"] + [f"{c.speedup(n):.2f}x" for n in names]
        for c in cases
    ]
    table = format_table(["(batch,seq)"] + names, rows)
    summary = ", ".join(
        f"turbo beats {n} in {win_count(cases, n)}/{len(cases)}" for n in names
    )
    return f"[{device.name}] {summary}\n{table}"
