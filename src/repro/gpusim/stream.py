"""A CUDA-stream-like serial timeline.

Kernels enqueued on a stream execute back to back; the stream accumulates
simulated time and keeps a per-kernel trace so experiments can attribute
time to kernel categories (Table 2) or count launches (fusion ablation).

Attach a :class:`repro.observability.Tracer` (``tracer`` field) to emit
one Chrome-trace timeline event per kernel launch on the ``trace_tid``
track, with the roofline breakdown as event args.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .kernel import KernelTiming


@dataclass
class Stream:
    """Serial execution timeline for simulated kernels."""

    trace_enabled: bool = True
    elapsed_s: float = 0.0
    launches: int = 0
    trace: List[KernelTiming] = field(default_factory=list)
    tracer: Optional[object] = None  # repro.observability.Tracer
    trace_tid: str = "gpu.stream"
    _by_name: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def submit(self, timing: KernelTiming) -> None:
        """Enqueue one kernel; advances the stream clock by its total time."""
        started = self.elapsed_s
        self.elapsed_s += timing.total_s
        self.launches += 1
        self._by_name[timing.name] += timing.total_s
        if self.trace_enabled:
            self.trace.append(timing)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.complete(
                timing.name, started, timing.total_s, tid=self.trace_tid,
                cat="kernel", **timing.trace_args(),
            )

    def extend(self, timings: List[KernelTiming]) -> None:
        for timing in timings:
            self.submit(timing)

    def time_by_kernel(self) -> Dict[str, float]:
        """Total seconds attributed to each kernel name."""
        return dict(self._by_name)

    def time_matching(self, substring: str) -> float:
        """Total seconds over kernels whose name contains ``substring``."""
        return sum(t for name, t in self._by_name.items() if substring in name)

    def reset(self) -> None:
        self.elapsed_s = 0.0
        self.launches = 0
        self.trace.clear()
        self._by_name.clear()
