"""Graceful degradation: fall down a ladder of cheaper models under stress.

A :class:`DegradationLadder` is an ordered list of rungs, best first.  Each
rung serves with some cost function — in practice a cheaper
:class:`~repro.serving.service.ModelVersion` from the registry (distilled,
quantized, fewer layers) — and the final rung may be *shedding*: answer
nobody old, cheaply — queued requests older than ``shed_age_s`` are
dropped at admission, the last line of defence.

A :class:`DegradationController` owns one run's position on the ladder.
The serving loop calls :meth:`DegradationController.on_round` before each
scheduling round with the current queue depth and breaker state; the
controller escalates one rung when stressed (breaker open, or depth above
``depth_threshold``) and de-escalates when calm (breaker closed and depth
at or below half the threshold — the hysteresis gap prevents flapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

CostFn = Callable[[int, int], float]


@dataclass(frozen=True)
class DegradationRung:
    """One step of service quality.

    ``cost_fn`` prices batches at this rung; ``shed_age_s`` (optional)
    additionally sheds queued requests older than that age — set it on the
    last rung to bound the queue under extreme stress.  It must be
    positive (NaN is rejected); ``inf`` is legal and sheds nothing, like
    ``None``.  ``label`` names the rung in metrics/traces (e.g.
    ``bert@v2``, ``distilled``, ``shed``).
    """

    label: str
    cost_fn: CostFn
    shed_age_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("rung label must be non-empty")
        # Written so that NaN fails.
        if self.shed_age_s is not None and not self.shed_age_s > 0:
            raise ValueError(f"shed_age_s must be positive, got {self.shed_age_s}")


class DegradationLadder:
    """Ordered rungs, full service first, cheapest/shedding last."""

    def __init__(self, rungs: Sequence[DegradationRung]) -> None:
        if not rungs:
            raise ValueError("a degradation ladder needs at least one rung")
        self.rungs: Tuple[DegradationRung, ...] = tuple(rungs)

    def __len__(self) -> int:
        return len(self.rungs)

    @classmethod
    def from_registry(
        cls,
        registry,  # repro.serving.service.ModelRegistry
        model_name: str,
        versions: Sequence[int],
        shed_age_s: Optional[float] = None,
    ) -> "DegradationLadder":
        """Build a ladder from registry versions (best quality first).

        ``shed_age_s`` arms shedding on the *last* rung.
        """
        rungs: List[DegradationRung] = []
        for i, version in enumerate(versions):
            model = registry.get(model_name, version)
            last = i == len(versions) - 1
            rungs.append(DegradationRung(
                label=f"{model.name}@v{model.version}",
                cost_fn=model.cost_fn,
                shed_age_s=shed_age_s if last else None,
            ))
        return cls(rungs)


class DegradationController:
    """One run's position on a ladder, with hysteresis and an audit trail."""

    def __init__(
        self,
        ladder: DegradationLadder,
        depth_threshold: int = 64,
        metrics=None,  # Optional[repro.observability.MetricsRegistry]
    ) -> None:
        if depth_threshold < 1:
            raise ValueError(
                f"depth_threshold must be >= 1, got {depth_threshold}"
            )
        self.ladder = ladder
        self.depth_threshold = depth_threshold
        self.metrics = metrics
        self.level = 0
        #: (time, from_level, to_level) of every ladder move, in order.
        self.switches: List[Tuple[float, int, int]] = []

    @property
    def rung(self) -> DegradationRung:
        return self.ladder.rungs[self.level]

    @property
    def cost_fn(self) -> CostFn:
        return self.rung.cost_fn

    @property
    def shed_age_s(self) -> Optional[float]:
        return self.rung.shed_age_s

    def _move(self, to: int, now_s: float) -> None:
        frm = self.level
        if to == frm:
            return
        self.level = to
        self.switches.append((now_s, frm, to))
        if self.metrics is not None:
            self.metrics.counter(
                "degradation_switches_total", rung=self.ladder.rungs[to].label
            ).inc()
            self.metrics.gauge("degradation_level").set(to, t=now_s)

    def on_round(self, queue_depth: int, breaker_open: bool, now_s: float) -> None:
        """Adjust the ladder position before a scheduling round.

        Escalate one rung when stressed; de-escalate one rung when calm
        (hysteresis at half the depth threshold).  One rung per round keeps
        transitions observable and avoids overshooting on a single spike.
        """
        stressed = breaker_open or queue_depth > self.depth_threshold
        calm = not breaker_open and queue_depth <= self.depth_threshold // 2
        if stressed and self.level + 1 < len(self.ladder):
            self._move(self.level + 1, now_s)
        elif calm and self.level > 0:
            self._move(self.level - 1, now_s)
