"""Service facade: model version management and ensembles (§2.2).

The paper lists the serving framework's advanced functionalities as
"batching, caching, model version management, and model ensembles".
Batching and caching live in :mod:`.scheduler`/:mod:`.cache`; this module
supplies the remaining two plus a front-end that wires everything together:

* :class:`ModelRegistry` — versioned model runtimes with an explicit
  serving pointer (deploy, canary-free rollback, retire);
* :func:`ensemble_cost_fn` — price a k-model ensemble executed serially on
  one GPU (the single-device deployment the paper evaluates);
* :class:`InferenceService` — MQ + response cache + batch scheduler +
  the registry's active model, driven through the discrete-event server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .cache import ResponseCache
from .metrics import ServingMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience import ResilienceConfig
    from ..resilience.degradation import DegradationLadder
from .request import Request
from .scheduler import BatchScheduler, CostFn, DPBatchScheduler
from .server import ServingConfig, simulate_serving


class ModelRegistryError(KeyError):
    """Unknown model/version or an illegal registry operation."""


@dataclass(frozen=True)
class ModelVersion:
    """One deployable model version: a name, a number and its cost model."""

    name: str
    version: int
    cost_fn: CostFn
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")


@dataclass
class ModelRegistry:
    """Versioned model store with an explicit serving pointer per model."""

    _versions: Dict[str, Dict[int, ModelVersion]] = field(default_factory=dict)
    _serving: Dict[str, int] = field(default_factory=dict)

    def register(self, model: ModelVersion) -> None:
        """Add a version; the first version of a model starts serving."""
        versions = self._versions.setdefault(model.name, {})
        if model.version in versions:
            raise ModelRegistryError(
                f"{model.name} v{model.version} is already registered"
            )
        versions[model.version] = model
        self._serving.setdefault(model.name, model.version)

    def get(self, name: str, version: Optional[int] = None) -> ModelVersion:
        """Fetch a specific version, or the one currently serving."""
        try:
            versions = self._versions[name]
        except KeyError:
            raise ModelRegistryError(f"unknown model {name!r}") from None
        if version is None:
            version = self._serving[name]
        try:
            return versions[version]
        except KeyError:
            raise ModelRegistryError(f"{name} has no version {version}") from None

    def serve_version(self, name: str, version: int) -> None:
        """Point the serving alias at ``version`` (deploy or roll back)."""
        self.get(name, version)  # validates
        self._serving[name] = version

    def serving_version(self, name: str) -> int:
        self.get(name)  # validates
        return self._serving[name]

    def retire(self, name: str, version: int) -> None:
        """Remove an old version; the serving version cannot be retired."""
        self.get(name, version)  # validates
        if self._serving[name] == version:
            raise ModelRegistryError(
                f"cannot retire {name} v{version}: it is currently serving"
            )
        del self._versions[name][version]

    def versions(self, name: str) -> List[int]:
        self.get(name)
        return sorted(self._versions[name])

    def models(self) -> List[str]:
        return sorted(self._versions)


def ensemble_cost_fn(members: Sequence[CostFn]) -> CostFn:
    """Price a model ensemble executed back-to-back on one GPU.

    A k-model ensemble answers every request with all k members (their
    outputs are combined host-side for free); on a single device the
    members serialize, so the batch cost is the sum of member costs.
    """
    member_list = list(members)
    if not member_list:
        raise ValueError("an ensemble needs at least one member")

    def cost(seq_len: int, batch: int) -> float:
        return sum(member(seq_len, batch) for member in member_list)

    return cost


class InferenceService:
    """The assembled Fig. 2 service: cache + scheduler + active model."""

    def __init__(
        self,
        registry: ModelRegistry,
        model_name: str,
        scheduler: Optional[BatchScheduler] = None,
        cache_capacity: int = 4096,
        max_batch: int = 20,
        metrics=None,
    ) -> None:
        self.registry = registry
        self.model_name = model_name
        self.registry.get(model_name)  # validate early
        self.scheduler = scheduler if scheduler is not None else DPBatchScheduler()
        self.metrics = metrics
        self.cache: ResponseCache = ResponseCache(capacity=cache_capacity,
                                                  metrics=metrics)
        self.max_batch = max_batch

    @property
    def active_model(self) -> ModelVersion:
        return self.registry.get(self.model_name)

    def degradation_ladder(
        self,
        versions: Optional[Sequence[int]] = None,
        shed_age_s: Optional[float] = None,
    ) -> "DegradationLadder":
        """Build a fallback ladder from this service's registered versions.

        By default the rungs are the serving version followed by every
        *older* version in descending order — the standard "fall back to
        the previous, cheaper deployment" shape.  ``shed_age_s`` arms load
        shedding on the final rung (queued requests older than it are
        dropped, the last line of defence).
        """
        from ..resilience.degradation import DegradationLadder

        if versions is None:
            current = self.registry.serving_version(self.model_name)
            older = [v for v in self.registry.versions(self.model_name)
                     if v < current]
            versions = [current] + sorted(older, reverse=True)
        return DegradationLadder.from_registry(
            self.registry, self.model_name, versions, shed_age_s=shed_age_s
        )

    def serve(
        self,
        requests: Sequence[Request],
        duration_s: Optional[float] = None,
        use_cache: bool = True,
        resilience: Optional["ResilienceConfig"] = None,
    ) -> ServingMetrics:
        """Serve a workload with the currently-deployed model version.

        ``resilience`` threads fault injection, deadlines, retries, a
        breaker and (via its ``degradation`` controller, typically built
        over :meth:`degradation_ladder`) model fallback through the run;
        ``None`` serves exactly as before.
        """
        model = self.active_model
        return simulate_serving(
            requests,
            self.scheduler,
            model.cost_fn,
            ServingConfig(max_batch=self.max_batch),
            duration_s=duration_s,
            system_name=f"{model.name}@v{model.version}",
            cache=self.cache if use_cache else None,
            resilience=resilience,
        )
