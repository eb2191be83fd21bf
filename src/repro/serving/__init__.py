"""Serving framework: MQ, response cache, batch schedulers, event-driven server."""

from .adaptive import AdaptiveBatchScheduler
from .cache import ResponseCache
from .continuous import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    GenReplica,
    GenRequest,
    GenServingMetrics,
    KVPreemptionPolicy,
    RequestLevelGenerationServer,
    request_level_cost_fn,
)
from .ebird import simulate_ebird_serving
from .cluster import (
    ClusterMetrics,
    GenClusterMetrics,
    simulate_cluster,
    simulate_generation_cluster,
)
from .metrics import (
    LatencyStats,
    ResilienceStats,
    ServingMetrics,
    completed_requests,
    response_throughput,
)
from .mq import MessageQueue
from .packed import PackedBatchScheduler, PackedCostFn
from .priority import PriorityBatchScheduler
from .policies import HungryPolicy, LazyPolicy, TriggerPolicy
from .request import (
    Batch,
    Request,
    RequestNotCompleted,
    RequestState,
    make_batch,
)
from .scheduler import (
    BatchScheduler,
    CostFn,
    DPBatchScheduler,
    FixedPadScheduler,
    NaiveBatchScheduler,
    NoBatchScheduler,
    PrunedDPBatchScheduler,
    batch_execution_cost,
    contiguous_optimal_makespan,
    schedule_makespan,
    throughput_of_schedule,
)
from .router import Router, RoutingPolicy
from .server import BatchReplica, ServingConfig, simulate_serving
from .trace import TRACE_SCHEMA_VERSION, load_trace, save_trace
from .service import (
    InferenceService,
    ModelRegistry,
    ModelRegistryError,
    ModelVersion,
    ensemble_cost_fn,
)
from .workload import (
    MAX_LEN,
    MIN_LEN,
    bursty_arrivals,
    generate_generation_requests,
    generate_prefix_population_requests,
    generate_requests,
    geometric_output_lengths,
    normal_lengths,
    poisson_arrivals,
    uniform_lengths,
)

__all__ = [
    "AdaptiveBatchScheduler",
    "RoutingPolicy",
    "Router",
    "BatchReplica",
    "ClusterMetrics",
    "GenClusterMetrics",
    "GenReplica",
    "simulate_cluster",
    "simulate_generation_cluster",
    "PackedBatchScheduler",
    "PriorityBatchScheduler",
    "simulate_ebird_serving",
    "bursty_arrivals",
    "PackedCostFn",
    "Request",
    "RequestNotCompleted",
    "RequestState",
    "Batch",
    "make_batch",
    "MessageQueue",
    "ResponseCache",
    "BatchScheduler",
    "DPBatchScheduler",
    "PrunedDPBatchScheduler",
    "NaiveBatchScheduler",
    "NoBatchScheduler",
    "FixedPadScheduler",
    "CostFn",
    "batch_execution_cost",
    "schedule_makespan",
    "throughput_of_schedule",
    "contiguous_optimal_makespan",
    "TriggerPolicy",
    "HungryPolicy",
    "LazyPolicy",
    "ServingConfig",
    "InferenceService",
    "ModelRegistry",
    "ModelRegistryError",
    "ModelVersion",
    "ensemble_cost_fn",
    "save_trace",
    "load_trace",
    "TRACE_SCHEMA_VERSION",
    "simulate_serving",
    "LatencyStats",
    "ResilienceStats",
    "ServingMetrics",
    "response_throughput",
    "completed_requests",
    "generate_requests",
    "generate_generation_requests",
    "generate_prefix_population_requests",
    "geometric_output_lengths",
    "GenRequest",
    "GenServingMetrics",
    "KVPreemptionPolicy",
    "ContinuousBatchingConfig",
    "ContinuousBatchingServer",
    "RequestLevelGenerationServer",
    "request_level_cost_fn",
    "normal_lengths",
    "uniform_lengths",
    "poisson_arrivals",
    "MIN_LEN",
    "MAX_LEN",
]
