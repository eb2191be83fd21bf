"""Memory management: the paper's allocator (Alg. 1+2) and its baselines."""

from .base import BaseAllocator, RequestAllocation
from .caching import CachingAllocator, round_block_size
from .chunk import (
    DEFAULT_CHUNK_SIZE,
    K_SCALE,
    Chunk,
    ChunkAssignment,
    best_fit,
    new_chunk_size,
)
from .gsoc import GsocAllocator, gsoc_offsets
from .kv_arena import (
    KVArenaError,
    KVCacheArena,
    KVPage,
    KVRegion,
    kv_bytes_per_token,
)
from .naive import NaiveAllocator
from .plan import AllocationPlan, Placement, PlanError, validate_plan
from .prefix_index import RadixPrefixIndex
from .plan_cache import (
    CachedPlan,
    PlanCache,
    chunk_fingerprint,
    records_signature,
)
from .records import TensorUsageRecord, peak_live_bytes, sort_by_size
from .stats import MB, AllocatorWorkloadResult, run_allocator_workload
from .turbo import TurboAllocator

__all__ = [
    "TensorUsageRecord",
    "sort_by_size",
    "peak_live_bytes",
    "Chunk",
    "ChunkAssignment",
    "DEFAULT_CHUNK_SIZE",
    "K_SCALE",
    "best_fit",
    "new_chunk_size",
    "AllocationPlan",
    "Placement",
    "PlanError",
    "validate_plan",
    "BaseAllocator",
    "RequestAllocation",
    "PlanCache",
    "CachedPlan",
    "records_signature",
    "chunk_fingerprint",
    "TurboAllocator",
    "KVCacheArena",
    "KVPage",
    "KVRegion",
    "KVArenaError",
    "kv_bytes_per_token",
    "RadixPrefixIndex",
    "GsocAllocator",
    "gsoc_offsets",
    "CachingAllocator",
    "round_block_size",
    "NaiveAllocator",
    "MB",
    "AllocatorWorkloadResult",
    "run_allocator_workload",
]
