"""Simulated-GPU substrate: device specs, warp model, kernel roofline.

This package stands in for the physical CUDA devices of the paper's
evaluation (see DESIGN.md §2).  Everything here is a pure function of the
inputs — no randomness, no wall clock — so every experiment built on it is
bit-reproducible.
"""

from .device import RTX_2060, TESLA_M40, TESLA_V100, DeviceSpec, get_device
from .kernel import (
    FP32_BYTES,
    KernelTiming,
    Terms,
    elementwise_terms,
    elementwise_time,
    gemm_terms,
    gemm_time,
    gemm_utilization,
    kernel_total_s,
    memcpy_time,
)
from .memory import CUDA_MALLOC_STALL_S, DeviceMemory, OutOfDeviceMemoryError
from .occupancy import (
    KernelResources,
    OccupancyResult,
    device_resident_blocks,
    occupancy,
)
from .pipeline import Instruction, schedule, simulate_warp_allreduce
from .multistream import (
    DeviceSync,
    EventRecord,
    EventWait,
    KernelLaunch,
    OpTiming,
    ScheduleTiming,
    StreamSchedule,
    execute_schedule,
)
from .roofline import RooflinePoint, RooflineReport, ridge_point, roofline_report
from .reduction import (
    ReductionImpl,
    layernorm_terms,
    layernorm_time,
    reduction_speedup,
    softmax_terms,
    softmax_time,
)
from .stream import Stream
from .warp import (
    boundary_divergence_cycles,
    reduction_levels,
    smem_tree_reduce_cycles,
    warp_allreduce_cycles,
    warp_allreduce_cycles_per_row,
)

__all__ = [
    "DeviceSpec",
    "get_device",
    "TESLA_V100",
    "RTX_2060",
    "TESLA_M40",
    "KernelTiming",
    "Terms",
    "kernel_total_s",
    "gemm_terms",
    "gemm_time",
    "gemm_utilization",
    "elementwise_terms",
    "elementwise_time",
    "memcpy_time",
    "FP32_BYTES",
    "DeviceMemory",
    "OutOfDeviceMemoryError",
    "CUDA_MALLOC_STALL_S",
    "KernelResources",
    "OccupancyResult",
    "occupancy",
    "device_resident_blocks",
    "Instruction",
    "schedule",
    "simulate_warp_allreduce",
    "RooflinePoint",
    "RooflineReport",
    "ridge_point",
    "roofline_report",
    "ReductionImpl",
    "softmax_terms",
    "softmax_time",
    "layernorm_terms",
    "layernorm_time",
    "reduction_speedup",
    "Stream",
    "StreamSchedule",
    "KernelLaunch",
    "EventRecord",
    "EventWait",
    "DeviceSync",
    "OpTiming",
    "ScheduleTiming",
    "execute_schedule",
    "warp_allreduce_cycles",
    "warp_allreduce_cycles_per_row",
    "smem_tree_reduce_cycles",
    "boundary_divergence_cycles",
    "reduction_levels",
]
