"""Simulated-GPU substrate: device specs, warp model, kernel roofline.

This package stands in for the physical CUDA devices of the paper's
evaluation (see DESIGN.md §2).  Everything here is a pure function of the
inputs — no randomness, no wall clock — so every experiment built on it is
bit-reproducible.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "RTX_2060": "device",
    "TESLA_M40": "device",
    "TESLA_V100": "device",
    "DeviceSpec": "device",
    "get_device": "device",
    "FP32_BYTES": "kernel",
    "KernelTiming": "kernel",
    "Terms": "kernel",
    "elementwise_terms": "kernel",
    "elementwise_time": "kernel",
    "gemm_terms": "kernel",
    "gemm_time": "kernel",
    "gemm_utilization": "kernel",
    "kernel_total_s": "kernel",
    "memcpy_time": "kernel",
    "CUDA_MALLOC_STALL_S": "memory",
    "DeviceMemory": "memory",
    "OutOfDeviceMemoryError": "memory",
    "KernelResources": "occupancy",
    "OccupancyResult": "occupancy",
    "device_resident_blocks": "occupancy",
    "occupancy": "occupancy",
    "Instruction": "pipeline",
    "schedule": "pipeline",
    "simulate_warp_allreduce": "pipeline",
    "DeviceSync": "multistream",
    "EventRecord": "multistream",
    "EventWait": "multistream",
    "KernelLaunch": "multistream",
    "OpTiming": "multistream",
    "ScheduleTiming": "multistream",
    "StreamSchedule": "multistream",
    "execute_schedule": "multistream",
    "RooflinePoint": "roofline",
    "RooflineReport": "roofline",
    "ridge_point": "roofline",
    "roofline_report": "roofline",
    "ReductionImpl": "reduction",
    "layernorm_terms": "reduction",
    "layernorm_time": "reduction",
    "reduction_speedup": "reduction",
    "softmax_terms": "reduction",
    "softmax_time": "reduction",
    "Stream": "stream",
    "boundary_divergence_cycles": "warp",
    "reduction_levels": "pipeline",
    "smem_tree_reduce_cycles": "warp",
    "warp_allreduce_cycles": "warp",
    "warp_allreduce_cycles_per_row": "warp",
})
