"""Batch-reduction kernel timing: Softmax and LayerNorm (paper §4.1.2).

Both kernels reduce a batch of independent 1-D rows:

* **Softmax** over attention scores: ``rows = batch * heads * seq_len``,
  ``row_len = seq_len`` — a max-reduction followed by a sum-reduction with
  elementwise ``exp``/divide in between.
* **LayerNorm** over hidden states: ``rows = batch * seq_len``,
  ``row_len = hidden_size`` — mean and variance reductions followed by an
  elementwise normalize.

Four implementations are priced (all share the same roofline memory term;
they differ in the compute/synchronization cycles the block spends):

``TURBO``
    The paper's contribution.  Softmax batches ``x_elems`` rows through
    ``warpAllReduceSum_XElem`` (one sync and one boundary region per group,
    interleaved shuffle chains).  LayerNorm additionally uses the
    ``Var(x) = E(x²) − E²(x)`` identity (Eq. 1) to fuse the mean and
    variance reductions into a single 2-element batched pass.
``FASTER_TRANSFORMER``
    Classical two-pass shuffle block reduction, one row at a time,
    one sync per pass, per-row boundary handling, latency-bound shuffles.
    LayerNorm does two *separate* reductions (x, then x − E(x)).
``CUDNN``
    Generic shared-memory tree reduction (no warp shuffles); baseline for
    the softmax series in Fig. 5.
``PYTORCH``
    Same tree reduction plus un-fused data movement (intermediates round-trip
    through global memory); this is the "before" column of Table 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import dims
from .device import DeviceSpec
from .kernel import FP32_BYTES, KernelTiming, Terms
from .warp import (
    boundary_divergence_cycles,
    smem_tree_reduce_cycles,
    warp_allreduce_cycles,
)

#: Approximate SM cycles to evaluate `exp` through the SFU pipeline.
EXP_CYCLES = 16
#: Cycles for a plain FP32 arithmetic op issued by one thread.
ARITH_CYCLES = 4
#: Maximum thread-block size used by the reduction kernels.
MAX_BLOCK_THREADS = 1024


class ReductionImpl(str, enum.Enum):
    """Which system's batch-reduction kernel is being priced."""

    TURBO = "turbo"
    FASTER_TRANSFORMER = "faster_transformer"
    CUDNN = "cudnn"
    PYTORCH = "pytorch"


@dataclass(frozen=True)
class BlockGeometry:
    """Thread-block shape chosen for a given row length (each field a
    row when ``row_len`` is one)."""

    threads: dims.Dim
    warps: dims.Dim
    blocks_resident: dims.Dim  # device-wide concurrent blocks

    @classmethod
    def for_row(cls, device: DeviceSpec, row_len: dims.Dim,
                ops: dims.Ops = dims.SCALAR) -> "BlockGeometry":
        if ops.any_of(row_len <= 0):
            raise ValueError(f"row_len must be positive, got {row_len}")
        threads = ops.minimum(
            MAX_BLOCK_THREADS,
            ops.ceil(row_len / device.warp_size) * device.warp_size,
        )
        warps = threads // device.warp_size
        per_sm = ops.maximum(1, device.max_threads_per_sm // threads)
        return cls(threads=threads, warps=warps, blocks_resident=per_sm * device.num_sms)


def _block_reduce_cycles(
    device: DeviceSpec,
    geometry: BlockGeometry,
    row_len: dims.Dim,
    x_elems: int,
    ops: dims.Ops,
) -> float:
    """Cycles for one two-pass shuffle block reduction of ``x_elems`` chains.

    Pass 1: every warp reduces its lanes (``x_elems`` interleaved chains);
    partials go to shared memory behind a barrier.  Pass 2 (only if the
    block has more than one warp): warp 0 reduces the partials, and the
    result is broadcast behind a second barrier.
    """
    shuffle = warp_allreduce_cycles(device, x_elems)
    barrier = device.smem_latency_cycles + device.sync_cycles
    cycles = shuffle + barrier
    cycles = ops.where(geometry.warps > 1, cycles + shuffle + barrier,
                       cycles)
    cycles += boundary_divergence_cycles(device, row_len, ops=ops) * x_elems
    return cycles


def _accumulate_cycles(geometry: BlockGeometry, row_len: dims.Dim,
                       ops: dims.Ops, rows: int = 1) -> float:
    """Cycles spent on the strided per-thread accumulation loads."""
    iters = ops.ceil(row_len / geometry.threads)
    return iters * ARITH_CYCLES * rows


def _waves(rows_groups: dims.Dim, geometry: BlockGeometry,
           ops: dims.Ops) -> dims.Dim:
    """Full device waves needed to run ``rows_groups`` thread blocks."""
    return ops.maximum(1, ops.ceil(rows_groups / geometry.blocks_resident))


def _elementwise_row_cycles(geometry: BlockGeometry, row_len: dims.Dim,
                            op_cycles: float, ops: dims.Ops) -> float:
    """Cycles for an elementwise sweep over one row by the whole block."""
    iters = ops.ceil(row_len / geometry.threads)
    return iters * op_cycles


def _compute_seconds(device: DeviceSpec, per_group_cycles: float,
                     groups: dims.Dim, geometry: BlockGeometry,
                     ops: dims.Ops) -> float:
    return device.cycles_to_seconds(_waves(groups, geometry, ops)
                                    * per_group_cycles)


#: Thread-block size the framework (PyTorch) reduction kernels launch with.
PYTORCH_BLOCK_THREADS = 128


def _pytorch_geometry(device: DeviceSpec, row_len: dims.Dim,
                      ops: dims.Ops) -> BlockGeometry:
    """Framework-kernel geometry: fixed small blocks, one resident per SM.

    The generic kernels are shared-memory bound, limiting residency to a
    single block per SM regardless of block size — the occupancy problem
    the paper's Table 2 "before" columns expose.
    """
    if ops.any_of(row_len <= 0):
        raise ValueError(f"row_len must be positive, got {row_len}")
    threads = ops.minimum(
        PYTORCH_BLOCK_THREADS,
        ops.ceil(row_len / device.warp_size) * device.warp_size)
    return BlockGeometry(
        threads=threads,
        warps=threads // device.warp_size,
        blocks_resident=device.num_sms,
    )


def _reduction_terms(stall_s: float, memory_s: float) -> Terms:
    """Assemble a reduction kernel's ``(compute_s, memory_s)``.

    Unlike streaming kernels, a reduction's barrier/shuffle stalls do NOT
    overlap its memory traffic — while a block sits at ``__syncthreads`` or
    in a dependent shuffle chain it issues no loads — so device time is the
    *sum* of traffic and stall.  Encoded as ``compute_s = memory + stall``
    so that ``KernelTiming.device_s`` (a max) yields the additive total;
    ``memory_s`` still reports pure traffic for attribution.
    """
    return memory_s + stall_s, memory_s


def softmax_terms(
    device: DeviceSpec,
    rows: dims.Dim,
    row_len: dims.Dim,
    impl: ReductionImpl = ReductionImpl.TURBO,
    x_elems: int = 2,
    elem_bytes: int = FP32_BYTES,
    ops: dims.Ops = dims.SCALAR,
) -> Terms:
    """``(compute_s, memory_s)`` of a batched softmax kernel: ``rows``
    independent rows of ``row_len``.

    The kernel computes ``max`` per row, then ``exp(x - max)``, then ``sum``
    per row, then the divide — two sequential reductions with elementwise
    work between them.
    """
    if ops.any_of(rows <= 0) or ops.any_of(row_len <= 0):
        raise ValueError(f"rows and row_len must be positive, got {rows}, {row_len}")
    if x_elems < 1:
        raise ValueError(f"x_elems must be >= 1, got {x_elems}")
    if impl is ReductionImpl.PYTORCH:
        geometry = _pytorch_geometry(device, row_len, ops)
    else:
        geometry = BlockGeometry.for_row(device, row_len, ops)

    # Elementwise component shared by every implementation: subtract + exp,
    # then divide, swept over the row once each.
    elem_cycles = _elementwise_row_cycles(
        geometry, row_len, EXP_CYCLES + ARITH_CYCLES, ops
    ) + _elementwise_row_cycles(geometry, row_len, ARITH_CYCLES, ops)

    if impl is ReductionImpl.TURBO:
        # x_elems rows share one block, one boundary region, one sync set.
        group_rows = x_elems
        reduce_cycles = 2 * _block_reduce_cycles(device, geometry, row_len,
                                                 x_elems, ops)
        group_cycles = (
            reduce_cycles
            + _accumulate_cycles(geometry, row_len, ops, rows=group_rows) * 2
            + elem_cycles * group_rows
        )
        memory_passes = 3  # read for max+exp (cached), read for sum, write out
    elif impl is ReductionImpl.FASTER_TRANSFORMER:
        group_rows = 1
        reduce_cycles = 2 * _block_reduce_cycles(device, geometry, row_len, 1, ops)
        group_cycles = (
            reduce_cycles + _accumulate_cycles(geometry, row_len, ops) * 2
            + elem_cycles
        )
        # Without the XElem batching the row cannot stay in registers across
        # the max and sum stages when the block cycles through rows one at a
        # time, so the classical kernel re-reads the row once more.
        memory_passes = 4
    elif impl is ReductionImpl.CUDNN:
        group_rows = 1
        reduce_cycles = 2 * smem_tree_reduce_cycles(device, geometry.threads,
                                                    ops)
        group_cycles = (
            reduce_cycles + _accumulate_cycles(geometry, row_len, ops) * 2
            + elem_cycles
        )
        # Generic library kernel: no register caching across the max and
        # sum stages, so the row is re-read per stage and the shifted
        # exponentials spill to global memory between stages.
        memory_passes = 10
    elif impl is ReductionImpl.PYTORCH:
        # The framework kernel: fixed 128-thread blocks, shared-memory tree
        # reductions, one resident block per SM (shared-memory bound), and
        # the max/exp/sum/div stages round-tripping through global memory.
        group_rows = 1
        reduce_cycles = 2 * smem_tree_reduce_cycles(device, geometry.threads,
                                                    ops)
        group_cycles = (
            reduce_cycles + _accumulate_cycles(geometry, row_len, ops) * 2
            + elem_cycles
        )
        # 8 logical passes (max / sub+exp / sum / div through global memory)
        # at ~4x effective traffic from uncoalesced inner-dim strides — the
        # pathology behind the 90.68% softmax share of Table 2.
        memory_passes = 40
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown impl {impl!r}")

    groups = ops.ceil(rows / group_rows)
    stall_s = _compute_seconds(device, group_cycles, groups, geometry, ops)
    memory_s = elem_bytes * rows * row_len * memory_passes / device.mem_bandwidth_bytes
    return _reduction_terms(stall_s, memory_s)


def softmax_time(
    device: DeviceSpec,
    rows: int,
    row_len: int,
    impl: ReductionImpl = ReductionImpl.TURBO,
    x_elems: int = 2,
    elem_bytes: int = FP32_BYTES,
) -> KernelTiming:
    """Price a batched softmax kernel (see :func:`softmax_terms`)."""
    compute_s, memory_s = softmax_terms(device, rows, row_len, impl,
                                        x_elems, elem_bytes)
    return KernelTiming(f"softmax[{impl.value}]", device.launch_overhead_s,
                        compute_s, memory_s)


def layernorm_terms(
    device: DeviceSpec,
    rows: dims.Dim,
    row_len: dims.Dim,
    impl: ReductionImpl = ReductionImpl.TURBO,
    one_pass_variance: bool | None = None,
    elem_bytes: int = FP32_BYTES,
    ops: dims.Ops = dims.SCALAR,
) -> Terms:
    """``(compute_s, memory_s)`` of a batched LayerNorm kernel.

    ``one_pass_variance`` selects the Eq. 1 trick (reduce ``x`` and ``x²``
    together as a 2-element batch).  It defaults to True for ``TURBO`` and
    False otherwise; pass it explicitly to ablate the trick in isolation.
    """
    if ops.any_of(rows <= 0) or ops.any_of(row_len <= 0):
        raise ValueError(f"rows and row_len must be positive, got {rows}, {row_len}")
    if impl is ReductionImpl.PYTORCH:
        geometry = _pytorch_geometry(device, row_len, ops)
    else:
        geometry = BlockGeometry.for_row(device, row_len, ops)
    if one_pass_variance is None:
        one_pass_variance = impl is ReductionImpl.TURBO

    # Elementwise normalize: (x - mean) * rstd * gamma + beta  (~4 ops/elem).
    elem_cycles = _elementwise_row_cycles(geometry, row_len, 4 * ARITH_CYCLES,
                                          ops)

    if impl in (ReductionImpl.TURBO, ReductionImpl.FASTER_TRANSFORMER):
        if one_pass_variance:
            # Single pass reducing (x, x²) as two interleaved chains.
            reduce_cycles = _block_reduce_cycles(device, geometry, row_len, 2, ops)
            accum = _accumulate_cycles(geometry, row_len, ops) * 2  # x and x*x
        else:
            # Mean pass, barrier, then variance pass over (x - mean)².
            reduce_cycles = 2 * _block_reduce_cycles(device, geometry, row_len,
                                                     1, ops)
            accum = _accumulate_cycles(geometry, row_len, ops) * 2
        group_cycles = reduce_cycles + accum + elem_cycles
        memory_passes = 3 if one_pass_variance else 4
    elif impl in (ReductionImpl.CUDNN, ReductionImpl.PYTORCH):
        reduce_passes = 1 if one_pass_variance else 2
        reduce_cycles = (
            reduce_passes
            * smem_tree_reduce_cycles(device, geometry.threads, ops) * 2
        )
        group_cycles = (
            reduce_cycles + _accumulate_cycles(geometry, row_len, ops) * 2
            + elem_cycles
        )
        # PyTorch's pre-fused LayerNorm decomposes into mean/var/normalize
        # kernels whose intermediates round-trip through global memory.
        memory_passes = 8 if impl is ReductionImpl.CUDNN else 20
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown impl {impl!r}")

    stall_s = _compute_seconds(device, group_cycles, rows, geometry, ops)
    memory_s = elem_bytes * rows * row_len * memory_passes / device.mem_bandwidth_bytes
    return _reduction_terms(stall_s, memory_s)


def layernorm_time(
    device: DeviceSpec,
    rows: int,
    row_len: int,
    impl: ReductionImpl = ReductionImpl.TURBO,
    one_pass_variance: bool | None = None,
    elem_bytes: int = FP32_BYTES,
) -> KernelTiming:
    """Price a batched LayerNorm kernel (see :func:`layernorm_terms`)."""
    compute_s, memory_s = layernorm_terms(device, rows, row_len, impl,
                                          one_pass_variance, elem_bytes)
    return KernelTiming(f"layernorm[{impl.value}]", device.launch_overhead_s,
                        compute_s, memory_s)


def reduction_speedup(
    device: DeviceSpec,
    rows: int,
    row_len: int,
    kernel: str,
    baseline: ReductionImpl,
    x_elems: int = 2,
) -> float:
    """Speedup of the Turbo kernel over ``baseline`` (Fig. 5 series)."""
    if kernel == "softmax":
        turbo = softmax_time(device, rows, row_len, ReductionImpl.TURBO, x_elems)
        base = softmax_time(device, rows, row_len, baseline)
    elif kernel == "layernorm":
        turbo = layernorm_time(device, rows, row_len, ReductionImpl.TURBO)
        base = layernorm_time(device, rows, row_len, baseline)
    else:
        raise ValueError(f"kernel must be 'softmax' or 'layernorm', got {kernel!r}")
    return base.total_s / turbo.total_s
