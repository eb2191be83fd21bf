"""Warp-level instruction timing model.

This module prices the *inner loop* of GPU batch-reduction kernels: the
shuffle-based warp reduction that both FasterTransformer's classical
implementation and TurboTransformers' ``warpAllReduceSum_XElem`` are built
from (paper Fig. 4).

A warp reduction over 32 lanes takes ``log2(32) = 5`` tree levels.  At each
level a lane executes ``SHFL_DOWN`` followed by ``FADD``; the ``FADD`` cannot
issue until the shuffle's target register is ready, so a *single* reduction
is latency-bound:

    level cost = shuffle_latency + alu_latency          (X = 1)

The paper's observation is that reducing ``X`` independent rows *together*
interleaves ``X`` dependence chains.  While chain ``i`` waits on its shuffle
result, the scheduler issues the shuffle of chain ``i+1``, so the latency of
one chain hides the issue slots of the others:

    total(X) = 5 * (shuffle_latency + alu_latency) + (X-1) * 5 * 2 * issue
    per-row(X) = total(X) / X                           (≈ 1/X for small X)

These closed forms are what :func:`warp_allreduce_cycles` returns, and the
whole Fig. 5 reproduction rests on them.
"""

from __future__ import annotations

import math

from .device import DeviceSpec
from .pipeline import reduction_levels, simulate_warp_allreduce

_ALLREDUCE_CACHE: dict = {}


def warp_allreduce_cycles(device: DeviceSpec, x_elems: int = 1) -> float:
    """Cycles for one warp to reduce ``x_elems`` independent rows together.

    ``x_elems = 1`` is the classical FasterTransformer ``warpReduceSum``:
    every ``FADD`` stalls on the preceding ``SHFL_DOWN`` for its full result
    latency.  ``x_elems >= 2`` is ``warpAllReduceSum_XElem``: the ``X``
    dependence chains are interleaved so the scheduler issues chain
    ``i+1``'s shuffle while chain ``i`` waits on its result.

    The number comes from the instruction-level scoreboard in
    :mod:`repro.gpusim.pipeline`, which schedules the actual Fig. 4
    instruction stream.  The closed-form upper bound
    ``levels * (chain_latency + (X-1) * 2 * issue)`` is available as
    :func:`warp_allreduce_cycles_bound`.

    Returns the *total* cycles to finish all ``x_elems`` reductions; divide
    by ``x_elems`` for the amortized per-row cost.
    """
    if x_elems < 1:
        raise ValueError(f"x_elems must be >= 1, got {x_elems}")
    key = (device.warp_size, device.shuffle_latency_cycles,
           device.alu_latency_cycles, device.issue_cycles, x_elems)
    cached = _ALLREDUCE_CACHE.get(key)
    if cached is None:
        cached = float(simulate_warp_allreduce(device, x_elems))
        _ALLREDUCE_CACHE[key] = cached
    return cached


def warp_allreduce_cycles_bound(device: DeviceSpec, x_elems: int = 1) -> float:
    """Closed-form upper bound on :func:`warp_allreduce_cycles`.

    Per butterfly level the critical chain pays its full SHFL->FADD
    latency and every additional chain adds two issue slots.  Exact at
    ``x_elems = 1``; conservative for larger X, where the scoreboard shows
    extra issue slots hide inside the latency window.
    """
    if x_elems < 1:
        raise ValueError(f"x_elems must be >= 1, got {x_elems}")
    levels = reduction_levels(device.warp_size)
    chain_latency = device.shuffle_latency_cycles + device.alu_latency_cycles
    per_level = chain_latency + (x_elems - 1) * 2 * device.issue_cycles
    return levels * per_level


def warp_allreduce_cycles_per_row(device: DeviceSpec, x_elems: int = 1) -> float:
    """Amortized cycles per reduced row (see :func:`warp_allreduce_cycles`)."""
    return warp_allreduce_cycles(device, x_elems) / x_elems


def smem_tree_reduce_cycles(device: DeviceSpec, block_threads: int) -> float:
    """Cycles for a shared-memory tree reduction across a thread block.

    This is the pre-Kepler style reduction (no warp shuffles): ``log2(T)``
    halving steps, each performing a shared-memory load + add + store and a
    block-wide barrier.  We use it to model the generic cuDNN softmax and
    the unoptimized PyTorch reduction kernels that the paper measures
    against (Table 2 "before", Fig. 5 cuDNN series).
    """
    if block_threads <= 0:
        raise ValueError(f"block_threads must be positive, got {block_threads}")
    steps = max(1, int(math.ceil(math.log2(block_threads))))
    per_step = (
        2 * device.smem_latency_cycles  # load partial + store result
        + device.alu_latency_cycles
        + device.sync_cycles  # barrier between halving steps
    )
    return steps * per_step


def boundary_divergence_cycles(
    device: DeviceSpec, row_length: int, rows_merged: int = 1
) -> float:
    """Divergence penalty for rows whose length is not warp-aligned.

    Classical kernels pay the boundary-handling branch once per row
    (``rows_merged = 1``).  ``warpAllReduceSum_XElem`` merges the boundary
    processing of ``X`` rows into a single predicated region, so the
    penalty is amortized over ``rows_merged`` rows.  Returns the *per-row*
    cost.
    """
    if row_length <= 0:
        raise ValueError(f"row_length must be positive, got {row_length}")
    if rows_merged < 1:
        raise ValueError(f"rows_merged must be >= 1, got {rows_merged}")
    if row_length % device.warp_size == 0:
        return 0.0
    return device.divergence_penalty_cycles / rows_merged
