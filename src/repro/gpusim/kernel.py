"""Roofline-style kernel cost model.

Each simulated CUDA kernel is priced as::

    total = launch_overhead + max(compute_time, memory_time)

which is the classical roofline: a kernel is either compute-bound or
bandwidth-bound, and every kernel pays the host launch latency.  GEMM
efficiency additionally degrades for small problems that cannot fill the
device (this is what makes batching profitable, Fig. 8, and what makes the
per-kernel launch overhead dominate tiny inferences, §4.1.1).

Each kernel model has a float core, ``*_terms``, returning ``(compute_s,
memory_s)``, and a wrapper, ``*_time``, stamping those terms into a
:class:`KernelTiming`.  The arithmetic lives only in the core; a caller
that needs just the total (the compiled cost model's running sum) adds
:func:`kernel_total_s` of the terms without building a timing.

The float cores take their dims as Python ints, or as int64 NumPy rows
with ``ops=dims.ROW`` (the generation runtime prices a block of lengths
in one pass); the few calls that differ between the two come from the
``ops`` namespace (:mod:`repro.gpusim.dims`), whose default is
:mod:`math` and the builtins, so a scalar caller still gets builtin
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import dims
from .device import DeviceSpec

#: Bytes per FP32 element; the paper's systems serve FP32 models.
FP32_BYTES = 4

#: Fraction of peak FLOPs a well-tuned large GEMM sustains (cuBLAS-like).
GEMM_PEAK_EFFICIENCY = 0.75

#: GEMM tile edge used for utilization estimates (threadblock tile).
GEMM_TILE = 64

#: Fraction of peak FLOPs elementwise kernels can sustain (no FMA chains).
ELEMENTWISE_PEAK_EFFICIENCY = 0.25

#: A kernel's ``(compute_s, memory_s)``: the float core of its timing.
Terms = Tuple[float, float]


def _check_term(field: str, value: float,
                ops: dims.Ops = dims.SCALAR) -> None:
    if not ops.finite_nonneg(value):
        raise ValueError(f"{field} must be finite and >= 0, got {value}")


def kernel_total_s(launch_s: float, compute_s: float, memory_s: float,
                   ops: dims.Ops = dims.SCALAR) -> float:
    """``launch_s + max(compute_s, memory_s)``: the
    :attr:`KernelTiming.total_s` of these terms, checked the same way
    (finite and >= 0), without building the timing.  Elementwise for
    rows of terms (``ops=dims.ROW``)."""
    if not ops.finite_nonneg(launch_s, compute_s, memory_s):
        _check_term("launch_s", launch_s, ops)
        _check_term("compute_s", compute_s, ops)
        _check_term("memory_s", memory_s, ops)
    return launch_s + ops.maximum(compute_s, memory_s)


@dataclass(frozen=True)
class KernelTiming:
    """Cost breakdown of one simulated kernel launch.

    ``total_s`` is what callers should accumulate; the components are kept
    for profiling experiments (Table 2 attributes time per kernel kind).
    """

    name: str
    launch_s: float
    compute_s: float
    memory_s: float

    def __post_init__(self) -> None:
        for field in ("launch_s", "compute_s", "memory_s"):
            _check_term(field, getattr(self, field))

    @property
    def device_s(self) -> float:
        """On-device execution time (roofline max of compute and memory)."""
        return max(self.compute_s, self.memory_s)

    @property
    def total_s(self) -> float:
        """Launch overhead plus on-device time."""
        return self.launch_s + self.device_s

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_s >= self.compute_s

    def trace_args(self) -> dict:
        """Attribute dict for this kernel's timeline event (Chrome trace
        ``args``): the roofline breakdown, in microseconds for readability."""
        return {
            "launch_us": self.launch_s * 1e6,
            "compute_us": self.compute_s * 1e6,
            "memory_us": self.memory_s * 1e6,
            "bound": "memory" if self.is_memory_bound else "compute",
        }

    def scaled(self, factor: float) -> "KernelTiming":
        """Return a copy with device time scaled (used for baseline derates)."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return KernelTiming(
            name=self.name,
            launch_s=self.launch_s,
            compute_s=self.compute_s * factor,
            memory_s=self.memory_s * factor,
        )

    def stalled(self, factor: float) -> "KernelTiming":
        """Return a copy slowed by a fault-injected stall.

        Unlike :meth:`scaled` (a device derate that leaves host launch
        overhead alone), a stall delays the whole launch — a wedged SM or
        preempted context holds up host progress too — so every component
        is stretched.  ``factor`` must be >= 1 (stalls never speed up).
        """
        if factor < 1.0:
            raise ValueError(f"stall factor must be >= 1, got {factor}")
        if factor == 1.0:
            return self
        return KernelTiming(
            name=self.name,
            launch_s=self.launch_s * factor,
            compute_s=self.compute_s * factor,
            memory_s=self.memory_s * factor,
        )


def gemm_utilization(device: DeviceSpec, m: dims.Dim, n: dims.Dim,
                     batch: dims.Dim = 1,
                     ops: dims.Ops = dims.SCALAR) -> float:
    """Fraction of peak a GEMM of output shape (m, n) x batch achieves.

    A GEMM is decomposed into ``GEMM_TILE``-square output tiles; one SM
    keeps roughly two tiles in flight.  Efficiency rises with the square
    root of the fill ratio (partial waves still overlap memory and math)
    and saturates at 1 — this soft curve is what makes batching profitable
    for short sequences (Fig. 8) while long single requests already run
    near peak.
    """
    tiles = ops.ceil(m / GEMM_TILE) * ops.ceil(n / GEMM_TILE) * batch
    slots = 2 * device.num_sms
    return ops.minimum(1.0, ops.sqrt(tiles / slots))


def gemm_terms(
    device: DeviceSpec,
    m: dims.Dim,
    n: dims.Dim,
    k: dims.Dim,
    batch: dims.Dim = 1,
    elem_bytes: int = FP32_BYTES,
    ops: dims.Ops = dims.SCALAR,
) -> Terms:
    """``(compute_s, memory_s)`` of a (possibly batched) GEMM:
    C[m,n] += A[m,k] @ B[k,n].

    ``elem_bytes`` selects the precision: 4 for FP32 (the paper's serving
    mode), 2 for FP16 — halving traffic and doubling the arithmetic rate
    (packed half2 math), the extension benchmarked in
    ``benchmarks/test_extension_fp16.py``.
    """
    if ops.any_of(ops.minimum(m, n, k, batch) <= 0):
        raise ValueError(f"GEMM dims must be positive, got m={m} n={n} k={k} batch={batch}")
    _check_elem_bytes(elem_bytes)
    flops = 2.0 * m * n * k * batch
    bytes_moved = elem_bytes * batch * (m * k + k * n + m * n)
    efficiency = GEMM_PEAK_EFFICIENCY * gemm_utilization(device, m, n, batch,
                                                         ops)
    rate = device.peak_fp32_flops * (FP32_BYTES / elem_bytes)
    compute_s = flops / (rate * efficiency)
    memory_s = bytes_moved / device.mem_bandwidth_bytes
    return compute_s, memory_s


def gemm_time(
    device: DeviceSpec,
    m: int,
    n: int,
    k: int,
    batch: int = 1,
    name: str = "gemm",
    elem_bytes: int = FP32_BYTES,
) -> KernelTiming:
    """Price a (possibly batched) GEMM (see :func:`gemm_terms`)."""
    compute_s, memory_s = gemm_terms(device, m, n, k, batch, elem_bytes)
    return KernelTiming(
        name=name,
        launch_s=device.launch_overhead_s,
        compute_s=compute_s,
        memory_s=memory_s,
    )


def _check_elem_bytes(elem_bytes: int) -> None:
    if elem_bytes not in (2, 4):
        raise ValueError(f"elem_bytes must be 2 (FP16) or 4 (FP32), got {elem_bytes}")


def elementwise_terms(
    device: DeviceSpec,
    nelems: dims.Dim,
    reads: int = 1,
    writes: int = 1,
    flops_per_elem: float = 1.0,
    elem_bytes: int = FP32_BYTES,
    ops: dims.Ops = dims.SCALAR,
) -> Terms:
    """``(compute_s, memory_s)`` of an elementwise kernel touching
    ``nelems`` values.

    ``reads``/``writes`` count full passes over the data; fusing kernels is
    modeled exactly as reducing these pass counts (and the launch count).
    """
    if ops.any_of(nelems <= 0):
        raise ValueError(f"nelems must be positive, got {nelems}")
    if reads < 0 or writes < 0 or reads + writes == 0:
        raise ValueError(f"need at least one memory pass, got reads={reads} writes={writes}")
    _check_elem_bytes(elem_bytes)
    bytes_moved = elem_bytes * nelems * (reads + writes)
    compute_s = (nelems * flops_per_elem) / (
        device.peak_fp32_flops * ELEMENTWISE_PEAK_EFFICIENCY
    )
    memory_s = bytes_moved / device.mem_bandwidth_bytes
    return compute_s, memory_s


def elementwise_time(
    device: DeviceSpec,
    nelems: int,
    reads: int = 1,
    writes: int = 1,
    flops_per_elem: float = 1.0,
    name: str = "elementwise",
    elem_bytes: int = FP32_BYTES,
) -> KernelTiming:
    """Price an elementwise kernel (see :func:`elementwise_terms`)."""
    compute_s, memory_s = elementwise_terms(device, nelems, reads, writes,
                                            flops_per_elem, elem_bytes)
    return KernelTiming(
        name=name,
        launch_s=device.launch_overhead_s,
        compute_s=compute_s,
        memory_s=memory_s,
    )


def memcpy_time(device: DeviceSpec, nbytes: int, name: str = "memcpy") -> KernelTiming:
    """Price a device-to-device copy of ``nbytes`` (read + write traffic)."""
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    return KernelTiming(
        name=name,
        launch_s=device.launch_overhead_s,
        compute_s=0.0,
        memory_s=2.0 * nbytes / device.mem_bandwidth_bytes,
    )
