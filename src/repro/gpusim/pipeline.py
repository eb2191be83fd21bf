"""Instruction-level scoreboard simulator for warp reduction pipelines.

:mod:`repro.gpusim.warp` prices ``warpAllReduceSum_XElem`` with closed-form
expressions.  This module *derives* those numbers by actually scheduling
the instruction stream of Fig. 4 through a scoreboard model: a single warp
scheduler issues one instruction per ``issue_cycles`` in program order, and
an instruction cannot issue until its source registers' producing
instructions have completed (result latency).  The test suite checks the
closed forms against this simulator across devices and X values, so the
Fig. 5 results rest on a mechanically-verified model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .device import DeviceSpec


def reduction_levels(warp_size: int) -> int:
    """Number of butterfly levels for a full-warp shuffle reduction."""
    if warp_size <= 0 or warp_size & (warp_size - 1):
        raise ValueError(f"warp_size must be a power of two, got {warp_size}")
    return int(math.log2(warp_size))


@dataclass(frozen=True)
class Instruction:
    """One instruction: a destination register, sources, result latency."""

    opcode: str
    dest: str
    sources: Tuple[str, ...]
    latency: int

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError(f"latency must be >= 1, got {self.latency}")
        if not self.dest:
            raise ValueError("dest register must be named")


@dataclass
class ScoreboardResult:
    """Outcome of scheduling a stream: total cycles + per-instruction issue."""

    total_cycles: int
    issue_cycle: List[int] = field(default_factory=list)


def schedule(instructions: Sequence[Instruction], issue_cycles: int = 1
             ) -> ScoreboardResult:
    """In-order, single-issue scoreboard scheduling.

    An instruction issues at the later of (a) the next issue slot and
    (b) the ready times of all its sources; it completes ``latency``
    cycles after issue.  Returns the cycle at which the last instruction
    completes.
    """
    if issue_cycles < 1:
        raise ValueError(f"issue_cycles must be >= 1, got {issue_cycles}")
    ready: Dict[str, int] = {}
    next_issue = 0
    finish = 0
    issued: List[int] = []
    for inst in instructions:
        operands_ready = max((ready.get(src, 0) for src in inst.sources), default=0)
        issue_at = max(next_issue, operands_ready)
        complete_at = issue_at + inst.latency
        ready[inst.dest] = complete_at
        next_issue = issue_at + issue_cycles
        finish = max(finish, complete_at)
        issued.append(issue_at)
    return ScoreboardResult(total_cycles=finish, issue_cycle=issued)


def warp_allreduce_program(device: DeviceSpec, x_elems: int) -> List[Instruction]:
    """The Fig. 4 instruction stream for ``x_elems`` interleaved reductions.

    At each butterfly level the stream issues the ``X`` chains' SHFL_DOWNs
    back to back, then their FADDs — the interleaving that lets chain
    ``i+1``'s shuffle issue while chain ``i`` waits on its result.
    """
    if x_elems < 1:
        raise ValueError(f"x_elems must be >= 1, got {x_elems}")
    levels = reduction_levels(device.warp_size)
    program: List[Instruction] = []
    # acc_c holds chain c's running partial; initially "ready".
    for level in range(levels):
        for chain in range(x_elems):
            program.append(Instruction(
                opcode="SHFL_DOWN",
                dest=f"shfl_{level}_{chain}",
                sources=(f"acc_{level}_{chain}" if level > 0 else f"in_{chain}",),
                latency=device.shuffle_latency_cycles,
            ))
        for chain in range(x_elems):
            program.append(Instruction(
                opcode="FADD",
                dest=f"acc_{level + 1}_{chain}",
                sources=(
                    f"shfl_{level}_{chain}",
                    f"acc_{level}_{chain}" if level > 0 else f"in_{chain}",
                ),
                latency=device.alu_latency_cycles,
            ))
    return program


def simulate_warp_allreduce(device: DeviceSpec, x_elems: int) -> int:
    """Scoreboard-simulated cycles for ``x_elems`` interleaved reductions."""
    result = schedule(
        warp_allreduce_program(device, x_elems),
        issue_cycles=device.issue_cycles,
    )
    return result.total_cycles
