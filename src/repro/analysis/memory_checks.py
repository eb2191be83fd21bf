"""Memory-plan verifier (MEM2xx): the allocator's safety net, generalized.

``memory/plan.py::validate_plan`` raised on the *first* violation; this
module is the same ground truth as an analysis pass — it walks the whole
plan and reports every bounds breach (MEM202), every pair of live tensors
that alias (MEM203) and any record/placement coverage gap (MEM201) as
structured diagnostics.  ``validate_plan`` now delegates here, so the
property-based allocator tests and ``python -m repro check`` exercise one
implementation.

Two extensions beyond the original validator:

* :func:`check_cross_request` — when two requests are in flight
  *concurrently* (double-buffered streams), their op-index lifetimes are
  mutually incomparable, so any byte overlap inside a shared chunk is
  aliasing (MEM204) no matter the intervals.
* :func:`fragmentation_report` — per-chunk utilization of a plan
  (peak live bytes vs. chunk size, gap bytes at the peak op), surfaced as
  MEM210 info / MEM211 warnings so footprint regressions show up in CI
  without failing it.

:func:`arena_diag_code` maps each :meth:`KVCacheArena.verify` message to
its MEM22x code, for every caller that turns the arena audit into
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..memory.plan import AllocationPlan, Placement
from ..memory.records import TensorUsageRecord, peak_live_bytes
from .diagnostics import Diagnostic, diag


def check_plan(
    plan: AllocationPlan,
    records: Sequence[TensorUsageRecord],
    *,
    graph: Optional[str] = None,
) -> List[Diagnostic]:
    """All MEM201/202/203 violations of one request's plan.

    Message text for the core invariants matches the historical
    ``validate_plan`` wording (tests match on substrings of it).
    """
    out: List[Diagnostic] = []
    by_name = {r.name: r for r in records}
    if set(plan.placements) != set(by_name):
        missing = set(by_name) - set(plan.placements)
        extra = set(plan.placements) - set(by_name)
        out.append(diag(
            "MEM201",
            f"plan/records mismatch: missing={missing} extra={extra}",
            graph=graph,
        ))

    by_chunk: Dict[int, List[Tuple[TensorUsageRecord, Placement]]] = {}
    for name, placement in plan.placements.items():
        record = by_name.get(name)
        if record is None:
            continue  # already covered by MEM201
        if placement.chunk_id not in plan.chunk_sizes:
            out.append(diag(
                "MEM202",
                f"{name!r} placed in unknown chunk {placement.chunk_id}",
                graph=graph, node=name,
            ))
            continue
        size = plan.chunk_sizes[placement.chunk_id]
        if placement.offset < 0 or placement.offset + record.size > size:
            out.append(diag(
                "MEM202",
                f"{name!r} ({record.size} B at {placement.offset}) exceeds "
                f"chunk {placement.chunk_id} of {size} B",
                graph=graph, node=name,
            ))
        by_chunk.setdefault(placement.chunk_id, []).append((record, placement))

    for chunk_id, entries in sorted(by_chunk.items()):
        entries.sort(key=lambda e: (e[1].offset, e[0].name))
        for i, (rec_a, place_a) in enumerate(entries):
            for rec_b, place_b in entries[i + 1:]:
                if not rec_a.overlaps(rec_b):
                    continue  # disjoint lifetimes may alias
                a0, a1 = place_a.offset, place_a.offset + rec_a.size
                b0, b1 = place_b.offset, place_b.offset + rec_b.size
                if a0 < b1 and b0 < a1:
                    out.append(diag(
                        "MEM203",
                        f"live tensors {rec_a.name!r} and {rec_b.name!r} "
                        f"overlap in chunk {chunk_id}: [{a0},{a1}) vs "
                        f"[{b0},{b1})",
                        graph=graph, node=rec_a.name,
                    ))
    return out


def arena_diag_code(message: str) -> str:
    """The code of one :meth:`~repro.memory.KVCacheArena.verify` message:
    MEM221 for a region outliving its request, MEM224 for a refcount or
    token-counter conservation breach, MEM220 for a slot-pool violation."""
    if "(leak)" in message:
        return "MEM221"
    if "refcount" in message or "(accounting drift)" in message:
        return "MEM224"
    return "MEM220"


def check_cross_request(
    plans: Mapping[str, Tuple[AllocationPlan, Sequence[TensorUsageRecord]]],
) -> List[Diagnostic]:
    """MEM204: byte overlap between *concurrent* requests' placements.

    ``plans`` maps a request label to its (plan, records); all entries are
    taken to be in flight at once over one shared chunk-id space (e.g.
    per-stream double buffering against a common device pool).  Lifetime
    intervals are per-request op indices and therefore incomparable across
    requests, so concurrent requests must occupy disjoint byte ranges in
    any chunk they share.
    """
    out: List[Diagnostic] = []
    sizes: Dict[str, Dict[str, int]] = {
        label: {r.name: r.size for r in records}
        for label, (plan, records) in plans.items()
    }
    labels = sorted(plans)
    for i, label_a in enumerate(labels):
        plan_a = plans[label_a][0]
        for label_b in labels[i + 1:]:
            plan_b = plans[label_b][0]
            for name_a, place_a in sorted(plan_a.placements.items()):
                size_a = sizes[label_a].get(name_a)
                if size_a is None:
                    continue
                for name_b, place_b in sorted(plan_b.placements.items()):
                    if place_a.chunk_id != place_b.chunk_id:
                        continue
                    size_b = sizes[label_b].get(name_b)
                    if size_b is None:
                        continue
                    a0, a1 = place_a.offset, place_a.offset + size_a
                    b0, b1 = place_b.offset, place_b.offset + size_b
                    if a0 < b1 and b0 < a1:
                        out.append(diag(
                            "MEM204",
                            f"concurrent requests {label_a!r} and {label_b!r} "
                            f"alias in chunk {place_a.chunk_id}: "
                            f"{name_a!r} [{a0},{a1}) vs {name_b!r} [{b0},{b1})",
                            node=name_a,
                        ))
    return out


@dataclass(frozen=True)
class ChunkStats:
    """Utilization of one chunk under one plan."""

    chunk_id: int
    size: int
    peak_live_bytes: int
    resident_tensors: int

    @property
    def utilization(self) -> float:
        return self.peak_live_bytes / self.size if self.size else 0.0


@dataclass(frozen=True)
class FragmentationReport:
    """Plan-wide packing quality for the chunked allocator (Fig. 6/7)."""

    chunks: Tuple[ChunkStats, ...]
    footprint_bytes: int       # sum of all chunk sizes
    peak_live_bytes: int       # lower bound any plan must pay
    plan_peak_bytes: int       # sum over chunks of their peak live bytes

    @property
    def packing_overhead(self) -> float:
        """Footprint relative to the theoretical lower bound (>= 1.0)."""
        if self.peak_live_bytes == 0:
            return 1.0
        return self.footprint_bytes / self.peak_live_bytes


def fragmentation_report(
    plan: AllocationPlan, records: Sequence[TensorUsageRecord]
) -> FragmentationReport:
    """Per-chunk peak-liveness stats for one plan."""
    by_name = {r.name: r for r in records}
    per_chunk: Dict[int, List[TensorUsageRecord]] = {
        chunk_id: [] for chunk_id in plan.chunk_sizes
    }
    for name, placement in plan.placements.items():
        record = by_name.get(name)
        if record is not None and placement.chunk_id in per_chunk:
            per_chunk[placement.chunk_id].append(record)
    chunks = tuple(
        ChunkStats(
            chunk_id=chunk_id,
            size=plan.chunk_sizes[chunk_id],
            peak_live_bytes=peak_live_bytes(residents),
            resident_tensors=len(residents),
        )
        for chunk_id, residents in sorted(per_chunk.items())
    )
    return FragmentationReport(
        chunks=chunks,
        footprint_bytes=plan.footprint_bytes,
        peak_live_bytes=peak_live_bytes(list(by_name.values())),
        plan_peak_bytes=sum(c.peak_live_bytes for c in chunks),
    )


def check_fragmentation(
    plan: AllocationPlan,
    records: Sequence[TensorUsageRecord],
    *,
    graph: Optional[str] = None,
    warn_below: float = 0.25,
) -> List[Diagnostic]:
    """MEM210 info summary plus MEM211 warnings for badly packed chunks.

    ``warn_below`` only fires for multi-tensor chunks: a dedicated
    oversize chunk (one resident sized by ``K_SCALE``) is the algorithm
    working as designed, not fragmentation.
    """
    report = fragmentation_report(plan, records)
    out: List[Diagnostic] = [diag(
        "MEM210",
        f"{len(report.chunks)} chunk(s), footprint {report.footprint_bytes} B, "
        f"peak live {report.peak_live_bytes} B, packing overhead "
        f"{report.packing_overhead:.2f}x",
        graph=graph,
    )]
    for stats in report.chunks:
        if stats.resident_tensors > 1 and stats.utilization < warn_below:
            out.append(diag(
                "MEM211",
                f"chunk {stats.chunk_id} peaks at {stats.peak_live_bytes} B "
                f"of {stats.size} B ({stats.utilization:.0%} utilized, "
                f"{stats.resident_tensors} tensors)",
                graph=graph, node=f"chunk{stats.chunk_id}",
            ))
    return out
