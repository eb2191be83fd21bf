"""Allocation plans: tensor -> (chunk, offset) maps, with validation.

A plan is correct iff (a) every tensor lies inside its chunk and (b) no two
tensors whose lifetimes overlap also overlap in bytes within one chunk.
:func:`validate_plan` checks both and is used by the property-based tests
as the ground-truth invariant for every allocator.

The Algorithm 1 planner hands its plans the per-chunk assignment tuples
it already snapshots for the plan cache; the name -> placement map is
built from them only when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from .chunk import ChunkAssignment
from .records import TensorUsageRecord


class PlanError(ValueError):
    """An allocation plan violates a safety invariant."""


@dataclass(frozen=True)
class Placement:
    """Where one tensor lives for the duration of a request."""

    chunk_id: int
    offset: int


class AllocationPlan:
    """Result of planning one request's intermediate tensors.

    ``placements`` maps each tensor name to its :class:`Placement`;
    ``chunk_sizes`` maps the id of every chunk the plan uses to its size.
    The Algorithm 1 planner emits plans through :meth:`from_assignments`:
    such a plan keeps the per-chunk assignment tuples the plan cache
    already snapshots and builds ``placements`` on first read, so a plan
    nobody reads (every plan of a CostTable warm-up) costs no dict.
    """

    __hash__ = None  # type: ignore[assignment]  # mutable, like its dicts

    def __init__(self, placements: Dict[str, Placement],
                 chunk_sizes: Dict[int, int]) -> None:
        self._placements: Optional[Dict[str, Placement]] = placements
        self._assignments: Mapping[int, Sequence[ChunkAssignment]] = {}
        self.chunk_sizes = chunk_sizes

    @classmethod
    def from_assignments(
        cls, assignments: Mapping[int, Sequence[ChunkAssignment]],
        chunk_sizes: Dict[int, int],
    ) -> "AllocationPlan":
        """A plan over offset-sorted assignments per chunk id (in chunk
        order), whose ``placements`` are built on first read.  The
        assignments must not change afterwards."""
        plan = cls({}, chunk_sizes)
        plan._placements = None
        plan._assignments = assignments
        return plan

    @property
    def placements(self) -> Dict[str, Placement]:
        if self._placements is None:
            placements: Dict[str, Placement] = {}
            for chunk_id, assigned in self._assignments.items():
                for record, offset in assigned:
                    placements[record.name] = Placement(chunk_id, offset)
            self._placements = placements
            self._assignments = {}
        return self._placements

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.placements, self.chunk_sizes) == \
            (other.placements, other.chunk_sizes)

    def __repr__(self) -> str:
        return (f"AllocationPlan(placements={self.placements!r}, "
                f"chunk_sizes={self.chunk_sizes!r})")

    @property
    def footprint_bytes(self) -> int:
        """Total bytes of all chunks the plan uses."""
        return sum(self.chunk_sizes.values())


def validate_plan(plan: AllocationPlan, records: Sequence[TensorUsageRecord]) -> None:
    """Raise :class:`PlanError` on any bounds or aliasing violation.

    Delegates to the analysis pass
    (:func:`repro.analysis.memory_checks.check_plan`), which reports
    *every* violation; the first one — in the pass's deterministic order —
    becomes the exception message, preserving the historical wording.
    """
    # Imported lazily: repro.analysis depends on this module at import time.
    from ..analysis.memory_checks import check_plan

    violations = check_plan(plan, records)
    if violations:
        raise PlanError(violations[0].message)
