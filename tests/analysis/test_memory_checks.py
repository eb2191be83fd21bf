"""Memory-plan verifier: bounds, aliasing, cross-request, fragmentation."""

import pytest

from repro.analysis import (
    arena_diag_code,
    check_cross_request,
    check_fragmentation,
    check_plan,
    fragmentation_report,
    plan_double_buffered,
)
from repro.graph import fuse_graph, tensor_usage_records
from repro.memory import (
    AllocationPlan,
    Placement,
    PlanError,
    TensorUsageRecord,
    TurboAllocator,
    validate_plan,
)
from repro.models import build_encoder_graph, tiny_bert


def records():
    return [
        TensorUsageRecord("a", 0, 2, 64),
        TensorUsageRecord("b", 1, 3, 64),   # lifetime overlaps a
        TensorUsageRecord("c", 4, 5, 64),   # disjoint from both
    ]


def codes(diags):
    return sorted(d.code for d in diags)


class TestCheckPlan:
    def test_clean_plan(self):
        plan = AllocationPlan(
            placements={"a": Placement(0, 0), "b": Placement(0, 64),
                        "c": Placement(0, 0)},  # reuses a's bytes: lifetimes disjoint
            chunk_sizes={0: 128},
        )
        assert check_plan(plan, records()) == []
        validate_plan(plan, records())  # must not raise

    def test_missing_placement_is_mem201(self):
        plan = AllocationPlan(placements={"a": Placement(0, 0)},
                              chunk_sizes={0: 128})
        diags = check_plan(plan, records())
        assert codes(diags) == ["MEM201"]
        assert "plan/records mismatch" in diags[0].message
        with pytest.raises(PlanError, match="plan/records mismatch"):
            validate_plan(plan, records())

    def test_out_of_bounds_is_mem202(self):
        plan = AllocationPlan(
            placements={"a": Placement(0, 0), "b": Placement(0, 96),
                        "c": Placement(0, 0)},
            chunk_sizes={0: 128},  # b: [96, 160) exceeds 128
        )
        diags = [d for d in check_plan(plan, records()) if d.code == "MEM202"]
        assert len(diags) == 1 and "exceeds chunk" in diags[0].message
        with pytest.raises(PlanError, match="exceeds"):
            validate_plan(plan, records())

    def test_unknown_chunk_is_mem202(self):
        plan = AllocationPlan(
            placements={"a": Placement(7, 0), "b": Placement(0, 0),
                        "c": Placement(0, 0)},
            chunk_sizes={0: 128},
        )
        diags = [d for d in check_plan(plan, records()) if d.code == "MEM202"]
        assert len(diags) == 1 and "unknown chunk" in diags[0].message

    def test_live_overlap_is_mem203(self):
        plan = AllocationPlan(
            placements={"a": Placement(0, 0), "b": Placement(0, 32),
                        "c": Placement(0, 128)},
            chunk_sizes={0: 256},  # a [0,64) and b [32,96) are both live at op 1-2
        )
        diags = check_plan(plan, records())
        assert codes(diags) == ["MEM203"]
        assert "overlap" in diags[0].message
        with pytest.raises(PlanError, match="overlap"):
            validate_plan(plan, records())

    def test_reports_every_violation_not_just_first(self):
        plan = AllocationPlan(
            placements={"a": Placement(0, 0), "b": Placement(0, 0),
                        "c": Placement(0, 200)},
            chunk_sizes={0: 256},  # aliasing AND c out of bounds
        )
        assert codes(check_plan(plan, records())) == ["MEM202", "MEM203"]

    def test_turbo_plans_are_clean(self):
        fused = fuse_graph(build_encoder_graph(tiny_bert()))
        allocator = TurboAllocator()
        for seq in (16, 64, 32):
            recs = tensor_usage_records(fused, {"batch": 2, "seq": seq})
            assert check_plan(allocator.plan(recs), recs) == []


class TestCrossRequest:
    def two_plans(self, offset_b: int):
        recs_a = [TensorUsageRecord("a.x", 0, 1, 64)]
        recs_b = [TensorUsageRecord("b.x", 0, 1, 64)]
        plan_a = AllocationPlan(placements={"a.x": Placement(0, 0)},
                                chunk_sizes={0: 256})
        plan_b = AllocationPlan(placements={"b.x": Placement(0, offset_b)},
                                chunk_sizes={0: 256})
        return {"req-a": (plan_a, recs_a), "req-b": (plan_b, recs_b)}

    def test_shared_bytes_are_mem204(self):
        diags = check_cross_request(self.two_plans(offset_b=32))
        assert codes(diags) == ["MEM204"]
        assert "concurrent requests" in diags[0].message

    def test_disjoint_bytes_are_clean(self):
        assert check_cross_request(self.two_plans(offset_b=64)) == []

    def test_double_buffered_planner_is_alias_free(self):
        fused = fuse_graph(build_encoder_graph(tiny_bert()))
        recs_a = [
            TensorUsageRecord(f"a.{r.name}", r.first_op, r.last_op, r.size)
            for r in tensor_usage_records(fused, {"batch": 2, "seq": 32})
        ]
        recs_b = [
            TensorUsageRecord(f"b.{r.name}", r.first_op, r.last_op, r.size)
            for r in tensor_usage_records(fused, {"batch": 2, "seq": 64})
        ]
        plans = plan_double_buffered(recs_a, recs_b)
        assert check_cross_request(plans) == []
        # Each request's own plan stays valid under the shared id space.
        for plan, recs in plans.values():
            assert check_plan(plan, recs) == []


class TestFragmentation:
    def test_report_numbers(self):
        plan = AllocationPlan(
            placements={"a": Placement(0, 0), "b": Placement(0, 64),
                        "c": Placement(0, 0)},
            chunk_sizes={0: 512},
        )
        report = fragmentation_report(plan, records())
        assert report.footprint_bytes == 512
        assert report.peak_live_bytes == 128  # a+b live together
        chunk = report.chunks[0]
        assert chunk.resident_tensors == 3
        assert chunk.peak_live_bytes == 128
        assert chunk.utilization == 128 / 512
        assert report.packing_overhead == 512 / 128

    def test_low_utilization_warns_mem211(self):
        plan = AllocationPlan(
            placements={"a": Placement(0, 0), "b": Placement(0, 64),
                        "c": Placement(0, 0)},
            chunk_sizes={0: 4096},  # 128/4096 = 3% utilized
        )
        diags = check_fragmentation(plan, records())
        assert codes(diags) == ["MEM210", "MEM211"]

    def test_dedicated_chunk_never_warns(self):
        plan = AllocationPlan(placements={"a": Placement(0, 0)},
                              chunk_sizes={0: 4096})
        diags = check_fragmentation(plan, [TensorUsageRecord("a", 0, 1, 8)])
        assert codes(diags) == ["MEM210"]  # single resident: by design


class TestKvArenaScenario:
    def test_run_memory_checks_verifies_arena_plans(self):
        from repro.analysis.check import run_memory_checks

        report = run_memory_checks(graphs=[])
        assert report.checked["kv_arena_plans"] == 9
        assert not [d for d in report.diagnostics if d.code == "MEM220"]
        assert not [d for d in report.diagnostics if d.code == "MEM221"]
        assert not [d for d in report.diagnostics if d.code == "MEM224"]

    def test_corrupted_arena_plan_is_caught(self):
        """The arena's verify() hook catches a bad slot layout: alias two
        live KV pages onto one slot and the MEM220 disjointness check
        fires."""
        from repro.memory import KVCacheArena

        arena = KVCacheArena(capacity_bytes=4096, bytes_per_token=16,
                             page_tokens=4)
        arena.admit(0, 4, 8)
        arena.admit(1, 4, 8)
        assert arena.verify() == []
        arena.region_of(1).pages[0].slot = arena.region_of(0).pages[0].slot
        problems = arena.verify()
        assert any("both occupy slot" in p for p in problems)
        assert {arena_diag_code(p) for p in problems} == {"MEM220"}

    def test_free_slot_held_by_resident_page_is_caught(self):
        from repro.memory import KVCacheArena

        arena = KVCacheArena(capacity_bytes=4096, bytes_per_token=16,
                             page_tokens=4)
        arena.admit(0, 4, 8)
        arena.admit(1, 4, 8)
        arena.release(1)
        arena.region_of(0).pages[0].slot = 1  # the slot release freed
        problems = arena.verify()
        assert any("do not partition" in p for p in problems)
        assert {arena_diag_code(p) for p in problems} == {"MEM220"}


class TestArenaDiagCode:
    """One classifier maps every KVCacheArena.verify() message to its code."""

    @pytest.mark.parametrize("message, code", [
        ("pages 3 and 5 both occupy slot 2", "MEM220"),
        ("resident and free slots do not partition the 3-slot pool",
         "MEM220"),
        ("KV region for request 7 outlives its request (leak)", "MEM221"),
        ("page 4 refcount 2 diverges from its 1 reference(s)", "MEM224"),
        ("incremental growth token counter 8 diverges from the recounted "
         "0 (accounting drift)", "MEM224"),
    ])
    def test_each_code(self, message, code):
        assert arena_diag_code(message) == code

    def test_real_messages_classify(self):
        from repro.memory import KVCacheArena

        arena = KVCacheArena(capacity_bytes=4096, bytes_per_token=16,
                             page_tokens=4)
        arena.admit(0, 4, 8)
        arena.admit(1, 4, 8)
        arena.region_of(0).pages[0].refcount += 1
        arena._growth_tokens += 4
        codes = [arena_diag_code(p) for p in arena.verify(live_req_ids=[0])]
        assert sorted(set(codes)) == ["MEM221", "MEM224"]
