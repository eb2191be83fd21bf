"""The sequence-length-aware allocator — paper Algorithm 1."""

import pytest

from repro.graph import fuse_graph, tensor_usage_records
from repro.memory import (
    DEFAULT_CHUNK_SIZE,
    AllocationPlan,
    Placement,
    TensorUsageRecord,
    TurboAllocator,
    validate_plan,
)


def rec(name, first, last, size):
    return TensorUsageRecord(name, first, last, size)


class TestPlanning:
    def test_plan_is_valid(self):
        records = [rec(f"t{i}", i, i + 3, 1000 * (i + 1)) for i in range(8)]
        allocator = TurboAllocator(chunk_size=8192)
        plan = allocator.plan(records)
        validate_plan(plan, records)

    def test_disjoint_tensors_share_memory(self):
        records = [rec("a", 0, 1, 5000), rec("b", 2, 3, 5000)]
        allocator = TurboAllocator(chunk_size=8192)
        plan = allocator.plan(records)
        pa, pb = plan.placements["a"], plan.placements["b"]
        assert (pa.chunk_id, pa.offset) == (pb.chunk_id, pb.offset)

    def test_concurrent_tensors_do_not_alias(self):
        records = [rec("a", 0, 5, 3000), rec("b", 0, 5, 3000)]
        allocator = TurboAllocator(chunk_size=8192)
        plan = allocator.plan(records)
        validate_plan(plan, records)

    def test_oversized_tensor_gets_scaled_chunk(self):
        big = 10 * DEFAULT_CHUNK_SIZE
        allocator = TurboAllocator()
        plan = allocator.plan([rec("big", 0, 1, big)])
        chunk_id = plan.placements["big"].chunk_id
        assert plan.chunk_sizes[chunk_id] == int(big * 1.2)

    def test_empty_request(self):
        allocator = TurboAllocator()
        plan = allocator.plan([])
        assert plan.placements == {}

    def test_plan_built_on_read_equals_explicit_plan(self):
        records = [rec("a", 0, 1, 5000), rec("b", 0, 3, 3000),
                   rec("c", 2, 3, 5000)]
        plan = TurboAllocator(chunk_size=8192).plan(records)
        explicit = AllocationPlan(
            placements={"a": Placement(0, 0), "c": Placement(0, 0),
                        "b": Placement(0, 5000)},
            chunk_sizes={0: 8192},
        )
        assert plan == explicit
        assert repr(plan) == repr(explicit)
        assert plan.footprint_bytes == 8192


class TestChunkCaching:
    def test_second_identical_request_allocates_nothing(self):
        records = [rec(f"t{i}", i, i + 2, 4000) for i in range(6)]
        allocator = TurboAllocator(chunk_size=8192)
        allocator.process_request(records)
        second = allocator.process_request(records)
        assert second.new_bytes == 0
        assert second.stall_s == 0.0

    def test_smaller_request_reuses_chunks(self):
        big = [rec(f"t{i}", i, i + 2, 8000) for i in range(6)]
        small = [rec(f"t{i}", i, i + 2, 2000) for i in range(3)]
        allocator = TurboAllocator(chunk_size=16384)
        allocator.process_request(big)
        result = allocator.process_request(small)
        assert result.new_bytes == 0

    def test_growth_only_allocates_delta(self):
        allocator = TurboAllocator(chunk_size=4096)
        allocator.process_request([rec("a", 0, 1, 3000)])
        before = allocator.footprint_bytes
        allocator.process_request([rec("a", 0, 1, 3000), rec("b", 0, 1, 3000)])
        assert allocator.footprint_bytes == before + 4096

    def test_release_after_ttl(self):
        allocator = TurboAllocator(chunk_size=4096, release_after=2)
        allocator.process_request([rec("a", 0, 1, 4000), rec("b", 0, 1, 4000)])
        assert len(allocator.chunks) == 2
        small = [rec("a", 0, 1, 4000)]
        allocator.process_request(small)
        allocator.process_request(small)
        assert len(allocator.chunks) == 2  # within grace period
        allocator.process_request(small)
        assert len(allocator.chunks) == 1  # streak exceeded -> released

    def test_eager_release_matches_paper_algorithm(self):
        allocator = TurboAllocator(chunk_size=4096, release_after=0)
        allocator.process_request([rec("a", 0, 1, 4000), rec("b", 0, 1, 4000)])
        allocator.process_request([rec("a", 0, 1, 4000)])
        assert len(allocator.chunks) == 1

    def test_never_release(self):
        allocator = TurboAllocator(chunk_size=4096, release_after=None)
        allocator.process_request([rec("a", 0, 1, 4000), rec("b", 0, 1, 4000)])
        for _ in range(20):
            allocator.process_request([rec("a", 0, 1, 4000)])
        assert len(allocator.chunks) == 2


class TestRealModelPlans:
    @pytest.mark.parametrize("seq_len", [16, 100, 240])
    def test_bert_plans_are_valid(self, bert_graph, seq_len):
        graph = fuse_graph(bert_graph)
        records = tensor_usage_records(graph, {"batch": 1, "seq": seq_len})
        allocator = TurboAllocator()
        plan = allocator.plan(records)
        validate_plan(plan, records)

    def test_replanning_across_lengths_stays_valid(self, bert_graph):
        """The Fig. 6 scenario: consecutive requests of different lengths."""
        graph = fuse_graph(bert_graph)
        allocator = TurboAllocator()
        for seq_len in (200, 240, 120, 500, 16):
            records = tensor_usage_records(graph, {"batch": 1, "seq": seq_len})
            plan = allocator.plan(records)
            validate_plan(plan, records)

    def test_layerwise_reuse_bounds_footprint(self, bert_graph):
        """12 layers of identical shapes must reuse, not stack: footprint
        should be far below the sum of all tensor sizes."""
        graph = fuse_graph(bert_graph)
        records = tensor_usage_records(graph, {"batch": 1, "seq": 128})
        allocator = TurboAllocator()
        allocator.plan(records)
        total = sum(r.size for r in records)
        assert allocator.footprint_bytes < 0.35 * total


class TestValidationErrors:
    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            TurboAllocator(chunk_size=0)

    def test_bad_k_scale(self):
        with pytest.raises(ValueError):
            TurboAllocator(k_scale=0.5)

    def test_bad_release_after(self):
        with pytest.raises(ValueError):
            TurboAllocator(release_after=-1)

    @pytest.mark.parametrize("kwargs, error", [
        ({"chunk_size": float("nan")}, TypeError),
        ({"chunk_size": float("inf")}, TypeError),
        ({"chunk_size": 2.5}, TypeError),
        ({"chunk_size": True}, TypeError),
        ({"release_after": float("nan")}, TypeError),
        ({"release_after": 2.5}, TypeError),
        ({"release_after": True}, TypeError),
        ({"k_scale": float("nan")}, ValueError),
        ({"k_scale": float("inf")}, ValueError),
    ], ids=["chunk-nan", "chunk-inf", "chunk-frac", "chunk-bool",
            "release-nan", "release-frac", "release-bool",
            "k-nan", "k-inf"])
    def test_config_checked_at_entry(self, kwargs, error):
        with pytest.raises(error):
            TurboAllocator(**kwargs)

    def test_boundary_configs_accepted(self):
        allocator = TurboAllocator(chunk_size=1, k_scale=1.0, release_after=0)
        assert allocator.plan([rec("a", 0, 0, 3)]).chunk_sizes == {0: 3}
