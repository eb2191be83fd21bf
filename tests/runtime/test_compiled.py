"""Compiled cost models: bit-exact equivalence with the interpretive path."""

import pytest

from repro.gpusim import RTX_2060
from repro.graph import (
    OpNode,
    OpType,
    UsageRecordTemplates,
    tensor_usage_records,
)
from repro.models import (
    bert_base,
    build_decode_step_graph,
    build_encoder_graph,
    build_prefill_graph,
    gpt_small,
    tiny_bert,
)
from repro.runtime import (
    PYTORCH_CHARACTERISTICS,
    RUNTIME_FACTORIES,
    TURBO_CHARACTERISTICS,
    CompiledCostModel,
    GenerationRuntime,
    compile_graph,
    lower_product,
    turbo_fp16_runtime,
    turbo_runtime,
    verify_equivalence,
)
from repro.runtime.cost import graph_cost

#: Shapes straddling the tensorrt/xla padding boundaries (16/64-multiples).
SHAPES = [(1, 1), (1, 16), (1, 17), (2, 63), (2, 64), (2, 65),
          (4, 128), (7, 100), (8, 512)]


def _encoder_case(factory):
    def case():
        runtime = factory()
        return (runtime.graph.nodes, runtime.chars, runtime.device,
                [{"batch": b, "seq": runtime.chars.padded_length(s)}
                 for b, s in SHAPES])

    return case


def _gpt_case(chars, graph):
    def case():
        runtime = GenerationRuntime(build_prefill_graph(gpt_small()),
                                    build_decode_step_graph(gpt_small()),
                                    chars, RTX_2060)
        if graph == "prefill":
            return (runtime.prefill_graph.nodes, chars, RTX_2060,
                    [{"batch": b, "seq": s} for b, s in SHAPES])
        return (runtime.decode_graph.nodes, chars, RTX_2060,
                [{"batch": b, "past": s} for b, s in SHAPES])

    return case


def _fused_mixed_case():
    """One fused kernel over four unlike parts, so the order its parts'
    terms are added in shows in the last bits on about a third of a
    dense shape grid (the fused regions of the model graphs add at most
    two distinct values, which commute)."""
    parts = [("ew", OpType.ELEMENTWISE,
              {"nelems": ("batch", "seq", 768), "flops_per_elem": 7.0}),
             ("sm", OpType.SOFTMAX,
              {"rows": ("batch", 12, "seq"), "row_len": "seq"}),
             ("ln", OpType.LAYERNORM,
              {"rows": ("batch", "seq"), "row_len": 768}),
             ("tr", OpType.TRANSPOSE, {"nelems": ("batch", 3, "seq", 64)})]
    node = OpNode("fused(ew+sm+ln+tr)", OpType.FUSED, ("x",), ("y",), {
        "fused_ops": [{"name": name, "op_type": op.value, "attrs": attrs}
                      for name, op, attrs in parts]})
    return ([node], TURBO_CHARACTERISTICS, RTX_2060,
            [{"batch": b, "seq": s} for b in range(1, 9)
             for s in range(1, 300, 7)])


#: Graph, characteristics, device and shapes of each float-path case.
TOTAL_CASES = {
    "fused-mixed": _fused_mixed_case,
    **{name: _encoder_case(factory)
       for name, factory in RUNTIME_FACTORIES.items()},
    "turbo-fp16": _encoder_case(turbo_fp16_runtime),
    **{f"gpt-{chars.name}-{graph}": _gpt_case(chars, graph)
       for chars in (TURBO_CHARACTERISTICS, PYTORCH_CHARACTERISTICS)
       for graph in ("prefill", "decode")},
}


class TestLowerProduct:
    def test_literal(self):
        assert lower_product(6) == (6, ())

    def test_symbol(self):
        assert lower_product("batch") == (1, ("batch",))

    def test_mixed_sequence(self):
        const, names = lower_product([4, "batch", "seq", 2])
        assert const == 8
        assert sorted(names) == ["batch", "seq"]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lower_product(0)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            lower_product(True)


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", sorted(RUNTIME_FACTORIES))
    def test_bit_identical_timings_every_factory(self, name):
        runtime = RUNTIME_FACTORIES[name]()
        compiled = runtime.compiled_model()
        for batch, seq in SHAPES:
            padded = runtime.chars.padded_length(seq)
            bindings = {"batch": batch, "seq": padded}
            fast = compiled.timings(bindings)
            reference = graph_cost(runtime.graph.nodes, bindings,
                                   runtime.chars, runtime.device)
            assert len(fast) == len(reference)
            for f, r in zip(fast, reference):
                assert (f.name, f.launch_s, f.compute_s, f.memory_s) == \
                    (r.name, r.launch_s, r.compute_s, r.memory_s)

    @pytest.mark.parametrize("name", sorted(RUNTIME_FACTORIES))
    def test_verify_equivalence_clean(self, name):
        runtime = RUNTIME_FACTORIES[name]()
        bindings = [{"batch": b, "seq": runtime.chars.padded_length(s)}
                    for b, s in SHAPES]
        assert verify_equivalence(runtime.graph.nodes, bindings,
                                  runtime.chars, runtime.device) == []

    def test_total_matches_stream_accumulation(self):
        """The float path (``total``) equals draining the interpretive
        timings through a Stream, bit for bit, on every runtime (each
        reduction kernel, GEMM tuning above and below 1), FP16 and both
        GPT generation graphs."""
        for case, build in sorted(TOTAL_CASES.items()):
            nodes, chars, device, bindings_list = build()
            compiled = CompiledCostModel(nodes, chars, device)
            for bindings in bindings_list:
                elapsed, launches = compiled.total(bindings)
                timings = graph_cost(nodes, bindings, chars, device)
                reference = 0.0
                for t in timings:
                    reference += t.total_s
                assert elapsed == reference, (case, bindings)
                assert launches == len(timings), case

    def test_cells_deduplicate_repeated_layers(self, bert_graph):
        runtime = turbo_runtime(graph=bert_graph)
        compiled = runtime.compiled_model()
        # 12 identical encoder layers collapse onto shared pricing cells.
        assert compiled.cell_count < compiled.node_count / 3

    def test_compile_graph_helper(self):
        runtime = turbo_runtime(graph=build_encoder_graph(tiny_bert()))
        compiled = compile_graph(runtime.graph, runtime.chars, runtime.device)
        assert isinstance(compiled, CompiledCostModel)
        assert compiled.total({"batch": 2, "seq": 32}) == \
            runtime.compiled_model().total({"batch": 2, "seq": 32})


class TestFastLatency:
    """`latency()` via the compiled fast path == the seed double-infer path."""

    @pytest.mark.parametrize("name", sorted(RUNTIME_FACTORIES))
    def test_latency_cold_warm_compiled_identical(self, name):
        fast = RUNTIME_FACTORIES[name]()
        reference = RUNTIME_FACTORIES[name]()
        reference.use_compiled = False
        for batch, seq in SHAPES:
            cold = reference.latency(batch, seq)
            warm = reference.latency(batch, seq)  # latency memo hit
            compiled = fast.latency(batch, seq)
            assert cold == warm == compiled

    def test_infer_matches_between_paths(self):
        fast = turbo_runtime()
        reference = turbo_runtime()
        reference.use_compiled = False
        for batch, seq in [(1, 16), (2, 63), (4, 128)]:
            f = fast.infer(batch, seq)
            r = reference.infer(batch, seq)
            assert f.latency_s == r.latency_s
            assert f.kernel_s == r.kernel_s
            assert f.memory_overhead_s == r.memory_overhead_s
            assert f.time_by_kernel == r.time_by_kernel
        assert fast.preprocess_total_s == reference.preprocess_total_s

    def test_invalidate_caches_resets_fast_state(self):
        runtime = turbo_runtime()
        runtime.latency(2, 64)
        assert runtime._latency_cache
        runtime.invalidate_caches()
        assert not runtime._latency_cache
        assert runtime._compiled is None
        assert runtime.latency(2, 64) == turbo_runtime().latency(2, 64)


class TestRecordTemplates:
    def test_templates_match_interpretive_records(self, bert_graph):
        templates = UsageRecordTemplates(bert_graph)
        for batch, seq in SHAPES:
            bindings = {"batch": batch, "seq": seq}
            got = templates.evaluate(bindings)
            want = tensor_usage_records(bert_graph, bindings)
            assert got == want
            assert [hash(r) for r in got] == [hash(r) for r in want]

    @pytest.mark.parametrize("batch", [0, -2])
    def test_templates_reject_nonpositive_size(self, batch):
        templates = UsageRecordTemplates(build_encoder_graph(tiny_bert()))
        with pytest.raises(ValueError, match="size must be positive"):
            templates.evaluate({"batch": batch, "seq": 16})

    def test_templates_of_a_graph_without_intermediates(self):
        from repro.graph import ComputationGraph

        templates = UsageRecordTemplates(ComputationGraph("empty"))
        assert len(templates) == 0
        assert templates.evaluate({"batch": 1, "seq": 16}) == []


class TestHostPathStats:
    def test_stats_and_metrics_publication(self):
        from repro.observability import MetricsRegistry

        runtime = turbo_runtime()
        runtime.latency(2, 64)
        stats = runtime.host_path_stats()
        assert stats["latency_cache_entries"] == 1
        assert stats["compiled_evals"] >= 1
        assert set(stats) == {"latency_cache_entries"} | {
            name for name in stats if name.startswith("compiled_")}
        registry = MetricsRegistry()
        for _ in range(2):  # publishing again sets the same values
            runtime.publish_host_metrics(registry)
            assert registry.gauge("host_compiled_evals").value == \
                stats["compiled_evals"]
            assert registry.gauge("host_latency_cache_entries").value == 1


def test_equivalence_includes_cost_table_grid():
    """The profiler sweep built from the compiled path equals the
    interpretive one cell for cell (small grid)."""
    from repro.runtime import warmup_profile

    fast_rt = turbo_runtime(graph=build_encoder_graph(tiny_bert()))
    ref_rt = turbo_runtime(graph=build_encoder_graph(tiny_bert()))
    ref_rt.use_compiled = False
    fast = warmup_profile(fast_rt, max_batch=4, max_length=128, length_step=32)
    reference = warmup_profile(ref_rt, max_batch=4, max_length=128,
                               length_step=32)
    for length in fast.lengths:
        for batch in range(1, 5):
            assert fast.cost(length, batch) == reference.cost(length, batch)
