"""Cross-layer integration tests.

Each test exercises a full pipeline the README promises, end to end:
graph -> fusion -> cost -> allocator -> scheduler -> server, and the
text -> tokens -> model -> service path.
"""

import numpy as np
import pytest

from repro.gpusim import RTX_2060
from repro.graph import fuse_graph
from repro.models import bert_base, build_encoder_graph, init_encoder_weights, tiny_bert
from repro.runtime import graph_cost, turbo_runtime, warmup_profile
from repro.serving import (
    DPBatchScheduler,
    Request,
    ResponseCache,
    ServingConfig,
    generate_requests,
    simulate_serving,
)


class TestReadmeQuickstartPath:
    """The exact flow shown in README.md must work as written."""

    def test_latency_then_serving(self, bert_graph):
        turbo = turbo_runtime(graph=bert_graph)
        assert turbo.latency(batch=1, seq_len=128) > 0

        table = warmup_profile(turbo, max_batch=20, lengths=range(64, 513, 64))
        metrics = simulate_serving(
            generate_requests(rate_per_s=60, duration_s=3.0),
            DPBatchScheduler(), table.cost, ServingConfig(max_batch=20),
            duration_s=3.0,
        )
        assert metrics.completed == metrics.offered
        assert "(" in metrics.latency.format_cell()


class TestFusionCostConsistency:
    """Fusion must never *increase* modeled cost for any node it creates."""

    def test_fused_nodes_cheaper_than_constituents(self, bert_graph):
        from repro.graph import OpType
        from repro.runtime import TURBO_CHARACTERISTICS, node_cost

        fused = fuse_graph(bert_graph)
        bindings = {"batch": 2, "seq": 128}
        fine_by_name = {n.name: n for n in bert_graph.nodes}
        for node in fused.nodes:
            if node.op_type is not OpType.FUSED:
                continue
            fused_cost = node_cost(node, bindings, TURBO_CHARACTERISTICS,
                                   RTX_2060).total_s
            constituents = sum(
                node_cost(fine_by_name[op["name"]], bindings,
                          TURBO_CHARACTERISTICS, RTX_2060).total_s
                for op in node.attrs["fused_ops"]
            )
            assert fused_cost <= constituents + 1e-12, node.name

    def test_whole_graph_fusion_saves_time(self, bert_graph):
        from repro.runtime import TURBO_CHARACTERISTICS

        bindings = {"batch": 1, "seq": 128}
        fine = sum(t.total_s for t in graph_cost(
            bert_graph.nodes, bindings, TURBO_CHARACTERISTICS, RTX_2060))
        fused = sum(t.total_s for t in graph_cost(
            fuse_graph(bert_graph).nodes, bindings, TURBO_CHARACTERISTICS,
            RTX_2060))
        assert fused < fine


class TestTextToServicePipeline:
    """Raw text -> tokenizer -> requests -> cached service -> labels."""

    def test_full_stack(self):
        from repro.text import (
            TextClassifier,
            WordPieceTokenizer,
            init_classifier_head,
        )

        corpus = [
            "the quick brown fox jumps over the lazy dog",
            "serving transformer models with low latency",
            "batching requests improves gpu utilization",
        ] * 3
        tokenizer = WordPieceTokenizer.train(corpus, vocab_size=95)
        config = tiny_bert()
        classifier = TextClassifier(
            tokenizer=tokenizer,
            config=config,
            weights=init_encoder_weights(config, seed=2),
            head=init_classifier_head(config.hidden_size, 3, seed=2),
        )

        texts = ["the quick fox", "gpu serving", "the quick fox", "low latency"]
        labels = classifier.classify(texts)
        assert len(labels) == 4
        assert labels[0] == labels[2]  # identical text, identical label

        # The serving plane: each text becomes a request whose payload is
        # its token ids, so the response cache deduplicates repeats.
        encoded = [tuple(tokenizer.encode(t)) for t in texts * 5]
        requests = [
            Request(req_id=i, seq_len=len(ids), arrival_s=0.01 * i, payload=ids)
            for i, ids in enumerate(encoded)
        ]
        cache = ResponseCache(capacity=4096)
        metrics = simulate_serving(
            requests, DPBatchScheduler(), lambda l, b: 0.002 + 0.0001 * l * b,
            ServingConfig(max_batch=20), duration_s=0.5, cache=cache)
        assert metrics.completed == len(requests)
        assert cache.hits > 0  # repeats were answered from cache


class TestAllocatorRuntimeServingAgreement:
    """The memory plane the runtime charges is the plane the allocator
    actually builds: runtime overhead equals allocator stall + host model."""

    def test_runtime_allocation_matches_standalone_allocator(self, bert_graph):
        from repro.graph import tensor_usage_records
        from repro.memory import TurboAllocator

        runtime = turbo_runtime(graph=bert_graph)
        result = runtime.infer(1, 200)
        standalone = TurboAllocator()
        records = tensor_usage_records(fuse_graph(bert_graph),
                                       {"batch": 1, "seq": 200})
        expected = standalone.process_request(records)
        assert result.allocation.footprint_bytes == expected.footprint_bytes
        assert result.allocation.new_bytes == expected.new_bytes
