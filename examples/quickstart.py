#!/usr/bin/env python
"""Quickstart: accelerate a BERT inference with the Turbo runtime.

Mirrors the paper's usability pitch (§4.3): wrap an existing model and get
an end-to-end speedup without preprocessing or fixed-length constraints.

Three things happen below:
 1. a real (NumPy) BERT forward pass runs through the fused kernel path
    and is checked against the reference path;
 2. the Turbo runtime prices the same model on the simulated RTX 2060 and
    is compared with the PyTorch-like baseline across sequence lengths;
 3. the per-request memory plan is shown re-planning as the length changes;
 4. a small serving run is traced end-to-end and written out as Chrome
    trace JSON (open in chrome://tracing or Perfetto) plus a metrics dump;
 5. a chaos scenario crashes a replica mid-run and the resilience layer
    (retries + circuit breakers + rerouting) recovers goodput;
 6. the static-analysis layer (`python -m repro check`) verifies every
    model graph, memory plan and serving schedule and lints the tree.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.graph import fuse_graph, tensor_usage_records
from repro.memory import TurboAllocator
from repro.models import (
    bert_base,
    build_encoder_graph,
    encoder_forward,
    init_encoder_weights,
    tiny_bert,
)
from repro.runtime import pytorch_runtime, turbo_runtime


def numeric_check() -> None:
    print("== 1. numeric correctness (tiny BERT, fused vs reference) ==")
    config = tiny_bert()
    weights = init_encoder_weights(config, seed=0)
    token_ids = np.random.default_rng(0).integers(0, config.vocab_size, (2, 16))
    fused = encoder_forward(config, weights, token_ids, fused=True)
    reference = encoder_forward(config, weights, token_ids, fused=False)
    max_err = float(np.abs(fused - reference).max())
    print(f"   output shape {fused.shape}, max |fused - reference| = {max_err:.2e}")
    assert max_err < 1e-3


def latency_comparison() -> None:
    print("\n== 2. latency vs PyTorch baseline (simulated RTX 2060) ==")
    graph = build_encoder_graph(bert_base())
    turbo = turbo_runtime(graph=graph)
    baseline = pytorch_runtime(graph=graph)
    print(f"   kernel launches per inference: turbo={turbo.kernel_launch_count} "
          f"(fused) vs pytorch={baseline.kernel_launch_count}")
    print(f"   {'seq len':>8} {'turbo (ms)':>12} {'pytorch (ms)':>13} {'speedup':>8}")
    for seq_len in (16, 64, 128, 256, 500):
        t = turbo.latency(1, seq_len)
        p = baseline.latency(1, seq_len)
        print(f"   {seq_len:>8} {t * 1e3:>12.2f} {p * 1e3:>13.2f} {p / t:>7.2f}x")


def memory_replanning() -> None:
    print("\n== 3. sequence-length-aware memory planning (Alg. 1) ==")
    graph = fuse_graph(build_encoder_graph(bert_base()))
    allocator = TurboAllocator()
    for seq_len in (200, 240, 120, 500):
        records = tensor_usage_records(graph, {"batch": 1, "seq": seq_len})
        result = allocator.process_request(records)
        print(f"   seq {seq_len:>3}: {len(records)} tensors planned into "
              f"{len(allocator.chunks)} chunks, footprint "
              f"{result.footprint_mb:6.1f} MB, newly allocated "
              f"{result.new_mb:5.2f} MB")


def observability_trace() -> None:
    print("\n== 4. observability: trace a serving run ==")
    from repro.observability import MetricsRegistry, Tracer, run_traced_workload

    result = run_traced_workload(model="tiny", rate_per_s=120.0,
                                 duration_s=0.25, seed=0,
                                 tracer=Tracer(), registry=MetricsRegistry())
    result.tracer.save("trace.json")      # open in chrome://tracing / Perfetto
    result.registry.save("metrics.json")  # counters reconcile with result.serving
    print(f"   served {result.serving.completed}/{result.serving.offered} "
          f"requests in {result.serving.batches_executed} batches")
    print(f"   wrote trace.json ({len(result.tracer)} events) "
          f"and metrics.json ({len(result.registry)} series)")


def chaos_recovery() -> None:
    print("\n== 5. resilience: survive a replica crash under load ==")
    from repro.resilience import run_chaos

    report = run_chaos("smoke", seed=0)
    stats = report.chaos.resilience
    print(f"   {report.chaos.offered} requests on "
          f"{report.scenario.num_replicas} servers; faults: 1 crash, "
          f"1 latency spike, 1 transient-failure window")
    print(f"   outcome: {report.chaos.completed} completed, "
          f"{stats.retries} retries, {stats.dropped} dropped, "
          f"{len(report.breaker_transitions)} breaker transition(s)")
    print(f"   post-fault goodput {report.goodput_chaos:.1f} resp/s = "
          f"{report.recovery_ratio:.1%} of the fault-free baseline "
          f"({'recovered' if report.recovered else 'NOT recovered'})")
    assert report.recovered


def static_analysis() -> None:
    print("\n== 6. static analysis: verify graphs, plans and schedules ==")
    from repro.analysis import run_check

    report = run_check(families=("graph", "memory", "schedule"))
    counts = report.counts()
    print(f"   checked {report.checked['graphs']} graphs "
          f"({report.checked['fusions_verified']} fusions verified), "
          f"{report.checked['plans']} memory plans, "
          f"{report.checked['schedule_ops']} schedule ops")
    print(f"   {counts['error']} error(s), {counts['warning']} warning(s) "
          f"-- full sweep: python -m repro check")
    assert not report.has_errors


if __name__ == "__main__":
    numeric_check()
    latency_comparison()
    memory_replanning()
    observability_trace()
    chaos_recovery()
    static_analysis()
    print("\nquickstart complete.")
