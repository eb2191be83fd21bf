"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``report [--quick] [OUTPUT]``
    Regenerate the full evaluation report (all tables/figures) to a
    markdown file (default ``REPORT.md``); ``--quick`` skips the heavy
    serving experiments.
``selfcheck``
    Fast sanity pass: build the BERT graph, run one simulated inference on
    every runtime, verify fused-vs-reference numerics on a tiny model.
``trace [--model tiny|base] [--rate R] [--duration D] [--seed N]
        [--scheduler dp|naive|nobatch|continuous] [--policy hungry|lazy]
        [--out trace.json] [--metrics-out metrics.json]``
    Run one instrumented serving workload and write a Chrome
    ``trace_event`` JSON (load in ``chrome://tracing`` / Perfetto) plus a
    metrics JSON (counters/gauges/histograms).  ``--scheduler continuous``
    traces the iteration-level generative loop instead (GPT model, one
    span per decode step, KV-arena counters on the track).
``chaos [--scenario smoke|blackout|storm|gen-blackout|gen-storm]
        [--seed N] [--metrics-out chaos_metrics.json] [--no-check]``
    Run one scripted fault-injection scenario (baseline + chaos pair over
    the same workload), print resilience metrics (retries, deadline
    misses, breaker transitions, post-fault goodput vs. baseline) and exit
    non-zero unless goodput recovers past the scenario threshold and the
    end-of-run KV leak audit is clean.  The choices are the one chaos
    registry (``repro.resilience.chaos.SCENARIOS``); the ``gen-*``
    scenarios exercise generation serving — replica crashes with KV loss
    and recompute-on-resume (``gen-blackout``), KV-pressure preemption
    under a transient-failure storm (``gen-storm``).
    Deterministic given the seed: two runs write byte-identical metrics.
``bench [--profile smoke|full|gen] [--seed N] [--out BENCH_host.json]``
    Wall-clock benchmarks of the host fast path (compiled cost models,
    placement pass, pruned DP scheduler) against the seed baselines, written
    as a JSON payload whose counter fields are deterministic.  The
    ``gen`` profile instead benchmarks generative serving — iteration-
    level continuous batching (plain and with chunked prefill +
    dual-stream overlap) vs the request-level DP baseline — and writes
    ``BENCH_gen.json`` by default.
    ``--verify-gen`` runs the generation config-equivalence gate:
    chunked prefill + overlap vs unchunked on the gen workload, and
    the radix prefix cache on (and on + chunked) vs off on multi-tenant
    prefix-population workloads, must produce identical per-request
    token streams and completion sets (and admission orders for the
    prefix-cache pairs), and TTFT p99 must not regress; the compiled
    prefill and decode pricing must equal the interpretive one, timings
    and totals, on every shape those runs priced.
    ``--verify`` instead runs the cross-layer equivalence verifier
    (compiled vs. interpretive pricing — encoder runtimes, both
    generation graphs over every shape a gen-profile run prices, and the
    decoder step graph — fast vs. reference ``latency()``,
    pruned vs. reference DP partitions, cached vs. uncached plans, the
    fault injector's cached segments vs. the plan scans for every chaos
    scenario plan) and exits non-zero on any divergence.  ``--diff A B``
    compares the deterministic fields of two payloads (CI determinism
    gate).
``check [--format text|json] [--out PATH] [--seed N]
        [--family graph|memory|schedule|determinism|engine|lifecycle ...]
        [--families A,B] [--lint-root DIR] [--select CODE] [--ignore CODE]
        [--max-warnings N] [--sanitize SCENARIO]``
    Static analysis: graph shape/dtype/fusion verification over every
    built-in model builder, memory-plan bounds/aliasing + fragmentation
    verification, happens-before race detection over a seeded serving
    schedule, the determinism + engine-API lint over the ``repro``
    sources and tests, and (``engine``/``lifecycle`` families) the
    engine-trace sanitizer over seeded runs of every serving loop.
    ``--sanitize <scenario>`` instead executes one named serving or
    chaos scenario under the trace recorder and verifies clock,
    lifecycle and KV-conservation invariants over the real execution.
    ``--select``/``--ignore`` filter diagnostics by code or code prefix;
    ``--max-warnings N`` turns an otherwise-clean run with more than N
    warnings into a non-zero exit.  Exits non-zero if any
    ERROR-severity diagnostic is found.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import main as report_main

    argv = (["--quick"] if args.quick else []) + (
        [args.output] if args.output else []
    )
    return report_main(argv)


def _cmd_selfcheck(_args: argparse.Namespace) -> int:
    import numpy as np

    from .models import (
        bert_base,
        build_encoder_graph,
        encoder_forward,
        init_encoder_weights,
        tiny_bert,
    )
    from .runtime import RUNTIME_FACTORIES

    print("building BERT graph ...", end=" ", flush=True)
    graph = build_encoder_graph(bert_base())
    print(f"ok ({len(graph.nodes)} nodes)")

    print("runtime latencies at (batch 1, seq 128), simulated RTX 2060:")
    for name, factory in RUNTIME_FACTORIES.items():
        runtime = factory(graph=graph)
        print(f"  {name:<18} {runtime.latency(1, 128) * 1e3:7.2f} ms")

    print("numeric check (tiny BERT, fused vs reference) ...", end=" ",
          flush=True)
    config = tiny_bert()
    weights = init_encoder_weights(config, seed=0)
    ids = np.random.default_rng(0).integers(0, config.vocab_size, (2, 16))
    fused = encoder_forward(config, weights, ids, fused=True)
    reference = encoder_forward(config, weights, ids, fused=False)
    error = float(np.abs(fused - reference).max())
    if error > 1e-3:
        print(f"FAILED (max error {error:.2e})")
        return 1
    print(f"ok (max error {error:.2e})")
    print("selfcheck passed.")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observability import validate_trace_dict
    from .observability.harness import run_traced_workload

    result = run_traced_workload(
        model=args.model,
        rate_per_s=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        scheduler=args.scheduler,
        policy=args.policy,
        max_batch=args.max_batch,
    )
    problems = validate_trace_dict(result.tracer.to_dict())
    if problems:
        for p in problems[:10]:
            print(f"trace schema error: {p}", file=sys.stderr)
        return 1
    result.tracer.save(args.out)
    result.registry.save(args.metrics_out)
    s = result.serving
    print(f"workload: {s.offered} requests @ {s.request_rate:.1f} req/s "
          f"({args.model} model, {args.scheduler} scheduler, "
          f"{args.policy} policy)")
    print(f"served:   {s.completed} completed in {s.batches_executed} batches, "
          f"{s.response_throughput:.1f} resp/s, p95 {s.latency.p95_ms:.2f} ms, "
          f"utilization {s.utilization:.0%}")
    if hasattr(s, "ttft"):
        print(f"gen:      ttft avg {s.ttft.avg_ms:.2f} ms, tpot avg "
              f"{s.tpot_ms_avg:.3f} ms, {s.tokens_generated} tokens in "
              f"{s.decode_steps} decode steps, kv peak "
              f"{s.kv_peak_bytes / 1024.0:.0f} KiB")
    print(f"trace:    {args.out} ({len(result.tracer)} events; open in "
          f"chrome://tracing or https://ui.perfetto.dev)")
    print(f"metrics:  {args.metrics_out} ({len(result.registry)} series)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience.chaos import format_report, run_chaos

    report = run_chaos(args.scenario, args.seed)
    print(format_report(report))
    if args.metrics_out:
        report.registry.save(args.metrics_out)
        print(f"metrics:   {args.metrics_out} ({len(report.registry)} series)")
    if args.no_check:
        return 0
    return 0 if report.recovered and report.leak_free else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        diff_bench,
        format_bench,
        load_bench,
        run_bench,
        save_bench,
        verify_gen_equivalence,
        verify_host_fast_path,
    )

    if args.diff:
        first, second = args.diff
        problems = diff_bench(load_bench(first), load_bench(second),
                              rel_tol=args.diff_tol)
        if problems:
            for p in problems[:20]:
                print(f"bench diff: {p}", file=sys.stderr)
            print(f"bench: {len(problems)} deterministic field(s) differ",
                  file=sys.stderr)
            return 1
        print("bench: deterministic fields identical")
        return 0

    if args.verify:
        problems = verify_host_fast_path(
            seed=args.seed, progress=lambda msg: print(f"bench: {msg}"))
        if problems:
            for p in problems[:20]:
                print(f"equivalence: {p}", file=sys.stderr)
            print(f"bench --verify: {len(problems)} divergence(s)",
                  file=sys.stderr)
            return 1
        print("bench --verify: fast path is equivalent to the reference "
              "path (compiled pricing incl. generation and decoder "
              "graphs, latency, partitions, plans, fault segments)")
        return 0

    if args.verify_gen:
        problems = verify_gen_equivalence(
            seed=args.seed, progress=lambda msg: print(f"bench: {msg}"))
        if problems:
            for p in problems[:20]:
                print(f"gen-equivalence: {p}", file=sys.stderr)
            print(f"bench --verify-gen: {len(problems)} divergence(s)",
                  file=sys.stderr)
            return 1
        print("bench --verify-gen: chunked prefill + overlap and radix "
              "prefix caching preserve per-request token streams, "
              "admission order and completion sets; TTFT p99 does not "
              "regress; compiled pricing equals the interpretive path on "
              "every priced shape")
        return 0

    payload = run_bench(args.profile, seed=args.seed,
                        progress=lambda msg: print(f"bench: {msg}"))
    print(format_bench(payload))
    # The gen profile always writes its payload (default BENCH_gen.json):
    # the CI determinism gate diffs two of them.
    out = args.out
    if out is None and args.profile == "gen":
        out = "BENCH_gen.json"
    if out:
        save_bench(payload, out)
        print(f"bench: wrote {out}")
    return 0 if payload["equivalence_ok"] else 1


def _split_codes(values: Optional[List[str]]) -> List[str]:
    """Flatten repeatable, comma-separated code/prefix filter options."""
    out: List[str] = []
    for value in values or ():
        out.extend(token.strip() for token in value.split(",")
                   if token.strip())
    return out


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import run_check, run_sanitized

    families = list(args.family or [])
    families.extend(_split_codes([args.families] if args.families else []))
    try:
        if args.sanitize:
            report = run_sanitized(args.sanitize, seed=args.seed)
        else:
            report = run_check(
                families=families or None,
                seed=args.seed,
                lint_root=args.lint_root,
            )
    except ValueError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    if select or ignore:
        def keep(d) -> bool:
            if select and not any(d.code.startswith(p) for p in select):
                return False
            return not any(d.code.startswith(p) for p in ignore)

        report.diagnostics[:] = [d for d in report.diagnostics if keep(d)]
    rendered = (report.render_json() if args.format == "json"
                else report.render_text())
    counts = report.counts()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"check: wrote {args.out} ({counts['error']} error(s), "
              f"{counts['warning']} warning(s), {counts['info']} info)")
    else:
        print(rendered)
    if report.has_errors:
        return 1
    if args.max_warnings is not None and counts["warning"] > args.max_warnings:
        print(f"check: {counts['warning']} warning(s) exceed "
              f"--max-warnings {args.max_warnings}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TurboTransformers reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="regenerate the evaluation report")
    report.add_argument("output", nargs="?", default=None,
                        help="output markdown path (default REPORT.md)")
    report.add_argument("--quick", action="store_true",
                        help="skip the heavy serving experiments")
    report.set_defaults(func=_cmd_report)

    selfcheck = sub.add_parser("selfcheck", help="fast sanity pass")
    selfcheck.set_defaults(func=_cmd_selfcheck)

    trace = sub.add_parser(
        "trace", help="run an instrumented workload, write Chrome trace + metrics"
    )
    trace.add_argument("--model", choices=("tiny", "base"), default="tiny")
    trace.add_argument("--rate", type=float, default=200.0,
                       help="offered load in requests/s (default 200)")
    trace.add_argument("--duration", type=float, default=0.5,
                       help="offered-load horizon in seconds (default 0.5)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--scheduler",
                       choices=("dp", "dp-pruned", "naive", "nobatch",
                                "continuous"),
                       default="dp")
    trace.add_argument("--policy", choices=("hungry", "lazy"), default="hungry")
    trace.add_argument("--max-batch", type=int, default=16)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace_event output path")
    trace.add_argument("--metrics-out", default="metrics.json",
                       help="metrics JSON output path")
    trace.set_defaults(func=_cmd_trace)

    chaos = sub.add_parser(
        "chaos",
        help="run a scripted fault scenario and check goodput recovery",
    )
    from .resilience.chaos import SCENARIOS

    chaos.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default="smoke")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--metrics-out", default="chaos_metrics.json",
                       help="resilience metrics JSON output path "
                            "('' to skip writing)")
    chaos.add_argument("--no-check", action="store_true",
                       help="report only; do not fail on missed recovery")
    chaos.set_defaults(func=_cmd_chaos)

    bench = sub.add_parser(
        "bench",
        help="wall-clock benchmarks of the host fast path (writes "
             "BENCH_host.json)",
    )
    from .bench import PROFILES  # stdlib-only module; cheap at parse time

    bench.add_argument("--profile", choices=tuple(sorted(PROFILES)),
                       default="smoke")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None,
                       help="write the JSON payload here "
                            "(e.g. BENCH_host.json)")
    bench.add_argument("--verify-gen", action="store_true",
                       help="verify the generation config-equivalence "
                            "gate (gen profile): chunked prefill and the "
                            "prefix cache keep token streams, admission "
                            "order and completion sets identical, TTFT "
                            "p99 no worse")
    bench.add_argument("--verify", action="store_true",
                       help="run the fast-path equivalence verifier "
                            "instead of timing")
    bench.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                       help="compare the deterministic fields of two "
                            "bench JSON files")
    bench.add_argument("--diff-tol", type=float, default=0.0,
                       help="relative tolerance for numeric fields under "
                            "--diff (default 0: bit-exact)")
    bench.set_defaults(func=_cmd_bench)

    check = sub.add_parser(
        "check",
        help="static analysis: graph/plan/schedule verifiers + determinism lint",
    )
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--out", default=None,
                       help="write the report here instead of stdout")
    check.add_argument("--seed", type=int, default=0,
                       help="seed for the serving-schedule scenario")
    check.add_argument("--family", action="append",
                       choices=("graph", "memory", "schedule", "determinism",
                                "engine", "lifecycle"),
                       help="run only the named checker family (repeatable; "
                            "default: all)")
    check.add_argument("--families", default=None, metavar="A,B",
                       help="comma-separated checker families (combines "
                            "with --family)")
    check.add_argument("--lint-root", default=None,
                       help="directory or file for the determinism lint "
                            "(default: the repro package plus the repo "
                            "tests/ tree)")
    check.add_argument("--select", action="append", default=None,
                       metavar="CODE",
                       help="keep only diagnostics matching these codes or "
                            "prefixes (comma-separated, repeatable)")
    check.add_argument("--ignore", action="append", default=None,
                       metavar="CODE",
                       help="drop diagnostics matching these codes or "
                            "prefixes (comma-separated, repeatable)")
    check.add_argument("--max-warnings", type=int, default=None, metavar="N",
                       help="exit non-zero when more than N warnings remain "
                            "after filtering")
    check.add_argument("--sanitize", default=None, metavar="SCENARIO",
                       help="run one serving/chaos scenario under the "
                            "engine-trace sanitizer instead of the static "
                            "families (see repro.analysis.sanitize_scenarios)")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI test
    raise SystemExit(main())
