"""``python -m repro check`` driver: run every checker family.

One call sweeps:

1. **Graphs** — every built-in model builder (BERT/ALBERT base + tiny,
   Seq2Seq decode step, GPT prefill + decode step) through the
   shape/dtype/dead-code checkers, each both raw and after fusion
   (fusion-legality verification included).
2. **Memory** — each graph's usage records planned by the
   :class:`~repro.memory.TurboAllocator` at two sequence lengths, the
   resulting plans verified (bounds, live aliasing) and fragmentation
   reported; plus a double-buffered two-request scenario checked for
   cross-request aliasing.
3. **Schedule** — a seeded two-stream copy/compute serving schedule
   (H2D -> compute -> D2H per request, event-synced, double-buffered
   across two compute streams) through the happens-before race detector.
4. **Determinism** — the AST linter (unseeded RNG, wall-clock reads,
   unordered iteration, engine-API misuse) over the ``repro`` package
   *and* the repo ``tests/`` tree.
5. **Engine / lifecycle** — the trace sanitizer
   (:mod:`repro.analysis.sanitizer`): real seeded serving runs on every
   loop (one-shot, Ebird, cluster, continuous) recorded through
   :class:`~repro.analysis.engine_checks.EngineTraceRecorder` and
   verified for clock/dispatch sanity (ENG5xx), request-lifecycle
   invariants (LIFE6xx) and KV token conservation (MEM22x).

Everything is deterministic given ``seed``: two runs of
``repro check --format json`` produce byte-identical documents.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph import ComputationGraph, fuse_graph, tensor_usage_records
from ..graph.graph import GraphError
from ..gpusim.multistream import StreamSchedule
from ..memory.plan import AllocationPlan, Placement
from ..memory.records import TensorUsageRecord
from ..memory.turbo import TurboAllocator
from .determinism import lint_paths
from .diagnostics import DiagnosticReport, diag
from .graph_checks import check_fusion, check_graph
from .memory_checks import (
    arena_diag_code,
    check_cross_request,
    check_fragmentation,
    check_plan,
)
from .schedule_checks import check_schedule

#: Checker families accepted by ``--family``/``--families``.
FAMILIES = ("graph", "memory", "schedule", "determinism", "engine",
            "lifecycle")


def builtin_graphs() -> List[Tuple[str, ComputationGraph, Dict[str, int]]]:
    """(label, graph, canonical bindings) for every built-in builder."""
    from ..models import (
        albert_base,
        bert_base,
        build_albert_graph,
        build_decode_step_graph,
        build_decoder_step_graph,
        build_encoder_graph,
        build_prefill_graph,
        gpt_small,
        seq2seq_decoder,
        tiny_albert,
        tiny_bert,
        tiny_gpt,
    )

    encoder = {"batch": 4, "seq": 64}
    decode = {"batch": 4, "past": 32}
    step = {"beam": 4, "tgt_pos": 16, "src_len": 24}
    return [
        ("bert-base", build_encoder_graph(bert_base()), encoder),
        ("bert-tiny", build_encoder_graph(tiny_bert()), encoder),
        ("albert-base", build_albert_graph(albert_base()), encoder),
        ("albert-tiny", build_albert_graph(tiny_albert()), encoder),
        ("seq2seq-step", build_decoder_step_graph(seq2seq_decoder()), step),
        ("gpt-prefill", build_prefill_graph(gpt_small()), encoder),
        ("gpt-decode", build_decode_step_graph(tiny_gpt()), decode),
    ]


# ---------------------------------------------------------------------------
# Family sweeps
# ---------------------------------------------------------------------------


def run_graph_checks(
    graphs: Optional[Sequence[Tuple[str, ComputationGraph, Dict[str, int]]]] = None,
) -> DiagnosticReport:
    report = DiagnosticReport()
    graphs = builtin_graphs() if graphs is None else graphs
    fused_ok = 0
    for _label, graph, bindings in graphs:
        report.extend(check_graph(graph, bindings))
        fusion_diags = check_fusion(graph)
        report.extend(fusion_diags)
        if not fusion_diags:
            fused_ok += 1
        # The fused graph is what the Turbo runtime executes — check it too.
        try:
            report.extend(check_graph(fuse_graph(graph), bindings))
        except GraphError:
            pass  # already reported by check_fusion
    report.checked["graphs"] = len(graphs)
    report.checked["fusions_verified"] = fused_ok
    return report


def run_memory_checks(
    graphs: Optional[Sequence[Tuple[str, ComputationGraph, Dict[str, int]]]] = None,
    seq_lens: Sequence[int] = (32, 128),
) -> DiagnosticReport:
    report = DiagnosticReport()
    graphs = builtin_graphs() if graphs is None else graphs
    plans = 0
    for label, graph, bindings in graphs:
        fused = fuse_graph(graph)
        allocator = TurboAllocator()
        for seq_len in seq_lens:
            request = dict(bindings)
            # Vary whichever length-like symbol the graph actually uses.
            for symbol in ("seq", "past", "tgt_pos", "src_len"):
                if symbol in request:
                    request[symbol] = seq_len
            records = tensor_usage_records(fused, request)
            plan = allocator.plan(records)
            plans += 1
            report.extend(check_plan(plan, records, graph=fused.name))
            report.extend(check_fragmentation(plan, records, graph=fused.name))
    report.extend(_double_buffered_cross_request_diags())
    report.checked["plans"] = plans
    report.checked["cross_request_pairs"] = 1
    report.checked["kv_arena_plans"] = _kv_arena_diags(report)
    return report


def _kv_arena_diags(report: DiagnosticReport) -> int:
    """Scripted KV-arena episode: verify the arena's slot pool (MEM220)
    after every mutation kind (admit / grow across a page boundary /
    release / preempt / restore), then audit the leak invariant — no
    region may outlive its request (MEM221) — and run the page-sharing
    stages:
    prefix-index attach, copy-on-write fork, preemption of a region whose
    pages siblings still reference, and index eviction, each followed by
    the MEM224 refcount-conservation audit (every live page's refcount
    equals the number of regions + index entries referencing it; no page
    freed — or resident — without a reference).

    Returns the number of audits run; any MEM22x diagnostic the arena
    trips lands in ``report`` like a regular plan check.
    """
    from ..memory import KVCacheArena, RadixPrefixIndex

    arena = KVCacheArena(capacity_bytes=64 * 1024, bytes_per_token=64,
                         page_tokens=8)
    verified = 0

    def verify(stage: str, live=None) -> None:
        nonlocal verified
        for problem in arena.verify(live_req_ids=live):
            report.add(diag(arena_diag_code(problem), f"[{stage}] {problem}",
                            graph="kv-arena"))
        verified += 1

    for req_id in range(6):
        arena.admit(req_id, prompt_tokens=16 + 8 * req_id,
                    max_total_tokens=64 + 8 * req_id)
    verify("admit")
    for req_id in range(6):
        arena.append(req_id, tokens=9)  # crosses a page boundary
    verify("grow")
    for req_id in (1, 3, 5):
        arena.release(req_id)
    verify("release")
    # Preemption churn: evict a survivor, restore it with its grown
    # prefix, and audit that exactly the live set holds regions.
    arena.preempt(4)
    verify("preempt", live=[0, 2])
    arena.restore(4, tokens=16 + 8 * 4 + 9, max_total_tokens=64 + 8 * 4)
    verify("restore", live=[0, 2, 4])
    # Page sharing: publish request 0's full prompt pages to a prefix
    # index, admit a newcomer attaching that cached prefix, and CoW-fork
    # request 2 — three regions plus the index now share pages.
    index = RadixPrefixIndex(arena)
    ids = tuple(range(16 + 9))  # request 0's 25-token prompt+growth
    index.insert(ids, arena.region_of(0).pages[:2])
    matched, pages = index.lookup(ids)
    arena.admit(6, prompt_tokens=len(ids), max_total_tokens=48,
                shared_pages=pages)
    arena.fork(2, 7, max_total_tokens=64 + 8 * 2)
    verify("share", live=[0, 2, 4, 6, 7])
    # Preempting the publisher must keep the shared pages resident (index
    # + newcomer still reference them); releasing the fork parent must
    # keep the child's shared pages alive.
    arena.preempt(0)
    arena.release(2)
    verify("cow-release", live=[4, 6, 7])
    # Drain the regions, then evict the cached pages from the index: the
    # arena must end empty with every refcount at zero.
    for req_id in (4, 6, 7):
        arena.release(req_id)
    verify("index-only", live=[])
    index.clear()
    verify("drain", live=[])
    return verified


def plan_double_buffered(
    records_a: Sequence[TensorUsageRecord],
    records_b: Sequence[TensorUsageRecord],
) -> Dict[str, Tuple[AllocationPlan, Sequence[TensorUsageRecord]]]:
    """Plan two concurrently-live requests into one shared chunk space.

    Each request gets its own :class:`TurboAllocator` (its own per-stream
    chunk pool, as a double-buffered server would); request B's chunk ids
    are shifted past A's so both plans address one device-wide chunk-id
    space with disjoint chunks.
    """
    plan_a = TurboAllocator().plan(records_a)
    plan_b = TurboAllocator().plan(records_b)
    shift = max(plan_a.chunk_sizes, default=-1) + 1
    shifted = AllocationPlan(
        placements={
            name: Placement(p.chunk_id + shift, p.offset)
            for name, p in plan_b.placements.items()
        },
        chunk_sizes={
            cid + shift: size for cid, size in plan_b.chunk_sizes.items()
        },
    )
    return {"req-a": (plan_a, records_a), "req-b": (shifted, records_b)}


def _double_buffered_records() -> Tuple[List[TensorUsageRecord], List[TensorUsageRecord]]:
    from ..models import build_encoder_graph, tiny_bert

    fused = fuse_graph(build_encoder_graph(tiny_bert()))
    records_a = tensor_usage_records(fused, {"batch": 2, "seq": 48})
    records_b = tensor_usage_records(fused, {"batch": 2, "seq": 96})
    def rename(rs: List[TensorUsageRecord], tag: str) -> List[TensorUsageRecord]:
        return [
            TensorUsageRecord(name=f"{tag}.{r.name}", first_op=r.first_op,
                              last_op=r.last_op, size=r.size)
            for r in rs
        ]

    return rename(records_a, "a"), rename(records_b, "b")


def _double_buffered_cross_request_diags():
    records_a, records_b = _double_buffered_records()
    return check_cross_request(plan_double_buffered(records_a, records_b))


# ---------------------------------------------------------------------------
# Seeded serving schedule
# ---------------------------------------------------------------------------


def build_serving_schedule(
    seed: int = 0,
    n_requests: int = 6,
    rate_per_s: float = 200.0,
) -> StreamSchedule:
    """A double-buffered copy/compute serving schedule for ``n_requests``.

    Mirrors how a TurboTransformers-style server overlaps PCIe transfers
    with compute: one copy stream moves request ``i``'s inputs to the
    device and results back; two compute streams alternate requests so
    request ``i+1``'s kernels can run while ``i``'s output transfers.
    Event syncs order each request's copy -> compute -> copy pipeline;
    the shared embedding/weight buffers are read-only on every stream, so
    the schedule is race-free by construction.
    """
    from ..serving.workload import generate_requests

    requests = generate_requests(rate_per_s=rate_per_s, duration_s=1.0,
                                 seed=seed)[:n_requests]
    schedule = StreamSchedule(name=f"serving-seed{seed}")
    weights = ("weights",)
    for i, request in enumerate(requests):
        compute = f"compute{i % 2}"
        inp, act, out = f"req{i}.input", f"req{i}.act", f"req{i}.out"
        schedule.launch(f"h2d.req{i}", "copy", reads=(), writes=(inp,))
        schedule.record(f"h2d.done{i}", "copy")
        schedule.wait(f"h2d.done{i}", compute)
        schedule.launch(f"encoder.req{i}(len={request.seq_len})", compute,
                        reads=(inp,) + weights, writes=(act,))
        schedule.launch(f"classifier.req{i}", compute,
                        reads=(act,) + weights, writes=(out,))
        schedule.record(f"compute.done{i}", compute)
        schedule.wait(f"compute.done{i}", "copy")
        schedule.launch(f"d2h.req{i}", "copy", reads=(out,), writes=())
    return schedule


def run_schedule_checks(seed: int = 0) -> DiagnosticReport:
    report = DiagnosticReport()
    schedule = build_serving_schedule(seed=seed)
    report.extend(check_schedule(schedule))
    report.checked["schedule_ops"] = len(schedule)
    report.checked["schedule_streams"] = len(schedule.streams())
    return report


# ---------------------------------------------------------------------------
# Determinism sweep
# ---------------------------------------------------------------------------


def default_lint_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def default_lint_roots() -> Tuple[Path, ...]:
    """The package directory plus the repo ``tests/`` tree when present
    (a pip-installed package has no tests checkout — lint what exists)."""
    package = default_lint_root()
    roots = [package]
    tests = package.parent.parent / "tests"
    if tests.is_dir():
        roots.append(tests)
    return tuple(roots)


def run_determinism_checks(root: Optional[Path] = None) -> DiagnosticReport:
    report = DiagnosticReport()
    roots = default_lint_roots() if root is None else (Path(root),)
    linted = 0
    for lint_root in roots:
        diags = lint_paths(lint_root)
        # Report checkout-independent relative paths (keeps the JSON
        # artifact byte-stable across CI runners).  The package root keeps
        # its historical base (``serving/server.py``); any other root is
        # prefixed with its own directory name (``tests/engine/...``).
        if lint_root.is_dir() and lint_root.name == "repro":
            base = lint_root
        else:
            base = lint_root.parent
        for d in diags:
            file = d.location.file
            if file is not None:
                try:
                    file = str(
                        Path(file).resolve().relative_to(base.resolve())
                    )
                except ValueError:
                    pass
            report.add(diag(d.code, d.message, severity=d.severity,
                            file=file, line=d.location.line))
        linted += (
            1 if lint_root.is_file() else len(list(lint_root.rglob("*.py")))
        )
    report.checked["linted_files"] = linted
    return report


# ---------------------------------------------------------------------------
# Engine-trace sweep
# ---------------------------------------------------------------------------


def run_engine_lifecycle_checks(
    families: Sequence[str] = ("engine", "lifecycle"),
    seed: int = 0,
) -> DiagnosticReport:
    """Run the light trace-sanitizer sweep and keep the selected slices.

    One recorded execution per :data:`~repro.analysis.sanitizer.
    TRACE_SCENARIOS` entry backs both families: ENG5xx diagnostics — and
    SCHED311, the race audit of the stream schedules the chunked
    continuous round loop actually emitted — belong to ``engine``;
    LIFE6xx and the MEM22x conservation codes belong to ``lifecycle``.
    """
    from .sanitizer import run_trace_checks

    diagnostics, totals = run_trace_checks(seed=seed)
    report = DiagnosticReport()
    for d in diagnostics:
        family = "engine" if d.code.startswith(("ENG", "SCHED")) \
            else "lifecycle"
        if family in families:
            report.add(d)
    report.checked.update(totals)
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_check(
    families: Optional[Sequence[str]] = None,
    seed: int = 0,
    lint_root: Optional[Path] = None,
) -> DiagnosticReport:
    """Run the selected checker families (default: all of them)."""
    selected = tuple(families) if families else FAMILIES
    unknown = set(selected) - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown checker families: {sorted(unknown)}; "
                         f"choose from {FAMILIES}")
    report = DiagnosticReport()
    graphs = None
    if "graph" in selected or "memory" in selected:
        graphs = builtin_graphs()
    if "graph" in selected:
        report.merge(run_graph_checks(graphs))
    if "memory" in selected:
        report.merge(run_memory_checks(graphs))
    if "schedule" in selected:
        report.merge(run_schedule_checks(seed=seed))
    if "determinism" in selected:
        report.merge(run_determinism_checks(lint_root))
    if "engine" in selected or "lifecycle" in selected:
        report.merge(run_engine_lifecycle_checks(selected, seed=seed))
    return report
