"""Static analysis: graph/plan/schedule verifiers, determinism linter,
and the engine-trace sanitizer.

Six checker families behind one CLI (``python -m repro check``), all
reporting through the unified :class:`Diagnostic` framework with stable
codes (``GRAPH1xx``/``MEM2xx``/``SCHED3xx``/``DET4xx``/``ENG5xx``/
``LIFE6xx``):

* :mod:`.graph_checks` — shape/dtype propagation, dead code, and
  fusion-legality (IO-equivalence) verification;
* :mod:`.memory_checks` — allocation-plan bounds/aliasing verification,
  cross-request aliasing, fragmentation reporting;
* :mod:`.schedule_checks` — happens-before race detection over
  multi-stream :class:`~repro.gpusim.multistream.StreamSchedule` programs;
* :mod:`.determinism` — AST lint for unseeded RNG, wall-clock reads,
  unordered-set iteration and engine-API misuse, with
  ``# repro: allow(<code>)`` pragmas;
* :mod:`.engine_checks` — the :class:`EngineTraceRecorder` (hooks into
  the live engine/request/KV-arena/breaker layers) plus trace verifiers
  for clock/dispatch sanity (ENG5xx), request-lifecycle invariants
  (LIFE6xx) and KV token conservation (MEM22x);
* :mod:`.sanitizer` — seeded serving and chaos scenarios executed under
  the recorder (``repro check --sanitize <scenario>``);
* :mod:`.serving_checks` — a serving run's summary metrics recomputed
  from its terminal request list.
"""

from .check import (
    FAMILIES,
    build_serving_schedule,
    builtin_graphs,
    default_lint_root,
    default_lint_roots,
    plan_double_buffered,
    run_check,
    run_determinism_checks,
    run_engine_lifecycle_checks,
    run_graph_checks,
    run_memory_checks,
    run_schedule_checks,
)
from .determinism import lint_file, lint_paths, lint_source, parse_pragmas
from .diagnostics import (
    CATALOG_FAMILIES,
    CODES,
    Diagnostic,
    DiagnosticReport,
    Location,
    Severity,
    catalog_family,
    code_title,
    default_severity,
    diag,
    render_code_catalog,
    report_from_dicts,
)
from .engine_checks import (
    EngineTraceRecorder,
    verify_engine_trace,
    verify_kv_ledger,
    verify_lifecycle,
    verify_trace,
)
from .sanitizer import (
    TRACE_SCENARIOS,
    ScenarioOutcome,
    run_sanitized,
    run_scenario_trace,
    run_trace_checks,
    sanitize_scenarios,
)
from .graph_checks import check_fusion, check_graph, fusion_invariant_holds
from .memory_checks import (
    ChunkStats,
    FragmentationReport,
    arena_diag_code,
    check_cross_request,
    check_fragmentation,
    check_plan,
    fragmentation_report,
)
from .serving_checks import verify_serving_metrics
from .schedule_checks import (
    check_emitted_schedules,
    check_schedule,
    schedule_is_race_free,
)

__all__ = [
    "CODES",
    "Severity",
    "Location",
    "Diagnostic",
    "DiagnosticReport",
    "diag",
    "code_title",
    "default_severity",
    "report_from_dicts",
    "check_graph",
    "check_fusion",
    "fusion_invariant_holds",
    "check_plan",
    "arena_diag_code",
    "check_cross_request",
    "check_fragmentation",
    "fragmentation_report",
    "FragmentationReport",
    "ChunkStats",
    "check_schedule",
    "check_emitted_schedules",
    "schedule_is_race_free",
    "ScenarioOutcome",
    "lint_source",
    "lint_file",
    "lint_paths",
    "parse_pragmas",
    "FAMILIES",
    "run_check",
    "run_graph_checks",
    "run_memory_checks",
    "run_schedule_checks",
    "run_determinism_checks",
    "run_engine_lifecycle_checks",
    "builtin_graphs",
    "build_serving_schedule",
    "plan_double_buffered",
    "default_lint_root",
    "default_lint_roots",
    "CATALOG_FAMILIES",
    "catalog_family",
    "render_code_catalog",
    "EngineTraceRecorder",
    "verify_engine_trace",
    "verify_lifecycle",
    "verify_kv_ledger",
    "verify_trace",
    "verify_serving_metrics",
    "TRACE_SCENARIOS",
    "run_scenario_trace",
    "run_sanitized",
    "run_trace_checks",
    "sanitize_scenarios",
]
