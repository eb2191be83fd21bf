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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "FAMILIES": "check",
    "build_serving_schedule": "check",
    "builtin_graphs": "check",
    "default_lint_root": "check",
    "default_lint_roots": "check",
    "plan_double_buffered": "check",
    "run_check": "check",
    "run_determinism_checks": "check",
    "run_engine_lifecycle_checks": "check",
    "run_graph_checks": "check",
    "run_memory_checks": "check",
    "run_schedule_checks": "check",
    "lint_file": "determinism",
    "lint_paths": "determinism",
    "lint_source": "determinism",
    "parse_pragmas": "determinism",
    "CATALOG_FAMILIES": "diagnostics",
    "CODES": "diagnostics",
    "Diagnostic": "diagnostics",
    "DiagnosticReport": "diagnostics",
    "Location": "diagnostics",
    "Severity": "diagnostics",
    "catalog_family": "diagnostics",
    "code_title": "diagnostics",
    "default_severity": "diagnostics",
    "diag": "diagnostics",
    "render_code_catalog": "diagnostics",
    "report_from_dicts": "diagnostics",
    "EngineTraceRecorder": "engine_checks",
    "verify_engine_trace": "engine_checks",
    "verify_kv_ledger": "engine_checks",
    "verify_lifecycle": "engine_checks",
    "verify_trace": "engine_checks",
    "TRACE_SCENARIOS": "sanitizer",
    "ScenarioOutcome": "sanitizer",
    "run_sanitized": "sanitizer",
    "run_scenario_trace": "sanitizer",
    "run_trace_checks": "sanitizer",
    "sanitize_scenarios": "sanitizer",
    "check_fusion": "graph_checks",
    "check_graph": "graph_checks",
    "fusion_invariant_holds": "graph_checks",
    "ChunkStats": "memory_checks",
    "FragmentationReport": "memory_checks",
    "arena_diag_code": "memory_checks",
    "check_cross_request": "memory_checks",
    "check_fragmentation": "memory_checks",
    "check_plan": "memory_checks",
    "fragmentation_report": "memory_checks",
    "verify_serving_metrics": "serving_checks",
    "check_emitted_schedules": "schedule_checks",
    "check_schedule": "schedule_checks",
    "schedule_is_race_free": "schedule_checks",
})
