"""Unified diagnostic framework for the static-analysis layer.

Every checker family (graph, memory, schedule, determinism) reports
problems as :class:`Diagnostic` values carrying a *stable code* (e.g.
``GRAPH101``), a severity, a location and a human-readable message.
Stable codes let CI suppress or grep for specific bug classes and let
``# repro: allow(<code>)`` pragmas target exactly one rule.

A :class:`DiagnosticReport` aggregates diagnostics across families and
renders them as text (one line per diagnostic, compiler style) or JSON
(a versioned, deterministic document for CI artifacts and golden tests).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple


class Severity(enum.Enum):
    """How bad a diagnostic is; ERRORs fail ``python -m repro check``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: Registry of every stable diagnostic code, its default severity and a
#: short title.  Checkers may only emit codes listed here (enforced by
#: :meth:`Diagnostic.__post_init__`), so the documentation in
#: ``docs/API.md`` cannot silently drift from the implementation.
CODES: Dict[str, Tuple[Severity, str]] = {
    # -- graph checkers (GRAPH1xx) ----------------------------------------
    "GRAPH101": (Severity.ERROR, "shape propagation mismatch"),
    "GRAPH102": (Severity.ERROR, "dtype mismatch across an op"),
    "GRAPH103": (Severity.WARNING, "dangling tensor (never produced or consumed)"),
    "GRAPH104": (Severity.WARNING, "dead node (outputs never consumed)"),
    "GRAPH105": (Severity.ERROR, "structural graph error (cycle/order/producer)"),
    "GRAPH110": (Severity.ERROR, "fusion changed the graph's external IO"),
    "GRAPH111": (Severity.ERROR, "fusion eliminated a tensor that escapes"),
    "GRAPH112": (Severity.ERROR, "fusion barrier swallowed into a fused node"),
    # -- memory-plan verifier (MEM2xx) ------------------------------------
    "MEM201": (Severity.ERROR, "plan does not cover the usage records"),
    "MEM202": (Severity.ERROR, "placement outside its chunk"),
    "MEM203": (Severity.ERROR, "live tensors alias within a chunk"),
    "MEM204": (Severity.ERROR, "cross-request placements alias"),
    "MEM210": (Severity.INFO, "chunk fragmentation report"),
    "MEM211": (Severity.WARNING, "chunk utilization below threshold"),
    "MEM220": (Severity.ERROR, "KV page slots not disjoint"),
    "MEM221": (Severity.ERROR, "KV region outlives its request (leak)"),
    "MEM222": (Severity.ERROR, "KV token-conservation ledger divergence"),
    "MEM223": (Severity.ERROR, "KV restore without a matching preempt"),
    "MEM224": (Severity.ERROR, "KV page refcount diverges from its references"),
    # -- schedule race detector (SCHED3xx) ---------------------------------
    "SCHED301": (Severity.ERROR, "read-after-write hazard across streams"),
    "SCHED302": (Severity.ERROR, "write-after-read hazard across streams"),
    "SCHED303": (Severity.ERROR, "write-after-write hazard across streams"),
    "SCHED310": (Severity.ERROR, "wait on an event that was never recorded"),
    "SCHED311": (Severity.ERROR,
                 "chunked-prefill round schedule race/missing-sync"),
    # -- determinism linter (DET4xx) ---------------------------------------
    "DET400": (Severity.ERROR, "source file failed to parse"),
    "DET401": (Severity.ERROR, "unseeded random number generation"),
    "DET402": (Severity.ERROR, "wall-clock read in a simulation path"),
    "DET403": (Severity.WARNING, "iteration over an unordered set"),
    "DET404": (Severity.WARNING, "pragma references an unknown code"),
    "DET405": (Severity.ERROR, "direct heapq use outside the engine"),
    "DET406": (Severity.ERROR, "virtual clock mutated outside the engine"),
    "DET407": (Severity.WARNING, "TRIGGER scheduled outside ensure_trigger"),
    # -- engine-trace sanitizer (ENG5xx) -----------------------------------
    "ENG501": (Severity.ERROR, "virtual clock moved backwards in trace"),
    "ENG502": (Severity.ERROR, "event dispatched off its scheduled time"),
    "ENG503": (Severity.ERROR, "lost wakeup: engine quiescent with live requests"),
    # -- request-lifecycle sanitizer (LIFE6xx) -----------------------------
    "LIFE601": (Severity.ERROR, "admitted request never reached a terminal state"),
    "LIFE602": (Severity.ERROR, "request resolved terminally more than once"),
    "LIFE603": (Severity.ERROR, "completion inside its replica's crash window"),
    "LIFE604": (Severity.ERROR, "retries exceed the attempt/budget limits"),
    "LIFE605": (Severity.ERROR, "completion before arrival"),
    "LIFE606": (Severity.ERROR, "illegal circuit-breaker transition"),
}

#: Code-prefix → catalog family, in rendering order.  Drives
#: :func:`render_code_catalog`, which regenerates the ``docs/API.md``
#: table so the documentation is derived from (not parallel to) the
#: registry; ``tests/analysis/test_code_catalog.py`` pins the two.
CATALOG_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    # (family label, first code inclusive, last code inclusive)
    ("graph", "GRAPH101", "GRAPH109"),
    ("fusion", "GRAPH110", "GRAPH199"),
    ("memory", "MEM200", "MEM299"),
    ("schedule", "SCHED300", "SCHED399"),
    ("determinism", "DET400", "DET499"),
    ("engine", "ENG500", "ENG599"),
    ("lifecycle", "LIFE600", "LIFE699"),
)


def catalog_family(code: str) -> str:
    """The docs-catalog family a code belongs to."""
    for family, lo, hi in CATALOG_FAMILIES:
        if lo <= code <= hi:
            return family
    raise ValueError(f"code {code!r} fits no catalog family")


def render_code_catalog() -> str:
    """Render the stable-code catalog as a markdown table.

    One row per family, codes in registry order; non-error severities are
    tagged ``(warn)`` / ``(info)`` like the hand-written table this
    replaces.  The output is embedded verbatim in ``docs/API.md`` between
    ``CODE CATALOG`` markers and pinned by a drift test.
    """
    tags = {Severity.WARNING: " (warn)", Severity.INFO: " (info)"}
    rows: Dict[str, List[str]] = {family: [] for family, _, _ in
                                  CATALOG_FAMILIES}
    for code, (severity, title) in CODES.items():
        rows[catalog_family(code)].append(
            f"`{code}` {title}{tags.get(severity, '')}")
    lines = ["| family | codes |", "|---|---|"]
    for family, _, _ in CATALOG_FAMILIES:
        lines.append(f"| {family} | " + ", ".join(rows[family]) + " |")
    return "\n".join(lines)


def default_severity(code: str) -> Severity:
    return CODES[code][0]


def code_title(code: str) -> str:
    return CODES[code][1]


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points: a source line, a graph node, a chunk, …

    All fields are optional; checkers fill whichever apply.  ``__str__``
    renders a compact compiler-style prefix such as
    ``src/repro/foo.py:12`` or ``graph bert, node l0.softmax``.
    """

    file: Optional[str] = None
    line: Optional[int] = None
    graph: Optional[str] = None
    node: Optional[str] = None

    def __str__(self) -> str:
        parts: List[str] = []
        if self.file is not None:
            parts.append(f"{self.file}:{self.line}" if self.line is not None
                         else self.file)
        if self.graph is not None:
            parts.append(f"graph {self.graph}")
        if self.node is not None:
            parts.append(f"node {self.node}")
        return ", ".join(parts) if parts else "<global>"

    def sort_key(self) -> Tuple:
        return (self.file or "", self.line or 0, self.graph or "", self.node or "")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key in ("file", "line", "graph", "node"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one checker, with a stable code."""

    code: str
    message: str
    severity: Severity = field(default=None)  # type: ignore[assignment]
    location: Location = field(default_factory=Location)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}; "
                             f"register it in analysis.diagnostics.CODES")
        if self.severity is None:
            object.__setattr__(self, "severity", default_severity(self.code))
        if not self.message:
            raise ValueError(f"{self.code}: message must be non-empty")

    def render(self) -> str:
        return f"{self.severity.value}[{self.code}] {self.location}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "location": self.location.to_dict(),
            "message": self.message,
        }


def diag(code: str, message: str, *, severity: Optional[Severity] = None,
         **loc: Any) -> Diagnostic:
    """Convenience constructor: ``diag("MEM203", "...", graph="bert")``."""
    return Diagnostic(code=code, message=message,
                      severity=severity,  # type: ignore[arg-type]
                      location=Location(**loc))


@dataclass
class DiagnosticReport:
    """Aggregated diagnostics plus bookkeeping about what was checked."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Free-form, JSON-safe facts about coverage ("graphs_checked": 7, …).
    checked: Dict[str, Any] = field(default_factory=dict)

    def add(self, *diags: Diagnostic) -> None:
        self.diagnostics.extend(diags)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def merge(self, other: "DiagnosticReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.checked.update(other.checked)

    # -- queries -----------------------------------------------------------

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for d in self.diagnostics:
            out[d.severity.value] += 1
        return out

    def sorted(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, d.code, d.location.sort_key(),
                           d.message),
        )

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- reporters ---------------------------------------------------------

    def render_text(self, *, max_info: Optional[int] = None) -> str:
        """Compiler-style listing, errors first, plus a summary line."""
        lines: List[str] = []
        shown_info = 0
        for d in self.sorted():
            if (max_info is not None and d.severity is Severity.INFO):
                shown_info += 1
                if shown_info > max_info:
                    continue
            lines.append(d.render())
        counts = self.counts()
        for key, value in sorted(self.checked.items()):
            lines.append(f"checked: {key} = {value}")
        lines.append(
            f"summary: {counts['error']} error(s), {counts['warning']} "
            f"warning(s), {counts['info']} info"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "summary": self.counts(),
            "checked": dict(sorted(self.checked.items())),
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def report_from_dicts(payload: Mapping[str, Any]) -> DiagnosticReport:
    """Rebuild a report from :meth:`DiagnosticReport.to_dict` output
    (used by tests and tooling that post-process the JSON artifact)."""
    report = DiagnosticReport(checked=dict(payload.get("checked", {})))
    for entry in payload.get("diagnostics", []):
        report.add(
            Diagnostic(
                code=entry["code"],
                message=entry["message"],
                severity=Severity(entry["severity"]),
                location=Location(**entry.get("location", {})),
            )
        )
    return report
