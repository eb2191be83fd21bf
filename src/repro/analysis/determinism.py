"""Determinism linter (DET4xx): a Python-AST pass over the source tree.

The whole reproduction rests on bit-identical replay — the chaos CI job
literally diffs JSON metrics between two runs of the same seed.  The three
bug classes that historically break that property:

* **DET401 unseeded RNG** — calls into ``random``'s module-level
  generator (global mutable state), NumPy's legacy global generator
  (``np.random.rand`` & co.), ``np.random.default_rng()`` with no seed,
  or ``random.Random()`` with no seed.
* **DET402 wall-clock reads** — ``time.time``/``perf_counter``/
  ``monotonic`` and ``datetime.now``-style calls; simulated time must
  come from the simulation's own clock.
* **DET403 unordered iteration** — directly iterating a set expression
  (literal, ``set(...)``/``frozenset(...)`` call, or ``set`` arithmetic)
  where the walk order can reach output.  Purely syntactic: iterating a
  *variable* that happens to hold a set is not flagged (no type
  inference), and ``sorted(...)`` wrapping suppresses the pattern.

Since every serving loop runs on the shared discrete-event engine, the
pass also lints **engine-API misuse** — hand-rolled event plumbing that
bypasses :class:`repro.engine.Engine` and breaks the trace sanitizer's
invariants:

* **DET405 direct heapq use** — calling ``heapq.*`` outside the engine
  re-implements the event queue; schedule through ``Engine.schedule``.
* **DET406 clock mutation** — calling ``.advance_to(...)`` or assigning
  ``.now`` / ``._now`` moves simulated time behind the engine's back;
  only the dispatch loop may advance the clock.
* **DET407 raw TRIGGER scheduling** (warning) — scheduling
  ``EventKind.TRIGGER`` outside a function named ``ensure_trigger``
  risks duplicate or lost scheduler wakeups; route through the
  dedup-guarded helper.

Legitimate uses are suppressed with a same-line pragma::

    started = time.time()  # repro: allow(DET402) wall time for the report

``allow(*)`` suppresses every code on that line; unknown codes in a
pragma are themselves flagged (DET404) so typos cannot silently disable
a rule.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from .diagnostics import CODES, Diagnostic, diag

#: ``# repro: allow(DET402)`` or ``# repro: allow(DET401, DET403)`` or
#: ``# repro: allow(*)``; trailing prose after the closing paren is fine.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\(\s*([A-Za-z0-9*,\s]+?)\s*\)")

#: NumPy legacy global-generator entry points (np.random.<fn> draws from
#: hidden module state; seeding it is process-global and fragile).
_NP_GLOBAL_RNG = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "exponential",
    "poisson", "beta", "binomial", "bytes", "standard_normal", "seed",
}

#: Wall-clock callables, keyed by module.
_WALL_CLOCK = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time", "process_time_ns"},
    "datetime": {"now", "utcnow", "today"},
}


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the codes allowed on that line."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = PRAGMA_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            out[lineno] = codes
    return out


class _ImportMap:
    """Tracks what local names refer to the modules we care about."""

    def __init__(self) -> None:
        self.module_alias: Dict[str, str] = {}   # local name -> module
        self.direct: Dict[str, str] = {}         # local name -> "module.func"

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("random", "time", "datetime", "numpy", "heapq"):
                self.module_alias[alias.asname or root] = root

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        root = node.module.split(".")[0]
        if root not in ("random", "time", "datetime", "numpy", "heapq"):
            return
        for alias in node.names:
            local = alias.asname or alias.name
            if root == "datetime" and alias.name == "datetime":
                # ``from datetime import datetime`` -> datetime.now() calls
                # route through the module_alias path.
                self.module_alias[local] = "datetime"
            else:
                self.direct[local] = f"{root}.{alias.name}"


def _dotted(node: ast.AST) -> Optional[str]:
    """Render an attribute chain like ``np.random.default_rng`` to text."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically certain to evaluate to a set/frozenset."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra only counts when one side is itself a set expr
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, file: str) -> None:
        self.file = file
        self.imports = _ImportMap()
        self.found: List[Diagnostic] = []
        self._func_stack: List[str] = []

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.found.append(diag(
            code, message, file=self.file, line=getattr(node, "lineno", None),
        ))

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.visit_import_from(node)
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def _resolve_call(self, node: ast.Call) -> Optional[str]:
        """Fully qualified name of the called function, if trackable."""
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in self.imports.direct:
                return self.imports.direct[name]
            return None
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        # ``np.random...`` via ``import numpy as np`` resolves through the
        # alias map; untracked roots are ignored.
        module = self.imports.module_alias.get(head)
        if module is None:
            return None
        return f"{module}.{rest}" if rest else module

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self._resolve_call(node)
        if qualified:
            self._check_rng(qualified, node)
            self._check_wall_clock(qualified, node)
            self._check_heapq(qualified, node)
        self._check_list_of_set(node)
        self._check_engine_api(node)
        self.generic_visit(node)

    def _check_rng(self, qualified: str, node: ast.Call) -> None:
        has_args = bool(node.args or node.keywords)
        if qualified.startswith("random."):
            func = qualified.split(".", 1)[1]
            if func == "Random" and has_args:
                return  # random.Random(seed) is a seeded instance
            self._emit(
                "DET401",
                f"{qualified}() draws from the process-global generator; "
                f"thread a seeded np.random.Generator (or random.Random(seed)) "
                f"instead",
                node,
            )
        elif qualified.startswith("numpy.random."):
            func = qualified.split(".", 2)[2] if qualified.count(".") >= 2 else ""
            if func == "default_rng":
                if not has_args:
                    self._emit(
                        "DET401",
                        "np.random.default_rng() with no seed is entropy-"
                        "seeded; pass an explicit seed",
                        node,
                    )
            elif func in _NP_GLOBAL_RNG:
                self._emit(
                    "DET401",
                    f"np.random.{func}() uses NumPy's global generator; use "
                    f"np.random.default_rng(seed)",
                    node,
                )

    def _check_wall_clock(self, qualified: str, node: ast.Call) -> None:
        module, _, func = qualified.partition(".")
        if module not in _WALL_CLOCK:
            return
        # Strip class hops: datetime.datetime.now -> now.
        leaf = func.rsplit(".", 1)[-1] if func else ""
        if leaf in _WALL_CLOCK[module]:
            self._emit(
                "DET402",
                f"{qualified}() reads the wall clock; simulation paths must "
                f"derive time from the simulated clock",
                node,
            )

    def _check_heapq(self, qualified: str, node: ast.Call) -> None:
        if qualified.startswith("heapq."):
            func = qualified.split(".", 1)[1]
            self._emit(
                "DET405",
                f"heapq.{func}() re-implements the event queue by hand; "
                f"schedule through Engine.schedule so the trace sanitizer "
                f"sees every event",
                node,
            )

    def _check_engine_api(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "advance_to":
            self._emit(
                "DET406",
                "advance_to() mutates the virtual clock directly; only the "
                "engine's dispatch loop may move simulated time",
                node,
            )
        if "ensure_trigger" in self._func_stack:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            dotted = _dotted(arg)
            if dotted is not None \
                    and dotted.split(".")[-2:] == ["EventKind", "TRIGGER"]:
                self._emit(
                    "DET407",
                    "EventKind.TRIGGER scheduled outside ensure_trigger(); "
                    "raw TRIGGER events risk duplicate or lost scheduler "
                    "wakeups",
                    node,
                )

    def _check_list_of_set(self, node: ast.Call) -> None:
        """``list(set(...))`` / ``tuple(set(...))`` / ``"".join(set(...))``
        bake set order into a sequence."""
        if isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple"):
            if node.args and _is_set_expr(node.args[0]):
                self._emit(
                    "DET403",
                    f"{node.func.id}() over a set expression fixes an "
                    f"unordered walk into a sequence; wrap it in sorted()",
                    node,
                )
        if isinstance(node.func, ast.Attribute) and node.func.attr == "join":
            if node.args and _is_set_expr(node.args[0]):
                self._emit(
                    "DET403",
                    "str.join over a set expression produces order-dependent "
                    "output; wrap it in sorted()",
                    node,
                )

    # -- assignments -------------------------------------------------------

    def _check_clock_write(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Attribute) \
                and target.attr in ("now", "_now"):
            self._emit(
                "DET406",
                f"assigning .{target.attr} rewrites the virtual clock "
                "behind the engine's back; only the dispatch loop may move "
                "time",
                node,
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_clock_write(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_clock_write(node.target, node)
        self.generic_visit(node)

    # -- function-name stack (for DET407 scoping) --------------------------

    def _visit_function(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- iteration ---------------------------------------------------------

    def _check_iter(self, target: ast.expr, node: ast.AST) -> None:
        if _is_set_expr(target):
            self._emit(
                "DET403",
                "iterating a set expression walks it in hash order; wrap it "
                "in sorted() if the order can reach output",
                node,
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            self._check_iter(gen.iter, gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)


def lint_source(source: str, file: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text; applies same-line pragmas."""
    pragmas = parse_pragmas(source)
    out: List[Diagnostic] = []
    for lineno, codes in sorted(pragmas.items()):
        for code in sorted(codes):
            if code != "*" and code not in CODES:
                out.append(diag(
                    "DET404",
                    f"pragma allows unknown code {code!r}",
                    file=file, line=lineno,
                ))
    try:
        tree = ast.parse(source, filename=file)
    except SyntaxError as exc:
        out.append(diag("DET400", f"failed to parse: {exc.msg}",
                        file=file, line=exc.lineno))
        return out
    linter = _Linter(file)
    linter.visit(tree)
    for found in linter.found:
        allowed = pragmas.get(found.location.line or -1, set())
        if "*" in allowed or found.code in allowed:
            continue
        out.append(found)
    return out


def lint_file(path: Union[str, Path]) -> List[Diagnostic]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), file=str(path))


def lint_paths(root: Union[str, Path],
               exclude: Sequence[str] = ()) -> List[Diagnostic]:
    """Lint every ``*.py`` under ``root`` (sorted walk, so output order is
    stable).  ``exclude`` names path substrings to skip."""
    root = Path(root)
    files: Iterable[Path] = (
        [root] if root.is_file() else sorted(root.rglob("*.py"))
    )
    out: List[Diagnostic] = []
    for path in files:
        text = str(path)
        if any(token in text for token in exclude):
            continue
        out.extend(lint_file(path))
    return out
