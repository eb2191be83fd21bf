"""Import hygiene of the serving entry points, and of the package.

Importing the generation and encoder entry points loads only the modules
on their own import chains: no text, experiments or analysis module, and
not ``numpy.random``.  A module that a serving run executes is imported
when the module that uses it loads, never inside the run, so a small
serve of each kind (lone generation, generation cluster, encoder) leaves
``sys.modules`` unchanged.  Both checks need a fresh interpreter.

Every ``repro`` module is imported by some program file or is an entry
point, apart from a pinned list: a module nothing imports is code only
its own tests run.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from .test_exports import declared_exports

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PROBE = r"""
import json, sys

from repro.serving import ContinuousBatchingServer, simulate_generation_cluster
from repro.memory import KVCacheArena
from repro.runtime import GenerationRuntime

generation = sorted(m for m in sys.modules if m.startswith("repro"))
from repro.serving import PrunedDPBatchScheduler, simulate_serving
from repro.runtime import warmup_profile

entry = sorted(m for m in sys.modules if m.startswith("repro"))
numpy_random = "numpy.random" in sys.modules

# Set-up: everything the runs need is built (and imported) here.
from repro.gpusim import RTX_2060
from repro.memory import kv_bytes_per_token
from repro.models import build_encoder_graph, tiny_bert
from repro.models.gpt import (build_decode_step_graph, build_prefill_graph,
                              tiny_gpt)
from repro.observability import MetricsRegistry
from repro.resilience import (CircuitBreaker, FaultPlan, ResilienceConfig,
                              RetryPolicy, ServerCrash, TransientFailures)
from repro.runtime import TURBO_CHARACTERISTICS, turbo_runtime
from repro.serving import (ContinuousBatchingConfig, GenRequest, Request,
                           ServingConfig)

gpt = tiny_gpt()
bpt = kv_bytes_per_token(gpt.num_layers, gpt.num_heads, gpt.head_size)
prefill, decode = build_prefill_graph(gpt), build_decode_step_graph(gpt)


def runtime():
    return GenerationRuntime(prefill, decode, TURBO_CHARACTERISTICS,
                             RTX_2060, stride=1)


def arena(_replica=0):
    return KVCacheArena(capacity_bytes=256 * bpt, bytes_per_token=bpt,
                        page_tokens=8)


shared = tuple(range(24))


def gen_requests():
    return [GenRequest(req_id=i, seq_len=30, arrival_s=0.01 * i,
                       max_new_tokens=4 + i % 5,
                       prompt_ids=shared + tuple(range(100 + i, 106 + i)))
            for i in range(24)]


def bert_requests():
    return [Request(req_id=i, seq_len=8 + 8 * (i % 4), arrival_s=0.002 * i)
            for i in range(40)]


table = warmup_profile(turbo_runtime(graph=build_encoder_graph(tiny_bert()),
                                     device=RTX_2060), 8, range(8, 33, 8))
config = ContinuousBatchingConfig(chunk_tokens=16, prefix_cache=True)
lone_runtime, lone_arena, lone = runtime(), arena(), gen_requests()
cluster_runtime, cluster = runtime(), gen_requests()
resilience = ResilienceConfig(
    faults=FaultPlan(crashes=(ServerCrash(0.05, 0.15, server_id=0),),
                     failures=(TransientFailures(0.0, 0.3, 0.3),)),
    retry=RetryPolicy(max_attempts=5),
    breaker_factory=lambda i: CircuitBreaker(name=f"replica{i}"))
bare, observed = bert_requests(), bert_requests()
registry = MetricsRegistry()
runs = {
    "lone generation": lambda: ContinuousBatchingServer(
        lone_runtime, lone_arena, config).serve(lone, duration_s=0.3),
    "generation cluster": lambda: simulate_generation_cluster(
        cluster, 2, cluster_runtime, arena, duration_s=0.3,
        resilience=resilience, config=config),
    "encoder": lambda: simulate_serving(
        bare, PrunedDPBatchScheduler(), table.cost,
        ServingConfig(max_batch=8), duration_s=0.1),
    "observed encoder": lambda: simulate_serving(
        observed, PrunedDPBatchScheduler(), table.cost,
        ServingConfig(max_batch=8), duration_s=0.1, metrics=registry),
}
imported = {}
for name, run in runs.items():
    before = set(sys.modules)
    run()
    imported[name] = sorted(set(sys.modules) - before)
done = all(r.is_completed for r in lone + cluster + bare + observed)
print(json.dumps({"generation": generation, "entry": entry,
                  "numpy_random": numpy_random,
                  "imported": imported, "done": done}))
"""


def probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_serving_entry_points_load_only_their_import_chains():
    result = probe()
    entry = result["entry"]
    assert not [m for m in entry if m.startswith(
        ("repro.text", "repro.experiments", "repro.analysis"))], entry
    assert not result["numpy_random"]
    # The eager package inits loaded 96 repro modules for the generation
    # entry points alone.
    assert len(result["generation"]) < 48, result["generation"]
    assert result["done"]
    # No module is first imported inside a serving call.
    assert result["imported"] == {"lone generation": [],
                                  "generation cluster": [],
                                  "encoder": [],
                                  "observed encoder": []}


#: Program files whose imports count: everything but the tests.
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perf")

#: ``repro`` modules that no program file imports and that are no entry
#: point: each is to move into the tests as an oracle, stay for a stated
#: reason, or go.
UNIMPORTED = [
    "analysis.serving_checks",
    "gpusim.occupancy",
    "gpusim.roofline",
    "graph.serialize",
    "kernels.quantize",
    "models.io",
    "models.seq2seq",
    "runtime.capacity",
    "runtime.executor",
]


def repro_modules() -> dict:
    """``{dotted name: path}`` of every ``repro`` module and package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def is_entry_point(tree: ast.Module) -> bool:
    """True for a module with an ``if __name__ == "__main__":`` block."""
    return any(
        isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", None) == "__name__"
        and any(getattr(c, "value", None) == "__main__"
                for c in node.test.comparators)
        for node in tree.body)


def imported_modules(modules: dict) -> set:
    """Every ``repro`` module some program file imports, a name imported
    from a package resolved through the package's export table, plus
    every entry point."""
    tables = {}

    def resolve(package: str, name: str) -> str:
        """The module that ``from <package> import <name>`` loads."""
        if f"{package}.{name}" in modules:
            return f"{package}.{name}"
        if package not in tables:
            tables[package] = declared_exports(package)[0]
        sub = tables[package].get(name)
        return f"{package}.{sub}" if sub is not None else package

    found = set()
    paths = [p for d in PROGRAM_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        # The package a relative import inside this file starts from.
        here = None
        if path.is_relative_to(SRC):
            parts = path.relative_to(SRC).with_suffix("").parts
            if is_entry_point(tree):
                found.add(".".join(parts))
            here = ".".join(parts[:-1])
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names
                             if a.name.split(".")[0] == "repro")
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    if here is None:
                        continue  # a relative import outside the package
                    base = here.rsplit(".", node.level - 1)[0]
                    package = f"{base}.{node.module}" if node.module else base
                else:
                    package = node.module
                if package.split(".")[0] != "repro":
                    continue
                found.add(package)
                if package in modules and \
                        modules[package].name == "__init__.py":
                    found.update(resolve(package, a.name) for a in node.names)
    return found


def test_every_module_is_imported_or_an_entry_point():
    modules = repro_modules()
    found = imported_modules(modules)
    unimported = sorted(
        name.removeprefix("repro.") for name, path in modules.items()
        if path.name != "__init__.py" and name not in found)
    assert unimported == UNIMPORTED
