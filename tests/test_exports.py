"""The export surface of every ``repro`` package.

Each package ``__init__`` is one lazy export table
(:func:`repro._exports.lazy_exports`).  Every check runs in a fresh
interpreter, one per package, so that a name some earlier import happened
to load cannot mask a broken one.  The expected table is read from the
``__init__`` source, not from the helper under test.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{p.parent.name}" for p in (SRC / "repro").glob("*/__init__.py"))


def declared_exports(package: str):
    """``(table, modules)`` as written in the package's ``lazy_exports``
    call."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", None) == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            modules = ()
            for kw in node.keywords:
                if kw.arg == "modules":
                    modules = ast.literal_eval(kw.value)
            return table, list(modules)
    raise AssertionError(f"{init} has no lazy_exports table")


CHECK = r"""
import importlib, json, sys

package, table, modules = json.loads(sys.argv[1])
pkg = importlib.import_module(package)
# Import every defining submodule first: the import system then sets each
# as a package attribute, which is what could shadow a same-named export.
for sub in sorted(set(table.values())):
    importlib.import_module(f"{package}.{sub}")
namespace = {}
exec(f"from {package} import *", namespace)
for name, sub in table.items():
    want = getattr(sys.modules[f"{package}.{sub}"], name)
    assert getattr(pkg, name) is want, (name, getattr(pkg, name))
    assert namespace[name] is want, name
for name in modules:
    assert getattr(pkg, name) is sys.modules[f"{package}.{name}"], name
extra = {"__version__"} if package == "repro" else set()
assert set(pkg.__all__) == set(table) | set(modules) | extra, pkg.__all__
assert set(pkg.__all__) <= set(dir(pkg))
try:
    pkg.no_such_export
except AttributeError as err:
    assert repr(package) in str(err), str(err)
else:
    raise AssertionError("unknown name resolved")
print("ok")
"""


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_export_table_resolves_in_a_fresh_interpreter(package):
    table, modules = declared_exports(package)
    assert table or modules
    out = run_fresh(CHECK, json.dumps([package, table, modules]))
    assert out.strip() == "ok"


def test_same_named_exports_stay_functions():
    """``gpusim.occupancy`` and ``kernels.gemm`` share their submodule's
    name; importing the submodule directly must not shadow them."""
    out = run_fresh(
        "import repro.gpusim.occupancy, repro.kernels.gemm\n"
        "from repro import gpusim, kernels\n"
        "print(callable(gpusim.occupancy), callable(kernels.gemm),\n"
        "      gpusim.occupancy.__module__, kernels.gemm.__module__)")
    assert out.split() == ["True", "True", "repro.gpusim.occupancy",
                           "repro.kernels.gemm"]


def test_bare_import_resolves_subpackages_lazily():
    out = run_fresh(
        "import sys\n"
        "import repro\n"
        "print(len([m for m in sys.modules if m.startswith('repro.')]))\n"
        "print(repro.serving.simulate_serving.__module__)")
    assert out.split() == ["1", "repro.serving.server"]


def test_runtime_factories_are_the_factory_functions():
    from repro.runtime import (RUNTIME_FACTORIES, fastertransformer_runtime,
                               onnxruntime_runtime, pytorch_runtime,
                               tensorrt_runtime, turbo_runtime, xla_runtime)

    assert RUNTIME_FACTORIES == {
        "turbo": turbo_runtime,
        "pytorch": pytorch_runtime,
        "onnxruntime": onnxruntime_runtime,
        "xla": xla_runtime,
        "fastertransformer": fastertransformer_runtime,
        "tensorrt": tensorrt_runtime,
    }
