"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` declares its public names in one
``{name: submodule}`` table and hands it to :func:`lazy_exports`, which
returns the package's ``__getattr__``, ``__dir__`` and ``__all__``.
Reading a name imports only the submodule that defines it (and that
submodule's own imports), so ``from repro.serving import simulate_serving``
loads the encoder serving path and nothing else.

A name that equals its own submodule's name (``gpusim.occupancy``,
``kernels.gemm``) is bound when the package loads: importing the
submodule later sets the package attribute to the module, and the eager
binding is what keeps the function there.
"""

from __future__ import annotations

import importlib
import sys
from typing import Iterable, List, Mapping


def lazy_exports(package: str, table: Mapping[str, str],
                 modules: Iterable[str] = ()) -> tuple:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each public name to the submodule that defines it;
    ``modules`` names submodules exported as themselves.
    """
    modules = tuple(modules)
    exports = dict(table)
    namespace = sys.modules[package].__dict__
    for name, sub in exports.items():
        if name == sub:
            namespace[name] = getattr(
                importlib.import_module(f"{package}.{sub}"), name)

    def __getattr__(name: str):
        if name in exports:
            value = getattr(
                importlib.import_module(f"{package}.{exports[name]}"), name)
        elif name in modules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports) | set(modules))

    return __getattr__, __dir__, [*exports, *modules]
