"""Package roots that bind their public names on first access (PEP 562).

A package root re-exports the names of its submodules.  Importing every
submodule up front would make ``import repro.lbm.solver`` pay for the
cell, IBM and contact stack (and scipy, networkx and ``http.server``) that
a plain lattice run never touches.  Instead each root declares which
submodule defines each name and :func:`lazy_exports` supplies the module
``__getattr__`` that imports that submodule the first time the name is
read, then binds it in the package namespace so every later read is a
plain attribute lookup.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for the root of ``package``.

    ``exports`` maps each submodule (relative, e.g. ``".grid"``) to the
    public names it defines.  A name outside the table that names a
    submodule imports it, so ``repro.core`` is an attribute of ``repro``
    without an explicit ``import repro.core``.
    """
    namespace = sys.modules[package].__dict__
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = source.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return list(source), __getattr__, __dir__
