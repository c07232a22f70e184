"""Lazy package namespaces (PEP 562).

``repro.obs`` and ``repro.ensemble`` re-export the public names of their
submodules.  Imported eagerly, every ``from ..obs.metrics import
get_metrics`` in the solver core and every ``get_builder`` loaded the
flight recorder, the fleet aggregator, the trace exporter, the supervisor
and ``multiprocessing`` into each cold start and each fleet worker
(EXPERIMENTS.md C1).  A package built with
:func:`lazy_namespace` imports a submodule when one of its names is first
read; ``from package import name`` and ``import package.submodule`` work
as before.
"""

from __future__ import annotations

import importlib
import sys


def lazy_namespace(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for ``package``'s ``__init__``:
    ``exports`` maps each submodule to the names it provides."""
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)  # resolved once
        return value

    return list(where), __getattr__
