"""The package graph of ``repro`` runs one way: no module imports a
package ranked above its own.

The ranks, bottom to top::

    repro._lazy
    core, mesh, kernels, rupture, tsunami, hpc, analysis
    exec, sched
    io
    obs
    ensemble, scenarios
    repro (the top-level package and its CLI)

Packages of one rank may import each other.  Every ``import`` statement
counts, those inside functions too: a lazy import is still a dependency.
"""

import ast
from pathlib import Path

import repro

RANKS = {
    "_lazy": 0,
    "core": 1, "mesh": 1, "kernels": 1, "rupture": 1, "tsunami": 1,
    "hpc": 1, "analysis": 1,
    "exec": 2, "sched": 2,
    "io": 3,
    "obs": 4,
    "ensemble": 5, "scenarios": 5,
}
#: the top-level package (``repro/__init__.py``, ``repro/__main__.py``)
TOP = max(RANKS.values()) + 1

#: upward imports that stay while the perf ledger (``perf/seams.py``)
#: imports the modules they sit in; each names the ROADMAP item that
#: removes it
ALLOWED = {
    # item 17: ResilientRunner leaves core for the run layer
    ("repro.core.resilience", "repro.io.checkpoint"),
    ("repro.core.resilience", "repro.obs.blackbox"),
    ("repro.core.resilience", "repro.obs.runlog"),
    ("repro.core.resilience", "repro.sched"),
    # item 17: the plan cache moves below core, or core takes it
    ("repro.core.kernels", "repro.exec.plan_cache"),
    # item 3: the backends fold into the Scheduler, and core.solver stops
    # constructing one
    ("repro.core.solver", "repro.exec.backend"),
}


def _rank(module: str) -> int:
    parts = module.split(".")
    if len(parts) == 1 or parts[1] == "__main__":
        return TOP
    return RANKS[parts[1]]


def _imports(root: Path):
    """``(module, imported module, line)`` of every ``repro`` import."""
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).with_suffix("").parts
        is_pkg = rel[-1] == "__init__"
        module = ".".join(rel[:-1] if is_pkg else rel)
        package = module.split(".") if is_pkg else module.split(".")[:-1]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = package[:len(package) - node.level + 1]
                    name = ".".join(base + ([node.module] if node.module else []))
                else:
                    name = node.module
                targets = ([name] if node.module
                           else [f"{name}.{a.name}" for a in node.names])
            else:
                continue
            for target in targets:
                if target == "repro" or target.startswith("repro."):
                    yield module, target, node.lineno


def _upward(root: Path):
    return [(m, t, line) for m, t, line in _imports(root)
            if _rank(t) > _rank(m)]


def test_no_package_imports_upward():
    root = Path(repro.__file__).resolve().parent
    found = _upward(root)
    bad = [f"{m}:{line} imports {t}" for m, t, line in found
           if (m, t) not in ALLOWED]
    assert not bad, "upward imports:\n" + "\n".join(bad)
    # an allowance whose import is gone is deleted with it
    assert {(m, t) for m, t, _ in found} == ALLOWED


def test_only_the_supervised_runner_below_obs_imports_obs():
    root = Path(repro.__file__).resolve().parent
    importers = {m for m, t, _ in _imports(root)
                 if _rank(m) < RANKS["obs"] and _rank(t) == RANKS["obs"]}
    assert importers == {"repro.core.resilience"}
