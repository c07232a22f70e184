"""Shared, lazily-computed scenario runs for the benchmark suite.

The heavy 3D runs (Palu fully coupled, Palu linked, Scenario A coupled and
linked) are each needed by several figure benchmarks; they are computed
once per pytest session and memoized here.

Set ``REPRO_FAST=1`` to shrink the runs (shorter simulated time, coarser
meshes) for a quick smoke pass of the whole suite.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

import numpy as np

from repro.io.atomic import atomic_open

FAST = os.environ.get("REPRO_FAST", "0") == "1"

_OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
_CREATED_DIRS: set[str] = set()


def _print_header(name: str):
    print(f"\n[{name}] computing shared run (cached for this session) ...", flush=True)


def _ensure_out_dir() -> str:
    """Create ``benchmarks/out`` once per process (fresh clones lack it).

    Memoized per path, not with a single flag, because the test suite
    monkeypatches ``_OUT_DIR`` to a temporary directory.
    """
    out = _OUT_DIR
    if out not in _CREATED_DIRS:
        os.makedirs(out, exist_ok=True)
        _CREATED_DIRS.add(out)
    return out


def report(name: str, lines: list[str], metrics: dict | None = None) -> None:
    """Print a paper-vs-measured comparison and persist it to
    ``benchmarks/out/<name>.txt`` (the EXPERIMENTS.md source data).

    ``metrics`` is the machine-readable side-channel: when given, the dict
    is written as ``<name>.json`` next to the text report, so benchmarks
    can persist per-phase/per-kernel breakdowns (telemetry snapshots,
    model numbers) without flattening them into the human-readable lines.

    All files are written through :func:`repro.io.atomic.atomic_open`, so
    an interrupted benchmark never leaves a truncated results file behind.
    """
    text = "\n".join(lines)
    print(f"\n===== {name} =====\n{text}\n", flush=True)
    out = _ensure_out_dir()
    with atomic_open(os.path.join(out, f"{name}.txt")) as f:
        f.write(text + "\n")
    if metrics is not None:
        with atomic_open(os.path.join(out, f"{name}.json")) as f:
            f.write(json.dumps(metrics, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def palu_config():
    from repro.scenarios.palu import PaluConfig

    if FAST:
        return PaluConfig(
            x_extent=(-3000.0, 3000.0),
            y_extent=(-3600.0, 3600.0),
            dx_fine=500.0,
            dx_coarse=1100.0,
            n_earth_layers=5,
            earth_depth=2400.0,
            fault_y_extent=(-3000.0, 3000.0),
            nucleation_y=2000.0,
            bay_length=2600.0,
        )
    return PaluConfig()


def palu_t_end() -> float:
    return 1.6 if FAST else 2.5


@lru_cache(maxsize=1)
def palu_built():
    """Fully coupled Palu model, built but not advanced: ``(solver, fault, lts)``."""
    from repro.core.lts import LocalTimeStepping
    from repro.scenarios.palu import build_coupled

    _print_header("palu build")
    solver, fault = build_coupled(palu_config())
    lts = LocalTimeStepping(solver)
    return solver, fault, lts


@lru_cache(maxsize=1)
def palu_coupled_run():
    """Fully coupled Palu run advanced to ``palu_t_end()``.

    Returns ``(solver, fault, lts, receivers)`` — the receivers sit in the
    bay's water column and sample at every LTS macro step (the Sec. 6.2
    "recorded acoustic velocity time series").
    """
    from repro.analysis.receivers import ReceiverArray
    from repro.sched import HookBus, Scheduler

    solver, fault, lts = palu_built()
    cfg = palu_config()
    _print_header("palu coupled run")
    bay_pts = np.array(
        [
            [cfg.bay_x, 0.0, -0.5 * cfg.bay_depth],
            [cfg.bay_x, 0.3 * cfg.bay_length, -0.4 * cfg.bay_depth],
        ]
    )
    receivers = ReceiverArray(solver, bay_pts)
    receivers.record()
    hooks = HookBus()
    receivers.subscribe(hooks)
    Scheduler(solver, lts).run(palu_t_end(), hooks=hooks)
    return solver, fault, lts, receivers


@lru_cache(maxsize=1)
def palu_linked_run():
    """Earthquake-only Palu run + one-way-linked SWE at ``palu_t_end()``.

    Returns ``(eq_solver, fault, tracker, swe)``.
    """
    from repro.scenarios import run_linked_twin

    _print_header("palu linked")
    return run_linked_twin("palu", palu_config(), palu_t_end(), 6 if FAST else 10)


# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def scenario_a_config():
    from repro.scenarios.scenario_a import ScenarioAConfig

    if FAST:
        return ScenarioAConfig(
            x_extent=(-2000.0, 2000.0),
            y_extent=(-1800.0, 1800.0),
            n_earth_layers=7,
            fault_length_y=1200.0,
        )
    return ScenarioAConfig()


def scenario_a_t_end() -> float:
    return 3.0 if FAST else 6.0


@lru_cache(maxsize=1)
def scenario_a_coupled_run():
    """Returns ``(solver, fault)`` advanced to ``scenario_a_t_end()``."""
    from repro.core.lts import LocalTimeStepping
    from repro.scenarios.scenario_a import build_coupled
    from repro.sched import Scheduler

    _print_header("scenario A coupled")
    solver, fault = build_coupled(scenario_a_config())
    lts = LocalTimeStepping(solver)
    Scheduler(solver, lts).run(scenario_a_t_end())
    return solver, fault


@lru_cache(maxsize=1)
def scenario_a_linked_run():
    """Returns ``(eq_solver, fault, tracker, swe)``."""
    from repro.scenarios import run_linked_twin

    _print_header("scenario A linked")
    return run_linked_twin("scenario_a", scenario_a_config(), scenario_a_t_end(),
                           6 if FAST else 10)


# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def scaling_mesh():
    """The larger Palu-like mesh used by the machine-model benchmarks."""
    from repro.core.lts import cluster_elements
    from repro.core.materials import acoustic, elastic
    from repro.mesh.generators import bathymetry_mesh
    from repro.mesh.refine import refined_spacing

    _print_header("scaling mesh")
    earth = elastic(2700.0, 6000.0, 3464.0)
    ocean = acoustic(1000.0, 1500.0)

    def bathy(x, y):
        return -100 - 600 * np.exp(-(((x - 30e3) / 8e3) ** 2)) * (
            0.5 + 0.5 * np.tanh((y - 20e3) / 10e3)
        )

    h = 2000 if FAST else 1200
    xs = refined_spacing(0, 60e3, 4000, h, 15e3, 45e3)
    ys = refined_spacing(0, 120e3, 4000, h, 20e3, 100e3)
    zs = np.concatenate(
        [np.linspace(-30e3, -10e3, 4), refined_spacing(-10e3, -700, 3000, h, -10e3, -700)[1:]]
    )
    mesh = bathymetry_mesh(xs, ys, bathy, 2, zs, earth, ocean)
    cluster, dt_min = cluster_elements(mesh, 5)
    return mesh, cluster, dt_min
