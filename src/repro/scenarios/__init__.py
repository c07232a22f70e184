"""The scenario registry: every scenario of the paper, built by one call.

Three families: ``quickstart`` (a small layered Earth-ocean box with an
explosive point source), ``scenario_a`` (the megathrust benchmark, paper
Fig. 3) and ``palu`` (the supershear Palu event, Fig. 1 / Sec. 6.2).
Each is a config dataclass plus one ``build_scenario(cfg, rng, *,
backend, workers)`` in its module; :data:`SCENARIOS` holds the rest as
data.  :func:`build` checks the overrides against the config's fields
and imports the scenario's module only then, so building one scenario
never loads another.  The seed adds a small deterministic jitter on top,
so a members-only sweep still explores the space: the quickstart's
source position and moment, Scenario A's nucleation overstress (±5 %),
Palu's hypocentre along strike (±200 m); overriding the jittered field
(:attr:`Scenario.pinned_by`) pins it.

:func:`run` is the one driver of a scenario run behind the CLI verbs
``quickstart`` / ``scenario-a`` / ``palu`` and the examples, which take
their flags from :func:`add_run_args`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import import_module

import numpy as np

from ..core.lts import LocalTimeStepping, cluster_major
from ..core.solver import CoupledSolver
from ..rupture.fault import FaultSolver
from ..sched import HookBus, Scheduler

__all__ = ["SCENARIOS", "Scenario", "ScenarioHandle", "build", "eta_summary",
           "fault_solver", "run_linked_twin", "run", "add_run_args",
           "run_options"]


@dataclass(frozen=True)
class Scenario:
    """One registry row: the submodule holding the scenario, the name of
    its config dataclass there, the override that pins the seed's jitter
    (``None``: always jittered), and whether the CLI runs it with
    clustered local time-stepping."""

    module: str
    config: str
    pinned_by: str | None
    lts: bool


class _Registry(dict):
    def __missing__(self, name):
        raise KeyError(f"unknown scenario {name!r} "
                       f"(scenarios: {', '.join(sorted(self))})")


#: name -> :class:`Scenario`; an unknown name raises ``KeyError`` listing them
SCENARIOS = _Registry({
    "quickstart": Scenario("quickstart", "QuickstartConfig", None, lts=False),
    "scenario_a": Scenario("scenario_a", "ScenarioAConfig", "nucleation_tau",
                           lts=True),
    "palu": Scenario("palu", "PaluConfig", "nucleation_y", lts=True),
})


@dataclass
class ScenarioHandle:
    """What :func:`build` returns: the solver, ``summarize`` — a
    ``solver -> dict`` of scenario-level result metrics (sea-surface
    extrema, peak slip rate), stored in an ensemble member's result
    file — and the config the solver was built from, jitter applied."""

    solver: object
    summarize: object
    config: object


def build(name: str, overrides: dict | None = None, seed: int = 0, *,
          backend="serial", workers: int | None = None) -> ScenarioHandle:
    """Build scenario ``name`` with config-field ``overrides`` and the
    jitter of ``seed``; ``backend`` / ``workers`` select the execution
    backend (see :mod:`repro.exec`)."""
    row = SCENARIOS[name]
    module = _module(name)
    config = getattr(module, row.config)
    overrides = dict(overrides or {})
    valid = sorted(f.name for f in fields(config))
    unknown = sorted(set(overrides) - set(valid))
    if unknown:
        raise ValueError(f"unknown {name} override key(s) {unknown}; "
                         f"valid fields: {', '.join(valid)}")
    rng = None if row.pinned_by in overrides else np.random.default_rng(int(seed))
    return module.build_scenario(config(**overrides), rng, backend=backend,
                                 workers=workers)


def _module(name: str):
    """The submodule holding scenario ``name``, imported on first use."""
    return import_module(f"{__name__}.{SCENARIOS[name].module}")


def eta_summary(solver) -> dict:
    """Sea-surface extrema (none without a gravity free surface)."""
    eta = solver.gravity.eta
    return {"eta_max": float(np.max(eta)), "eta_min": float(np.min(eta)),
            "eta_abs_max": float(np.max(np.abs(eta)))} if len(eta) else {}


def fault_solver(mesh, marker, tagger, friction, prestress, order: int, *,
                 backend="serial", workers: int | None = None):
    """The tail every dynamic-rupture model shares: mark the fault faces
    ``marker`` selects, tag the boundary, lay the mesh out cluster-major,
    build the solver with its :class:`~repro.rupture.fault.FaultSolver`."""
    if mesh.mark_fault(marker) == 0:
        raise RuntimeError("fault marking failed (no mesh faces on the fault)")
    mesh.tag_boundary(tagger)
    fault = FaultSolver(friction, prestress)
    cluster_major(mesh, order)
    return CoupledSolver(mesh, order=order, fault=fault, backend=backend,
                         workers=workers)


def run_linked_twin(name: str, cfg, t_end: float, n_snap: int):
    """The one-way-linked twin of scenario ``name`` (``palu`` or
    ``scenario_a``, configured by ``cfg``) end to end: build its
    earthquake-only model, run it to ``n_snap`` equal times recording the
    surface displacement ``(t, uz)`` at each (and at ``t = 0``), then
    :func:`~repro.tsunami.linking.run_linked` over the scenario's bed (its
    module's ``linked_bed(cfg)``: the bed function and the grid spacing).
    Returns ``(eq_solver, fault, tracker, swe)``."""
    from ..tsunami.linking import run_linked

    module = _module(name)
    eq, fault, tracker = module.build_earthquake_only(cfg)
    snapshots = [(0.0, tracker.uz.copy())]
    hooks = HookBus()
    hooks.on_sync(tracker)
    for i in range(n_snap):
        Scheduler(eq).run(t_end * (i + 1) / n_snap, hooks=hooks)
        snapshots.append((eq.t, tracker.uz.copy()))
    bed, grid_dx = module.linked_bed(cfg)
    swe = run_linked(bed, cfg.x_extent, cfg.y_extent, tracker, snapshots,
                     t_end, grid_dx)
    return eq, fault, tracker, swe


# ----------------------------------------------------------------------
def run(name: str, t_end: float, *, backend="serial", workers: int | None = None,
        prepare=None, checkpoint_every=None, checkpoint_dir=None, resume=None,
        profile=False, trace=None, log_json=None, heartbeat_every=None,
        metrics=False) -> ScenarioHandle:
    """Build scenario ``name`` (seed 0, on ``backend`` / ``workers``) and
    run it to ``t_end`` — with clustered local time-stepping where its
    registry row says so — under an :class:`~repro.obs.session.ObsSession`
    opened before the build, so the run record counts the build's
    plan-cache lookups, as a fleet member's does.
    ``prepare(handle, lts)``, called between the build and the first
    step, returns the :class:`~repro.sched.HookBus` of the caller's
    observers (or ``None``).  Any of ``checkpoint_every`` /
    ``checkpoint_dir`` / ``resume`` supervises the run with a
    :class:`~repro.core.resilience.ResilientRunner`, ``resume`` restoring
    a checkpoint file, or the newest readable one in a directory, first.
    Returns the handle.
    """
    from ..obs import ObsSession

    obs = ObsSession(profile=profile, trace=trace, log_json=log_json,
                     heartbeat_every=heartbeat_every, metrics=metrics,
                     config={"command": name.replace("_", "-"), "t_end": t_end})
    try:
        handle = build(name, backend=backend, workers=workers)
        solver = handle.solver
        obs.config["backend"] = solver.backend.name
        lts = LocalTimeStepping(solver) if SCENARIOS[name].lts else None
        hooks = prepare(handle, lts) if prepare is not None else None
        runner = None
        if checkpoint_every or checkpoint_dir or resume:
            from ..core.resilience import ResilientRunner

            runner = ResilientRunner(solver, lts=lts, checkpoint_every=checkpoint_every,
                                     checkpoint_dir=checkpoint_dir, runlog=obs.runlog)
            if resume:
                runner.resume(resume)
        hooks = obs.subscribe(HookBus() if hooks is None else hooks,
                              runner=runner)
        obs.start(solver, resumed=bool(resume))
        if runner is not None:
            runner.run(t_end, hooks=hooks)
        else:
            Scheduler(solver, lts).run(t_end, hooks=hooks)
        obs.finish(solver)
    finally:
        obs.close()
    return handle


def add_run_args(parser, t_end: float) -> None:
    """The flags of a scenario run: ``--t-end``, the execution backend,
    checkpointing and resume, and the observability flags."""
    from ..exec import available_backends

    arg = parser.add_argument
    arg("--t-end", type=float, default=t_end,
        help=f"simulated seconds to run (default {t_end})")
    arg("--backend", default="serial", choices=available_backends(),
        help="execution backend (default: serial)")
    arg("--workers", type=int, default=None, metavar="N",
        help="thread-pool size for the partitioned backend")
    arg("--checkpoint-every", type=float, default=None, metavar="S",
        help="write an atomic checkpoint every S simulated seconds")
    arg("--checkpoint-dir", default=None, metavar="DIR",
        help="directory for rotating checkpoints (enables the watchdog)")
    arg("--resume", default=None, metavar="PATH",
        help="resume from a checkpoint file or the newest readable one in a directory")
    arg("--profile", action="store_true",
        help="time the run's phases and print them with the kernels' GFLOP/s at exit")
    arg("--trace", default=None, metavar="PATH",
        help="record a span timeline and export Chrome-trace/Perfetto JSON to PATH")
    arg("--log-json", default=None, metavar="PATH",
        help="append structured JSONL run records (manifest/heartbeat/...) to PATH")
    arg("--heartbeat-every", type=int, default=None, metavar="N",
        help="heartbeat record period in steps (default 10 when logging)")
    arg("--metrics", action="store_true",
        help="record the run's counters, gauges and phases (carried by the "
             "run log's heartbeats and run_end when --log-json is on)")


def run_options(args) -> dict:
    """The keywords of :func:`run` set by :func:`add_run_args`' flags."""
    return {k: getattr(args, k) for k in (
        "checkpoint_every", "checkpoint_dir", "resume", "profile", "trace",
        "log_json", "heartbeat_every", "metrics")}
