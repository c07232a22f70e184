"""Standardized kernel benchmark battery + performance-trajectory records.

The continuous-regression half of the observability layer: a fixed
battery of micro-benchmarks over the solver's hot kernels —

* ``predictor`` — the Cauchy-Kowalewski sweep (``fused_ck``) over
  every element;
* ``corrector`` — the volume + interior-surface + boundary-surface
  residual kernels on a time-integrated predictor state;
* ``riemann_setup`` — the batched Godunov flux-matrix construction
  (:meth:`~repro.core.kernels.SpatialOperator.face_flux_matrices`) over
  all regular interior faces;
* ``gravity_ode`` — one gravitational free-surface ODE step over the
  tagged surface faces;
* ``halo_gather`` — the fancy-index halo exchange of a two-partition
  plan (the copy that would be the MPI message in a distributed run);
* ``sched_replay`` — the :mod:`repro.sched` step-plan machinery alone:
  replay-decode of a compiled 16-macro-step plan (the scheduler's
  per-micro-step overhead with the physics kernels removed), with the
  one-off plan compile cost recorded alongside;
* ``lts_macro`` — one full clustered-LTS macro step (every cluster
  advanced to the next synchronization point);
* ``metrics_overhead`` — the *disabled* fast path of the fleet-metric
  registry (:mod:`repro.obs.metrics`): per-call cost of guarded
  ``inc``/``set_gauge``/``observe`` with the registry off, which locks
  the <2% per-step instrumentation budget.

Each invocation appends one schema-versioned record to
``BENCH_<host-context>.json`` at the repo root — git revision, problem
fingerprint, per-kernel best-of-``repeats`` seconds and element-update
rates, and the :mod:`repro.hpc.perfmodel` roofline bounds for the two
modeled kernels.  ``tools/bench_compare.py`` diffs the newest record
against the history and the roofline and flags >25% regressions.

The battery problem is a scaled-down replica of the benchmark suite's
``_cache.scaling_mesh`` construction (bathymetry mesh with a refinement
window, so the LTS clustering is non-trivial); ``REPRO_FAST=1`` shrinks
it further for CI.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time

import numpy as np

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BATTERY_KERNELS",
    "host_context",
    "default_history_path",
    "battery_problem",
    "run_battery",
    "battery_lines",
    "load_history",
    "append_record",
]

BENCH_SCHEMA_VERSION = 1

#: the fixed battery, in execution order (``lts_macro`` mutates the
#: solver state and therefore always runs last among the solver kernels)
BATTERY_KERNELS = ("predictor", "corrector", "riemann_setup",
                   "gravity_ode", "halo_gather", "sched_replay", "lts_macro",
                   "metrics_overhead", "blackbox_overhead")


def host_context() -> str:
    """Stable host tag for the history filename (``linux-x86_64``).

    Deliberately *not* the hostname: CI runners are ephemeral and
    interchangeable, and a hostname in a committed filename would leak
    infrastructure details.  Records within one file are further keyed by
    ``cpu_count`` / ``fast`` / ``order`` for comparability.
    """
    return f"{platform.system().lower()}-{platform.machine().lower()}"


def default_history_path(root: str | None = None) -> str:
    """``BENCH_<host-context>.json`` at the repo root (or ``root``)."""
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))))
        if not os.path.isdir(root):  # pragma: no cover - installed layout
            root = os.getcwd()
    return os.path.join(root, f"BENCH_{host_context()}.json")


def _fast() -> bool:
    return os.environ.get("REPRO_FAST", "0") == "1"


# ----------------------------------------------------------------------
def battery_problem(order: int = 3, fast: bool | None = None):
    """Build the battery's coupled solver: a miniature of the benchmark
    suite's ``scaling_mesh`` (bathymetry trough + refinement window over a
    layered Earth, gravitational free surface tagged), sized so the full
    battery completes in seconds.  Returns the bound
    :class:`~repro.core.solver.CoupledSolver`.
    """
    from ..core.materials import acoustic, elastic
    from ..core.solver import CoupledSolver, ocean_surface_gravity_tagger
    from ..mesh.generators import bathymetry_mesh
    from ..mesh.refine import refined_spacing

    fast = _fast() if fast is None else fast
    earth = elastic(2700.0, 6000.0, 3464.0)
    ocean = acoustic(1000.0, 1500.0)

    def bathy(x, y):
        return -100.0 - 600.0 * np.exp(-(((x - 3e3) / 1e3) ** 2)) * (
            0.5 + 0.5 * np.tanh((y - 3e3) / 1.5e3)
        )

    h = 1500.0 if fast else 900.0
    xs = refined_spacing(0.0, 6e3, 3000.0, h, 1.5e3, 4.5e3)
    ys = refined_spacing(0.0, 9e3, 3000.0, h, 2e3, 7e3)
    zs = np.concatenate([
        np.linspace(-6e3, -2e3, 3),
        refined_spacing(-2e3, -700.0, 1500.0, h, -2e3, -700.0)[1:],
    ])
    mesh = bathymetry_mesh(xs, ys, bathy, 2, zs, earth, ocean)
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    return CoupledSolver(mesh, order=order)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
def run_battery(out: str | None = None, node: str = "local", order: int = 3,
                fast: bool | None = None, repeats: int = 3,
                append: bool = True):
    """Run the battery and (by default) append the record to the history.

    Returns ``(record, path)``; ``path`` is ``None`` when ``append`` is
    false.  ``node`` names the :data:`~repro.obs.report.KNOWN_NODES`
    roofline model used for the predicted bounds (default ``local``: a
    nominal model of the executing host, so "efficiency" is honest about
    a pure-NumPy reproduction).  The record stores the operator's
    ``kernel_variant`` constant, which keys comparability in
    ``tools/bench_compare.py``: records of a retired kernel path are
    history, never a baseline.
    """
    from ..core.ader import taylor_integrate
    from ..core.lts import LocalTimeStepping
    from ..exec.partitioned import PartitionedBackend
    from ..hpc.perfmodel import NodePerformanceModel
    from ..io.checkpoint import fingerprint
    from .report import node_spec
    from .runlog import _git_rev

    fast = _fast() if fast is None else fast
    solver = battery_problem(order=order, fast=fast)
    op = solver.op
    ne = op.n_elements
    dt = solver.dt

    spec = node_spec(node)
    model = NodePerformanceModel(spec, order=order, variant=op.kernel_variant)
    kc = model.counts

    benches: dict[str, dict] = {}

    def add(name, seconds, elem_updates=None, flops=None, model_gflops=None):
        cell: dict = {"seconds": seconds, "repeats": repeats}
        if elem_updates is not None:
            cell["elem_updates"] = int(elem_updates)
            cell["elem_updates_per_s"] = elem_updates / seconds
        if flops is not None and model_gflops is not None:
            cell["gflops"] = flops / seconds / 1e9
            cell["model_gflops"] = model_gflops
            cell["model_seconds"] = flops / (model_gflops * 1e9)
            cell["efficiency"] = cell["gflops"] / model_gflops
        benches[name] = cell

    # predictor: the CK sweep over every element.  The derivative buffer
    # is reused across calls exactly as the step loop reuses it.
    derivs = op.predict(solver.Q)  # warm caches + output shape
    add("predictor",
        _best_of(lambda: op.predict(solver.Q, out=derivs), repeats),
        elem_updates=ne, flops=kc.flops_predictor * ne,
        model_gflops=model.predictor_gflops())

    # corrector: volume + surface kernels on a time-integrated state
    I = taylor_integrate(derivs, 0.0, dt)
    out_state = op.new_state()

    def corrector():
        out_state[:] = 0.0
        op.volume_residual(I, out_state)
        op.interior_residual(I, out_state)
        op.boundary_residual(I, out_state)

    add("corrector", _best_of(corrector, repeats),
        elem_updates=ne, flops=kc.flops_corrector * ne,
        model_gflops=model.corrector_gflops())

    # riemann_setup: Godunov flux matrices for all regular interior faces
    itf = solver.mesh.interior
    ids = np.flatnonzero(~itf.is_fault)
    mat_ids = solver.mesh.material_ids
    em_mat = mat_ids[itf.minus_elem[ids]]
    ep_mat = mat_ids[itf.plus_elem[ids]]
    normals = itf.normal[ids]
    add("riemann_setup",
        _best_of(lambda: op.face_flux_matrices(em_mat, ep_mat, normals),
                 repeats))
    benches["riemann_setup"]["faces"] = int(len(ids))

    # gravity_ode: one free-surface ODE step over the tagged faces
    grav_out = op.new_state()
    add("gravity_ode",
        _best_of(lambda: solver.gravity.step(derivs, dt, grav_out), repeats))
    benches["gravity_ode"]["faces"] = int(len(solver.gravity.elem))

    # halo_gather: the two-partition halo exchange (fancy-index gather of
    # owned + halo predictor rows — the would-be MPI message)
    pb = PartitionedBackend(workers=1, n_parts=2)
    pb.bind(solver)
    gathered = sum(len(p.cells) for p in pb.plans)

    def halo_gather():
        for plan in pb.plans:
            I[plan.cells]

    add("halo_gather", _best_of(halo_gather, repeats),
        elem_updates=gathered)
    benches["halo_gather"]["halo"] = int(sum(p.n_halo for p in pb.plans))
    pb.close()

    lts = LocalTimeStepping(solver)

    # sched_replay: the step-plan machinery alone — decode every
    # micro-step of a compiled 16-macro-step plan (consume/clear walks,
    # no physics kernels), with the one-off compile cost alongside
    from ..sched import compile_step_plan

    n_macro_plan = 16
    plan = compile_step_plan(lts.n_clusters, lts.rate, n_macro_plan,
                             adjacency=lts.adjacent)
    compile_seconds = _best_of(
        lambda: compile_step_plan(lts.n_clusters, lts.rate, n_macro_plan,
                                  adjacency=lts.adjacent), repeats)

    def sched_replay():
        for i in range(plan.n_micro):
            for _action in plan.consumes(i):
                pass
            plan.clears(i)

    add("sched_replay", _best_of(sched_replay, repeats))
    benches["sched_replay"]["compile_seconds"] = compile_seconds
    benches["sched_replay"]["n_micro"] = int(plan.n_micro)
    benches["sched_replay"]["n_sync"] = int(plan.n_sync)
    benches["sched_replay"]["micro_steps_per_s"] = (
        plan.n_micro / benches["sched_replay"]["seconds"]
    )

    # lts_macro: one clustered macro step — mutates solver state, so it
    # runs last and is timed once per repeat on a fresh time window
    rate_c = lts.rate ** lts.cmax
    macro_updates = int(sum(
        int(n) * lts.rate ** (lts.cmax - c) for c, n in enumerate(lts.elem_count)
    ))
    dt_macro = lts.dt_min * rate_c

    def lts_macro():
        lts.run(solver.t + dt_macro)

    add("lts_macro", _best_of(lts_macro, repeats), elem_updates=macro_updates)
    benches["lts_macro"]["clusters"] = int(lts.n_clusters)

    # metrics_overhead: the disabled fast path of the fleet-metric
    # registry — the cost every *un*-instrumented run pays at the guard
    # sites wired into the scheduler/watchdog/caches.  Timed on a private
    # registry so an outer --metrics session can't flip the result.
    from .metrics import MetricRegistry

    met = MetricRegistry()
    n_calls = 3000

    def metrics_overhead():
        for _ in range(n_calls):
            if met.enabled:
                met.inc("bench/c")
            if met.enabled:
                met.set_gauge("bench/g", 1.0)
            if met.enabled:
                met.observe("bench/h", 1.0)

    seconds = _best_of(metrics_overhead, repeats)
    add("metrics_overhead", seconds)
    benches["metrics_overhead"]["calls"] = 3 * n_calls
    benches["metrics_overhead"]["seconds_per_call"] = seconds / (3 * n_calls)
    # fraction of one (fast-path) lts_macro a realistic ~40 guarded call
    # sites per step would cost — tools/bench_compare.py re-derives this
    per_step = benches["lts_macro"]["seconds"] / max(
        1, round(macro_updates / max(1, ne)))
    benches["metrics_overhead"]["step_fraction"] = (
        40 * benches["metrics_overhead"]["seconds_per_call"] / per_step)

    # blackbox_overhead: the always-on flight recorder's hot path — one
    # tuple append into a bounded deque per micro window and per watchdog
    # pass.  Timed on a private recorder; the same <2%-of-a-step budget
    # that gates metrics_overhead applies (tools/bench_compare.py).
    from .blackbox import FlightRecorder

    rec_bb = FlightRecorder()
    n_rec = 3000

    def blackbox_overhead():
        for i in range(n_rec):
            rec_bb.record_micro(i, 0, i, 1.0e-3)
            rec_bb.record_step(i, 1.0e-3 * i, 1.0e-3, energy=1.0,
                               dt_scale=1.0)

    seconds_bb = _best_of(blackbox_overhead, repeats)
    add("blackbox_overhead", seconds_bb)
    benches["blackbox_overhead"]["calls"] = 2 * n_rec
    benches["blackbox_overhead"]["seconds_per_call"] = seconds_bb / (2 * n_rec)
    # the recorder fires ~2 sites per step (micro window + post-watchdog
    # step gauge) — far fewer than the ~40 metric guard sites
    benches["blackbox_overhead"]["step_fraction"] = (
        2 * benches["blackbox_overhead"]["seconds_per_call"] / per_step)

    record = {
        "schema": BENCH_SCHEMA_VERSION,
        "unix_time": time.time(),
        "git_rev": _git_rev(),
        "fingerprint": fingerprint(solver),
        "host": {
            "context": host_context(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "node": getattr(spec, "name", str(node)),
        "order": int(order),
        "fast": bool(fast),
        "kernel_variant": op.kernel_variant,
        "n_elements": int(ne),
        "benches": benches,
    }

    path = None
    if append:
        path = out or default_history_path()
        append_record(path, record)
    return record, path


# ----------------------------------------------------------------------
def battery_lines(record: dict) -> list[str]:
    """Human-readable summary of one battery record."""
    lines = [
        f"bench battery: {record['n_elements']} elements, order "
        f"{record['order']}, kernels={record['kernel_variant']}, "
        f"fast={record['fast']}, git {record['git_rev'][:12]}",
        f"  {'kernel':14} {'seconds':>10} {'Melem-up/s':>11} "
        f"{'GFLOP/s':>9} {'model':>9} {'eff':>7}",
    ]
    for name in BATTERY_KERNELS:
        cell = record["benches"].get(name)
        if cell is None:
            continue
        rate = cell.get("elem_updates_per_s")
        rate_s = f"{rate / 1e6:11.3f}" if rate else f"{'-':>11}"
        gf = cell.get("gflops")
        gf_s = f"{gf:9.3f}" if gf else f"{'-':>9}"
        mg = cell.get("model_gflops")
        mg_s = f"{mg:9.1f}" if mg else f"{'-':>9}"
        eff = cell.get("efficiency")
        eff_s = f"{100 * eff:6.2f}%" if eff is not None else f"{'-':>7}"
        lines.append(f"  {name:14} {cell['seconds']:10.5f} {rate_s} "
                     f"{gf_s} {mg_s} {eff_s}")
    return lines


# ----------------------------------------------------------------------
def load_history(path: str) -> dict:
    """Load a ``BENCH_*.json`` history (empty shape when absent)."""
    if not os.path.exists(path):
        return {"schema": BENCH_SCHEMA_VERSION, "records": []}
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "records" not in doc:
        raise ValueError(f"{path}: not a bench history file")
    return doc


def append_record(path: str, record: dict) -> None:
    """Append one record to the history file, atomically."""
    doc = load_history(path)
    doc["schema"] = BENCH_SCHEMA_VERSION
    doc["records"].append(record)
    out_dir = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=out_dir,
                               prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
