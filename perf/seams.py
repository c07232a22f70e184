"""Every touchpoint between the benchmark and ``repro``.

This is the only file under ``perf/`` that imports ``repro``.  It drives
runs through the entry points ROADMAP keeps — ``get_builder``,
``LocalTimeStepping(solver)``, ``Scheduler(solver, lts).run``,
``ResilientRunner``, ``ObsSession``, ``Supervisor`` — and, in the traced
pass only, wraps the public functions each layer is called through so
that every call becomes a span (``spans.Tracer``).  After a refactor moves
or renames one of those functions, edit the seam here (in a ``benchmark``
issue) and nothing else; a seam that cannot be attached is recorded in
``missing`` with the reason, and the metrics that need it read ``null``.

Seams (span name <- function it wraps):

    kernels.predict      solver.op.predict_states   (count: elements)
    kernels.apply        solver.op.apply, or each partition plan's
                         lop.{volume,interior,boundary}_residual
                         (count: elements)
    core.step            solver.step
    core.gravity         solver.gravity.step
    rupture.fault        solver.fault.step
    sched.run            Scheduler.run (patched on the class: the
                         resilient runner makes its own instances)
    exec.predict / exec.update_predictor / exec.corrector
                         the same-named methods of solver.backend
    core.resilience      runner.run
    core.health          runner.watchdog.ensure
    io.checkpoint        runner.manager.save
    obs.on_step          ObsSession.on_step (wrapped before it subscribes)
    obs.runlog_emit      obs.runlog.emit
    obs.recorder         runner.recorder.record_step / record_micro
    analysis.receivers   the ReceiverArray hook (wrapped before it subscribes)
    ensemble.run         Supervisor.run (the fleet's root span; nothing
                         runs inside the spawned workers)
"""

from __future__ import annotations

import json
import os
import resource
import time

import hostref
from spans import Tracer
from workloads import nproc


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; children covers reaped worker processes
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


class _HostSampler:
    """Reference-kernel unit times of one pass (``hostref.py``), and the
    wall and CPU seconds that taking them inside the window cost."""

    def __init__(self):
        self.units: list = []
        self.wall_s = self.cpu_s = 0.0

    def edge(self, n: int = 1) -> None:
        """``n`` samples outside the window."""
        self.units += hostref.sample(n)

    def hook(self, stride: int):
        """An ``on_sync`` hook that takes one sample inside the window at
        every ``stride``-th synchronisation point."""
        calls = 0

        def on_sync(solver) -> None:
            nonlocal calls
            calls += 1
            if calls % stride:
                return
            c0, t0 = _cpu_seconds(), time.perf_counter()
            self.units += hostref.sample()
            self.wall_s += time.perf_counter() - t0
            self.cpu_s += _cpu_seconds() - c0
        return on_sync


class _Delegate:
    """Stands in for an object whose class forbids instance attributes
    (``FlightRecorder`` has ``__slots__``): named methods are replaced,
    everything else is forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __len__(self):
        return len(self._target)


class _Seams:
    """Attaches spans; remembers which seams could not be attached."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: dict = {}

    def wrap(self, span: str, get_owner, attr: str, count=None) -> None:
        """Replace ``get_owner().attr`` by its traced twin."""
        try:
            owner = get_owner()
            setattr(owner, attr,
                    self.tracer.wrap(getattr(owner, attr), span, count))
        except AttributeError as exc:
            self.missing[span] = f"seam {attr!r} not found: {exc}"

    def hook(self, span: str, get_fn):
        """A traced twin of ``get_fn()`` to subscribe in its place."""
        try:
            return self.tracer.wrap(get_fn(), span)
        except AttributeError as exc:
            self.missing[span] = f"seam not found: {exc}"
            return None


def _active_count(I, out=None, active=None):
    return len(I) if active is None else int(active.sum())


def _instrument_solver(seams: _Seams, solver, runner, scheduler_cls) -> None:
    op, backend = solver.op, solver.backend
    seams.wrap("kernels.predict", lambda: op, "predict_states",
               count=lambda Q, *a, **k: len(Q))
    if backend.name == "partitioned":
        try:
            plans = backend.plans
        except AttributeError as exc:
            seams.missing["kernels.apply"] = f"seam 'plans' not found: {exc}"
            plans = []
        for plan in plans:
            # the partitioned corrector never calls lop.apply: it runs the
            # three residual kernels itself; elements are counted once
            seams.wrap("kernels.apply", lambda p=plan: p.lop,
                       "volume_residual", count=_active_count)
            seams.wrap("kernels.apply", lambda p=plan: p.lop,
                       "interior_residual")
            seams.wrap("kernels.apply", lambda p=plan: p.lop,
                       "boundary_residual")
    else:
        seams.wrap("kernels.apply", lambda: op, "apply",
                   count=lambda I, active=None: _active_count(I, None, active))
    seams.wrap("core.step", lambda: solver, "step")
    seams.wrap("core.gravity", lambda: solver.gravity, "step")
    if solver.fault is not None:
        seams.wrap("rupture.fault", lambda: solver.fault, "step")
    for phase in ("predict", "update_predictor", "corrector"):
        seams.wrap(f"exec.{phase}", lambda: backend, phase)
    seams.wrap("sched.run", lambda: scheduler_cls, "run")
    if runner is not None:
        seams.wrap("core.resilience", lambda: runner, "run")
        seams.wrap("core.health", lambda: runner.watchdog, "ensure")
        seams.wrap("io.checkpoint", lambda: runner.manager, "save")
        try:
            rec = runner.recorder
            runner.recorder = _Delegate(
                rec,
                record_step=seams.tracer.wrap(rec.record_step, "obs.recorder"),
                record_micro=seams.tracer.wrap(rec.record_micro, "obs.recorder"),
            )
        except AttributeError as exc:
            seams.missing["obs.recorder"] = f"seam not found: {exc}"


def _receiver_positions(mesh):
    """Two points well inside the mesh: shallow and mid-depth."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    mid = 0.5 * (lo + hi)
    span = hi - lo
    return [
        [mid[0] + 0.013 * span[0], mid[1] + 0.007 * span[1], hi[2] - 0.08 * span[2]],
        [mid[0] + 0.213 * span[0], mid[1] + 0.057 * span[1], hi[2] - 0.55 * span[2]],
    ]


def _state_summary(solver, lts) -> dict:
    """What the correctness checks compare: digest + scalar diagnostics."""
    import numpy as np
    from repro.core.health import state_arrays
    from repro.ensemble.worker import state_digest

    return {
        "digest": state_digest(solver, lts),
        "finite": bool(all(np.isfinite(a).all()
                           for _, a in state_arrays(solver))),
        "sim_t": float(solver.t),
        "energy": float(solver.energy()),
        "state_l2": float(np.linalg.norm(solver.Q)),
        "eta_abs_max": (float(np.abs(solver.gravity.eta).max())
                        if len(solver.gravity) else 0.0),
        "peak_slip_rate": (float(np.abs(solver.fault.slip_rate).max())
                           if solver.fault is not None else 0.0),
    }


# ----------------------------------------------------------------------
def run_solver_pass(w, seed: int, t_end: float, traced: bool, out_dir: str,
                    t_start: float) -> dict:
    """One cold pass of a single-solver workload (Palu / Scenario A)."""
    tracer = Tracer() if traced else None
    seams = _Seams(tracer) if traced else None
    clock = time.perf_counter

    import repro  # noqa: F401  (the cold import is part of set-up)
    from repro.ensemble.spec import get_builder
    from repro.exec.plan_cache import get_plan_cache
    from repro.sched import HookBus, Scheduler
    t_import = clock()

    workers = min(2, nproc()) if w.backend == "partitioned" else None
    build = get_builder(w.builder)
    handle = build(dict(w.perturb), seed, backend=w.backend, workers=workers)
    t_build = clock()
    setup = {"import_s": t_import - t_start, "build_cold_s": t_build - t_import}
    solver = handle.solver

    t0 = clock()
    lts = None
    if w.lts:
        from repro.core.lts import LocalTimeStepping

        lts = LocalTimeStepping(solver)
    t_lts = clock()
    setup["lts_cluster_s"] = t_lts - t0

    segment = t_end / w.checkpoints if w.supervised else t_end
    sched = Scheduler(solver, lts)
    plan = sched.compiled_plan(segment)
    t_plan = clock()
    setup["plan_compile_s"] = t_plan - t_lts

    runner = obs = receivers = None
    bus = HookBus()
    runlog_path = os.path.join(out_dir, "run.jsonl")
    if w.supervised:
        from repro.analysis.receivers import ReceiverArray
        from repro.core.resilience import ResilientRunner
        from repro.obs import ObsSession

        obs = ObsSession(profile=True, log_json=runlog_path, metrics=True,
                         heartbeat_every=5,
                         config={"command": w.name, "t_end": t_end})
        receivers = ReceiverArray(solver, _receiver_positions(solver.mesh))
        runner = ResilientRunner(
            solver, checkpoint_every=segment,
            checkpoint_dir=os.path.join(out_dir, "ckpt"),
            runlog=obs.runlog, verbose=False)
    if traced:
        _instrument_solver(seams, solver, runner, Scheduler)
    if w.supervised:
        if traced:
            seams.wrap("obs.on_step", lambda: obs, "on_step")
            seams.wrap("obs.runlog_emit", lambda: obs.runlog, "emit")
            hook = seams.hook("analysis.receivers", lambda: receivers.__call__)
        else:
            hook = receivers
        obs.subscribe(bus)
        if hook is not None:
            bus.on_sync(hook)
        obs.start(solver)
    setup["wrap_s"] = clock() - t_plan
    # set-up is "process start to first step"; in the traced pass it also
    # holds the seam attachment, which is why setup_s is only ever reported
    # from untraced passes
    t_ready = clock()

    def advance(t):
        if runner is not None:
            runner.run(t, hooks=bus)
        else:
            sched.run(t, hooks=bus)

    # warm-up, outside the window and untraced: the first steps touch every
    # buffer for the first time, and what a first touch costs on a shared
    # guest depends on the host, not on the program (README "Steadiness")
    t_warm = w.t_warm * t_end / w.t_end
    advance(t_warm)
    steps_warm = int(runner.step_count) if runner is not None else 0
    ckpt_warm = len(runner.checkpoints_written) if runner is not None else 0
    setup["warmup_s"] = clock() - t_ready

    # the host's speed: reference units before, inside (at the window's
    # synchronisation points; not in the traced pass, whose spans they
    # would sit in) and after the window
    host = _HostSampler()
    if not traced:
        n_sync = plan.n_sync * (w.checkpoints if w.supervised else 1)
        bus.on_sync(host.hook(hostref.sync_stride(n_sync)))
    host.edge()
    if traced:
        tracer.on = True
    cpu0 = _cpu_seconds()
    w0 = clock()
    advance(t_warm + t_end)
    w1 = clock()
    cpu1 = _cpu_seconds()
    rss = _peak_rss_mb()
    if traced:
        tracer.on = False
    host.edge()

    if obs is not None:
        obs.finish(solver)
    state = _state_summary(solver, lts)
    if traced:
        # second build of the same problem, after the window so that it
        # does not disturb it: what a warm plan cache saves
        t0 = clock()
        warm = build(dict(w.perturb), seed, backend=w.backend, workers=workers)
        setup["build_warm_s"] = clock() - t0
        warm.solver.backend.close()
        del warm
    n_steps = plan.n_micro
    facts = {
        "mesh.elements": int(solver.mesh.n_elements),
        "mesh.dof": int(solver.n_dof),
        "order": int(solver.order),
        "kernel_variant": getattr(solver.op, "kernel_variant", "batched"),
        "workers": int(workers or 1),
        "core.gravity_faces": len(solver.gravity),
        "rupture.fault_faces": len(solver.fault) if solver.fault is not None else 0,
        "sched.micro_steps": int(plan.n_micro),
        "sched.sync_steps": int(plan.n_sync),
        "plan_cache": get_plan_cache().stats(),
        "backend": _jsonable(solver.backend.stats()),
        "core.rollbacks": 0,
    }
    if lts is not None:
        facts["core.lts_theoretical_speedup"] = float(lts.statistics()["speedup"])
    if runner is not None:
        n_steps = int(runner.step_count) - steps_warm
        facts["sched.micro_steps"] = facts["sched.sync_steps"] = n_steps
        facts["core.rollbacks"] = int(runner.rollbacks)
        state.update(_supervised_checks(
            runner.checkpoints_written[ckpt_warm:], solver, runlog_path, state))
    solver.backend.close()

    record = {
        "e2e": {
            "wall_s": w1 - w0 - host.wall_s,
            "sim_s": float(state["sim_t"]) - t_warm,
            "setup_s": t_ready - t_start,
            "cpu_s": cpu1 - cpu0 - host.cpu_s,
            "peak_rss_mb": rss,
            "attempted": n_steps,
            "failed": facts["core.rollbacks"],
        },
        "setup": setup,
        "facts": facts,
        "state": state,
        "host": hostref.speed(host.units),
    }
    if traced:
        record["spans"], record["counts"] = tracer.collect(origin=w0)
        record["missing"] = seams.missing
    return record


def _supervised_checks(written: list, solver, runlog_path: str,
                       state: dict) -> dict:
    """Artifacts of the production wrapper: the checkpoints ``written`` in
    the window, the newest restores bitwise, the run log validates."""
    from repro.ensemble.worker import state_digest
    from repro.io.checkpoint import restore_checkpoint
    from repro.obs.runlog import validate_jsonl

    paths = [p for p in written if os.path.exists(p)]
    out = {
        "checkpoints": len(written),
        "checkpoint_bytes": sum(os.path.getsize(p) for p in paths),
        "restore_bitwise": False,
        "restore_s": None,
    }
    if paths:
        t0 = time.perf_counter()
        restore_checkpoint(paths[-1], solver)
        out["restore_s"] = time.perf_counter() - t0
        out["restore_bitwise"] = state_digest(solver) == state["digest"]
    log = validate_jsonl(runlog_path)
    out["runlog_errors"] = len(log["errors"])
    out["runlog_records"] = int(log["records"])
    out["runlog_bytes"] = os.path.getsize(runlog_path)
    return out


# ----------------------------------------------------------------------
def run_fleet_pass(w, seed: int, t_end: float, traced: bool, out_dir: str,
                   t_start: float) -> dict:
    """One cold pass of the supervised fleet (plus its bare reference)."""
    tracer = Tracer() if traced else None
    seams = _Seams(tracer) if traced else None
    clock = time.perf_counter

    import repro  # noqa: F401
    from repro.ensemble import MemberSpec, Supervisor
    from repro.ensemble.spec import get_builder
    from repro.sched import Scheduler
    t_import = clock()

    workers = min(2, nproc())
    specs = [
        MemberSpec(member_id=f"member_{k:04d}", builder=w.builder,
                   perturb=dict(w.perturb), seed=seed + k, t_end=t_end)
        for k in range(w.members)
    ]
    fleet_dir = os.path.join(out_dir, "fleet")
    sup = Supervisor(specs, workers=workers, out_dir=fleet_dir)
    t_ready = clock()
    setup = {"import_s": t_import - t_start}

    # bare reference: member 0, in process, no supervision of any kind
    build = get_builder(w.builder)
    b0 = clock()
    handle = build(dict(w.perturb), seed)
    setup["build_cold_s"] = clock() - b0
    Scheduler(handle.solver).run(t_end)
    bare_s = clock() - b0
    if traced:
        b1 = clock()
        build(dict(w.perturb), seed)
        setup["build_warm_s"] = clock() - b1
    bare = _state_summary(handle.solver, None)
    from repro.exec.plan_cache import get_plan_cache
    plan_cache = get_plan_cache().stats()

    if traced:
        seams.wrap("ensemble.run", lambda: sup, "run")
    # the members run in processes of their own: the host's speed is
    # sampled before and after the window only
    host = _HostSampler()
    host.edge(hostref.SAMPLES_EDGE_FLEET)
    if traced:
        tracer.on = True
    cpu0 = _cpu_seconds()
    w0 = clock()
    result = sup.run()
    w1 = clock()
    cpu1 = _cpu_seconds()
    rss = _peak_rss_mb()
    if traced:
        tracer.on = False
    host.edge(hostref.SAMPLES_EDGE_FLEET)

    members = []
    for m in result.members:
        own = _read_json(m.paths.get("result")) or {}
        log = m.paths.get("runlog")
        beats = log_bytes = 0
        if log and os.path.exists(log):
            log_bytes = os.path.getsize(log)
            with open(log, encoding="utf-8") as fh:
                beats = sum('"event": "heartbeat"' in line for line in fh)
        members.append({
            "id": m.member_id, "status": m.status, "attempts": int(m.attempts),
            "failed_attempts": len(m.history), "digest": m.digest,
            "wall_s": float(m.wall_s), "run_s": own.get("wall_s"),
            "steps": own.get("steps"), "sim_t": own.get("sim_t"),
            "heartbeats": beats, "runlog_bytes": log_bytes,
        })
    ens_log = result.runlog_path
    facts = {
        "mesh.elements": int(handle.solver.mesh.n_elements),
        "mesh.dof": int(handle.solver.n_dof),
        "order": int(handle.solver.order),
        "workers": workers,
        "members": members,
        "bare_member_s": bare_s,
        "plan_cache": plan_cache,
        "ensemble_log_bytes": (os.path.getsize(ens_log)
                               if ens_log and os.path.exists(ens_log) else 0),
    }
    attempts = sum(m["attempts"] for m in members)
    record = {
        "e2e": {
            "wall_s": w1 - w0,
            "sim_s": float(sum(m["sim_t"] or 0.0 for m in members)),
            "setup_s": t_ready - t_start,
            "cpu_s": cpu1 - cpu0,
            "peak_rss_mb": rss,
            "attempted": attempts,
            "failed": sum(m["failed_attempts"] for m in members),
        },
        "setup": setup,
        "facts": facts,
        "state": bare,
        "host": hostref.speed(host.units),
    }
    if traced:
        record["spans"], record["counts"] = tracer.collect(origin=w0)
        record["missing"] = seams.missing
    return record


def run_pass(w, seed: int, t_end: float, traced: bool, out_dir: str,
             t_start: float) -> dict:
    fn = run_fleet_pass if w.members else run_solver_pass
    record = fn(w, seed, t_end, traced, out_dir, t_start)
    record.update(workload=w.name, seed=seed, t_end=t_end, traced=traced)
    facts = record["facts"]
    import numpy

    facts["numpy"] = numpy.__version__
    facts["flops"] = _kernel_flops(facts["order"],
                                   facts.get("kernel_variant", "fused"))
    return record


def _kernel_flops(order: int, variant: str) -> dict | None:
    """Computed FLOPs per element update from ``repro.hpc.perfmodel``
    (``None`` when that seam is gone)."""
    try:
        from repro.hpc.perfmodel import kernel_counts

        c = kernel_counts(order, variant=variant)
        return {"predict": float(c.flops_predictor),
                "apply": float(c.flops_corrector)}
    except (ImportError, AttributeError, TypeError, ValueError):
        return None


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, TypeError, ValueError):
        return None


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):
        return obj.item()
    return obj
