#!/usr/bin/env python3
"""Quickstart: a fully coupled Earth-ocean simulation in ~40 lines.

Sets up a small layered domain (elastic crust under a compressible ocean
with a gravitational free surface), fires a buried explosive point source,
and watches the ocean respond: the fast acoustic wave arrives first, the
sea surface bulges, and a slow surface gravity wave remains — the
separation of scales at the heart of the paper.

Long runs can checkpoint and resume (see README "Long runs: checkpointing
& recovery"):

    python examples/quickstart.py --checkpoint-every 0.5 --checkpoint-dir out/ckpt
    python examples/quickstart.py --resume out/ckpt --t-end 4.0

Run:  python examples/quickstart.py
"""

import argparse

import numpy as np

from repro.analysis.receivers import ReceiverArray
from repro.core.materials import acoustic, elastic
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from repro.mesh.generators import layered_ocean_mesh
from repro.obs import ObsSession, add_obs_args, obs_kwargs
from repro.sched import HookBus


def main(t_end: float = 2.5, checkpoint_every: float | None = None,
         checkpoint_dir: str | None = None, resume: str | None = None,
         backend: str = "serial", workers: int | None = None,
         profile: bool = False, trace: str | None = None,
         log_json: str | None = None,
         heartbeat_every: int | None = None,
         metrics: bool = False):
    # --- domain: 4 x 4 km, 1.5 km of crust under a 500 m ocean ----------
    crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
    ocean = acoustic(rho=1000.0, cp=1500.0)
    xs = np.linspace(0.0, 4000.0, 9)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-2000.0, -500.0, 4),
        zs_ocean=np.linspace(-500.0, 0.0, 3),
        earth=crust, ocean=ocean,
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=2, backend=backend, workers=workers)
    print(f"mesh: {mesh.n_elements} elements, {solver.n_dof} DOF, dt = {solver.dt * 1e3:.2f} ms")
    print(f"execution backend: {solver.backend.describe()}")
    print(f"gravity free-surface faces: {len(solver.gravity)}")

    # --- an explosive (isotropic moment) source in the crust ------------
    f0 = 2.0  # Hz

    def ricker(t):
        a = (np.pi * f0 * (t - 0.6)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(
        PointSource([2000.0, 2000.0, -1200.0], ricker, moment=[5e13] * 3 + [0, 0, 0])
    )

    # --- receivers: one on the seafloor, one mid-ocean ------------------
    receivers = ReceiverArray(
        solver, np.array([[2000.0, 2000.0, -490.0], [2000.0, 2000.0, -250.0]]), every=2
    )

    # --- run -------------------------------------------------------------
    print(f"running to t = {t_end} s ...")
    eta_peak = {"max": 0.0}

    obs = ObsSession(
        profile=profile, trace=trace, log_json=log_json,
        heartbeat_every=heartbeat_every, metrics=metrics,
        config={"command": "quickstart", "t_end": t_end, "backend": backend},
    )

    # everything that observes the run subscribes to one hook bus
    hooks = HookBus()
    receivers.subscribe(hooks)

    @hooks.on_sync
    def watch(s):
        eta_peak["max"] = max(eta_peak["max"], float(np.abs(s.gravity.eta).max()))

    obs.subscribe(hooks)

    if checkpoint_every or checkpoint_dir or resume:
        from repro.core.resilience import ResilientRunner

        runner = ResilientRunner(
            solver, checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir, runlog=obs.runlog,
        )
        if resume:
            runner.resume(resume)
        obs.start(solver, resumed=bool(resume))
        runner.run(t_end, hooks=hooks)
    else:
        obs.start(solver)
        solver.run(t_end, hooks=hooks)

    # --- report ----------------------------------------------------------
    p = receivers.pressure()
    t = receivers.t
    i_max = int(np.argmax(np.abs(p[:, 1])))
    print(f"peak mid-ocean pressure {np.abs(p[:, 1]).max():.1f} Pa at t = {t[i_max]:.2f} s")
    xy, eta = solver.gravity.surface_height()
    print(f"peak sea-surface displacement during run: {eta_peak['max'] * 1000:.3f} mm")
    print(f"final surface: max {eta.max() * 1000:.3f} mm, min {eta.min() * 1000:.3f} mm")
    k = np.argmax(np.abs(eta))
    print(f"largest remaining displacement above (x, y) = ({xy[k, 0]:.0f}, {xy[k, 1]:.0f}) m")
    print("energy in the domain:", f"{solver.energy():.3e} J")
    obs.finish(solver)
    return solver


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-end", type=float, default=2.5)
    ap.add_argument("--checkpoint-every", type=float, default=None,
                    help="simulated seconds between checkpoints")
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument("--resume", default=None,
                    help="checkpoint file or directory to resume from")
    ap.add_argument("--backend", default="serial", choices=["serial", "partitioned"])
    ap.add_argument("--workers", type=int, default=None,
                    help="thread-pool size for the partitioned backend")
    add_obs_args(ap)
    args = ap.parse_args()
    main(args.t_end, args.checkpoint_every, args.checkpoint_dir, args.resume,
         backend=args.backend, workers=args.workers, **obs_kwargs(args))
