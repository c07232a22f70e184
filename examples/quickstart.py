#!/usr/bin/env python3
"""Quickstart: a fully coupled Earth-ocean simulation.

Builds the registered quickstart box (``repro.scenarios.quickstart``: a
layered domain, elastic crust under a compressible ocean with a
gravitational free surface, and a buried explosive point source) and
watches the ocean respond: the fast acoustic wave arrives first, the sea
surface bulges, and a slow surface gravity wave remains — the separation
of scales at the heart of the paper.

Long runs can checkpoint and resume (see README "Long runs: checkpointing
& recovery"):

    python examples/quickstart.py --checkpoint-every 0.5 --checkpoint-dir out/ckpt
    python examples/quickstart.py --resume out/ckpt --t-end 4.0

Run:  python examples/quickstart.py
"""

import argparse

import numpy as np

from repro.analysis.receivers import ReceiverArray
from repro.sched import HookBus
from repro.scenarios import add_run_args, build, run, run_options


def main(t_end: float = 2.5, backend: str = "serial", workers: int | None = None,
         checkpoint_every=None, checkpoint_dir=None, resume=None, profile=False,
         trace=None, log_json=None, heartbeat_every=None, metrics=False):
    handle = build("quickstart", backend=backend, workers=workers)
    solver, mid = handle.solver, 0.5 * handle.config.extent
    print(f"mesh: {solver.mesh.n_elements} elements, {solver.n_dof} DOF, "
          f"dt = {solver.dt * 1e3:.2f} ms")
    print(f"execution backend: {solver.backend.describe()}")
    print(f"gravity free-surface faces: {len(solver.gravity)}")

    # everything that observes the run subscribes to one hook bus:
    # receivers on the seafloor and mid-ocean, and the peak sea surface
    hooks = HookBus()
    receivers = ReceiverArray(
        solver, np.array([[mid, mid, -490.0], [mid, mid, -250.0]]), every=2
    )
    receivers.subscribe(hooks)
    eta_peak = {"max": 0.0}

    @hooks.on_sync
    def watch(s):
        eta_peak["max"] = max(eta_peak["max"], float(np.abs(s.gravity.eta).max()))

    print(f"running to t = {t_end} s ...")
    run(solver, t_end, hooks=hooks, command="quickstart", checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, resume=resume, profile=profile, trace=trace,
        log_json=log_json, heartbeat_every=heartbeat_every, metrics=metrics)

    p = receivers.pressure()
    i_max = int(np.argmax(np.abs(p[:, 1])))
    print(f"peak mid-ocean pressure {np.abs(p[:, 1]).max():.1f} Pa "
          f"at t = {receivers.t[i_max]:.2f} s")
    xy, eta = solver.gravity.surface_height()
    print(f"peak sea-surface displacement during run: {eta_peak['max'] * 1000:.3f} mm")
    print(f"final surface: max {eta.max() * 1000:.3f} mm, min {eta.min() * 1000:.3f} mm")
    k = np.argmax(np.abs(eta))
    print(f"largest remaining displacement above (x, y) = ({xy[k, 0]:.0f}, {xy[k, 1]:.0f}) m")
    print("energy in the domain:", f"{solver.energy():.3e} J")
    return solver


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    add_run_args(ap, t_end=2.5)
    args = ap.parse_args()
    main(args.t_end, args.backend, args.workers, **run_options(args))
