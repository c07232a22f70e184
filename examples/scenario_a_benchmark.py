#!/usr/bin/env python3
"""Scenario A: fully coupled vs one-way linked earthquake-tsunami (Fig. 3).

Runs the scaled megathrust benchmark twice:

1. the fully coupled 3D Earth+ocean model (dynamic rupture, acoustics,
   gravity free surface), and
2. the one-way-linked workflow (earthquake-only 3D run -> seafloor uplift
   on a Cartesian grid -> nonlinear shallow-water solver),

then compares the sea-surface height along the cross-section through the
epicenter — the paper's Fig. 3b: agreement at tsunami wavelengths, ocean
acoustic oscillations only in the coupled model.

Run:  python examples/scenario_a_benchmark.py [--t-end 6.0]
"""

import argparse

import numpy as np

from repro.analysis.fields import surface_eta_transect
from repro.core.lts import LocalTimeStepping
from repro.obs import ObsSession, add_obs_args, obs_kwargs
from repro.sched import HookBus
from repro.scenarios.scenario_a import (
    ScenarioAConfig,
    build_coupled,
    build_earthquake_only,
    run_linked_tsunami,
)


def main(t_end: float = 6.0, n_transect: int = 41,
         checkpoint_every: float | None = None,
         checkpoint_dir: str | None = None, resume: str | None = None,
         backend: str = "serial", workers: int | None = None,
         profile: bool = False, trace: str | None = None,
         log_json: str | None = None,
         heartbeat_every: int | None = None,
         metrics: bool = False):
    cfg = ScenarioAConfig()

    # --- fully coupled run ----------------------------------------------
    print("== fully coupled model ==")
    solver, fault = build_coupled(cfg, backend=backend, workers=workers)
    print(f"  {solver.mesh.n_elements} elements, {len(fault)} fault faces, "
          f"{len(solver.gravity)} gravity faces")
    print(f"  execution backend: {solver.backend.describe()}")
    lts = LocalTimeStepping(solver)
    print(f"  LTS clusters: {np.bincount(lts.cluster)} "
          f"(update reduction {lts.statistics()['speedup']:.2f}x)")
    obs = ObsSession(
        profile=profile, trace=trace, log_json=log_json,
        heartbeat_every=heartbeat_every, metrics=metrics,
        config={"command": "scenario-a", "t_end": t_end, "backend": backend},
    )
    if checkpoint_every or checkpoint_dir or resume:
        from repro.core.resilience import ResilientRunner

        runner = ResilientRunner(
            solver, lts=lts,
            checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
            runlog=obs.runlog,
        )
        if resume:
            runner.resume(resume)
        obs.start(solver, resumed=bool(resume))
        runner.run(t_end, hooks=obs.subscribe(HookBus()))
    else:
        obs.start(solver)
        lts.run(t_end, hooks=obs.subscribe(HookBus()))
    obs.finish(solver)
    print(f"  rupture: Mw {fault.moment_magnitude():.2f}, "
          f"peak slip {fault.slip.max():.2f} m, "
          f"peak slip rate {fault.peak_slip_rate.max():.1f} m/s")
    x_line = np.linspace(cfg.x_extent[0] + cfg.dx, cfg.x_extent[1] - cfg.dx, n_transect)
    _, eta_coupled = surface_eta_transect(
        solver, [x_line[0], 0.0], [x_line[-1], 0.0], n_transect
    )

    # --- one-way linked run ----------------------------------------------
    print("== one-way linked model ==")
    eq, fault2, tracker = build_earthquake_only(cfg)
    print(f"  earthquake-only mesh: {eq.mesh.n_elements} elements")
    snapshots = [(0.0, tracker.uz.copy())]
    eq_hooks = HookBus()
    eq_hooks.on_sync(tracker)

    n_snap = 12
    for i in range(n_snap):
        eq.run(t_end * (i + 1) / n_snap, hooks=eq_hooks)
        snapshots.append((eq.t, tracker.uz.copy()))
    print(f"  final seafloor uplift: max {tracker.uz.max():.2f} m, "
          f"min {tracker.uz.min():.2f} m")
    swe = run_linked_tsunami(cfg, tracker, snapshots, t_end)
    eta_linked = swe.sample_eta(np.column_stack([x_line, np.zeros_like(x_line)]))

    # --- comparison (the Fig. 3b rows) ------------------------------------
    print(f"\n== sea-surface height along y = 0 at t = {t_end:.1f} s ==")
    print(f"{'x [m]':>9} {'coupled [m]':>12} {'linked [m]':>12}")
    for x, ec, el in zip(x_line, eta_coupled, eta_linked):
        print(f"{x:9.0f} {ec:12.4f} {el:12.4f}")

    corr = np.corrcoef(eta_coupled, eta_linked)[0, 1]
    print(f"\npeak eta  coupled {np.abs(eta_coupled).max():.3f} m | "
          f"linked {np.abs(eta_linked).max():.3f} m | correlation {corr:.3f}")
    print("(high-frequency acoustic ripples appear only in the coupled model;")
    print(f" expected reverberation period 4h/c = "
          f"{4 * cfg.ocean_depth / cfg.c_ocean:.2f} s)")
    return eta_coupled, eta_linked


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-end", type=float, default=6.0)
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
    main(args.t_end, checkpoint_every=args.checkpoint_every,
         checkpoint_dir=args.checkpoint_dir, resume=args.resume,
         backend=args.backend, workers=args.workers, **obs_kwargs(args))
