#!/usr/bin/env python3
"""Palu Bay: supershear strike-slip earthquake and tsunami (paper Fig. 1).

The scaled fully coupled Palu scenario: a vertical strike-slip fault with a
transtensional rake crosses a narrow, deep bay; nucleation at the north end
drives a unilateral (southward) rupture that goes supershear; the dip-slip
component of the slip deforms the seafloor, sourcing a tsunami trapped in
the bay while acoustic waves reverberate through the water column.

Prints the paper's Fig. 1 diagnostics: rupture speed vs shear speed (Mach
cone), sea-surface height map extrema, uplift/subsidence quadrants.

Run:  python examples/palu_bay.py [--t-end 4.0]
"""

import argparse

import numpy as np

from repro.analysis.fields import sea_surface_grid
from repro.core.lts import LocalTimeStepping
from repro.obs import ObsSession, add_obs_args, obs_kwargs
from repro.sched import HookBus
from repro.scenarios.palu import PaluConfig, build_coupled


def rupture_speed_along_strike(fault, y_min=-3000.0, y_max=3000.0):
    """Median front speed from rupture-time arrivals along strike."""
    y = fault.points[:, :, 1]
    rt = fault.rupture_time
    fin = np.isfinite(rt)
    if fin.sum() < 10:
        return np.nan
    # nucleation at +y: front moves towards -y
    ys = y[fin]
    ts = rt[fin]
    order = np.argsort(ys)
    ys, ts = ys[order], ts[order]
    sel = (ys > y_min) & (ys < y_max) & (ts > 0.05)
    if sel.sum() < 5:
        return np.nan
    # linear fit distance-vs-time of the southward front
    A = np.vstack([ts[sel], np.ones(sel.sum())]).T
    slope, _ = np.linalg.lstsq(A, -(ys[sel]), rcond=None)[0]
    return float(abs(slope))


def main(t_end: float = 4.0, checkpoint_every: float | None = None,
         checkpoint_dir: str | None = None, resume: str | None = None,
         backend: str = "serial", workers: int | None = None,
         profile: bool = False, trace: str | None = None,
         log_json: str | None = None,
         heartbeat_every: int | None = None,
         metrics: bool = False):
    cfg = PaluConfig()
    solver, fault = build_coupled(cfg, backend=backend, workers=workers)
    print(f"mesh: {solver.mesh.n_elements} elements "
          f"({int(solver.mesh.is_acoustic_elem.sum())} ocean), "
          f"{len(fault)} fault faces, {len(solver.gravity)} gravity faces")
    print(f"execution backend: {solver.backend.describe()}")
    lts = LocalTimeStepping(solver)
    st = lts.statistics()
    print(f"LTS clusters {[int(c) for c in st['counts']]}, update reduction {st['speedup']:.2f}x")

    obs = ObsSession(
        profile=profile, trace=trace, log_json=log_json,
        heartbeat_every=heartbeat_every, metrics=metrics,
        config={"command": "palu", "t_end": t_end, "backend": backend},
    )
    runner = None
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
    hooks = obs.subscribe(HookBus())

    checkpoints = np.linspace(t_end / 4, t_end, 4)
    for tc in checkpoints:
        if tc <= solver.t:
            continue  # already covered by the restored checkpoint
        if runner is not None:
            runner.run(tc, hooks=hooks)
        else:
            lts.run(tc, hooks=hooks)
        vr = rupture_speed_along_strike(fault)
        print(f"t = {tc:4.1f} s | ruptured {fault.ruptured_fraction() * 100:5.1f}% | "
              f"peak V {fault.peak_slip_rate.max():6.2f} m/s | "
              f"eta [{solver.gravity.eta.min():+7.3f}, {solver.gravity.eta.max():+7.3f}] m | "
              f"front speed {vr if np.isnan(vr) else round(vr):>5} m/s")

    cs = cfg.earth_material.cs
    vr = rupture_speed_along_strike(fault)
    print(f"\nshear speed {cs:.0f} m/s, rupture front {vr:.0f} m/s "
          f"-> {'SUPERSHEAR' if vr > cs else 'sub-shear'} "
          f"(Mach number {vr / cs:.2f})")
    print(f"moment magnitude (scaled event): Mw {fault.moment_magnitude():.2f}")

    # uplift/subsidence quadrants (paper Fig. 1d: subsidence SE, uplift NW)
    xs = np.linspace(cfg.x_extent[0], cfg.x_extent[1], 33)
    ys = np.linspace(cfg.y_extent[0], cfg.y_extent[1], 49)
    X, Y, eta = sea_surface_grid(solver, xs, ys)
    for name, mask in [
        ("NW", (X < cfg.fault_x) & (Y > 0)),
        ("NE", (X > cfg.fault_x) & (Y > 0)),
        ("SW", (X < cfg.fault_x) & (Y < 0)),
        ("SE", (X > cfg.fault_x) & (Y < 0)),
    ]:
        print(f"  mean eta {name}: {eta[mask].mean() * 100:+.2f} cm")
    obs.finish(solver)
    return solver, fault


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-end", type=float, default=4.0)
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
