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
from repro.sched import HookBus
from repro.scenarios import add_run_args, run, run_options


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


def main(t_end: float = 4.0, backend: str = "serial", workers: int | None = None,
         checkpoint_every=None, checkpoint_dir=None, resume=None, profile=False,
         trace=None, log_json=None, heartbeat_every=None, metrics=False):
    def prepare(handle, lts):
        solver, fault = handle.solver, handle.solver.fault
        print(f"mesh: {solver.mesh.n_elements} elements "
              f"({int(solver.mesh.is_acoustic_elem.sum())} ocean), "
              f"{len(fault)} fault faces, {len(solver.gravity)} gravity faces")
        print(f"execution backend: {solver.backend.describe()}")
        st = lts.statistics()
        print(f"LTS clusters {[int(c) for c in st['counts']]}, "
              f"update reduction {st['speedup']:.2f}x")

        hooks = HookBus()
        quarters = list(np.linspace(t_end / 4, t_end, 4))

        @hooks.on_sync
        def progress(s):
            # one line per quarter of the run, at the first sync point past it
            if not quarters or s.t < quarters[0] * (1 - 1e-9):
                return
            quarters[:] = [q for q in quarters if q * (1 - 1e-9) > s.t]
            vr = rupture_speed_along_strike(fault)
            print(f"t = {s.t:4.2f} s | ruptured {fault.ruptured_fraction() * 100:5.1f}% | "
                  f"peak V {fault.peak_slip_rate.max():6.2f} m/s | "
                  f"eta [{s.gravity.eta.min():+7.3f}, {s.gravity.eta.max():+7.3f}] m | "
                  f"front speed {vr if np.isnan(vr) else round(vr):>5} m/s")

        return hooks

    handle = run("palu", t_end, backend=backend, workers=workers, prepare=prepare,
                 checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
                 resume=resume, profile=profile, trace=trace, log_json=log_json,
                 heartbeat_every=heartbeat_every, metrics=metrics)
    solver, cfg, fault = handle.solver, handle.config, handle.solver.fault

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
    return solver, fault


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    add_run_args(ap, t_end=4.0)
    args = ap.parse_args()
    main(args.t_end, args.backend, args.workers, **run_options(args))
