#!/usr/bin/env python3
"""Supervised Palu scenario ensemble: the paper's hazard sweep, fault-tolerant.

The 2018 Palu event became tsunamigenic through a combination that no
single deterministic run would have pinned down in advance: hypocenter
location, transtensional loading, fast-velocity-weakening friction, and
the steep bay bathymetry.  An early-warning capability therefore runs
*ensembles* of perturbed scenarios — and runs them unattended, surviving
worker deaths, hangs, and torn writes.

This driver builds N perturbed members of the scaled Palu scenario
(hypocenter along strike, strike loading, friction b, bay depth — one
perturbation axis per member, cycled), shards them across worker
processes under the :mod:`repro.ensemble` supervision tree, and reports
the hazard spread (peak sea-surface excursion) across whatever fraction
of the fleet survived.

Run:  python examples/palu_ensemble.py [--members 4] [--workers 2]
      [--t-end 0.3] [--full]

By default the members run a coarsened Palu mesh so the whole ensemble
finishes in minutes; ``--full`` uses the same scaled configuration as
``python -m repro palu`` (much slower).
"""

import argparse

import numpy as np

from repro.ensemble import MemberSpec, RetryPolicy, Supervisor

#: perturbation axes of the paper's hazard sweep, cycled over members;
#: the member seed adds hypocenter jitter on top (see
#: repro.scenarios.palu.build_scenario)
AXES = [
    ("nucleation_y", [2000.0, 2400.0, 2800.0]),     # hypocenter along strike
    ("tau_strike", [13e6, 14e6, 15e6]),             # loading level
    ("rs_b", [0.013, 0.014, 0.015]),                # friction weakening
    ("bay_depth", [100.0, 120.0, 140.0]),           # bathymetry
]

#: coarsened discretization for the default (non ``--full``) run
COARSE = {"dx_fine": 700.0, "dx_coarse": 1400.0, "n_earth_layers": 4,
          "earth_depth": 2400.0}


def member_specs(n: int, t_end: float, seed: int, full: bool,
                 checkpoint_every: float | None):
    rng = np.random.default_rng(seed)
    specs = []
    for k in range(n):
        name, values = AXES[k % len(AXES)]
        perturb = {} if full else dict(COARSE)
        perturb[name] = values[int(rng.integers(len(values)))]
        specs.append(MemberSpec(
            member_id=f"palu_{k:04d}",
            builder="palu",
            perturb=perturb,
            seed=seed + k,
            t_end=t_end,
            checkpoint_every=checkpoint_every,
        ))
    return specs


def main(members: int = 4, workers: int = 2, t_end: float = 0.3,
         seed: int = 0, full: bool = False, out: str = "out/palu_ensemble",
         member_timeout: float = 600.0):
    specs = member_specs(members, t_end, seed, full,
                         checkpoint_every=max(t_end / 3, 0.05))
    print(f"palu ensemble: {members} member(s) on {workers} worker(s), "
          f"t_end = {t_end} s {'(full mesh)' if full else '(coarse mesh)'}")
    for s in specs:
        axis = {k: v for k, v in s.perturb.items() if k not in COARSE}
        print(f"  {s.member_id}: seed {s.seed}, perturb {axis}")

    supervisor = Supervisor(
        specs, workers=workers,
        retry=RetryPolicy(max_retries=3),
        member_timeout=member_timeout,
        out_dir=out, verbose=True,
    )
    result = supervisor.run()

    print()
    for line in result.lines():
        print(line)
    survivors = result.by_status("ok") + result.by_status("recovered")
    peaks = [m.summary.get("eta_abs_max") for m in survivors
             if m.summary.get("eta_abs_max") is not None]
    if peaks:
        peaks = np.asarray(peaks)
        print(f"hazard spread over {len(peaks)} surviving member(s): "
              f"peak |eta| min {peaks.min() * 1000:.3f} mm, "
              f"median {np.median(peaks) * 1000:.3f} mm, "
              f"max {peaks.max() * 1000:.3f} mm")
    if result.degraded:
        print("DEGRADED: quarantined members are excluded from the spread; "
              "see their diagnosis above and per-member logs in "
              f"{out}/<member>/run.jsonl")
    return result


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--members", type=int, default=4)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--t-end", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--full", action="store_true",
                    help="paper-scale mesh (same as `python -m repro palu`)")
    ap.add_argument("--out", default="out/palu_ensemble")
    ap.add_argument("--member-timeout", type=float, default=600.0)
    args = ap.parse_args()
    main(args.members, args.workers, args.t_end, args.seed, args.full,
         args.out, args.member_timeout)
