"""V1 (paper Sec. 6.1, preliminaries): convergence against analytic solutions.

The paper states the coupled implementation was verified "in preliminary
convergence analyses with respect to analytic solutions".  This bench
regenerates the study: (a) elastic plane-wave convergence order N+1, and
(b) the coupled elastic-acoustic standing mode against the exact two-layer
dispersion solution — the case where a one-sided (uncoupled) flux would
not converge at all (Sec. 4.2).
"""

import numpy as np

from _cache import FAST, report
from repro.scenarios.convergence import (
    CoupledModeSetup,
    l2_error,
    periodic_box_solver,
    plane_wave,
)
from repro.core.materials import elastic


def test_v1_convergence():
    mat = elastic(1.0, 2.0, 1.0)
    out = {}
    # (a) plane-wave h-convergence at two orders
    for order in (1, 2) if FAST else (1, 2, 3):
        errs = []
        exact, cp = plane_wave(mat, "P")
        for nc in (4, 8):
            s = periodic_box_solver(mat, nc, order)
            s.set_initial_condition(lambda x: exact(x, 0.0))
            T = 0.15 / cp
            n = int(np.ceil(T / s.dt))
            for _ in range(n):
                s.step(T / n)
            errs.append(l2_error(s, exact, s.t))
        out[("plane", order)] = errs
    # (b) coupled standing mode, orders 2 and 3
    setup = CoupledModeSetup()
    for order in (2, 3):
        errs = []
        for nz in (2, 4):
            s = setup.build_solver(nz, order)
            T = 0.25 * 2 * np.pi / setup.omega
            n = int(np.ceil(T / s.dt))
            for _ in range(n):
                s.step(T / n)
            errs.append(l2_error(s, setup.exact, s.t))
        out[("coupled", order)] = errs

    rows = [
        "V1 (Sec. 6.1): convergence vs analytic solutions",
        f"{'case':28} {'order':>6} {'L2(h)':>11} {'L2(h/2)':>11} {'rate':>6} {'expected':>9}",
    ]
    for (case, order), errs in out.items():
        rate = np.log2(errs[0] / errs[1])
        rows.append(
            f"{case:28} {order:>6} {errs[0]:>11.3e} {errs[1]:>11.3e} {rate:>6.2f} {order + 1:>9}"
        )
        assert rate > order + 1 - 0.6, (case, order, errs)
    rows += [
        "",
        "the coupled-mode cases verify the exact elastic-acoustic Riemann",
        "flux: a flux using one-sided material parameters would stall at",
        "O(1) error here (the non-convergence pitfall of Sec. 4.2)",
    ]
    report("v1_convergence", rows)
