"""Ablation A1 (paper Sec. 4.2): one-sided flux does not converge.

The paper stresses that the elastic-acoustic interface flux must be the
*exact* Riemann solution using both sides' material parameters: "Failing to
ensure consistency, e.g., if a flux is used that only takes material
parameters from one side into account ... may lead to a non-converging
scheme when coupling elastics and acoustics [Wilcox et al.]".

This bench runs the convergence study on the coupled *SH* standing mode —
an exact solution whose elastic side slips tangentially along the interface
while the ocean stays at rest, so the zero-shear interface condition is
load-bearing.  The exact flux converges at the design order; the one-sided
flux stalls at an O(1) error.
"""

import numpy as np

from _cache import report
from repro.scenarios.convergence import CoupledSHModeSetup, l2_error


def run_variant(setup, flux_variant, nz, order=2):
    s = setup.build_solver(nz, order, flux_variant=flux_variant)
    T = 0.25 * 2 * np.pi / setup.omega
    n = int(np.ceil(T / s.dt))
    for _ in range(n):
        s.step(T / n)
    ref = l2_error(s, lambda x, t: np.zeros((len(x), 9)), 0.0)
    return l2_error(s, setup.exact, s.t) / ref


def test_a1_one_sided_flux_does_not_converge():
    setup = CoupledSHModeSetup()
    out = {variant: [run_variant(setup, variant, nz) for nz in (2, 4)]
           for variant in ("exact", "one_sided")}

    rate_exact = np.log2(out["exact"][0] / out["exact"][1])
    rate_bad = np.log2(out["one_sided"][0] / out["one_sided"][1])
    rows = [
        "A1 (Sec. 4.2 ablation): exact vs one-sided elastic-acoustic flux",
        "coupled SH standing mode (interface slip), relative L2 error",
        "after a quarter period:",
        "",
        f"{'flux':>12} {'error (h)':>12} {'error (h/2)':>12} {'rate':>6}",
        f"{'exact':>12} {out['exact'][0]:>12.2e} {out['exact'][1]:>12.2e} {rate_exact:>6.2f}",
        f"{'one-sided':>12} {out['one_sided'][0]:>12.2e} {out['one_sided'][1]:>12.2e} {rate_bad:>6.2f}",
        "",
        "paper: a flux 'that only takes material parameters from one side",
        "into account ... may lead to a non-converging scheme when coupling",
        "elastics and acoustics.'",
    ]
    assert rate_exact > 2.0  # order-2 scheme: ~3
    assert out["one_sided"][1] > 20 * out["exact"][1]
    assert rate_bad < 1.0  # stalls
    report("a1_flux_ablation", rows)
