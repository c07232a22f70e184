"""Fig. 2: solution structure of the coupled elastic-acoustic Riemann problem.

The paper's Fig. 2 is the schematic eigenstructure at an elastic-acoustic
interface: one left-going P and two left-going S waves in the elastic
medium, a single right-going P wave in the acoustic medium.  This bench
verifies that structure numerically from the rotated Jacobians and builds
the per-face flux matrices of Eq. 20.
"""

import numpy as np

from _cache import report
from repro.core.materials import acoustic, elastic, jacobian_normal
from repro.core.riemann import interior_flux_matrices

ROCK = elastic(2700.0, 6000.0, 3464.0)
WATER = acoustic(1000.0, 1500.0)


def wave_census(mat, n):
    ev = np.sort(np.real(np.linalg.eigvals(jacobian_normal(mat, n))))
    tol = 1e-6 * mat.cp
    left = ev[ev < -tol]
    right = ev[ev > tol]
    return left, right


def test_fig2_riemann_structure():
    rng = np.random.default_rng(0)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)

    left_e, right_e = wave_census(ROCK, n)
    left_a, right_a = wave_census(WATER, n)

    rows = [
        "Fig. 2 (Riemann solution structure at the elastic-acoustic interface)",
        f"{'':28} {'paper':>28} {'measured':>28}",
        f"{'elastic side, out-going':28} {'1 P + 2 S waves':>28} "
        f"{f'{(np.abs(left_e + ROCK.cp) < 1).sum()} P + {(np.abs(left_e + ROCK.cs) < 1).sum()} S':>28}",
        f"{'acoustic side, out-going':28} {'1 P wave':>28} "
        f"{f'{(np.abs(right_a - WATER.cp) < 1).sum()} P + {(np.abs(np.abs(right_a) - WATER.cs) < 1).sum() if WATER.cs else 0} S':>28}",
        f"{'elastic wave speeds':28} {'cp, cs, cs':>28} "
        f"{np.array2string(-left_e, precision=0):>28}",
        f"{'acoustic wave speed':28} {'cp':>28} {np.array2string(right_a, precision=0):>28}",
    ]
    assert (np.abs(left_e + ROCK.cp) < 1).sum() == 1
    assert (np.abs(left_e + ROCK.cs) < 1).sum() == 2
    assert len(right_a) == 1 and abs(right_a[0] - WATER.cp) < 1

    # the per-face exact-Riemann flux matrices (Eq. 20)
    Fm, Fp = interior_flux_matrices(ROCK, WATER, n)
    assert Fm.shape == Fp.shape == (9, 9)
    rows.append(f"{'per-face F-/F+ matrices':28} {'precomputed (Eq. 20)':>28} "
                f"{'2 x 9x9 built & cached':>28}")
    report("fig2_riemann_structure", rows)
