"""T2 (paper Sec. 5.3): partition-weight sweep for w_DR and w_G.

The paper varies the Eq. 28 surcharges for dynamic-rupture faces (w_DR)
and gravitational-boundary faces (w_G) between 50 and 500 on short
production runs, finding that performance generally increases with w_G
(300-500 appropriate) while w_DR shows no clear trend (the Newton load is
dynamic and partition-dependent).

Here the same sweep runs against the scaled Palu mesh: the *actual* cost of
a gravity element carries a fixed surcharge (the face-ODE integration has a
deterministic cost), while the rupture surcharge is drawn per step from a
wide range (the data-dependent Newton iterations).  The partitioner only
sees the static Eq. 28 weights — exactly the paper's mismatch.  Performance
is the inverse of the slowest partition's actual load.
"""

import numpy as np

from _cache import FAST, palu_built, report
from repro.core.riemann import FaceKind
from repro.hpc.partition import eq28_vertex_weights, partition_geometric

WEIGHTS = [50, 100, 200, 300, 400, 500]
PART_COUNTS = [12, 16, 24, 32]  # averaged to smooth partition graininess
GRAVITY_SURCHARGE = 5.0  # actual per-face cost of the eta ODE (~8 RK stages
#   each needing a predictor trace evaluation and extrapolation, Sec. 5.3)
DR_SURCHARGE_RANGE = (1.0, 8.0)  # Newton iterations vary over time


def performance(mesh, cluster, w_g, w_dr, rng, n_steps=6):
    ne = mesh.n_elements
    base = 2.0 ** (cluster.max() - cluster)
    bnd = mesh.boundary
    grav = np.zeros(ne)
    np.add.at(grav, bnd.elem[bnd.kind == FaceKind.GRAVITY_FREE_SURFACE.value], 1.0)
    itf = mesh.interior
    f = itf.is_fault
    dr = np.zeros(ne)
    np.add.at(dr, np.concatenate([itf.minus_elem[f], itf.plus_elem[f]]), 1.0)

    weights = eq28_vertex_weights(mesh, cluster, w_g=w_g, w_dr=w_dr)
    t_total = 0.0
    for n_parts in PART_COUNTS:
        parts = partition_geometric(mesh.centroids, weights.astype(float), n_parts)
        for _ in range(n_steps):
            # Newton counts vary per fault element and per step: a rupture
            # front sweeping the fault loads different partitions at
            # different times (the paper's dynamic-load argument)
            dr_cost = rng.uniform(*DR_SURCHARGE_RANGE, size=mesh.n_elements)
            actual = base * (1.0 + GRAVITY_SURCHARGE * grav + dr_cost * dr)
            loads = np.bincount(parts, weights=actual, minlength=n_parts)
            t_total += loads.max() / loads.mean()
    return 1.0 / t_total


def test_t2_weight_sweep():
    solver, fault, lts = palu_built()
    mesh = solver.mesh
    cluster = lts.cluster
    # the same DR noise (seed 7) for every weight
    g = np.array([performance(mesh, cluster, w_g=w, w_dr=200, rng=np.random.default_rng(7))
                  for w in WEIGHTS])
    d = np.array([performance(mesh, cluster, w_g=300, w_dr=w, rng=np.random.default_rng(7))
                  for w in WEIGHTS])
    g /= g.max()
    d /= d.max()
    rows = [
        "T2 (Sec. 5.3): Eq. 28 weight sweep (relative performance, 1.0 = best)",
        f"{'weight':>8} {'vary w_G (w_DR=200)':>22} {'vary w_DR (w_G=300)':>22}",
    ]
    for i, w in enumerate(WEIGHTS):
        rows.append(f"{w:>8} {g[i]:>22.3f} {d[i]:>22.3f}")
    best_g = WEIGHTS[int(np.argmax(g))]
    rows += [
        "",
        f"{'finding':44} {'paper':>14} {'model':>12}",
        f"{'best w_G':44} {'300-500':>14} {best_g:>12}",
        f"{'performance gain, best vs worst w_G':44} {'increases':>14} "
        f"{(g.max() / g.min() - 1) * 100:>10.1f}%",
        f"{'w_DR spread (no clear optimum)':44} {'trendless':>14} "
        f"{(d.max() / d.min() - 1) * 100:>10.1f}%",
        "",
        "paper: 'For w_G, we found that the performance generally increases",
        "with weight, indicating that a weight in the range of 300-500 is",
        "appropriate. For w_DR, a clear trend is not apparent' — the Newton",
        "load is dynamic, so no static weight can be consistently right.",
    ]
    if not FAST:  # the FAST mesh is too grainy for a stable optimum
        assert best_g >= 200, best_g
        assert g[WEIGHTS.index(300)] > g[WEIGHTS.index(50)]
    report("t2_weight_sweep", rows)
