"""Clustered rate-2 local time-stepping (paper Sec. 4.4).

Elements are grouped into clusters with timestep ``2^c * dt_min``; the
cluster assignment is *normalized* so neighboring elements differ by at most
one level (SeisSol's constraint, which keeps the flux exchange simple and
the loops batched).  Fault faces and their two adjacent elements are forced
into a common cluster.

Flux exchange across cluster boundaries exploits the polynomial-in-time
ADER predictor (the property the paper highlights as making LTS "easy and
efficient" with ADER):

* a neighbor in a *coarser* cluster predicted earlier with a longer window;
  its Taylor expansion is simply integrated over the fine element's
  sub-window;
* a neighbor in a *finer* cluster accumulates its completed window integrals
  into a buffer which the coarse element consumes at its next corrector —
  SeisSol's buffer mechanism.

The update order is the canonical event-driven one: a cluster may step
when (i) every coarser neighboring cluster's Taylor expansion covers the
step window and (ii) every finer neighboring cluster has completed the
window (buffer full).  Because that cadence is static, it is compiled
once into a :class:`~repro.sched.StepPlan` and replayed by the shared
:class:`~repro.sched.Scheduler`; this module only owns the *clustering*
(assignment, normalization, statistics), the canonical mesh layout that
makes every cluster contiguous (:func:`cluster_major`: elements by
cluster, faces oriented fine-to-coarse and sorted by cluster pair) and
the per-cluster row layout the scheduler reads.
"""

from __future__ import annotations

import numpy as np

from ..kernels.fusion import row_set
from .cfl import element_timesteps

__all__ = ["cluster_elements", "cluster_major", "lts_statistics",
           "LocalTimeStepping"]


def cluster_elements(
    mesh, order: int, rate: int = 2, safety: float = 0.35, max_cluster: int | None = None
):
    """Assign every element to an LTS cluster.

    Returns ``(cluster_id, dt_min)`` where cluster ``c`` advances with
    ``rate^c * dt_min``.  Normalization enforces (a) neighbor clusters
    differing by at most one level and (b) both sides of a dynamic-rupture
    fault face sharing a cluster.
    """
    dts = element_timesteps(mesh, order, safety)
    dt_min = float(dts.min())
    cluster = np.floor(np.log(dts / dt_min) / np.log(rate) + 1e-12).astype(np.int64)
    if max_cluster is not None:
        cluster = np.minimum(cluster, max_cluster)

    em = mesh.interior.minus_elem
    ep = mesh.interior.plus_elem
    fault = mesh.interior.is_fault
    # iterate to the fixed point: cluster ids only decrease and are bounded
    # below by 0, so this terminates; the number of sweeps needed can reach
    # the graph diameter (e.g. equality constraints chained along a fault)
    for _ in range(mesh.n_elements + 1):
        before = cluster.copy()
        if fault.any():
            lo = np.minimum(cluster[em[fault]], cluster[ep[fault]])
            np.minimum.at(cluster, em[fault], lo)
            np.minimum.at(cluster, ep[fault], lo)
        np.minimum.at(cluster, em, cluster[ep] + 1)
        np.minimum.at(cluster, ep, cluster[em] + 1)
        if (cluster == before).all():
            break
    else:
        raise RuntimeError("LTS cluster normalization failed to converge")
    return cluster, dt_min


def cluster_major(mesh, order: int, safety: float = 0.35) -> None:
    """Canonicalise a mesh for rate-2 clustered LTS, in place.

    The cluster-sorted layout of Breuer & Heinecke (arXiv:2202.10313),
    elements and faces alike:

    * elements are renumbered by a stable argsort of the clustering, so
      every cluster is a row range (clamping with ``max_cluster`` merges
      the top clusters and keeps the ranges contiguous);
    * every regular interior face is oriented with the *finer* cluster on
      its minus side (:meth:`~repro.mesh.tetmesh.TetMesh.flip_faces`;
      fault faces never straddle clusters and are never flipped);
    * interior faces are stably sorted by (minus cluster, plus cluster),
      boundary faces by element.

    Normalization keeps neighbours within one level, so inside every
    orientation class the faces cluster ``c`` updates are then one run —
    ``(c-1, c)`` (plus side only) | ``(c, c)`` (both) | ``(c, c+1)``
    (minus side only) — and a masked face selection is a view of the
    operator plan (:mod:`repro.kernels.fusion`).  The result is a fixed
    point: canonicalising a canonical mesh changes nothing, so GTS and
    LTS solvers, or a resumed run, can share one mesh.  The scenario
    builders call it once, after fault marking and boundary tagging and
    right before the solver is built.
    """
    cluster = cluster_elements(mesh, order, safety=safety)[0]
    perm = np.argsort(cluster, kind="stable")
    mesh.renumber_elements(perm)
    cluster = cluster[perm]
    itf = mesh.interior
    mesh.flip_faces(cluster[itf.minus_elem] > cluster[itf.plus_elem])
    mesh.reorder_faces(
        np.lexsort((cluster[itf.plus_elem], cluster[itf.minus_elem])),
        np.argsort(mesh.boundary.elem, kind="stable"))


def lts_statistics(cluster: np.ndarray, rate: int = 2) -> dict:
    """Histogram and update-reduction factor of a clustering (cf. Fig. 4).

    The speedup factor compares the number of element updates needed to
    advance one macro step with LTS against global time-stepping at
    ``dt_min``.
    """
    cmax = int(cluster.max())
    counts = np.bincount(cluster, minlength=cmax + 1)
    updates_lts = sum(int(n) * rate ** (cmax - c) for c, n in enumerate(counts))
    updates_gts = int(cluster.size) * rate**cmax
    return {
        "counts": counts,
        "dt_factors": [rate**c for c in range(cmax + 1)],
        "updates_lts": updates_lts,
        "updates_gts": updates_gts,
        "speedup": updates_gts / max(updates_lts, 1),
    }


def _halo_layout(mesh, cluster: np.ndarray, n_clusters: int):
    """The spatial half of the compiled plan: who reads whose rows.

    ``halo[c][cn]`` are the (sorted) elements of cluster ``cn`` sharing a
    regular interior face with cluster ``c`` — the only rows of ``cn`` a
    corrector of ``c`` reads; ``exposed[c] = halo[c + 1][c]`` are the only
    rows of ``c`` a coarser neighbor ever reads from the accumulation
    buffer.  One vectorized pass over the cross-cluster faces (fault
    faces never are: normalization puts both sides in one cluster).
    """
    itf = mesh.interior
    em, ep = itf.minus_elem, itf.plus_elem
    cm, cp = cluster[em], cluster[ep]
    cross = np.flatnonzero((cm != cp) & ~itf.is_fault)
    reader = np.concatenate([cm[cross], cp[cross]])
    source = np.concatenate([cp[cross], cm[cross]])
    elem = np.concatenate([ep[cross], em[cross]])
    ne = len(cluster)
    # sorted unique (reader, source, element) triples, split per pair
    pair, elem = np.divmod(
        np.unique((reader * n_clusters + source) * ne + elem), ne)
    pairs, starts = np.unique(pair, return_index=True)
    halo = [{} for _ in range(n_clusters)]
    for p, rows in zip(pairs.tolist(), np.split(elem, starts[1:])):
        halo[p // n_clusters][p % n_clusters] = rows
    none = np.empty(0, dtype=np.int64)
    exposed = [halo[c + 1].get(c, none) if c + 1 < n_clusters else none
               for c in range(n_clusters)]
    return halo, exposed


class LocalTimeStepping:
    """The LTS clustering of a :class:`~repro.core.solver.CoupledSolver`.

    Holds the cluster assignment and the per-cluster row sets the
    scheduler's micro-steps touch: ``idx[c]`` (own; a ``slice`` on a
    mesh canonicalised by :func:`cluster_major`, sorted ids otherwise),
    and the small id arrays ``halo[c][cn]`` and ``exposed[c]``
    (see :func:`_halo_layout`).  ``Scheduler(solver, lts).run(t_end)``
    advances the solver along it.
    """

    def __init__(self, solver, rate: int = 2, max_cluster: int | None = None):
        self.solver = solver
        mesh = solver.mesh
        self.rate = rate
        self.cluster, self.dt_min = cluster_elements(
            mesh, solver.order, rate, solver.cfl_safety, max_cluster
        )
        self.cmax = int(self.cluster.max())
        self.n_clusters = self.cmax + 1
        self.masks = [self.cluster == c for c in range(self.n_clusters)]
        # per-cluster row sets, hoisted once: the scheduler's micro-step
        # loop indexes with these (views where a cluster is a row range)
        # instead of re-running boolean-mask selection every step
        self.idx = [row_set(np.flatnonzero(m)) for m in self.masks]
        self.elem_count = np.array([int(m.sum()) for m in self.masks])

        self.halo, self.exposed = _halo_layout(mesh, self.cluster, self.n_clusters)
        self.adjacent = [set(h) for h in self.halo]

        g = solver.gravity
        self.gravity_masks = [self.cluster[g.elem] == c for c in range(self.n_clusters)]
        if solver.motion is not None:
            me = solver.motion.elem
            self.motion_masks = [self.cluster[me] == c for c in range(self.n_clusters)]
        else:
            self.motion_masks = None
        self.updates = np.zeros(self.n_clusters, dtype=np.int64)

    def statistics(self) -> dict:
        return lts_statistics(self.cluster, self.rate)
