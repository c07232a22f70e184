"""Graph partitioning for static load balancing (paper Sec. 5.3).

SeisSol builds the dual graph of the tetrahedral mesh (vertex = element,
edge = shared face), assigns vertex weights that encode each element's
update cost under LTS plus dynamic-rupture and gravity-face surcharges
(paper Eq. 28), and feeds the weighted graph plus per-partition target
weights (``tpwgts``, from measured node speeds) to ParMETIS.

This module reproduces the same pipeline: Eq. 28 vertex weights, a
geometric recursive-bisection partitioner with weighted splits honoring
``tpwgts`` (the role ParMETIS plays), and the quality metrics (imbalance,
edge cut) the scaling model and the partitioned backend consume.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eq28_vertex_weights",
    "partition_geometric",
    "imbalance",
    "edge_cut",
]


def eq28_vertex_weights(
    mesh,
    cluster: np.ndarray,
    w_base: int = 100,
    w_dr: int = 200,
    w_g: int = 300,
    rate: int = 2,
) -> np.ndarray:
    """Integer vertex weights of paper Eq. (28):

    ``2^(c_max - c_v) * (w_base + w_DR * n_DR + w_G * n_G)``

    with ``n_DR``/``n_G`` the element's number of dynamic-rupture and
    gravitational-boundary faces.  The defaults are the paper's production
    choice (Sec. 5.3).
    """
    ne = mesh.n_elements
    n_dr = np.zeros(ne, dtype=np.int64)
    itf = mesh.interior
    fault = itf.is_fault
    np.add.at(n_dr, itf.minus_elem[fault], 1)
    np.add.at(n_dr, itf.plus_elem[fault], 1)

    from ..core.riemann import FaceKind

    n_g = np.zeros(ne, dtype=np.int64)
    bnd = mesh.boundary
    grav = bnd.kind == FaceKind.GRAVITY_FREE_SURFACE.value
    np.add.at(n_g, bnd.elem[grav], 1)

    cmax = int(cluster.max())
    rate_factor = rate ** (cmax - cluster)
    return rate_factor * (w_base + w_dr * n_dr + w_g * n_g)


def partition_geometric(
    centroids: np.ndarray,
    weights: np.ndarray,
    n_parts: int,
    tpwgts: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted recursive coordinate bisection.

    Splits always along the longest extent; the split position honors the
    (possibly non-uniform) target weights ``tpwgts``.  Deterministic.
    """
    n = len(centroids)
    if n_parts < 1:
        raise ValueError("need at least one partition")
    if tpwgts is None:
        tpwgts = np.full(n_parts, 1.0 / n_parts)
    else:
        tpwgts = np.asarray(tpwgts, dtype=float)
        if len(tpwgts) != n_parts or not np.isclose(tpwgts.sum(), 1.0, atol=1e-6):
            raise ValueError("tpwgts must have n_parts entries summing to 1")
    parts = np.zeros(n, dtype=np.int64)

    def bisect(idx, part_lo, part_hi):
        if part_hi - part_lo == 1:
            parts[idx] = part_lo
            return
        mid = (part_lo + part_hi) // 2
        frac_lo = tpwgts[part_lo:mid].sum() / tpwgts[part_lo:part_hi].sum()
        c = centroids[idx]
        spans = c.max(axis=0) - c.min(axis=0)
        ax = int(np.argmax(spans))
        order = np.argsort(c[:, ax], kind="stable")
        w = weights[idx][order]
        csum = np.cumsum(w)
        target = frac_lo * csum[-1]
        k = int(np.searchsorted(csum, target))
        k = min(max(k, 1), len(idx) - 1)
        left = idx[order[:k]]
        right = idx[order[k:]]
        bisect(left, part_lo, mid)
        bisect(right, mid, part_hi)

    bisect(np.arange(n), 0, n_parts)
    return parts


# ----------------------------------------------------------------------
def imbalance(parts: np.ndarray, weights: np.ndarray, tpwgts: np.ndarray | None = None) -> float:
    """Max over partitions of (actual load / target load); 1.0 is perfect."""
    n_parts = int(parts.max()) + 1
    if tpwgts is None:
        tpwgts = np.full(n_parts, 1.0 / n_parts)
    part_w = np.bincount(parts, weights=weights, minlength=n_parts)
    target = np.asarray(tpwgts) * weights.sum()
    return float((part_w / np.maximum(target, 1e-300)).max())


def edge_cut(parts: np.ndarray, edges: np.ndarray, edge_weights: np.ndarray | None = None) -> float:
    """Total weight of edges crossing partition boundaries."""
    cut = parts[edges[:, 0]] != parts[edges[:, 1]]
    if edge_weights is None:
        return float(cut.sum())
    return float(edge_weights[cut].sum())
