"""Partition-parallel execution of the ADER-DG kernels (paper Sec. 5).

Every partition is a set of row ranges of the one operator plan.  On a
canonical mesh (:func:`repro.core.lts.cluster_major`) each LTS cluster is
one run of elements — the ones touching the fault first, the rest along
a Hilbert curve — and :func:`cluster_cuts` cuts every cluster's run into
``n_parts`` contiguous pieces of equal paper Eq. 28 weight, with the
whole fault in part 0.  Piece ``p`` of cluster ``c`` is *block*
``c * n_parts + p``.  The operator plan orders the interior faces of
every orientation class by (minus block, plus block != minus block, plus
block) (:meth:`PartitionedBackend.blocks`), so for every block the
element rows (``Q``, ``I``, ``R``, the predictor, ``starQ``), the
boundary faces and the faces whose minus side it is are slices: views
of the global arrays and of the plan.  Only the flux-table rows of
the faces whose minus side is another block are gathered copies (a few
per cent of the faces; :func:`repro.kernels.fusion._interior_masked_entries`).

A step runs in two phases with a barrier between them:

1. **predict** — every worker writes the Cauchy-Kowalewski derivatives
   (and, under LTS, the window integral) of its blocks' rows in place;
2. **correct** — every worker runs the volume / face kernels of its
   blocks on the global time-integrated predictor, through ``plan.lop``,
   a handle on the shared plan and face buffer with its own mask
   selections, writes its rows of the global residual and applies the
   gravity / prescribed-motion modules of its blocks' faces.

Every block is a :class:`~repro.core.lts.Rows` record, compiled once at
:meth:`PartitionedBackend.bind`; a corrector or predictor sweep over an
LTS cluster steps each part's block of that cluster.

There is no gather and no local index space: a face across a cut reads
the neighbour's row of the shared ``I`` where it lies (in a distributed
run that read would be the ghost-layer message).  Every write targets
the worker's own rows and face-row halves, and every GEMM is batch
independent (per-item products, and row-stacked ones of one fixed
shape), so the result does not depend on
thread scheduling and equals the serial backend's bit for bit; the
workers run concurrently because NumPy releases the GIL inside the
batched GEMMs.  The fault stays whole in part 0, one call over the
stepping cluster's faces: the fault solver writes flux into both sides
of each face at once, its friction laws may carry per-face parameter
arrays, and a rate-and-state solve stops its Newton iteration on the
batch's largest update, so another batch would change bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ader import Predictor
from ..core.basis import basis_size
from ..core.lts import cluster_elements, fault_adjacent, rows_of
from ..hpc.partition import edge_cut, eq28_vertex_weights, imbalance
from .backend import ExecutionBackend, refresh_rows

__all__ = ["PartitionPlan", "PartitionedBackend", "cluster_cuts"]


def _nearest_prefix(csum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Lengths of the prefixes whose weight (``csum``: cumulative) is
    nearest to each target."""
    k = np.minimum(np.searchsorted(csum, targets), len(csum) - 1)
    below = np.where(k > 0, csum[k - 1], 0)
    return np.where(csum[k] - targets < targets - below, k + 1, k)


def cluster_cuts(cluster: np.ndarray, weights: np.ndarray,
                 first: np.ndarray, n_parts: int) -> np.ndarray:
    """Part of every element: each cluster's elements, in id order with
    the ``first`` ones leading, cut into ``n_parts`` contiguous pieces of
    (nearly) equal ``weights``; part 0 takes every ``first`` element.

    On a :func:`~repro.core.lts.cluster_major` mesh (``first`` = the
    fault-adjacent elements) every piece is a row range, compact in space
    because the run follows a Hilbert curve.  The cut depends on nothing
    but the clustering, so serial and partitioned runs share one mesh."""
    parts = np.empty(len(cluster), dtype=np.int64)
    order = np.lexsort((~first, cluster))
    for run in np.split(order, np.flatnonzero(np.diff(cluster[order])) + 1):
        csum = np.cumsum(weights[run])
        total = float(csum[-1])
        head = max(int(_nearest_prefix(csum, np.array([total / n_parts]))[0]),
                   int(first[run].sum()))
        base = float(csum[head - 1]) if head else 0.0
        rest = base + (total - base) * np.arange(1, n_parts - 1) / max(n_parts - 1, 1)
        cuts = np.maximum(np.r_[head, _nearest_prefix(csum, rest)], head)
        parts[run] = np.searchsorted(cuts, np.arange(len(run)), side="right")
    return parts


@dataclass
class PartitionPlan:
    """One worker's partition: its blocks and its handle on the shared
    operator plan."""

    part_id: int
    blocks: dict             # {cluster: Rows} of this part's (non-empty) pieces
    lop: object              # SpatialOperator.handle() of the solver's op
    halo: int                # foreign elements its cut faces read
    has_fault: bool

    def active(self, rows) -> tuple:
        """The blocks a sweep over the cluster ``rows`` (a
        :class:`~repro.core.lts.Rows`) steps; ``None`` steps every block
        (GTS).  The blocks are cut from the clustering
        :class:`~repro.core.lts.LocalTimeStepping` uses (both call
        :func:`cluster_elements` at the solver's order), so
        a cluster id names the same elements in both."""
        if rows is None:
            return tuple(self.blocks.values())
        blk = self.blocks.get(rows.cluster)
        return () if blk is None else (blk,)


class PartitionedBackend(ExecutionBackend):
    """Thread-pool execution over Eq. 28-weighted contiguous partitions.

    Parameters
    ----------
    workers:
        Thread-pool size; also the default partition count.
    n_parts:
        Number of partitions (defaults to ``workers``).  More partitions
        than workers is legal (they are processed in turn).
    """

    name = "partitioned"

    def __init__(self, workers: int = 2, n_parts: int | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.n_parts = self.workers if n_parts is None else int(n_parts)
        if self.n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        self._pool = None
        self.parts = None
        self.plans: list[PartitionPlan] = []
        self.halo_exchanges = 0

    # ------------------------------------------------------------------
    def blocks(self, mesh, order: int) -> np.ndarray:
        """Cut the mesh (:func:`cluster_cuts` under Eq. 28 weights) and
        return every element's block, ``cluster * n_parts + part``."""
        n_parts = min(self.n_parts, mesh.n_elements)
        cluster = cluster_elements(mesh, order)[0]
        parts = cluster_cuts(cluster, eq28_vertex_weights(mesh, cluster),
                             fault_adjacent(mesh), n_parts)
        return cluster * n_parts + parts

    def bind(self, solver) -> None:
        """Bind to the solver built with this backend; the cut is the one
        its operator plan is ordered by (:meth:`blocks`)."""
        if solver.backend is not self:
            raise ValueError("a PartitionedBackend binds only to the solver "
                             "built with it (CoupledSolver(backend=...))")
        self.solver = solver
        mesh = solver.mesh
        n_parts = min(self.n_parts, mesh.n_elements)
        self._cluster, self.parts = np.divmod(solver.op.blocks, n_parts)
        # the global Eq. 28 balance, and the one every LTS cluster step
        # waits on: the worst cluster's heaviest part over its mean
        weights = eq28_vertex_weights(mesh, self._cluster)
        self._imbalance = imbalance(self.parts, weights)
        load = np.zeros((int(self._cluster.max()) + 1, n_parts))
        np.add.at(load, (self._cluster, self.parts), weights)
        self._cluster_imbalance = float(
            (load.max(axis=1) / load.mean(axis=1)).max())
        self._edge_cut = edge_cut(self.parts, mesh.dual_graph_edges())
        itf = mesh.interior
        em, ep = itf.minus_elem, itf.plus_elem
        fault_em = em[itf.is_fault]
        self._levels = [np.empty((mesh.n_elements, 9, basis_size(n)))
                        for n in range(solver.order - 1, -1, -1)]  # 1..N
        self.plans = []
        for p in range(int(self.parts.max()) + 1):
            owned = self.parts == p
            if not owned.any():
                continue
            read = np.zeros(mesh.n_elements, dtype=bool)
            read[ep[owned[em]]] = True
            read[em[owned[ep]]] = True
            blocks = {c: owned & (self._cluster == c)
                      for c in range(int(self._cluster.max()) + 1)}
            self.plans.append(PartitionPlan(
                part_id=p,
                blocks={c: rows_of(solver, m, c)
                        for c, m in blocks.items() if m.any()},
                lop=solver.op.handle(),
                halo=int((read & ~owned).sum()),
                has_fault=bool(owned[fault_em].any()),
            ))

    # ------------------------------------------------------------------
    def _run(self, fn) -> None:
        plans = self.plans
        if self.workers <= 1 or len(plans) <= 1:
            for plan in plans:
                fn(plan)
            return
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        # list() propagates the first worker exception to the caller
        list(self._pool.map(fn, plans))

    # ------------------------------------------------------------------
    def predict(self, Q: np.ndarray) -> Predictor:
        pred = Predictor((Q, *self._levels))
        self._refresh(Q, None, pred)
        return pred

    def update_predictor(self, Q, rows, dt, derivs, Iown) -> None:
        self._refresh(Q, rows, derivs, Iown, dt)

    def _refresh(self, Q, rows, pred, Iown=None, dt=None) -> None:
        """Predictor sweep over the cluster ``rows`` (``None``: all),
        plus its Taylor window integral when ``Iown`` is given: each
        block the way :meth:`SerialBackend.update_predictor` sweeps a
        cluster, into its rows of ``pred``."""
        op = self.solver.op

        def work(plan):
            for blk in plan.active(rows):
                refresh_rows(op, Q, blk.elems, pred, Iown, dt)

        self._run(work)

    def corrector(self, I, derivs, dt, t0, rows=None) -> np.ndarray:
        solver = self.solver
        # a masked sweep assigns every row it reads: each has one owner
        R = solver.op.new_state() if rows is None \
            else solver.op.masked_residual()
        Rv = R.transpose(0, 2, 1)  # the face modules' and sources' layout

        def work(plan):
            for blk in plan.active(rows):
                if rows is not None:
                    R[blk.elems] = 0.0
                plan.lop.volume_residual(I, R, active=blk.mask)
                plan.lop.interior_residual(I, R, active=blk.mask)
                plan.lop.boundary_residual(I, R, active=blk.mask)
                if blk.gravity.n:
                    solver.gravity.step(derivs, dt, Rv, plan=blk.gravity)
                if solver.motion is not None:
                    solver.motion.step(derivs, dt, Rv, t0=t0, plan=blk.motion)
            if solver.fault is not None and plan.has_fault:
                # the whole fault is this part's: the serial call
                solver.fault.step(derivs, dt, Rv,
                                  sides=None if rows is None else rows.fault,
                                  t0=t0)

        self._run(work)
        self.halo_exchanges += 1
        # point sources are few and cheap: applied once, after the barrier
        for s in solver.sources:
            if rows is None or rows.mask[s._elem]:
                s.add(Rv, t0, dt)
        return R

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter teardown path
        try:
            self.close()
        except Exception:
            pass

    def stats(self) -> dict:
        return {
            "backend": self.name,
            "workers": self.workers,
            "n_parts": len(self.plans),
            "owned": [sum(b.size for b in p.blocks.values())
                      for p in self.plans],
            "halo": [p.halo for p in self.plans],
            "imbalance": self._imbalance,
            "cluster_imbalance": self._cluster_imbalance,
            "edge_cut": self._edge_cut,
            "halo_exchanges": self.halo_exchanges,
        }

    def describe(self) -> str:
        return f"partitioned(workers={self.workers}, parts={len(self.plans)})"
