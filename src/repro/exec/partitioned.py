"""Partition-parallel execution of the ADER-DG kernels (paper Sec. 5).

The mesh is split with the existing graph partitioner
(:mod:`repro.hpc.partition`) under the LTS/rupture/gravity vertex weights
of paper Eq. 28, exactly the pipeline SeisSol feeds to ParMETIS.  Each
partition gets

* the **owned** elements it updates,
* a one-element **halo** layer (the neighbors across cut faces whose
  time-integrated predictor its face kernels read), and
* a per-partition :class:`~repro.core.kernels.SpatialOperator` restricted
  to its owned faces, with element indices remapped to the local
  owned-first layout (:meth:`SpatialOperator.restricted`).

A step then runs in two phases with a barrier between them:

1. **predict** — every partition computes the Cauchy-Kowalewski predictor
   of its owned elements (disjoint writes into the global array);
2. **correct** — every partition *gathers* the time-integrated predictor
   of its active elements and their face neighbors (this copy is the halo
   exchange: in a distributed run it would be the MPI message) into a
   persistent local buffer, runs its restricted volume/face kernels,
   scatters the active residual rows back, and applies the gravity /
   prescribed-motion / fault modules of its owned faces.  Which rows that
   is depends only on the partition and the activity mask, so it is
   compiled once per (partition, mask) — one mask per LTS cluster.

All writes target disjoint global rows, so the result is independent of
thread scheduling; the workers run concurrently because NumPy releases
the GIL inside the batched GEMMs.  The dynamic-rupture fault is kept
whole-fault atomic (every fault-adjacent element in one partition, a
stronger form of the LTS cluster-equalization constraint) because the
fault solver writes flux into both sides of each face at once and its
friction laws may carry per-face parameter arrays.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core.ader import taylor_integrate
from ..core.lts import cluster_elements
from ..hpc.partition import edge_cut, eq28_vertex_weights, imbalance, partition_mesh
from ..kernels.fusion import memo_by_mask
from ..obs.telemetry import get_telemetry
from .backend import ExecutionBackend
from .plan_cache import get_plan_cache, mesh_fingerprint

__all__ = ["PartitionPlan", "PartitionedBackend", "fault_atomic_partition"]

_TEL = get_telemetry()


def fault_atomic_partition(mesh, parts: np.ndarray) -> np.ndarray:
    """Move every fault-adjacent element into one common partition.

    The fault solver writes flux into *both* sides of every fault face in
    one call, and friction laws may carry per-face parameter arrays (e.g.
    the Scenario-A near-seafloor strengthening) that are only consistent
    when the whole fault steps together.  So the entire fault — not just
    each face pair — is pulled into the smallest touching partition id:
    exactly one worker then calls ``fault.step``, with the same full-fault
    view the serial backend has.  The cost is some load imbalance around
    the rupture, which the Eq. 28 weights already bias against.
    """
    fault = mesh.interior.is_fault
    if not fault.any():
        return parts
    parts = parts.copy()
    ids = np.unique(np.concatenate([
        mesh.interior.minus_elem[fault], mesh.interior.plus_elem[fault]
    ]))
    parts[ids] = parts[ids].min()
    return parts


class _ActiveSet:
    """What one activity mask selects in one partition (local = position
    in ``plan.cells``): ``act`` the active owned cells (bool, local),
    ``idx`` their local rows (a ``slice`` on a cluster-major mesh, whose
    sorted owned cells keep a cluster together), ``ids`` their global
    ids, ``starT`` their contiguous Jacobian rows (shared with the
    partition operator's volume kernel), and ``read`` / ``read_ids`` the
    local / global rows the residual kernels read — the active cells plus
    their face neighbors."""

    __slots__ = ("act", "idx", "ids", "starT", "read", "read_ids")


@dataclass
class PartitionPlan:
    """Everything one worker needs to advance its partition."""

    part_id: int
    owned: np.ndarray        # global element ids, owned by this partition
    halo: np.ndarray         # global element ids read but not updated
    cells: np.ndarray        # owned followed by halo (the local index space)
    owned_mask: np.ndarray   # bool over all mesh elements
    lop: object              # restricted SpatialOperator (local indices)
    gravity_mask: np.ndarray # bool over the solver's gravity faces
    motion_mask: np.ndarray | None
    has_fault: bool
    #: predictor scratch over the owned cells, handed out by leading rows
    #: (zeros, then predict_states results — one task per plan, no sharing)
    ck_scratch: np.ndarray | None = None
    #: persistent gather / residual buffers over ``cells`` (rows outside
    #: an active set's ``read`` / ``idx`` are stale, never read)
    Iloc: np.ndarray | None = None
    outloc: np.ndarray | None = None
    #: content-addressed :class:`_ActiveSet` per activity mask
    active_sets: OrderedDict = field(default_factory=OrderedDict)

    def active_set(self, active: np.ndarray | None) -> _ActiveSet:
        """The (cached) :class:`_ActiveSet` of a global activity mask;
        ``None`` selects every owned cell (GTS)."""
        if active is None:
            active = self.owned_mask
        return memo_by_mask(self.active_sets, active, lambda: self._select(active))

    def _select(self, active: np.ndarray) -> _ActiveSet:
        lop = self.lop
        s = _ActiveSet()
        s.act = np.zeros(len(self.cells), dtype=bool)
        s.act[:self.n_owned] = active[self.owned]
        s.idx, s.starT = lop.active_rows(s.act)
        s.ids = self.cells[s.idx]
        read = s.act.copy()
        for grp in lop.interior_groups:
            sel = s.act[grp.em] | s.act[grp.ep]
            read[grp.em[sel]] = True
            read[grp.ep[sel]] = True
        s.read = np.flatnonzero(read)
        s.read_ids = self.cells[s.read]
        return s

    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_halo(self) -> int:
        return len(self.halo)


class PartitionedBackend(ExecutionBackend):
    """Thread-pool execution over Eq. 28-weighted mesh partitions.

    Parameters
    ----------
    workers:
        Thread-pool size; also the default partition count.
    n_parts:
        Number of partitions (defaults to ``workers``).  More partitions
        than workers is legal (they are processed in turn).
    refine:
        Run the boundary refinement pass of the partitioner (smaller edge
        cut, slightly slower setup).
    """

    name = "partitioned"

    def __init__(self, workers: int = 2, n_parts: int | None = None, refine: bool = True):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.n_parts = self.workers if n_parts is None else int(n_parts)
        if self.n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        self.refine = refine
        self._pool = None
        self.plans: list[PartitionPlan] = []
        self.halo_exchanges = 0

    # ------------------------------------------------------------------
    def bind(self, solver) -> None:
        self.solver = solver
        mesh = solver.mesh
        n_parts = min(self.n_parts, mesh.n_elements)

        def partition():
            cluster = cluster_elements(mesh, solver.order,
                                       safety=solver.cfl_safety)[0]
            weights = eq28_vertex_weights(mesh, cluster)
            parts = fault_atomic_partition(mesh, partition_mesh(
                mesh, n_parts, weights, refine=self.refine))
            parts.setflags(write=False)  # shared by every backend that hits
            return (parts, imbalance(parts, weights) if n_parts > 1 else 1.0,
                    edge_cut(parts, mesh.dual_graph_edges()))

        # a pure function of this key: a rebuilt or resumed problem skips
        # the clustering, the Eq. 28 weights and the partitioner
        key = (f"partition;{mesh_fingerprint(mesh)};order={solver.order};"
               f"cfl={solver.cfl_safety!r};n_parts={n_parts};"
               f"refine={bool(self.refine)}")
        self.parts, self._imbalance, self._edge_cut = get_plan_cache() \
            .get_or_build_key(key, partition, phase="setup/partition")
        self._build_plans(self.parts)

    def _build_plans(self, parts: np.ndarray) -> None:
        solver = self.solver
        mesh = solver.mesh
        ne = mesh.n_elements
        em, ep = mesh.interior.minus_elem, mesh.interior.plus_elem
        g_elem = solver.gravity.elem
        m_elem = solver.motion.elem if solver.motion is not None else None
        fault_em = mesh.interior.minus_elem[mesh.interior.is_fault]

        # every row is owned by exactly one partition, so a full sweep
        # overwrites the whole buffer and it is reused across steps
        self._derivs = np.empty((ne, solver.order + 1, solver.op.nbasis, 9))
        self.plans = []
        for p in range(int(parts.max()) + 1):
            owned_mask = parts == p
            if not owned_mask.any():
                continue
            # halo = the far side of every cut face touching this partition
            halo_mask = np.zeros(ne, dtype=bool)
            out_m = owned_mask[em] & ~owned_mask[ep]
            out_p = owned_mask[ep] & ~owned_mask[em]
            halo_mask[ep[out_m]] = True
            halo_mask[em[out_p]] = True
            owned = np.flatnonzero(owned_mask)
            halo = np.flatnonzero(halo_mask)
            cells = np.concatenate([owned, halo])
            self.plans.append(PartitionPlan(
                part_id=p,
                owned=owned,
                halo=halo,
                cells=cells,
                owned_mask=owned_mask,
                lop=solver.op.restricted(cells, len(owned)),
                # NaN, not zeros: a row read before it was gathered would
                # poison the result instead of passing silently
                Iloc=np.full((len(cells), solver.op.nbasis, 9), np.nan),
                outloc=np.zeros((len(cells), solver.op.nbasis, 9)),
                gravity_mask=owned_mask[g_elem],
                motion_mask=None if m_elem is None else owned_mask[m_elem],
                has_fault=bool(owned_mask[fault_em].any()),
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
    def predict(self, Q: np.ndarray) -> np.ndarray:
        self._refresh(Q, None, self._derivs)
        return self._derivs

    def update_predictor(self, Q, mask, dt, derivs, Iown) -> None:
        self._refresh(Q, mask, derivs, Iown, dt)

    def _refresh(self, Q, mask, derivs, Iown=None, dt=None) -> None:
        """Predictor sweep over the owned cells ``mask`` selects (``None``:
        all), plus their Taylor window integral when ``Iown`` is given."""
        op = self.solver.op
        tracing = _TEL.enabled and _TEL.tracing

        def work(plan):
            sel = plan.active_set(mask)
            ids = sel.ids
            if not len(ids):
                return
            t0 = _time.perf_counter() if tracing else 0.0
            if plan.ck_scratch is None:  # first touched in the warm-up
                plan.ck_scratch = np.zeros((plan.n_owned, *derivs.shape[1:]))
            new_derivs = op.predict_states(
                Q[ids], sel.starT, out=plan.ck_scratch[:len(ids)])
            derivs[ids] = new_derivs
            if Iown is not None:
                Iown[ids] = taylor_integrate(new_derivs, 0.0, dt)
            if tracing:
                _TEL.add_span("worker/predict", t0, _time.perf_counter(),
                              part=plan.part_id, owned=len(ids))

        with _TEL.phase("predict"):
            if _TEL.enabled:
                _TEL.count("elem_updates/predictor",
                           len(Q) if mask is None else int(mask.sum()))
            self._run(work)

    def corrector(self, I, derivs, dt, t0, active=None,
                  gravity_mask=None, motion_mask=None) -> np.ndarray:
        solver = self.solver
        # a masked sweep assigns every row it reads: each has one owner
        R = solver.op.new_state() if active is None \
            else solver.op.masked_residual()

        def work(plan):
            profiled = _TEL.enabled
            sel = plan.active_set(active)
            act, idx = sel.act, sel.idx
            if len(sel.ids):
                # halo exchange: gather the time-integrated predictor of the
                # active elements and their face neighbors (owned or halo)
                t_gather = _time.perf_counter() if profiled else 0.0
                Iloc, outloc = plan.Iloc, plan.outloc
                Iloc[sel.read] = I[sel.read_ids]
                if profiled:
                    t_compute = _time.perf_counter()
                    _TEL.add_time(f"worker/p{plan.part_id}/halo_gather",
                                  t_compute - t_gather)
                    _TEL.add_span("worker/halo_gather", t_gather, t_compute,
                                  part=plan.part_id, halo=plan.n_halo)
                outloc[idx] = 0.0
                plan.lop.volume_residual(Iloc, outloc, active=act)
                plan.lop.interior_residual(Iloc, outloc, active=act)
                plan.lop.boundary_residual(Iloc, outloc, active=act)
                R[sel.ids] = outloc[idx]
            elif profiled:
                t_compute = _time.perf_counter()
            gm = plan.gravity_mask if gravity_mask is None \
                else plan.gravity_mask & gravity_mask
            if gm.any():
                solver.gravity.step(derivs, dt, R, face_mask=gm)
            if solver.motion is not None:
                mm = plan.motion_mask if motion_mask is None \
                    else plan.motion_mask & motion_mask
                if mm.any():
                    solver.motion.step(derivs, dt, R, t0=t0, face_mask=mm)
            if solver.fault is not None and plan.has_fault:
                act_g = plan.owned_mask if active is None else plan.owned_mask & active
                solver.fault.step(derivs, dt, R, active=act_g, t0=t0)
            if profiled:
                t_end = _time.perf_counter()
                _TEL.add_time(f"worker/p{plan.part_id}/compute",
                              t_end - t_compute)
                _TEL.add_span("worker/compute", t_compute, t_end,
                              part=plan.part_id, owned=len(sel.ids))

        with _TEL.phase("corrector"):
            if _TEL.enabled:
                _TEL.count("elem_updates/corrector",
                           len(I) if active is None else int(active.sum()))
            self._run(work)
        self.halo_exchanges += 1
        # point sources are few and cheap: applied once, after the barrier
        for s in solver.sources:
            if active is None or active[s._elem]:
                s.add(R, t0, dt)
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
            "owned": [p.n_owned for p in self.plans],
            "halo": [p.n_halo for p in self.plans],
            "imbalance": self._imbalance,
            "edge_cut": self._edge_cut,
            "halo_exchanges": self.halo_exchanges,
        }

    def describe(self) -> str:
        return f"partitioned(workers={self.workers}, parts={len(self.plans)})"
