"""Operator-plan cache: skip flux-matrix setup for a problem seen before.

Building a :class:`~repro.core.kernels.SpatialOperator` means filling its
tables — the transposed star Jacobians and the scale-folded Godunov flux
matrices (Eq. 20) of both sides of every interior face, plus the boundary
kinds: one rotation and five small GEMMs per face, streamed into the final
layout, and dominated by the first touch of the 108 MB (Palu) it writes.
Benchmarks, convergence sweeps and checkpoint/resume workflows rebuild the
operator for the *same* discrete problem over and over; this module
memoizes the finished plan (transposed star Jacobians + folded
interior/boundary face groups) keyed by a SHA-256 fingerprint of
everything the plan depends on:

* mesh geometry and topology (vertices, tets),
* the material table and per-element material assignment,
* boundary tags and fault-face marks (they decide which faces the generic
  kernels own),
* the order and orientation of both face tables (the plan's face rows
  follow them),
* polynomial order and flux variant,
* the element blocks a partitioned run orders the interior faces by.

The same mesh-level digest feeds :func:`repro.io.checkpoint.fingerprint`,
so "plan cache hit" and "checkpoint restorable" agree on what *identical
problem* means.  Invalidation is automatic: any change to the mesh,
materials or order changes the fingerprint and misses the cache (the stale
entry ages out of the LRU).  Plans are immutable — the kernels only ever
read from them, and :func:`repro.kernels.fusion.finish_plan` makes every
array of a finished plan read-only — so sharing one plan between many
operators (a partitioned run's workers, rebuilt and resumed runs) is safe.
:func:`clear_plan_cache` drops every cached plan (the next operator builds
its own).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "mesh_fingerprint",
    "plan_key",
    "OperatorPlan",
    "PlanCache",
    "get_plan_cache",
    "clear_plan_cache",
]


def _hash_arrays(h, items) -> None:
    for label, arr in items:
        a = np.ascontiguousarray(arr)
        h.update(label.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())


def mesh_fingerprint(mesh) -> str:
    """SHA-256 digest of the discrete *spatial* problem a mesh defines.

    Covers geometry, topology, the material table and assignment, boundary
    tags and fault marks — everything the spatial operator (and a saved
    solver state) depends on — and the face tables' order and orientation:
    the plan's face rows, a partition's tie-breaks and the per-face state
    of a checkpoint (fault slip, sea-surface height) follow them.  Tagging,
    fault-marking or canonicalising a mesh (:func:`repro.core.lts.cluster_major`)
    changes the digest, so fingerprints must be taken *after* mesh setup
    is complete.
    """
    itf, bnd = mesh.interior, mesh.boundary
    h = hashlib.sha256()
    _hash_arrays(h, [
        ("vertices", mesh.vertices),
        ("tets", mesh.tets),
        ("material_ids", mesh.material_ids),
        ("materials", np.array([[m.rho, m.lam, m.mu] for m in mesh.materials])),
        ("boundary_kind", bnd.kind),
        ("fault_faces", itf.is_fault),
        ("interior_faces", np.stack([itf.minus_elem, itf.plus_elem,
                                     itf.minus_face, itf.plus_face, itf.perm])),
        ("boundary_faces", np.stack([bnd.elem, bnd.face])),
    ])
    return h.hexdigest()


def plan_key(mesh, order: int, flux_variant: str,
             blocks: np.ndarray | None = None) -> str:
    """Cache key of an operator plan: mesh digest + order + flux variant,
    plus the element blocks its interior faces are ordered by, if any
    (:meth:`repro.exec.backend.ExecutionBackend.blocks`)."""
    h = hashlib.sha256()
    h.update(mesh_fingerprint(mesh).encode())
    h.update(f"order={int(order)};flux={flux_variant}".encode())
    if blocks is not None:
        _hash_arrays(h, [("blocks", blocks)])
    return h.hexdigest()


@dataclass
class OperatorPlan:
    """The precomputed, immutable part of a :class:`SpatialOperator`:
    exactly what the kernels of :mod:`repro.kernels.fusion` read."""

    #: (ne, 108) nonzero blocks of the reference-coordinate (star)
    #: Jacobians, the left factors of the quantity-major kernels
    starQ: np.ndarray
    #: folded face groups (:func:`repro.kernels.fusion.attach_interior_groups`
    #: / :func:`~repro.kernels.fusion.attach_boundary_groups`)
    interior_groups: list = field(default_factory=list)
    boundary_groups: list = field(default_factory=list)
    #: (4, ne) face-buffer row half of every element-face, the lift's
    #: gather ids (``SpatialOperator._fold_interior``)
    slots: np.ndarray | None = None


class PlanCache:
    """Thread-safe LRU cache of :class:`OperatorPlan` objects."""

    #: plans kept before the least recently used one is evicted
    max_entries = 8

    def __init__(self):
        self._plans: OrderedDict[str, OperatorPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: str) -> OperatorPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def put(self, key: str, plan: OperatorPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)

    def get_or_build(self, mesh, order: int, flux_variant: str,
                     builder, blocks: np.ndarray | None = None) -> OperatorPlan:
        """Return the cached plan for ``(mesh, order, flux_variant,
        blocks)`` or build (and cache) a fresh one with ``builder()``."""
        key = plan_key(mesh, order, flux_variant, blocks)
        plan = self.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
        plan = builder()
        self.put(key, plan)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {"entries": len(self._plans), "hits": self.hits, "misses": self.misses}


_GLOBAL_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide operator-plan cache."""
    return _GLOBAL_CACHE


def clear_plan_cache() -> None:
    """Drop all cached operator plans and reset hit/miss counters."""
    _GLOBAL_CACHE.clear()
