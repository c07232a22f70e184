"""Compiled stacked-GEMM contraction chains for the ADER-DG hot kernels.

Everything here is *plan time vs step time* separation: whatever does not
depend on the modal state is computed once and folded into flat arrays,
so an element update is a few fat per-element / per-face GEMMs (about 15
at order 2) with no elementwise pass between them.

Predictor (:func:`fused_ck`)
    The Dubiner basis is orthonormal, so the modal derivative operator
    ``deriv[d, l, m]`` vanishes whenever ``deg(l) >= deg(m)`` — each
    Cauchy-Kowalewski level loses one polynomial degree exactly.  A
    degree-sorted mode permutation turns that into a *prefix* structure:
    level ``k`` lives in the first ``basis_size(N - k)`` permuted modes
    (order 3: 20 -> 10 -> 4 -> 1 modes, a ~4.4x FLOP reduction).  The
    three truncated directional operators of a level are stacked with
    rows ordered ``(mode, direction)`` and negated at plan time, so
    ``T = D'_k @ X`` is — by a free reshape — the ``(n_out, 27)`` matrix
    ``[T_0 | T_1 | T_2]``, and the three star-Jacobian products, their
    sum and the sign are one ``K = 27`` contraction with
    ``starT.reshape(n, 27, 9)``: two GEMMs per element and level.

Volume (:func:`fused_volume_residual`)
    ``sum_d deriv[d]^T (I A*_d)`` the same way: ``(KP @ I)`` with the
    ``(mode, direction)``-ordered stiffness stack ``KP``, reshaped to
    ``(B, 27)``, times ``starT27`` — two GEMMs per element.

Surface (:func:`fused_interior_residual` / :func:`fused_boundary_residual`)
    The quadrature projection ``E^T diag(w) (E I F^T) * scale`` commutes
    into ``(E^T diag(w) E) I (scale * F^T)``, and every basis-side factor
    ``E^T diag(w) E`` has the rank ``F = (N+1)(N+2)/2`` of the face
    polynomials: it is ``R^T R`` with ``R`` the ``(F, B)`` trace onto an
    orthonormal face basis (:func:`face_factors`).  Per interior face
    the kernel takes the two elements' traces on ``F`` rows, contracts
    both flux terms of a side in one ``K = 18`` product with the side's
    stacked, scale-folded flux matrices, and *assigns* the ``(F, 9)``
    result to that side's slot of a per-operator ``(ne, 4, F, 9)`` face
    buffer.  An element-face has exactly one owner, so nothing is read,
    modified and written back, and nothing is scatter-added: one
    ``(B, 4F) @ (4F, 9)`` product per element lifts all four slots.  The
    few boundary faces keep the ``(B, B)`` form ``A @ I @ G``.

Plan build (:func:`fold_flux_tables`)
    The surface tables are built directly in their final layout.  A
    face's transposed flux matrices ``(T M T^-1)^T`` are two batched
    products of its rotation with the stacked face-aligned constants of
    its material pair; faces are sorted by orientation class once and
    walked in chunks of :data:`FOLD_CHUNK`, each chunk's scaled rows
    written straight into the class-ordered ``Gm`` / ``Gp`` / ``G``, so
    the build allocates the tables plus a chunk of scratch and nothing
    else.  :func:`finish_plan` checks the C-contiguous ``float64`` layout
    the free reshapes below rely on and makes the plan read-only.

Batch independence
    Every GEMM above is per element or per face, of a shape that does not
    depend on the batch, so NumPy issues one identical BLAS call per
    item and a row's bits never depend on which rows are computed with
    it.  Serial == partitioned == any LTS clustering, bitwise, rests on
    that.  It excludes the faster row-stacked form (one ``(ne * 9, K)``
    GEMM): on OpenBLAS the rows of such a product change in the last bit
    with the row subset.  Cache reuse comes from chunking instead: every
    kernel walks its rows in chunks of :data:`CHUNK` through per-call
    scratch of a chunk's size, which stays in L2 where a whole
    orientation class does not; a chunk is one more batch, so no bit
    depends on :data:`CHUNK`.

Every kernel sweeps a :func:`selection`: the element rows, the interior
face batches and the boundary entries of one activity mask (``None``:
all of them).  Local time-stepping calls the kernels with one mask per
LTS cluster or partition block; a mask's selection is built once and
kept in the operator's one cache, ``op._selections``, on the SHA-1 of
the mask bytes, and :meth:`SpatialOperator.apply` looks it up once per
call.  Every selection is a :func:`row_set` of the plan's rows: a
``slice`` — so the selected rows are *views* of the plan — when they
are one run, else the ids under the same expressions (fancy-indexed
copies, same bits).  On a mesh canonicalised by
:func:`repro.core.lts.cluster_major` every cluster's selection is one
run, and so is every partition block's (:mod:`repro.exec.partitioned`).
The element rows are shared by the volume kernel and the lift:
``I[idx]``, ``fb[idx]`` and ``starT`` are views and ``out[idx] += ...``
updates in place.  The interior selection is made per *side*: the
faces of a class with an active side are taken plus-only | both |
minus-only, which on a canonical mesh is the plan's own order
(``(c-1, c)`` | ``(c, c)`` | ``(c, c+1)`` cluster pairs), so ``em`` /
``ep`` / ``Gm`` / ``Gp`` are views, each side's faces are one slice of
one trace pair, and an interface face computes only the flux of the
side that is updated.  In a plan ordered by partition blocks the
both | minus-only faces of a block are one run and its plus-only faces
a gathered batch of their own (:func:`_interior_masked_entries`).
Boundary faces sorted by element make the boundary selection (``elem``
/ ``G``) views as well.

All results match the quadrature-form reference kernels of
``tests/reference_kernels.py`` up to floating-point reassociation (the
equivalence battery in ``tests/test_kernels.py`` pins this at ~1e-12
relative).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.basis import _tet_mode_indices, basis_size, get_reference_element
from ..core.rotation import fill_state_rotation
from ..obs.metrics import get_metrics

_MET = get_metrics()

__all__ = [
    "ElementKernelPlan",
    "element_plan",
    "fused_ck",
    "FaceFactors",
    "face_factors",
    "row_set",
    "selection",
    "FusedInteriorGroup",
    "FusedBoundaryGroup",
    "face_buffer",
    "CHUNK",
    "FOLD_CHUNK",
    "fold_flux_tables",
    "attach_interior_groups",
    "attach_boundary_groups",
    "finish_plan",
    "fused_volume_residual",
    "fused_interior_residual",
    "fused_boundary_residual",
    "MASK_CACHE_MAX",
]

#: mask selections kept per operator (LTS produces one mask per cluster,
#: a partition worker one per block; 64 covers deep hierarchies)
MASK_CACHE_MAX = 64

#: rows (elements or faces) per chunk of the residual and predictor
#: sweeps: a chunk's operands and scratch stay in L2 where a whole
#: orientation class (~17 MB on Palu) does not
CHUNK = 256


def _chunks(idx, n: int):
    """``(pos, rows)`` per run of at most :data:`CHUNK` rows of the
    :func:`row_set` ``idx`` over ``n`` rows: the run's positions within
    the selection (a slice) and its rows (a slice, or ids)."""
    if isinstance(idx, slice):
        start, stop, _ = idx.indices(n)
        for lo in range(start, stop, CHUNK):
            hi = min(lo + CHUNK, stop)
            yield slice(lo - start, hi - start), slice(lo, hi)
    else:
        for lo in range(0, len(idx), CHUNK):
            pos = slice(lo, lo + CHUNK)
            yield pos, idx[pos]


# ----------------------------------------------------------------------
# element-local plan: degree truncation + (mode, direction) stacks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElementKernelPlan:
    """Per-order compiled operators shared by every fused kernel call.

    Attributes
    ----------
    perm:
        Degree-sorted mode permutation: ``perm[i]`` is the original index
        of the ``i``-th mode in non-decreasing-degree order.
    sizes:
        ``basis_size(order - k)`` for ``k = 0..order`` — the permuted
        prefix length holding Cauchy-Kowalewski level ``k``.
    Dneg:
        Per level, the *negated* ``(3 * sizes[k+1], sizes[k])`` stack of
        the three truncated directional derivative operators, rows ordered
        ``(mode, direction)``.  Output modes are permuted; the columns of
        level 0 are in original mode order (it reads ``Q`` as is), those
        of later levels in permuted order.
    KP:
        ``(3B, B)`` stack of the transposed (stiffness) operators of the
        volume kernel, rows ordered ``(mode, direction)``, original modes.
    """

    perm: np.ndarray
    sizes: tuple
    Dneg: tuple
    KP: np.ndarray


def _mode_direction_stack(ops: np.ndarray) -> np.ndarray:
    """``(3, n_out, n_in)`` operators stacked to ``(3 * n_out, n_in)`` with
    row ``3 * mode + direction``: the product with an ``(n_in, 9)`` state
    then *is* the ``(n_out, 27)`` left factor of the star contraction."""
    return np.ascontiguousarray(ops.transpose(1, 0, 2)).reshape(-1, ops.shape[2])


@lru_cache(maxsize=None)
def element_plan(order: int) -> ElementKernelPlan:
    """Build (and cache) the fused element-kernel plan for one order."""
    ref = get_reference_element(order)
    degs = np.array([i + j + k for i, j, k in _tet_mode_indices(order)])
    perm = np.argsort(degs, kind="stable").astype(np.int64)

    sizes = tuple(basis_size(order - k) for k in range(order + 1))
    Dneg = []
    for k in range(order):
        rows = perm[:sizes[k + 1]]
        cols = perm[:sizes[k]] if k else np.arange(sizes[0])
        Dneg.append(_mode_direction_stack(-ref.deriv[:, rows][:, :, cols]))

    KP = _mode_direction_stack(ref.deriv.transpose(0, 2, 1))
    for arr in (perm, KP, *Dneg):
        arr.setflags(write=False)
    return ElementKernelPlan(perm=perm, sizes=sizes, Dneg=tuple(Dneg), KP=KP)


def _star_contract(op27: np.ndarray, X: np.ndarray, starT: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``sum_d (op_d @ X) @ starT[:, d]`` as two GEMMs per element: the
    ``(mode, direction)`` row order of ``op27`` makes ``op27 @ X`` a free
    ``(n, modes, 27)`` view, which one ``K = 27`` product contracts with
    the three star Jacobians at once."""
    n = len(X)
    T = np.matmul(op27, X)
    return np.matmul(T.reshape(n, len(op27) // 3, 27),
                     starT.reshape(n, 27, 9), out=out)


def fused_ck(Q: np.ndarray, starT: np.ndarray, ref,
             out: np.ndarray | None = None) -> np.ndarray:
    """Degree-truncated Cauchy-Kowalewski sweep, ``(ne, N+1, B, 9)``.

    ``starT`` holds the *transposed* star Jacobians ``(ne, 3, 9, 9)``
    (contiguous — the operator plan precomputes this copy).  Levels are
    computed in permuted mode order and scattered back, so the output
    layout is the untruncated one of the reference ``ck_derivatives``
    (``tests/reference_kernels.py``) exactly; modes beyond each level's
    degree cutoff are exact zeros (the reference carries ~1e-16
    quadrature noise there instead).

    ``out`` is an optional scratch buffer: it MUST be an array previously
    returned by this function for the same order, a fresh ``np.zeros``,
    or rows of either (a view or a gathered copy) — its truncated-mode
    rows are assumed to still be the zeros this sweep leaves there, which
    is what makes reuse free.  A
    ``None`` or shape-mismatched ``out`` falls back to a fresh
    allocation.  The step loop reuses its predictor buffer through this:
    the ~O(10 MB) per-call allocation would otherwise cost more in page
    faults than the truncated GEMMs themselves.
    """
    plan = element_plan(ref.order)
    ne, nb, nq = Q.shape
    shape = (ne, ref.order + 1, nb, nq)
    if out is None or out.shape != shape or out.dtype != np.float64:
        out = np.zeros(shape)
    for lo in range(0, ne, CHUNK):
        rows = slice(lo, lo + CHUNK)
        out[rows, 0] = Q[rows]
        # BLAS reads contiguous items; a strided Q would take NumPy's own
        # loop, whose summation order differs
        X = np.ascontiguousarray(Q[rows])
        for k in range(ref.order):
            X = _star_contract(plan.Dneg[k], X, starT[rows])
            out[rows, k + 1, plan.perm[:plan.sizes[k + 1]]] = X
    return out


# ----------------------------------------------------------------------
# surface fusion: plan-time factor collapse
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaceFactors:
    """Per-order face-basis factors of the surface kernels.

    ``F = (N+1)(N+2)/2`` is the dimension of the face polynomials.

    Attributes
    ----------
    R:
        ``(4, F, B)``: trace of the element basis on local face ``f``,
        expressed in the orthonormal basis of the face polynomials
        (``R[f]^T R[f] = E_f^T diag(w) E_f``).
    lift:
        ``(B, 4F)``: ``[R[0]^T | R[1]^T | R[2]^T | R[3]^T]`` — one product
        with an element's ``(4F, 9)`` face-buffer row applies all four
        back-projections.
    Wm, Wp:
        ``(4, 4, 6, 2F, B)`` indexed ``[minus face, plus face, perm]``:
        stacked trace operators of the minus / plus element of an interior
        face.  Rows ``[:F]`` express the trace in the *minus* element's
        face basis, rows ``[F:]`` in the *plus* element's own.
    """

    R: np.ndarray
    lift: np.ndarray
    Wm: np.ndarray
    Wp: np.ndarray


@lru_cache(maxsize=None)
def face_factors(order: int) -> FaceFactors:
    """Build (and cache) the face-basis factors of one order.

    With ``P = tri_V^T diag(w)`` the projection of face-point values onto
    the orthonormal triangle basis, ``R[f] = P E_minus[f]`` and the plus
    element's trace in the minus element's face parametrization is
    ``Rp = P E_plus[fp, perm]``.  Both bases span the same face
    polynomials, so ``Rp = C R[fp]`` with an orthogonal ``F x F`` change
    of basis ``C`` (the face rule integrates degree ``2N`` exactly).  The
    minus side of a face needs ``R[fm] I-`` and ``Rp I+``; the plus side,
    in its own basis so that the lift depends on the local face alone,
    ``C^T R[fm] I-`` and ``R[fp] I+``.
    """
    ref = get_reference_element(order)
    P = ref.tri_V.T * ref.face_weights
    R = np.matmul(P, ref.E_minus)
    F, B = R.shape[1:]
    Rpinv = np.linalg.pinv(R)
    Wm = np.empty((4, 4, 6, 2 * F, B))
    Wp = np.empty_like(Wm)
    for fp in range(4):
        for perm in range(6):
            Rp = P @ ref.E_plus[fp, perm]
            C = Rp @ Rpinv[fp]
            Wp[:, fp, perm, :F] = Rp
            Wp[:, fp, perm, F:] = R[fp]
            Wm[:, fp, perm, :F] = R
            Wm[:, fp, perm, F:] = np.matmul(C.T, R)
    lift = np.ascontiguousarray(R.transpose(2, 0, 1)).reshape(B, 4 * F)
    for arr in (R, lift, Wm, Wp):
        arr.setflags(write=False)
    return FaceFactors(R=R, lift=lift, Wm=Wm, Wp=Wp)


class FusedInteriorGroup:
    """Folded factors of one (minus face, plus face, permutation) class:
    the local face ids ``fm``/``fp``, the class's stacked trace operators
    ``Wm``/``Wp`` (views of :func:`face_factors`) and the per-face
    scale-folded, stacked transposed flux matrices ``Gm``/``Gp``
    (see :func:`attach_interior_groups`)."""

    __slots__ = ("em", "ep", "fm", "fp", "Wm", "Wp", "Gm", "Gp")


class FusedBoundaryGroup:
    """Folded factors of one (boundary kind, local face) class."""

    __slots__ = ("elem", "A", "G")


#: faces per chunk of :func:`fold_flux_tables`; its scratch (rotations,
#: gathered constants, the half product: ~6.5 kB a face at four matrices)
#: is sized ``min(FOLD_CHUNK, n_faces)`` and reused by every chunk
FOLD_CHUNK = 1024


def fold_flux_tables(normals, which, consts, outs) -> None:
    """Build scale-folded transposed flux matrices in their final layout.

    For face ``f`` with rotation ``T = T(normals[f])`` and the stack
    ``consts[which[f]] = [M_1^T; ...; M_k^T]`` (``(9k, 9)``: transposed
    face-aligned matrices), the ``k`` blocks ``(T M_j T^{-1})^T`` are two
    batched products, ``Y = consts[which[f]] @ T^T`` and ``T^{-T} @ Y``
    viewed ``(k, 9, 9)`` — the ``(T M) T^{-1}`` association, a per-face
    GEMM shape that does not depend on the batch.  ``outs`` is a sequence
    of ``(table, scale)``: each C-contiguous ``(nf, 9 b, 9)`` table takes
    the next ``b`` blocks of every face, times ``scale[f]``, written in
    place chunk by chunk; nothing of size ``nf`` is allocated here.
    The bits of a row do not depend on :data:`FOLD_CHUNK`.
    """
    nf = len(normals)
    if not nf:
        return
    c = min(FOLD_CHUNK, nf)
    k = consts.shape[1] // 9
    Tt = np.zeros((c, 9, 9))
    TinvT = np.zeros((c, 9, 9))
    B = np.empty((c, 9 * k, 9))
    Y = np.empty((c, k, 9, 9))
    for lo in range(0, nf, c):
        hi = min(lo + c, nf)
        n = hi - lo
        fill_state_rotation(normals[lo:hi], Tt[:n].transpose(0, 2, 1),
                            TinvT[:n].transpose(0, 2, 1))
        np.take(consts, which[lo:hi], axis=0, out=B[:n])
        np.matmul(B[:n], Tt[:n], out=Y[:n].reshape(n, 9 * k, 9))
        b0 = 0
        for table, scale in outs:
            rows = table[lo:hi]
            b1 = b0 + rows.shape[1] // 9
            np.matmul(TinvT[:n, None], Y[:n, b0:b1],
                      out=rows.reshape(n, b1 - b0, 9, 9))
            rows *= scale[lo:hi, None, None]
            b0 = b1


def _class_runs(cls: np.ndarray):
    """``(lo, hi)`` of every run of equal values in the sorted ``cls``."""
    cuts = np.flatnonzero(cls[1:] != cls[:-1]) + 1
    return zip(np.r_[0, cuts], np.r_[cuts, len(cls)])


def attach_interior_groups(plan, order: int, em, ep, minus_face, plus_face,
                           perm, Gm, Gp) -> None:
    """One :class:`FusedInteriorGroup` per run of equal (minus face, plus
    face, permutation) in the class-sorted face arrays: every per-face
    field is a slice of its argument, so ``Gm`` / ``Gp`` (the minus / plus
    side's ``(nf, 18, 9)`` tables of :func:`fold_flux_tables`) stay the
    one allocation each was built in.

    With trace operators ``Em``/``Ep`` and face weights ``w``, the
    minus-side contribution of a face

        ``scale_m * Em^T diag(w) (Em I[em] Fmm^T + Ep I[ep] Fpm^T)``

    factorizes through the face basis (:func:`face_factors`) into
    ``R[fm]^T ([R[fm] I[em] | Rp I[ep]] @ Gm)`` with the per-face stack
    ``Gm = scale_m * [Fmm^T; Fpm^T]``; symmetrically the plus side is
    ``R[fp]^T ([C^T R[fm] I[em] | R[fp] I[ep]] @ Gp)`` with
    ``Gp = scale_p * [Fpp^T; Fmp^T]``.
    """
    fac = face_factors(order)
    for lo, hi in _class_runs((minus_face * 4 + plus_face) * 6 + perm):
        fm, fp, pm = int(minus_face[lo]), int(plus_face[lo]), int(perm[lo])
        grp = FusedInteriorGroup()
        grp.em, grp.ep = em[lo:hi], ep[lo:hi]
        grp.fm, grp.fp = fm, fp
        grp.Wm = fac.Wm[fm, fp, pm]
        grp.Wp = fac.Wp[fm, fp, pm]
        grp.Gm, grp.Gp = Gm[lo:hi], Gp[lo:hi]
        plan.interior_groups.append(grp)


def attach_boundary_groups(plan, ref, elem, kind, face, G) -> None:
    """One :class:`FusedBoundaryGroup` per run of equal (kind, local face)
    in the class-sorted boundary arrays: the ``(B, B)`` projector
    ``A = E^T diag(w) E`` of the local face and the faces' slice of
    ``G = scale * F^T`` (``(nf, 9, 9)``, from :func:`fold_flux_tables`)."""
    w = ref.face_weights
    for lo, hi in _class_runs(kind * 4 + face):
        E = ref.E_minus[int(face[lo])]
        grp = FusedBoundaryGroup()
        grp.elem = elem[lo:hi]
        grp.A = np.ascontiguousarray((E.T * w) @ E)
        grp.G = G[lo:hi]
        plan.boundary_groups.append(grp)


def finish_plan(plan):
    """Check and freeze a fully built plan; returns it.

    The kernels reshape ``starT`` to ``(n, 27, 9)`` and hand ``Gm`` /
    ``Gp`` / ``A`` / ``G`` to BLAS as they are: every table must be
    C-contiguous ``float64`` (a K-ordered ``starT`` computes the same
    bits at twice the predictor's price, so nothing else would notice).
    Plans are shared between operators through the plan cache, so every
    array is made read-only here.
    """
    tables = {"starT": plan.starT}
    ids = []
    for i, grp in enumerate(plan.interior_groups):
        tables[f"interior_groups[{i}].Gm"] = grp.Gm
        tables[f"interior_groups[{i}].Gp"] = grp.Gp
        ids += [grp.em, grp.ep]
    for i, grp in enumerate(plan.boundary_groups):
        tables[f"boundary_groups[{i}].A"] = grp.A
        tables[f"boundary_groups[{i}].G"] = grp.G
        ids.append(grp.elem)
    for name, arr in tables.items():
        if arr.dtype != np.float64 or not arr.flags.c_contiguous:
            raise ValueError(
                f"operator plan: {name} must be C-contiguous float64, got "
                f"{arr.dtype} with strides {arr.strides} for shape {arr.shape}")
    for arr in (*tables.values(), *ids):
        arr.setflags(write=False)
    return plan


def row_set(ids: np.ndarray):
    """Unique row ids as a ``slice`` when they are one increasing run
    (indexing then yields views and in-place updates), else as they are.
    The one place that decides: every caller indexes with whatever it
    returns."""
    n = len(ids)
    if (np.diff(ids) != 1).any():
        return ids
    start = int(ids[0]) if n else 0
    return slice(start, start + n)


def selection(op, active: np.ndarray | None):
    """``(idx, starT, interior, boundary)``: what the residual kernels of
    ``op`` sweep for an activity mask — the rows as a :func:`row_set` and
    their ``starT`` rows, the per-group interior face batches
    (:func:`_interior_masked_entries`) and boundary entries
    (:func:`_boundary_masked_entries`).  ``None`` is the full sweep.  A
    mask's selection is built once and kept in ``op._selections`` on the
    SHA-1 of the mask bytes, the oldest entry evicted past
    :data:`MASK_CACHE_MAX`."""
    if active is None:
        return (slice(None), op.starT,
                [[(g.em, g.ep, 0, len(g.em), g.Gm, g.Gp)]
                 for g in op.interior_groups],
                [(g.elem, g.G) for g in op.boundary_groups])
    key = hashlib.sha1(active.tobytes()).digest()
    hit = op._selections.get(key)
    if _MET.enabled:
        _MET.inc("cache/mask_hits" if hit is not None else "cache/mask_misses")
    if hit is None:
        idx = row_set(np.flatnonzero(active))
        hit = op._selections[key] = (
            idx, op.starT[idx], _interior_masked_entries(op, active),
            _boundary_masked_entries(op, active))
        while len(op._selections) > MASK_CACHE_MAX:
            op._selections.popitem(last=False)
    return hit


# ----------------------------------------------------------------------
# fused residual kernels
# ----------------------------------------------------------------------
def fused_volume_residual(op, I, out, sel, overwrite=False) -> None:
    """Stacked-stiffness volume kernel (see module docstring) over the
    rows of the :func:`selection` ``sel``.

    ``overwrite`` stores the term into the updated rows of ``out``
    instead of adding it: :meth:`SpatialOperator.apply` starts its
    residual with it, saving the zero-fill and one pass."""
    KP = element_plan(op.order).KP
    idx, starT = sel[:2]
    for pos, rows in _chunks(idx, len(out)):
        Ie = np.ascontiguousarray(I[rows])
        if overwrite:
            # a slice: the GEMM stores in place, the assignment is a no-op
            res = out[rows]
            _star_contract(KP, Ie, starT[pos], out=res)
            out[rows] = res
        else:
            out[rows] += _star_contract(KP, Ie, starT[pos])


def face_buffer(op) -> np.ndarray:
    """The operator's ``(ne, 4, F, 9)`` face buffer, zero-filled on first
    use.  Slot ``[e, f]`` belongs to local face ``f`` of element ``e``
    and is only ever *assigned*, by the one regular interior face that
    owns it; slots of boundary, gravity, fault and prescribed-motion
    faces are never written and stay zero."""
    if op._face_buf is None:
        op._face_buf = np.zeros(
            (op.n_elements, 4, basis_size(op.order, dim=2), 9))
    return op._face_buf


def _interior_masked_entries(op, active):
    """Per-group face batches for one activity mask.

    A batch is ``(em, ep, a, b, Gm, Gp)``: the minus side updates faces
    ``[a:]`` with ``Gm``, the plus side faces ``[:b]`` with ``Gp`` —
    contiguous slices of one trace pair, so no face computes a flux
    nobody lifts.  The faces of a group with an active side make two
    batches: the plus-only faces (``Gm`` unused), then both | minus-only.
    On a canonical mesh (:func:`repro.core.lts.cluster_major`) cluster
    ``c``'s faces of a group are the cluster pairs ``(c-1, c)`` |
    ``(c, c)`` | ``(c, c+1)``, two runs of views; in a block-ordered plan
    (:class:`~repro.core.kernels.SpatialOperator` ``blocks=``) the second
    batch is one run of views and only the plus-only faces, whose minus
    side is another block, are gathered.
    """
    entries = []
    for grp in op.interior_groups:
        am = active[grp.em]
        ap = active[grp.ep]
        only_p = np.flatnonzero(ap & ~am)
        both = np.flatnonzero(am & ap)
        run = np.concatenate([both, np.flatnonzero(am & ~ap)])
        pieces = ((only_p, len(only_p), len(only_p)), (run, 0, len(both)))
        batches = []
        for faces, a, b in pieces:
            if not len(faces):
                continue
            rows = row_set(faces)
            batches.append((
                grp.em[rows], grp.ep[rows], a, b,
                grp.Gm[row_set(faces[a:])] if a < len(faces) else None,
                grp.Gp[row_set(faces[:b])]))
        entries.append(batches)
    return entries


def fused_interior_residual(op, I, out, sel) -> None:
    """Face-basis interior kernel with a scatter-free lift (see module
    docstring): fill the face-buffer slots of every updated side of the
    :func:`selection` ``sel``, then one ``(B, 4F) @ (4F, 9)`` product per
    updated element."""
    fb = face_buffer(op)
    nF = fb.shape[2]
    idx, _, entries, _ = sel
    batches = ((g, e) for g, es in zip(op.interior_groups, entries)
               for e in es)
    scratch = np.empty((CHUNK, 2, nF, 18))
    for grp, (em, ep, a, b, Gm, Gp) in batches:
        for lo in range(0, len(em), CHUNK):
            hi = min(lo + CHUNK, len(em))
            n = hi - lo
            # X[:, 0] = [R I- | Rp I+] (minus basis), X[:, 1] = the same
            # pair in the plus element's basis: each trace GEMM writes its
            # 9 columns of both (F, 18) left factors of the flux products
            X = scratch[:n]
            cols = X.reshape(n, 2 * nF, 18)
            np.matmul(grp.Wm, I[em[lo:hi]], out=cols[:, :, :9])
            np.matmul(grp.Wp, I[ep[lo:hi]], out=cols[:, :, 9:])
            # this chunk's faces of the minus side's [a:] and the plus
            # side's [:b]
            am, bp = max(a, lo), min(b, hi)
            if am < hi:
                fb[em[am:hi], grp.fm] = np.matmul(X[am - lo:, 0],
                                                  Gm[am - a:hi - a])
            if bp > lo:
                fb[ep[lo:bp], grp.fp] = np.matmul(X[:bp - lo, 1], Gp[lo:bp])
    lift = face_factors(op.order).lift
    for _, rows in _chunks(idx, len(out)):
        out[rows] += np.matmul(lift, fb[rows].reshape(-1, 4 * nF, 9))


def _boundary_masked_entries(op, active):
    """Per-group ``(elem, G)`` of the faces of active elements for one
    activity mask; boundary faces sorted by element (a canonical mesh)
    make them one run of the group, i.e. views of the plan."""
    entries = []
    for grp in op.boundary_groups:
        sel = np.flatnonzero(active[grp.elem])
        rows = row_set(sel)
        entries.append((grp.elem[rows], grp.G[rows]) if len(sel) else None)
    return entries


def fused_boundary_residual(op, I, out, sel) -> None:
    """Modal-factorized boundary-face kernel (see module docstring) over
    the boundary entries of the :func:`selection` ``sel``."""
    groups = ((g, *e) for g, e in zip(op.boundary_groups, sel[3])
              if e is not None)
    for grp, elem, G in groups:
        for lo in range(0, len(elem), CHUNK):
            s = slice(lo, lo + CHUNK)  # elem is unique per (kind, face) group
            out[elem[s]] += np.matmul(np.matmul(grp.A, I[elem[s]]), G[s])
