"""Compiled stacked-GEMM contraction chains for the ADER-DG hot kernels.

Everything here is *plan time vs step time* separation: whatever does not
depend on the modal state is computed once and folded into flat arrays,
so an element update is a short chain of GEMMs with no elementwise pass
between them.

Layout
    The kernels read and write the modal state *quantity-major*,
    ``(ne, 9, B)`` (time derivative ``k``: ``(ne, 9, s_k)``).  Every
    operator the elements share — the Cauchy-Kowalewski derivative, the
    stiffness, the face traces, the change of face basis and the lift —
    then multiplies from the right, so it is one row-stacked GEMM over a
    chunk of elements or faces, ``(rows * 9, K) @ (K, n)``; only the
    per-element star matrices and the per-face flux matrices stay
    per-item products.

Predictor (:func:`fused_ck`)
    The Dubiner basis is orthonormal, so the modal derivative operator
    ``deriv[d, l, m]`` vanishes whenever ``deg(l) >= deg(m)`` — each
    Cauchy-Kowalewski level loses one polynomial degree exactly.  The
    basis is degree-ordered, so level ``k`` is the *prefix* of the first
    ``s_k = basis_size(N - k)`` modes (order 3: 20 -> 10 -> 4 -> 1 modes,
    a ~4.4x FLOP reduction), stored as an array of exactly that width
    (:class:`~repro.core.ader.Predictor`); level 0 is the state.  The
    three truncated directional operators of a level are stacked side by
    side and negated at plan time (``D[k]``, columns ordered (direction,
    mode)), so the stacked product ``X @ D[k]`` is — by a free reshape —
    each element's ``(27, s)`` right factor with rows ``3 q + d``, and
    the three star-Jacobian products, their sum and the sign are one
    ``(9, 27) @ (27, s)`` product with the element's ``starQ``.

Volume (:func:`fused_volume_residual`)
    ``sum_d star_d (I^T deriv_d)`` the same way: one stacked product with
    the stiffness stack ``KS``, then one ``starQ`` product per element.

Surface (:func:`fused_interior_residual` / :func:`fused_boundary_residual`)
    The quadrature projection ``E^T diag(w) (E I F^T) * scale`` commutes
    into ``(E^T diag(w) E) I (scale * F^T)``, and every basis-side factor
    ``E^T diag(w) E`` has the rank ``F = (N+1)(N+2)/2`` of the face
    polynomials: it is ``R^T R`` with ``R`` the ``(F, B)`` trace onto an
    orthonormal face basis (:func:`face_factors`).  Per chunk of an
    interior face class two stacked products take the minus element's
    trace ``R[fm]`` and the plus element's ``Rp = C R[fp]``, both in the
    minus element's face basis, into the faces' ``(18, F)`` right factors
    (rows ``2 q + side``); one ``(18, 18) @ (18, F)`` product per face
    with the face's flux table ``G`` gives both sides' fluxes (rows
    ``9 side + q``); a stacked product with the ``F x F`` change of basis
    ``C`` moves the plus side's into the plus element's own face basis.  Each result is *assigned* to
    its side's slot of a per-operator ``(4, ne, 9, F)`` face buffer: an
    element-face has exactly one owner, so nothing is read, modified and
    written back, and nothing is scatter-added.  Four stacked
    ``(rows * 9, F) @ (F, B)`` products per element chunk lift the four
    slots.  The few boundary faces take a stacked ``A^T`` product and one
    ``G^T`` product per face.

Plan build (:func:`fold_flux_tables`)
    The surface tables are built directly in their final layout.  A
    face's flux matrices ``T M T^-1`` are two batched products of its
    rotation with the stacked face-aligned constants of its material
    pair; faces are sorted by orientation class once and
    walked in chunks of :data:`FOLD_CHUNK`: each chunk is computed in
    contiguous scratch and scaled into the class-ordered ``G`` / ``GT``,
    re-laid-out, so the build allocates the tables plus a chunk of
    scratch and nothing else.  :func:`finish_plan` checks the
    C-contiguous ``float64`` layout the free reshapes below rely on and
    makes the plan read-only.

Fixed shapes (batch independence)
    A row's bits must not depend on which rows are computed with it:
    serial == partitioned == any LTS clustering, bitwise, rests on that.
    The per-item products have a shape that does not depend on the batch.
    A row-stacked GEMM changes the last bits of its rows with the row
    count (OpenBLAS picks its kernel by size), so every stacked product
    runs on exactly ``9 * width`` rows, ``width`` (:func:`stack_width`) a
    constant of the set its rows belong to — the operator's elements, an
    interior face class, a boundary group: a shorter chunk is zero-padded
    in scratch, and a full chunk of contiguous rows is read in place.  Gathers are
    ``np.take(..., out=, mode="clip")`` with ids from the plan.  From
    order 3 the stacked right factors are Fortran-ordered: in C order
    OpenBLAS's small-matrix path rounds some of those shapes differently
    from its blocked path, so the bits would depend on the chunk width
    too (:data:`CHUNK` stays a pure tuning constant).

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
``I[idx]``, ``fb[:, idx]`` and ``starQ`` are views and ``out[idx] +=
...`` updates in place.  The interior selection is made per *side*: the
faces of a class with an active side are taken plus-only | both |
minus-only, which on a canonical mesh is the plan's own order
(``(c-1, c)`` | ``(c, c)`` | ``(c, c+1)`` cluster pairs), so ``em`` /
``ep`` / ``G`` are views, each side's faces are one slice of one batch,
and a face writes only the slots of the sides that are updated.  In a
plan ordered by partition blocks the both | minus-only faces of a block
are one run and its plus-only faces a gathered batch of their own
(:func:`_interior_masked_entries`).  Boundary faces sorted by element
make the boundary selection (``elem`` / ``GT``) views as well.

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

from ..core.ader import Predictor
from ..core.basis import basis_size, get_reference_element
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
    "stack_width",
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


def stack_width(n: int) -> int:
    """Items per stacked GEMM over a set of ``n`` items — an operator's
    elements, an interior face class, a boundary group: ``n`` cut into
    the fewest chunks of at most :data:`CHUNK`, evened out.  Every chunk
    of the set, in any sweep, is padded to it (see "Fixed shapes")."""
    n = max(n, 1)
    return -(-n // -(-n // CHUNK))


def _chunks(idx, n: int, width: int):
    """``(pos, rows, m)`` per run of at most ``width`` rows of the
    :func:`row_set` ``idx`` over ``n`` rows: the run's positions within
    the selection (a slice), its rows (a slice, or ids) and their count."""
    if isinstance(idx, slice):
        start, stop, _ = idx.indices(n)
        for lo in range(start, stop, width):
            hi = min(lo + width, stop)
            yield slice(lo - start, hi - start), slice(lo, hi), hi - lo
    else:
        for lo in range(0, len(idx), width):
            pos = slice(lo, lo + width)
            rows = idx[pos]
            yield pos, rows, len(rows)


def _stack(src: np.ndarray, rows, m: int, buf: np.ndarray) -> np.ndarray:
    """The ``m`` rows ``rows`` of ``src`` as a full chunk of ``len(buf)``
    rows: ``src``'s own rows where they are one contiguous full chunk,
    else gathered into ``buf`` with the tail zeroed."""
    if isinstance(rows, slice):
        if m == len(buf) and src.flags.c_contiguous:
            return src[rows]
        buf[:m] = src[rows]
    else:
        np.take(src, rows, axis=0, out=buf[:m], mode="clip")
    if m < len(buf):
        buf[m:] = 0.0
    return buf


def _right_factor(arr: np.ndarray, order: int) -> np.ndarray:
    """A shared operator as the right factor of the stacked GEMMs:
    Fortran-ordered from order 3 (see "Fixed shapes"), read-only."""
    arr = np.asfortranarray(arr) if order >= 3 else np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


# ----------------------------------------------------------------------
# element-local plan: degree truncation + direction stacks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElementKernelPlan:
    """Per-order compiled operators shared by every fused kernel call.

    Attributes
    ----------
    sizes:
        ``basis_size(order - k)``: the modes of level ``k``, a prefix.
    D:
        Per level, the *negated* ``(sizes[k], 3 * sizes[k+1])`` stack of
        the three truncated, transposed directional derivative operators,
        columns ordered (direction, mode).
    KS:
        ``(B, 3B)`` stack of the stiffness operators of the volume
        kernel, ``KS[l, d * B + m] = deriv[d, l, m]``.
    """

    sizes: tuple
    D: tuple
    KS: np.ndarray


def _direction_stack(ops: np.ndarray, order: int) -> np.ndarray:
    """``(3, n_out, n_in)`` operators as the ``(n_in, 3 * n_out)`` right
    factor with column ``d * n_out + m``: the stacked product with a
    state's ``(rows * 9, n_in)`` rows is then, reshaped, every row's
    ``(27, n_out)`` factor of the star contraction (row ``3 q + d``)."""
    return _right_factor(ops.transpose(2, 0, 1).reshape(ops.shape[2], -1), order)


@lru_cache(maxsize=None)
def element_plan(order: int) -> ElementKernelPlan:
    """Build (and cache) the fused element-kernel plan for one order."""
    deriv = get_reference_element(order).deriv
    sizes = tuple(basis_size(order - k) for k in range(order + 1))
    D = tuple(_direction_stack(-deriv[:, :sizes[k + 1], :sizes[k]], order)
              for k in range(order))
    KS = _direction_stack(deriv.transpose(0, 2, 1), order)
    return ElementKernelPlan(sizes=sizes, D=D, KS=KS)


def fused_ck(Q: np.ndarray, starQ: np.ndarray, ref, width: int,
             out: Predictor | None = None) -> Predictor:
    """Degree-truncated Cauchy-Kowalewski sweep: the :class:`Predictor`
    of ``Q`` (``(ne, 9, B)``; ``starQ`` its star rows, ``width`` the
    operator's :func:`stack_width`).  Each per-item star product writes
    level ``k + 1``'s rows of its ``(ne, 9, sizes[k + 1])`` array, where
    the next stacked product reads them (gathered with a zero tail for a
    short chunk).  ``out``: a predictor, or row views of one, whose
    levels ``1..N`` are written where their shapes match (no page faults).

    Level 0 *is* ``Q``, valid while those state rows are unchanged: an
    LTS cluster's rows change only in its corrector, which its
    ``update_predictor`` follows, and a hook that writes the state at a
    sync is followed there by the watchdog (``Scheduler._exec_micro``).
    """
    plan = element_plan(ref.order)
    ne, nq, _ = Q.shape
    shapes = [(ne, nq, s) for s in plan.sizes[1:]]
    if out is not None and [L.shape for L in out.levels[1:]] == shapes:
        levels = out.levels[1:]
    else:
        levels = [np.empty(shape) for shape in shapes]
    # per level: the chunk's input (zero tail) and its stacked product
    X = [np.empty((width, nq, s)) for s in plan.sizes[:-1]]
    Z = [np.empty((width * nq, D.shape[1])) for D in plan.D]
    for _, rows, m in _chunks(slice(None), ne, width):
        x = _stack(Q, rows, m, X[0])
        for k, L in enumerate(levels):
            np.matmul(x.reshape(width * nq, -1), plan.D[k], out=Z[k])
            np.matmul(starQ[rows], Z[k][:m * nq].reshape(m, 27, -1),
                      out=L[rows])
            if k + 1 < len(levels):
                x = _stack(L, rows, m, X[k + 1])
    return Predictor((Q, *levels))


# ----------------------------------------------------------------------
# surface fusion: plan-time factor collapse
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaceFactors:
    """Per-order face-basis factors of the surface kernels.

    ``F = (N+1)(N+2)/2`` is the dimension of the face polynomials; the
    trace and change-of-basis factors are the right factors of stacked
    GEMMs (:func:`_right_factor`).

    Attributes
    ----------
    R:
        Four ``(F, B)``: trace of the element basis on local face ``f``,
        expressed in the orthonormal basis of the face polynomials
        (``R[f]^T R[f] = E_f^T diag(w) E_f``); ``R[f]`` lifts slot ``f``
        of the face buffer.
    RT:
        ``R[f]^T``, ``(B, F)`` each: the minus element's trace.
    RpT:
        ``(4, 6)`` of ``(B, F)``, indexed ``[plus face, perm]``: the plus
        element's trace in the minus element's face basis, transposed.
    C:
        ``(4, 6)`` of ``(F, F)``: the orthogonal change from the minus
        element's face basis to the plus element's (``Rp = C R[fp]``).
    """

    R: tuple
    RT: tuple
    RpT: tuple
    C: tuple


@lru_cache(maxsize=None)
def face_factors(order: int) -> FaceFactors:
    """Build (and cache) the face-basis factors of one order.

    With ``P = tri_V^T diag(w)`` the projection of face-point values onto
    the orthonormal triangle basis, ``R[f] = P E_minus[f]`` and the plus
    element's trace in the minus element's face parametrization is
    ``Rp = P E_plus[fp, perm]``.  Both bases span the same face
    polynomials, so ``Rp = C R[fp]`` with an orthogonal ``F x F`` change
    of basis ``C`` (the face rule integrates degree ``2N`` exactly).  A
    face's flux is computed in the minus element's face basis from
    ``R[fm] I-`` and ``Rp I+``; the plus side's is moved into the plus
    element's own basis by ``C^T`` (``C`` from the right in the
    quantity-major layout), so that the lift depends on the local face
    alone.
    """
    ref = get_reference_element(order)
    P = ref.tri_V.T * ref.face_weights
    R = np.matmul(P, ref.E_minus)
    Rp = np.matmul(P, ref.E_plus)
    C = np.matmul(Rp, np.linalg.pinv(R)[:, None])

    def factors(arrs, transpose=False):
        return tuple(_right_factor(a.T if transpose else a, order)
                     for a in arrs)

    return FaceFactors(
        R=factors(R), RT=factors(R, transpose=True),
        RpT=tuple(factors(row, transpose=True) for row in Rp),
        C=tuple(factors(row) for row in C))


class FusedInteriorGroup:
    """Folded factors of one (minus face, plus face, permutation) class:
    the local face ids ``fm``/``fp``, the class's trace factors
    ``RmT``/``RpT`` and change of basis ``C`` (views of
    :func:`face_factors`) and the per-face flux tables ``G``
    (see :func:`attach_interior_groups`)."""

    __slots__ = ("em", "ep", "fm", "fp", "RmT", "RpT", "C", "G")


class FusedBoundaryGroup:
    """Folded factors of one (boundary kind, local face) class."""

    __slots__ = ("elem", "AT", "GT")


#: faces per chunk of :func:`fold_flux_tables`; its scratch (rotations,
#: gathered constants, the half product, the folded blocks: ~9 kB a face
#: at four matrices) is sized ``min(FOLD_CHUNK, n_faces)`` and reused by
#: every chunk
FOLD_CHUNK = 1024


def fold_flux_tables(normals, which, consts):
    """Rotated flux matrices, chunk by chunk.

    For face ``f`` with rotation ``T = T(normals[f])`` and the
    side-by-side stack ``consts[which[f]] = [M_1 | ... | M_k]``
    (``(9, 9k)``: face-aligned matrices), the ``k`` blocks
    ``T M_j T^{-1}`` are two batched products, ``Y = T @ consts[which[f]]``
    and ``Y_j @ T^{-1}`` — the ``(T M) T^{-1}`` association, a per-face
    GEMM shape that does not depend on the batch.  Yields ``(rows,
    blocks)`` per chunk of at most :data:`FOLD_CHUNK` faces: the chunk's
    ``slice`` and its ``(n, k, 9, 9)`` blocks, in scratch reused by the
    next chunk — the caller scales them into its tables, in whatever
    layout.  The bits of a block do not depend on :data:`FOLD_CHUNK`.
    """
    nf = len(normals)
    if not nf:
        return
    c = min(FOLD_CHUNK, nf)
    k = consts.shape[2] // 9
    T = np.zeros((c, 9, 9))
    Tinv = np.zeros((c, 9, 9))
    B = np.empty((c, 9, 9 * k))
    Y = np.empty((c, 9, 9 * k))
    out = np.empty((c, k, 9, 9))
    for lo in range(0, nf, c):
        hi = min(lo + c, nf)
        n = hi - lo
        fill_state_rotation(normals[lo:hi], T[:n], Tinv[:n])
        np.take(consts, which[lo:hi], axis=0, out=B[:n])
        np.matmul(T[:n], B[:n], out=Y[:n])
        np.matmul(Y[:n].reshape(n, 9, k, 9).transpose(0, 2, 1, 3),
                  Tinv[:n, None], out=out[:n])
        yield slice(lo, hi), out[:n]


def _class_runs(cls: np.ndarray):
    """``(lo, hi)`` of every run of equal values in the sorted ``cls``."""
    cuts = np.flatnonzero(cls[1:] != cls[:-1]) + 1
    return zip(np.r_[0, cuts], np.r_[cuts, len(cls)])


def attach_interior_groups(plan, order: int, em, ep, minus_face, plus_face,
                           perm, G) -> None:
    """One :class:`FusedInteriorGroup` per run of equal (minus face, plus
    face, permutation) in the class-sorted face arrays: every per-face
    field is a slice of its argument, so ``G`` stays the one allocation
    it was built in.

    With trace operators ``Em``/``Ep`` and face weights ``w``, the
    minus-side contribution of a face

        ``scale_m * Em^T diag(w) (Em I[em] Fmm^T + Ep I[ep] Fpm^T)``

    factorizes through the face basis (:func:`face_factors`) into
    ``R[fm]^T ([R[fm] I[em] | Rp I[ep]] @ Gm)`` with the per-face stack
    ``Gm = scale_m * [Fmm^T; Fpm^T]``; symmetrically the plus side is
    ``R[fp]^T C^T ([R[fm] I[em] | Rp I[ep]] @ Gp)`` with
    ``Gp = scale_p * [Fpp^T; Fmp^T]``.  ``G[f]`` is ``[Gm | Gp]^T`` with
    its columns (the ``K`` index) in (quantity, side) order, the row
    order of the quantity-major traces: ``G[f, 9 t + q, 2 p + s]`` is
    row ``9 s + p``, column ``q`` of side ``t``'s stack.
    """
    fac = face_factors(order)
    for lo, hi in _class_runs((minus_face * 4 + plus_face) * 6 + perm):
        fm, fp, pm = int(minus_face[lo]), int(plus_face[lo]), int(perm[lo])
        grp = FusedInteriorGroup()
        grp.em, grp.ep = em[lo:hi], ep[lo:hi]
        grp.fm, grp.fp = fm, fp
        grp.RmT = fac.RT[fm]
        grp.RpT = fac.RpT[fp][pm]
        grp.C = fac.C[fp][pm]
        grp.G = G[lo:hi]
        plan.interior_groups.append(grp)


def attach_boundary_groups(plan, ref, elem, kind, face, GT) -> None:
    """One :class:`FusedBoundaryGroup` per run of equal (kind, local face)
    in the class-sorted boundary arrays: the transposed ``(B, B)``
    projector ``A = E^T diag(w) E`` of the local face and the faces'
    slice of ``GT = scale * F`` (``(nf, 9, 9)``)."""
    w = ref.face_weights
    for lo, hi in _class_runs(kind * 4 + face):
        E = ref.E_minus[int(face[lo])]
        grp = FusedBoundaryGroup()
        grp.elem = elem[lo:hi]
        grp.AT = _right_factor(np.ascontiguousarray((E.T * w) @ E).T,
                               ref.order)
        grp.GT = GT[lo:hi]
        plan.boundary_groups.append(grp)


def finish_plan(plan):
    """Check and freeze a fully built plan; returns it.

    The kernels reshape ``starQ`` rows and hand ``G`` / ``GT`` to BLAS as
    they are: every per-item table must be C-contiguous ``float64`` (a
    K-ordered ``starQ`` computes the same bits at a higher price, so
    nothing else would notice).  Plans are shared between operators
    through the plan cache, so every array is made read-only here.
    """
    tables = {"starQ": plan.starQ}
    ids = []
    for i, grp in enumerate(plan.interior_groups):
        tables[f"interior_groups[{i}].G"] = grp.G
        ids += [grp.em, grp.ep]
    for i, grp in enumerate(plan.boundary_groups):
        tables[f"boundary_groups[{i}].GT"] = grp.GT
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
    """``(idx, starQ, interior, boundary)``: what the residual kernels of
    ``op`` sweep for an activity mask — the rows as a :func:`row_set` and
    their ``starQ`` rows, the per-group interior face batches
    (:func:`_interior_masked_entries`) and boundary entries
    (:func:`_boundary_masked_entries`).  ``None`` is the full sweep.  A
    mask's selection is built once and kept in ``op._selections`` on the
    SHA-1 of the mask bytes, the oldest entry evicted past
    :data:`MASK_CACHE_MAX`."""
    if active is None:
        return (slice(None), op.starQ,
                [[(g.em, g.ep, 0, len(g.em), g.G)] for g in op.interior_groups],
                [(g.elem, g.GT) for g in op.boundary_groups])
    key = hashlib.sha1(active.tobytes()).digest()
    hit = op._selections.get(key)
    if _MET.enabled:
        _MET.inc("cache/mask_hits" if hit is not None else "cache/mask_misses")
    if hit is None:
        idx = row_set(np.flatnonzero(active))
        hit = op._selections[key] = (
            idx, op.starQ[idx], _interior_masked_entries(op, active),
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
    KS = element_plan(op.order).KS
    idx, starQ = sel[:2]
    ne, nq, nb = I.shape
    width = stack_width(op.n_elements)
    X = np.empty((width, nq, nb))
    Z = np.empty((width * nq, 3 * nb))
    for pos, rows, m in _chunks(idx, ne, width):
        x = _stack(I, rows, m, X)
        np.matmul(x.reshape(width * nq, nb), KS, out=Z)
        Zm = Z[:m * nq].reshape(m, 27, nb)
        if overwrite and isinstance(rows, slice):
            np.matmul(starQ[pos], Zm, out=out[rows])
        elif overwrite:
            out[rows] = np.matmul(starQ[pos], Zm)
        else:
            out[rows] += np.matmul(starQ[pos], Zm)


def face_buffer(op) -> np.ndarray:
    """The operator's ``(4, ne, 9, F)`` face buffer, zero-filled on first
    use.  Slot ``[f, e]`` belongs to local face ``f`` of element ``e``
    and is only ever *assigned*, by the one regular interior face that
    owns it; slots of boundary, gravity, fault and prescribed-motion
    faces are never written and stay zero."""
    if op._face_buf is None:
        op._face_buf = np.zeros(
            (4, op.n_elements, 9, basis_size(op.order, dim=2)))
    return op._face_buf


def _interior_masked_entries(op, active):
    """Per-group face batches for one activity mask.

    A batch is ``(em, ep, a, b, G)``: its faces' rows of the group's flux
    table ``G``; the minus side updates faces ``[a:]``, the plus side
    faces ``[:b]`` — contiguous slices of one batch, so no face writes a
    slot nobody lifts.  The faces of a group with an active side make two
    batches: the plus-only faces, then both | minus-only.  On a canonical
    mesh (:func:`repro.core.lts.cluster_major`) cluster ``c``'s faces of a
    group are the cluster pairs ``(c-1, c)`` | ``(c, c)`` | ``(c, c+1)``,
    two runs of views; in a block-ordered plan
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
            batches.append((grp.em[rows], grp.ep[rows], a, b, grp.G[rows]))
        entries.append(batches)
    return entries


def fused_interior_residual(op, I, out, sel) -> None:
    """Face-basis interior kernel with a scatter-free lift (see module
    docstring): fill the face-buffer slots of every updated side of the
    :func:`selection` ``sel``, then four stacked lift products per chunk
    of updated elements."""
    fb = face_buffer(op)
    nF = fb.shape[3]
    ne, nq, nb = I.shape
    idx, _, entries, _ = sel
    # per class, the leading rows of: both elements' gathered rows; the
    # faces' right factors [R I- | Rp I+]^T, rows (quantity, side) — as a
    # (rows * 9, 2F) matrix the two traces are its column blocks [:, :F]
    # and [:, F:]; both sides' fluxes, rows (side, quantity); the plus
    # side's in the minus and in its own face basis
    W = max((stack_width(len(g.em)) for g in op.interior_groups), default=1)
    scratch = [np.empty((W, nq, nb)), np.empty((W, nq, nb)),
               np.empty((W, nq, 2, nF)), np.empty((W, 2, nq, nF)),
               np.empty((W, nq, nF)), np.empty((W, nq, nF))]
    batches = ((g, e) for g, es in zip(op.interior_groups, entries)
               for e in es)
    for grp, (em, ep, a, b, G) in batches:
        width = stack_width(len(grp.em))
        Xm, Xp, Xt, Y, Yc, Yp = (x[:width] for x in scratch)
        Xm2, Xp2 = Xm.reshape(width * nq, nb), Xp.reshape(width * nq, nb)
        Xt2 = Xt.reshape(width * nq, 2 * nF)
        Tm, Tp = Xt2[:, :nF], Xt2[:, nF:]
        Xt3, Y3 = Xt.reshape(width, 2 * nq, nF), Y.reshape(width, 2 * nq, nF)
        Yc2, Yp2 = Yc.reshape(width * nq, nF), Yp.reshape(width * nq, nF)
        slot_m, slot_p = fb[grp.fm], fb[grp.fp]
        for lo in range(0, len(em), width):
            hi = min(lo + width, len(em))
            m = hi - lo
            _stack(I, em[lo:hi], m, Xm)
            _stack(I, ep[lo:hi], m, Xp)
            np.matmul(Xm2, grp.RmT, out=Tm)
            np.matmul(Xp2, grp.RpT, out=Tp)
            np.matmul(G[lo:hi], Xt3[:m], out=Y3[:m])
            # this chunk's faces of the minus side's [a:] and the plus
            # side's [:b]
            am, bp = max(a, lo), min(b, hi)
            if am < hi:
                slot_m[em[am:hi]] = Y[am - lo:m, 0]
            if bp > lo:
                Yc[:m] = Y[:m, 1]
                if m < width:
                    Yc[m:] = 0.0
                np.matmul(Yc2, grp.C, out=Yp2)
                slot_p[ep[lo:bp]] = Yp[:bp - lo]
    R = face_factors(op.order).R
    width = stack_width(op.n_elements)
    L = np.empty((width, nq, nF))
    acc = np.empty((width * nq, nb))
    part = np.empty((width * nq, nb))
    for _, rows, m in _chunks(idx, ne, width):
        for f, (slots, Rf) in enumerate(zip(fb, R)):
            slot = _stack(slots, rows, m, L).reshape(width * nq, nF)
            np.matmul(slot, Rf, out=part if f else acc)
            if f:
                acc += part
        out[rows] += acc[:m * nq].reshape(m, nq, nb)


def _boundary_masked_entries(op, active):
    """Per-group ``(elem, GT)`` of the faces of active elements for one
    activity mask; boundary faces sorted by element (a canonical mesh)
    make them one run of the group, i.e. views of the plan."""
    entries = []
    for grp in op.boundary_groups:
        sel = np.flatnonzero(active[grp.elem])
        rows = row_set(sel)
        entries.append((grp.elem[rows], grp.GT[rows]) if len(sel) else None)
    return entries


def fused_boundary_residual(op, I, out, sel) -> None:
    """Modal-factorized boundary-face kernel (see module docstring) over
    the boundary entries of the :func:`selection` ``sel``."""
    ne, nq, nb = I.shape
    W = max((stack_width(len(g.elem)) for g in op.boundary_groups), default=1)
    scratch = np.empty((W, nq, nb)), np.empty((W * nq, nb))
    groups = ((g, *e) for g, e in zip(op.boundary_groups, sel[3])
              if e is not None)
    for grp, elem, GT in groups:
        width = stack_width(len(grp.elem))
        X, Z = scratch[0][:width], scratch[1][:width * nq]
        for lo in range(0, len(elem), width):
            e = elem[lo:lo + width]  # unique per (kind, face) group
            m = len(e)
            x = _stack(I, e, m, X)
            np.matmul(x.reshape(width * nq, nb), grp.AT, out=Z)
            out[e] += np.matmul(GT[lo:lo + m], Z[:m * nq].reshape(m, nq, nb))
