"""Compiled face modules: the plan-time / step-time split for the faces
the generic surface kernel leaves out.

Gravity free-surface, dynamic-rupture and prescribed-motion faces carry
state or a non-linearity *at the face quadrature points*, so they cannot
use the face-basis fold of :mod:`repro.kernels.fusion`.  What they share
is the shape of a step: trace a few linear functionals of the adjacent
element's Taylor predictor onto the face points, do pointwise work, lift
a few pointwise fields back to a modal residual.  A :class:`FacePlan`
holds everything about that which does not depend on the state:

* the element-faces grouped by *trace class* — the local face id for the
  element that owns the face parametrization (``E_minus``), plus face x
  vertex permutation for the neighbor across it (``E_plus``) — so a
  class shares one ``(nq, B)`` trace operator and one weight-folded
  ``(nq, B)`` lift ``diag(w) E``;
* per class, contiguous copies of the module's per-face *right factors*
  (rotation rows, normal projection, impedance, flux columns with the
  corrector scale ``-2 area / detJ`` folded in — whatever the module
  passes as keyword arrays);
* sub-plans of face subsets (:meth:`FacePlan.select`), built once per
  LTS cluster and per (partition, cluster) block by
  :func:`repro.core.lts.rows_of` and handed to the module's step.

A step is then a handful of batched ``matmul`` calls per class
(:meth:`FaceGroup.taylor_trace`, :meth:`FaceGroup.lift`).  Every product
is per element-face and of a shape that does not depend on the batch, so
the bits of a face never depend on which faces are stepped with it — the
rule serial == partitioned == any LTS clustering rests on (see the
"Batch independence" note in :mod:`repro.kernels.fusion`).
"""

from __future__ import annotations

import numpy as np

from ..core.basis import face_points_to_tet
from .fusion import row_set

__all__ = ["FaceGroup", "FacePlan", "face_points", "lift_scale"]


def lift_scale(mesh, elem: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Per element-face corrector scale ``-2 area / detJ`` (reference face
    weights sum to 1/2, the mass matrix on the reference tet is ``|J| I``)."""
    return -2.0 * area / mesh.det_jac[elem]


def face_points(mesh, ref, elem: np.ndarray, local_face: np.ndarray) -> np.ndarray:
    """Physical positions ``(nf, nq, 3)`` of the face quadrature points, in
    the parametrization of the element that owns local face ``local_face``."""
    pts = np.empty((len(elem), ref.n_face_points, 3))
    for f in np.unique(local_face):
        sel = local_face == f
        pts[sel] = mesh.map_points(
            elem[sel], face_points_to_tet(int(f), ref.face_points))
    return pts


class FaceGroup:
    """The element-faces of one trace class, and the class's operators.

    Attributes
    ----------
    faces:
        Positions of the group's faces in the *full* plan's face order (a
        ``slice`` when they are one run): index per-face state with it.
    rows:
        Their positions among the faces this (sub-)plan selects.
    elem:
        Adjacent element per face.
    E, ET:
        ``(nq, B)`` trace operator of the class and its ``(B, nq)``
        contiguous transpose.
    LT:
        ``(nq, B)`` weight-folded lift ``diag(w) E``.

    plus one attribute per right factor given to the :class:`FacePlan`:
    the contiguous rows of that array for ``faces``.
    """

    def trace(self, X: np.ndarray) -> np.ndarray:
        """Face-point values ``(n, nq, ncol)`` of per-element modal data
        ``X`` (``(ne, B, ncol)``)."""
        return np.matmul(self.E, X[self.elem])

    def taylor_trace(self, pred, c: np.ndarray) -> np.ndarray:
        """Taylor coefficients ``(n, K, m, nq)`` in time, at the face
        points, of the ``m`` linear functionals ``c`` (``(n, 9, m)``, one
        set of columns per face) of the adjacent element's predictor
        ``pred`` (a :class:`~repro.core.ader.Predictor`): per face, one
        ``(m, 9) @ (9, s_k)`` product per level into a zero-padded
        ``(K m, B)`` block, then ``(K m, B) @ (B, nq)``."""
        n, m, K = len(self.elem), c.shape[2], len(pred.levels)
        P = np.zeros((n, K, m, self.ET.shape[0]))
        for k, L in enumerate(pred.levels):
            np.matmul(c.transpose(0, 2, 1), L[self.elem], out=P[:, k, :, :L.shape[2]])
        return np.matmul(P.reshape(n, K * m, -1), self.ET).reshape(n, K, m, -1)

    def lift(self, y: np.ndarray, G: np.ndarray, out: np.ndarray) -> None:
        """Add ``E^T diag(w) (y^T G)`` to the residual rows of the adjacent
        elements: ``y`` (``(n, m, nq)``) are pointwise fields, ``G``
        (``(n, m, 9)``) the flux each contributes per unit value, corrector
        scale included.  A class holds an element at most once."""
        Z = np.matmul(y, self.LT)
        out[self.elem] += np.matmul(Z.transpose(0, 2, 1), G)


class FacePlan:
    """Element-faces grouped by trace class, and sub-plans of them.

    Build with :meth:`minus` (faces traced through the element that owns
    the face parametrization: every boundary face, the minus side of an
    interior face) or :meth:`plus` (the neighbor across an interior face).
    ``factors`` are per-face arrays (leading axis = face) that each
    :class:`FaceGroup` keeps the rows of as attributes.
    """

    def __init__(self, ops, cls, weights, elem, factors, faces=None):
        clash = sorted(set(factors) & set(dir(FaceGroup)))
        if clash:
            raise ValueError(f"right factor name(s) {clash} shadow FaceGroup attributes")
        self._args = (ops, cls, weights, elem, factors)
        #: positions of the selected faces in the full plan (``select``)
        self.idx = slice(None) if faces is None else row_set(faces)
        if faces is not None:
            cls, elem = cls[faces], elem[faces]
        self.n = len(elem)
        self.groups = []
        for c in np.unique(cls):
            rows = np.flatnonzero(cls == c)
            pick = rows if faces is None else faces[rows]
            grp = FaceGroup()
            grp.rows = row_set(rows)
            grp.faces = row_set(pick)
            grp.elem = elem[rows]
            grp.E = ops[c]
            grp.ET = np.ascontiguousarray(grp.E.T)
            grp.LT = weights[:, None] * grp.E
            for name, arr in factors.items():
                setattr(grp, name, np.ascontiguousarray(arr[pick]))
            self.groups.append(grp)

    @classmethod
    def minus(cls, ref, elem, local_face, **factors) -> "FacePlan":
        return cls(ref.E_minus, local_face, ref.face_weights, elem, factors)

    @classmethod
    def plus(cls, ref, elem, plus_face, perm, **factors) -> "FacePlan":
        ops = ref.E_plus.reshape(24, *ref.E_plus.shape[2:])
        return cls(ops, plus_face * 6 + perm, ref.face_weights, elem, factors)

    def select(self, mask: np.ndarray) -> "FacePlan":
        """The sub-plan of the faces ``mask`` (bool, per face) selects,
        built anew on every call: whoever steps a subset builds its
        sub-plan once and keeps it."""
        return FacePlan(*self._args, faces=np.flatnonzero(mask))

    def trace(self, X: np.ndarray) -> np.ndarray:
        """Face-point values ``(n, nq, ncol)`` of per-element modal data
        ``X`` (``(ne, B, ncol)``) on every face of the plan."""
        out = np.empty((self.n, self._args[0].shape[1], X.shape[2]))
        for grp in self.groups:
            out[grp.rows] = grp.trace(X)
        return out
