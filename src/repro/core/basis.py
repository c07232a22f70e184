"""Orthonormal Dubiner (modal) bases on the reference simplices.

The implementation follows the classical Koornwinder-Dubiner construction in
collapsed coordinates (Hesthaven & Warburton, *Nodal Discontinuous Galerkin
Methods*), re-scaled so that the basis is orthonormal on the **unit**
simplices used throughout this library:

* unit triangle  ``{(r, s): r, s >= 0, r + s <= 1}``
* unit tetrahedron ``{(u, v, w): u, v, w >= 0, u + v + w <= 1}``

These are the bases used by SeisSol-style ADER-DG (Dumbser & Käser 2006);
with an orthonormal basis the reference mass matrix is the identity, which
is what makes the quadrature-free update cheap.

:class:`ReferenceElement` bundles every precomputed reference-element
operator needed by the solver: volume quadrature, Vandermonde and gradient
matrices, modal derivative operators, and face-trace evaluation matrices for
all 4 local faces and all 24 neighbor orientation classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quadrature import tetrahedron_rule, triangle_rule

__all__ = [
    "basis_size",
    "jacobi_p",
    "grad_jacobi_p",
    "tet_basis",
    "tet_basis_grad",
    "tri_basis",
    "tri_basis_grad",
    "TET_FACES",
    "face_points_to_tet",
    "ReferenceElement",
    "get_reference_element",
]

# Canonical vertex indices of the 4 faces of the unit tetrahedron with
# vertices v0=(0,0,0), v1=(1,0,0), v2=(0,1,0), v3=(0,0,1).  The ordering is
# chosen such that (B-A) x (C-A) points outward.
TET_FACES = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))

_TET_VERTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

# The six permutations of three face vertices; index into this tuple is the
# "orientation" part of a face-neighbor class.
FACE_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def basis_size(order: int, dim: int = 3) -> int:
    """Number of modal basis functions of maximum total degree ``order``."""
    if dim == 3:
        return (order + 1) * (order + 2) * (order + 3) // 6
    if dim == 2:
        return (order + 1) * (order + 2) // 2
    raise ValueError(f"unsupported dimension {dim}")


def jacobi_p(x: np.ndarray, alpha: float, beta: float, n: int) -> np.ndarray:
    """Jacobi polynomial of degree ``n`` normalized to unit L2 norm.

    Normalized such that ``int_-1^1 (1-x)^alpha (1+x)^beta P_n(x)^2 dx = 1``.
    Standard three-term recurrence (Hesthaven & Warburton, JacobiP).
    """
    x = np.asarray(x, dtype=float)
    apb = alpha + beta
    gamma0 = math.exp(
        (apb + 1) * math.log(2.0)
        + math.lgamma(alpha + 1)
        + math.lgamma(beta + 1)
        - math.lgamma(apb + 2)
    )
    p0 = np.full_like(x, 1.0 / np.sqrt(gamma0))
    if n == 0:
        return p0
    gamma1 = (alpha + 1) * (beta + 1) / (apb + 3) * gamma0
    p1 = ((apb + 2) * x / 2 + (alpha - beta) / 2) / np.sqrt(gamma1)
    if n == 1:
        return p1
    aold = 2.0 / (2.0 + apb) * np.sqrt((alpha + 1) * (beta + 1) / (apb + 3))
    pm1, p = p0, p1
    for i in range(1, n):
        h1 = 2 * i + apb
        anew = (
            2.0
            / (h1 + 2)
            * np.sqrt(
                (i + 1)
                * (i + 1 + apb)
                * (i + 1 + alpha)
                * (i + 1 + beta)
                / ((h1 + 1) * (h1 + 3))
            )
        )
        bnew = -(alpha**2 - beta**2) / (h1 * (h1 + 2))
        pnew = (-aold * pm1 + (x - bnew) * p) / anew
        pm1, p = p, pnew
        aold = anew
    return p


def grad_jacobi_p(x: np.ndarray, alpha: float, beta: float, n: int) -> np.ndarray:
    """Derivative of the normalized Jacobi polynomial."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.zeros_like(x)
    return np.sqrt(n * (n + alpha + beta + 1)) * jacobi_p(x, alpha + 1, beta + 1, n - 1)


def _tet_mode_indices(order: int) -> list[tuple[int, int, int]]:
    return [
        (i, j, k)
        for i in range(order + 1)
        for j in range(order + 1 - i)
        for k in range(order + 1 - i - j)
    ]


def _tri_mode_indices(order: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


def _uvw_to_abc(u, v, w):
    """Collapsed coordinates on the unit tetrahedron (H&W rst scaled)."""
    r = 2.0 * u - 1.0
    s = 2.0 * v - 1.0
    t = 2.0 * w - 1.0
    denom_a = -s - t
    a = np.where(np.abs(denom_a) > 1e-13, 2.0 * (1.0 + r) / np.where(denom_a == 0, 1, denom_a) - 1.0, -1.0)
    denom_b = 1.0 - t
    b = np.where(np.abs(denom_b) > 1e-13, 2.0 * (1.0 + s) / np.where(denom_b == 0, 1, denom_b) - 1.0, -1.0)
    c = t
    return a, b, c


def _simplex3dp(a, b, c, i: int, j: int, k: int) -> np.ndarray:
    fa = jacobi_p(a, 0, 0, i)
    gb = jacobi_p(b, 2 * i + 1, 0, j)
    hc = jacobi_p(c, 2 * (i + j) + 2, 0, k)
    return (
        2.0 ** (2 * i + j + 1.5)
        * fa
        * gb
        * (0.5 * (1.0 - b)) ** i
        * hc
        * (0.5 * (1.0 - c)) ** (i + j)
    )


def _grad_simplex3dp(a, b, c, i: int, j: int, k: int):
    """Gradient of the H&W mode w.r.t. the (-1,1)-simplex coords (r, s, t)."""
    fa = jacobi_p(a, 0, 0, i)
    dfa = grad_jacobi_p(a, 0, 0, i)
    gb = jacobi_p(b, 2 * i + 1, 0, j)
    dgb = grad_jacobi_p(b, 2 * i + 1, 0, j)
    hc = jacobi_p(c, 2 * (i + j) + 2, 0, k)
    dhc = grad_jacobi_p(c, 2 * (i + j) + 2, 0, k)

    half1mb = 0.5 * (1.0 - b)
    half1mc = 0.5 * (1.0 - c)

    dr = dfa * gb * hc
    if i > 0:
        dr = dr * half1mb ** (i - 1)
    if i + j > 0:
        dr = dr * half1mc ** (i + j - 1)

    ds = 0.5 * (1.0 + a) * dr
    tmp = dgb * half1mb**i
    if i > 0:
        tmp = tmp + (-0.5 * i) * (gb * half1mb ** (i - 1))
    if i + j > 0:
        tmp = tmp * half1mc ** (i + j - 1)
    tmp = fa * (tmp * hc)
    ds = ds + tmp

    dt = 0.5 * (1.0 + a) * dr + 0.5 * (1.0 + b) * tmp
    tmp2 = dhc * half1mc ** (i + j)
    if i + j > 0:
        tmp2 = tmp2 - 0.5 * (i + j) * (hc * half1mc ** (i + j - 1))
    tmp2 = fa * (gb * tmp2)
    tmp2 = tmp2 * half1mb**i
    dt = dt + tmp2

    scale = 2.0 ** (2 * i + j + 1.5)
    return dr * scale, ds * scale, dt * scale


def tet_basis(points: np.ndarray, order: int) -> np.ndarray:
    """Evaluate all modal basis functions at points in the unit tetrahedron.

    Parameters
    ----------
    points:
        ``(npts, 3)`` array of (u, v, w) coordinates.
    order:
        Maximum polynomial degree N.

    Returns
    -------
    ``(npts, B_N)`` Vandermonde matrix; the basis is orthonormal on the unit
    tetrahedron (``int phi_l phi_m dV = delta_lm``).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b, c = _uvw_to_abc(points[:, 0], points[:, 1], points[:, 2])
    modes = _tet_mode_indices(order)
    V = np.empty((points.shape[0], len(modes)))
    # sqrt(8): the H&W basis is orthonormal on the volume-4/3 simplex;
    # mapping to the unit tet divides measures by 8.
    scale = np.sqrt(8.0)
    for m, (i, j, k) in enumerate(modes):
        V[:, m] = scale * _simplex3dp(a, b, c, i, j, k)
    return V


def tet_basis_grad(points: np.ndarray, order: int) -> np.ndarray:
    """Gradients of the unit-tet basis: returns ``(3, npts, B_N)``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b, c = _uvw_to_abc(points[:, 0], points[:, 1], points[:, 2])
    modes = _tet_mode_indices(order)
    G = np.empty((3, points.shape[0], len(modes)))
    # chain rule for (r,s,t) = 2*(u,v,w) - 1 plus the sqrt(8) orthonormal
    # rescaling of the basis itself.
    scale = 2.0 * np.sqrt(8.0)
    for m, (i, j, k) in enumerate(modes):
        dr, ds, dt = _grad_simplex3dp(a, b, c, i, j, k)
        G[0, :, m] = scale * dr
        G[1, :, m] = scale * ds
        G[2, :, m] = scale * dt
    return G


def _rs_to_ab(r, s):
    rr = 2.0 * r - 1.0
    ss = 2.0 * s - 1.0
    denom = 1.0 - ss
    a = np.where(np.abs(denom) > 1e-13, 2.0 * (1.0 + rr) / np.where(denom == 0, 1, denom) - 1.0, -1.0)
    return a, ss


def tri_basis(points: np.ndarray, order: int) -> np.ndarray:
    """Orthonormal modal basis on the unit triangle: ``(npts, B)``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b = _rs_to_ab(points[:, 0], points[:, 1])
    modes = _tri_mode_indices(order)
    V = np.empty((points.shape[0], len(modes)))
    scale = 2.0  # H&W triangle has area 2; unit triangle has area 1/2
    for m, (i, j) in enumerate(modes):
        fa = jacobi_p(a, 0, 0, i)
        gb = jacobi_p(b, 2 * i + 1, 0, j)
        V[:, m] = scale * np.sqrt(2.0) * fa * gb * (1.0 - b) ** i
    return V


def tri_basis_grad(points: np.ndarray, order: int) -> np.ndarray:
    """Gradients of the unit-triangle basis: ``(2, npts, B)``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b = _rs_to_ab(points[:, 0], points[:, 1])
    modes = _tri_mode_indices(order)
    G = np.empty((2, points.shape[0], len(modes)))
    scale = 2.0 * 2.0  # orthonormal rescale x chain rule d(rr)/dr = 2
    for m, (i, j) in enumerate(modes):
        fa = jacobi_p(a, 0, 0, i)
        dfa = grad_jacobi_p(a, 0, 0, i)
        gb = jacobi_p(b, 2 * i + 1, 0, j)
        dgb = grad_jacobi_p(b, 2 * i + 1, 0, j)
        half1mb = 0.5 * (1.0 - b)
        dr = dfa * gb
        if i > 0:
            dr = dr * half1mb ** (i - 1)
        ds = dr * (0.5 * (1.0 + a))
        tmp = dgb * half1mb**i
        if i > 0:
            tmp = tmp - 0.5 * i * gb * half1mb ** (i - 1)
        ds = ds + fa * tmp
        norm = 2.0 ** (i + 0.5)
        G[0, :, m] = scale * norm * dr
        G[1, :, m] = scale * norm * ds
    return G


def face_points_to_tet(face: int, rs: np.ndarray, perm: tuple[int, int, int] = (0, 1, 2)) -> np.ndarray:
    """Map unit-triangle points onto local face ``face`` of the unit tet.

    ``perm`` re-labels the canonical face vertices before the affine map;
    it expresses which corner of the neighbor's face matches the (r, s)
    parametrization origin.  With barycentric coordinates
    ``lam = (1 - r - s, r, s)``, the mapped point is
    ``sum_k lam[k] * V[perm[k]]`` with ``V`` the canonical face vertices.
    """
    rs = np.atleast_2d(np.asarray(rs, dtype=float))
    verts = _TET_VERTS[list(TET_FACES[face])][list(perm)]
    lam = np.column_stack([1.0 - rs[:, 0] - rs[:, 1], rs[:, 0], rs[:, 1]])
    return lam @ verts


@dataclass(frozen=True)
class ReferenceElement:
    """All precomputed reference-tetrahedron operators for a given order.

    Attributes
    ----------
    order:
        Polynomial degree N.
    nbasis:
        Number of modal basis functions B_N.
    vol_points, vol_weights:
        Volume quadrature (exact to degree >= 2N).
    V, gradV:
        Vandermonde ``(nq, B)`` and gradient ``(3, nq, B)`` at volume points.
    deriv:
        ``(3, B, B)`` modal derivative operators:
        ``deriv[d, l, m] = int phi_l d(phi_m)/d(xi_d) dV``.  Applying
        ``deriv[d] @ Q`` yields the modal coefficients of the xi_d
        derivative (used in the Cauchy-Kowalewski predictor); the transpose
        is the stiffness operator of the corrector step.
    face_points, face_weights:
        Quadrature on the unit triangle (exact to degree >= 2N + 1).
    E_minus:
        ``(4, nfq, B)``: trace of the element basis on each local face.
    E_plus:
        ``(4, 6, nfq, B)``: trace of a *neighbor's* basis at the matching
        physical points, indexed by the neighbor's local face id and the
        vertex permutation class.
    """

    order: int
    nbasis: int
    vol_points: np.ndarray
    vol_weights: np.ndarray
    V: np.ndarray
    gradV: np.ndarray
    deriv: np.ndarray
    face_points: np.ndarray
    face_weights: np.ndarray
    E_minus: np.ndarray
    E_plus: np.ndarray
    tri_V: np.ndarray = field(repr=False, default=None)

    @property
    def n_face_points(self) -> int:
        return self.face_points.shape[0]


@lru_cache(maxsize=None)
def get_reference_element(order: int) -> ReferenceElement:
    """Build (and cache) the :class:`ReferenceElement` for degree ``order``."""
    if order < 0:
        raise ValueError("polynomial order must be >= 0")
    nb = basis_size(order)
    # volume rule exact to 2N (mass/stiffness integrands); one extra point
    # direction for safety with the collapsed construction
    vol_pts, vol_w = tetrahedron_rule(order + 2)
    V = tet_basis(vol_pts, order)
    gradV = tet_basis_grad(vol_pts, order)

    WV = vol_w[:, None] * V
    deriv = np.empty((3, nb, nb))
    for d in range(3):
        deriv[d] = WV.T @ gradV[d]

    face_pts, face_w = triangle_rule(order + 2)
    nfq = face_pts.shape[0]
    E_minus = np.empty((4, nfq, nb))
    for f in range(4):
        E_minus[f] = tet_basis(face_points_to_tet(f, face_pts), order)
    E_plus = np.empty((4, 6, nfq, nb))
    for f in range(4):
        for p, perm in enumerate(FACE_PERMUTATIONS):
            E_plus[f, p] = tet_basis(face_points_to_tet(f, face_pts, perm), order)

    tri_V = tri_basis(face_pts, order)

    for arr in (vol_pts, vol_w, V, gradV, deriv, face_pts, face_w, E_minus, E_plus, tri_V):
        arr.setflags(write=False)

    return ReferenceElement(
        order=order,
        nbasis=nb,
        vol_points=vol_pts,
        vol_weights=vol_w,
        V=V,
        gradV=gradV,
        deriv=deriv,
        face_points=face_pts,
        face_weights=face_w,
        E_minus=E_minus,
        E_plus=E_plus,
        tri_V=tri_V,
    )
