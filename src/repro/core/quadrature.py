"""Quadrature rules on reference simplices.

The reference elements used throughout the library are the *unit* simplices

* unit triangle  ``T2 = {(r, s)    : r, s >= 0, r + s <= 1}``      (area 1/2)
* unit tetrahedron ``T3 = {(u, v, w): u, v, w >= 0, u + v + w <= 1}`` (volume 1/6)

Rules are conical-product (collapsed-coordinate) Gauss-Jacobi rules: a rule
with ``n`` points per direction integrates polynomials of total degree
``2n - 1`` exactly on the simplex.  This is the classical construction used
by modal DG codes (Karniadakis & Sherwin); it is fully symmetric in the
collapsed direction and has strictly positive weights.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _gauss_jacobi(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on [-1, 1] for the weight ``(1 - x)**alpha``.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the three-term recurrence, polished by
    one Newton step on ``P_n``; the weights are the Christoffel numbers
    ``1 / sum_{k<n} P_k(x_i)^2`` of the orthonormal polynomials.
    """
    from .basis import grad_jacobi_p, jacobi_p  # basis imports this module

    k = np.arange(1, n, dtype=float)
    s = 2.0 * np.arange(n) + alpha
    # alpha = 0 makes the first entry 0/0 in the general formula; it is 0
    diag = -alpha**2 / np.maximum(s * (s + 2.0), 1.0)
    off = 2.0 / s[1:] * k * (k + alpha) / np.sqrt(s[1:] ** 2 - 1.0)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    x -= jacobi_p(x, alpha, 0, n) / grad_jacobi_p(x, alpha, 0, n)
    return x, 1.0 / sum(jacobi_p(x, alpha, 0, j) ** 2 for j in range(n))


def gauss_jacobi_01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on [0, 1] with weight function ``(1 - x)**alpha``.

    Returns nodes ``x`` and weights ``w`` such that
    ``sum(w * f(x)) == integral_0^1 f(x) (1-x)^alpha dx`` for polynomials
    ``f`` of degree up to ``2n - 1``.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    x, w = _gauss_jacobi(n, alpha)
    # x in [-1,1] -> q in [0,1]:  q = (x+1)/2,  (1-q)^alpha = ((1-x)/2)^alpha
    q = 0.5 * (x + 1.0)
    wq = w / 2.0 ** (alpha + 1)
    return q, wq


@lru_cache(maxsize=None)
def _triangle_rule_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    p, wp = gauss_jacobi_01(n, 0)
    q, wq = gauss_jacobi_01(n, 1)
    # Duffy map from the unit square: r = p*(1-q), s = q, jacobian (1-q)
    P, Q = np.meshgrid(p, q, indexing="ij")
    WP, WQ = np.meshgrid(wp, wq, indexing="ij")
    r = (P * (1.0 - Q)).ravel()
    s = Q.ravel()
    w = (WP * WQ).ravel()
    pts = np.column_stack([r, s])
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def triangle_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical-product rule on the unit triangle.

    Parameters
    ----------
    n:
        Points per direction; the rule has ``n**2`` points and is exact for
        total degree ``2n - 1``.

    Returns
    -------
    points : (n**2, 2) array, weights : (n**2,) array summing to 1/2.
    """
    return _triangle_rule_cached(n)


@lru_cache(maxsize=None)
def _tet_rule_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    p, wp = gauss_jacobi_01(n, 0)
    q, wq = gauss_jacobi_01(n, 1)
    r, wr = gauss_jacobi_01(n, 2)
    # Duffy map from the unit cube:
    #   u = p*(1-q)*(1-r), v = q*(1-r), w = r;  jacobian (1-q)*(1-r)^2
    P, Q, R = np.meshgrid(p, q, r, indexing="ij")
    WP, WQ, WR = np.meshgrid(wp, wq, wr, indexing="ij")
    u = (P * (1.0 - Q) * (1.0 - R)).ravel()
    v = (Q * (1.0 - R)).ravel()
    w3 = R.ravel()
    w = (WP * WQ * WR).ravel()
    pts = np.column_stack([u, v, w3])
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def tetrahedron_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical-product rule on the unit tetrahedron.

    The rule has ``n**3`` points, strictly positive weights summing to 1/6,
    and is exact for polynomials of total degree ``2n - 1``.
    """
    return _tet_rule_cached(n)


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1] (used for time quadrature)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w
