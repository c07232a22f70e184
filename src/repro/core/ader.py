"""ADER predictor: the discrete Cauchy-Kowalewski procedure (paper Eq. 12).

Given the modal solution ``Q`` on a batch of elements, the predictor
computes all time derivatives ``d^k Q / dt^k`` by recursively substituting
time derivatives with spatial derivatives through the PDE:

    ``dQ/dt = - sum_k Astar_k (dQ/dxi_k)``

where ``Astar_k = sum_d invJ[k, d] A_d`` are the per-element "star"
Jacobians in reference coordinates.  The resulting element-local Taylor
expansion in time is the workhorse of the scheme: it supplies

* the time-integrated face data of the corrector step,
* point-in-time traces for the gravity free-surface ODE stages (Sec. 4.3),
* point-in-time traces for the dynamic-rupture time quadrature, and
* sub-interval integrals for local time-stepping (Sec. 4.4).

The sweep itself is :func:`repro.kernels.fusion.fused_ck`; this module
holds the star Jacobians it reads and the Taylor-series utilities.
"""

from __future__ import annotations

import numpy as np

from .materials import jacobians

__all__ = ["Predictor", "stacked_star_matrices", "taylor_integrate",
           "taylor_evaluate", "taylor_weights", "taylor_window_weights"]


#: elements per chunk of :func:`stacked_star_matrices` (the gathered
#: per-element Jacobians and one chunk of its blocks are the
#: build's only scratch)
_STAR_CHUNK = 2048

#: rows per chunk of the Taylor sums (the chunk's result stays in cache)
_TAYLOR_CHUNK = 512


def stacked_star_matrices(mesh) -> np.ndarray:
    """Per-element reference-coordinate Jacobians as the C-contiguous
    ``(ne, 9, 27)`` left factors of the quantity-major kernels.

    ``out[e, p, 3 q + k] = star[e, k][p, q]`` with the "star" Jacobian
    ``star[e, k] = sum_d inv_jac[e, k, d] * (A, B, C)[d]`` of the
    element's material: one ``(9, 27) @ (27, n)`` product applies all
    three to an element's ``(27, n)`` directional derivatives (rows
    ``3 q + k``).  Each chunk is computed as ``(n, 3, 9, 9)`` blocks in
    contiguous scratch (``einsum`` without ``out=`` would pick the memory
    order of its operands, not C order) and assigned re-laid-out, so no
    second table exists.
    """
    ABC = np.stack([np.stack(jacobians(m)) for m in mesh.materials])
    ne = mesh.n_elements
    out = np.empty((ne, 9, 27))
    scratch = np.empty((min(_STAR_CHUNK, ne), 3, 9, 9))
    for lo in range(0, ne, _STAR_CHUNK):
        rows = slice(lo, lo + _STAR_CHUNK)
        blocks = scratch[:len(out[rows])]
        np.einsum("ekd,edij->ekij", mesh.inv_jac[rows],
                  ABC[mesh.material_ids[rows]], out=blocks)
        stacked = out[rows].reshape(-1, 9, 9, 3)
        for k in range(3):
            stacked[..., k] = blocks[:, k]
    return out


def taylor_weights(tau, K: int) -> np.ndarray:
    """``tau^k / k!`` for ``k < K``, shape ``tau.shape + (K,)``: the row
    that evaluates ``K`` Taylor derivatives at relative time ``tau``."""
    k = np.arange(K)
    return np.asarray(tau, dtype=float)[..., None] ** k / np.cumprod(np.maximum(k, 1))


def taylor_window_weights(t0: float, t1: float, K: int) -> np.ndarray:
    """``(t1^(k+1) - t0^(k+1)) / (k+1)!`` for ``k < K``: the row that
    integrates ``K`` Taylor derivatives over ``[t0, t1]``."""
    k1 = np.arange(1, K + 1)
    return (float(t1) ** k1 - float(t0) ** k1) / np.cumprod(k1)


def taylor_integrate(levels, t0: float, t1: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Integral of the Taylor expansion over ``[t0, t1]`` (relative times).

    ``levels[k]`` is derivative ``k``, ``(ne, ..., s_k)``, zero past its
    ``s_k`` modes (:attr:`Predictor.levels`, or a dense ``(K, ne, ...)``
    array).  Returns the modal coefficients of ``int_t0^t1 q(t) dt``,
    written into ``out`` when given (e.g. a row slice of the window
    buffer, so the integral needs no temporary; the bits are the same).
    """
    return _taylor_sum(levels, taylor_window_weights(t0, t1, len(levels)), out)


def taylor_evaluate(levels, tau) -> np.ndarray:
    """The Taylor expansion (``levels`` as in :func:`taylor_integrate`) at
    relative time ``tau``, or ``(nt, ...)`` at an array of ``nt`` times."""
    weights = taylor_weights(np.atleast_1d(tau), len(levels))
    out = np.stack([_taylor_sum(levels, w) for w in weights])
    return out if np.ndim(tau) else out[0]


def _taylor_sum(levels, coef, out=None) -> np.ndarray:
    """``sum_k coef[k] * levels[k]``, each level added into its prefix of
    modes in ascending ``k`` (a row's sum never depends on the rows
    computed with it), a cache-sized chunk of rows at a time."""
    out = np.empty(levels[0].shape) if out is None else out
    for lo in range(0, len(out), _TAYLOR_CHUNK):
        rows = slice(lo, lo + _TAYLOR_CHUNK)
        np.multiply(coef[0], levels[0][rows], out=out[rows])
        for c, L in zip(coef[1:], levels[1:]):
            out[rows, ..., :L.shape[-1]] += c * L[rows]
    return out


class Predictor:
    """A Cauchy-Kowalewski predictor as its Taylor levels.

    ``levels[k]`` is ``d^k Q / dt^k``, ``(ne, 9, s_k)``: of degree
    ``N - k``, it is the first ``s_k = basis_size(N - k)`` modes of the
    degree-ordered basis, and the zeros past them are not stored.
    ``levels[0]`` is the state itself (:func:`~repro.kernels.fusion.
    fused_ck`).  As an array (``np.asarray``, indexing) it reads as the
    zero-padded ``(ne, N+1, 9, B)``, ``(ne, N+1, B, 9)`` after
    ``transpose(0, 1, 3, 2)``: for oracles and tests, the kernels read
    the levels.
    """

    def __init__(self, levels, axes=(0, 1, 2, 3)):
        self.levels, self._axes = tuple(levels), axes

    @property
    def shape(self) -> tuple:
        L0 = self.levels[0]
        return tuple((len(L0), len(self.levels), *L0.shape[1:])[a] for a in self._axes)

    def take(self, rows) -> "Predictor":
        """The rows' predictor: level views for a ``slice``, else copies."""
        return Predictor([L[rows] for L in self.levels], self._axes)

    def transpose(self, *axes) -> "Predictor":
        return Predictor(self.levels, tuple(self._axes[a] for a in axes))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros(Predictor(self.levels).shape, dtype)
        for k, L in enumerate(self.levels):
            dense[:, k, ..., :L.shape[-1]] = L
        return dense.transpose(self._axes)

    def __getitem__(self, key) -> np.ndarray:
        return np.asarray(self)[key]
