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

__all__ = ["transposed_star_matrices", "taylor_integrate", "taylor_evaluate",
           "taylor_weights", "taylor_window_weights"]


#: elements per chunk of :func:`transposed_star_matrices` (the gathered
#: per-element Jacobians of one chunk are the build's only scratch)
_STAR_CHUNK = 2048


def transposed_star_matrices(mesh) -> np.ndarray:
    """Per-element reference-coordinate Jacobians, *transposed*, as the
    C-contiguous ``(ne, 3, 9, 9)`` array the kernels reshape for free.

    ``out[e, k] = star[e, k]^T`` with the "star" Jacobian ``star[e, k] =
    sum_d inv_jac[e, k, d] * (A, B, C)[d]`` of the element's material
    (``out.transpose(0, 1, 3, 2)`` views them), written chunk by chunk
    straight into its final layout (``einsum`` without ``out=`` would
    pick the memory order of its operands, not C order).
    """
    ABC = np.stack([np.stack(jacobians(m)) for m in mesh.materials])
    out = np.empty((mesh.n_elements, 3, 9, 9))
    for lo in range(0, mesh.n_elements, _STAR_CHUNK):
        rows = slice(lo, lo + _STAR_CHUNK)
        np.einsum("ekd,edij->ekji", mesh.inv_jac[rows],
                  ABC[mesh.material_ids[rows]], out=out[rows])
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


def taylor_integrate(derivs: np.ndarray, t0: float, t1: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Integral of the Taylor expansion over ``[t0, t1]`` (relative times).

    ``t0``/``t1`` are measured from the expansion point.  Returns modal
    coefficients of ``int_t0^t1 q(t) dt``, shape ``(ne, B, 9)``, written
    into ``out`` when given (e.g. a row slice of the window buffer, so
    the integral needs no temporary; the bits are the same).
    """
    coef = taylor_window_weights(t0, t1, derivs.shape[1])
    # one pass over the level axis; each row sums its levels in order, so
    # the result of a row does not depend on which batch it is part of
    return np.einsum("k,ek...->e...", coef, derivs, out=out)


def taylor_evaluate(derivs: np.ndarray, tau) -> np.ndarray:
    """Evaluate the Taylor expansion at relative time(s) ``tau``.

    For scalar ``tau`` returns ``(ne, B, 9)``; for an array of ``nt`` times
    returns ``(nt, ne, B, 9)``.
    """
    coef = taylor_weights(np.atleast_1d(tau), derivs.shape[1])
    out = np.einsum("tk,ek...->te...", coef, derivs)
    return out if np.ndim(tau) else out[0]
