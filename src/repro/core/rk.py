"""ODE integrators for the gravitational free-surface face ODE (Eq. 24).

The face ODE system is linear with polynomial forcing:

    ``d(eta)/dt = -(rho g / Z) eta + f(t)``,    ``dH/dt = eta``

where ``f(t) = v_n^-(t) + p^-(t)/Z`` comes from the element's space-time
Taylor predictor and is therefore a polynomial of degree <= N.

Two integrators are provided:

* :class:`ExactPropagator` — the exact exponential (phi-function)
  propagator for linear systems with monomial forcing, built once per
  ``(a, dt)`` via Van Loan block matrix exponentials and applied as a dense
  linear combination of the forcing coefficients.  Exact to round-off; this
  substitutes the paper's Verner RK7 (whose role is "integrate the face ODE
  much more accurately than the surrounding scheme"), see DESIGN.md.
* :func:`rk_solve` — a generic explicit Runge-Kutta driver (classical RK4
  tableau supplied) matching the paper's approach of evaluating the
  predictor polynomial at the RK stage times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ExactPropagator", "RK4", "ButcherTableau", "rk_solve"]

#: Taylor degree of :func:`_expm`: on a matrix of 1-norm <= 1/2 the first
#: dropped term is below 0.5**19 / 19! = 1.6e-23
_EXPM_DEGREE = 18


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    ``M`` is halved until its 1-norm is at most 1/2, exponentiated by a
    degree-18 Taylor sum and squared back.  Written for the small Van
    Loan blocks of :class:`ExactPropagator` (a 2x2 ODE matrix next to a
    nilpotent monomial shift, norm of order ``K dt``), where it agrees
    with ``scipy.linalg.expm`` to round-off — and keeps SciPy, 0.14 s of
    import, out of every coupled run's first gravity step.
    """
    # norm = m 2**e with 1/2 <= m < 1, so e + 1 halvings bring it below 1/2
    squarings = max(0, math.frexp(np.abs(M).sum(axis=0).max())[1] + 1)
    X = M / 2.0**squarings
    E = np.eye(len(M)) + X
    term = X
    for k in range(2, _EXPM_DEGREE + 1):
        term = term @ X / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


class ExactPropagator:
    """Exact propagator for ``y' = A y + sum_k b_k t^k`` over ``[0, dt]``.

    ``A`` is a small (here 2x2) constant matrix.  The propagator is the pair
    of linear maps ``(E, W)`` with

        ``y(dt) = E @ y(0) + sum_k W[:, :, k] @ b_k``

    computed via the Van Loan augmented-exponential construction: for each
    monomial slot ``k`` the augmented system

        ``z' = [[A, C_k], [0, S]] z``,  ``S`` the shift on (1, t, t^2/2, ...)

    is propagated exactly with one matrix exponential (:func:`_expm`).
    """

    def __init__(self, A: np.ndarray, n_forcing: int, dt: float):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        m = A.shape[0]
        if A.shape != (m, m):
            raise ValueError("A must be square")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.E = _expm(A * dt)
        # monomial chain: u = (1, t, t^2, ..., t^{K-1}); u' = S u with
        # S[j, j-1] = j  (d/dt t^j = j t^{j-1})
        K = n_forcing
        self.W = np.zeros((m, m, K))
        if K == 0:
            return
        S = np.zeros((K, K))
        for j in range(1, K):
            S[j, j - 1] = j
        for k in range(K):
            # forcing b_k t^k enters component rows through C with C[:, k] = I col
            # handled per target row by injecting into each y-component; since
            # the forcing vector b_k is arbitrary in R^m, build the map for
            # unit vectors.
            for comp in range(m):
                M = np.zeros((m + K, m + K))
                M[:m, :m] = A
                M[m:, m:] = S
                M[comp, m + k] = 1.0
                Z = _expm(M * dt)
                # z0 = [y0; u(0)] with u(0) = e_0 (monomial values at t=0)
                self.W[:, comp, k] = Z[:m, m]  # response of y(dt) to u_0=1, y0=0

    def apply(self, y0: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Propagate.

        Parameters
        ----------
        y0:
            ``(..., m)`` initial states.
        b:
            ``(..., m, K)`` monomial forcing coefficients.

        Returns ``y(dt)`` with the same leading shape.
        """
        out = np.einsum("ij,...j->...i", self.E, y0)
        if b.shape[-1]:
            out = out + np.einsum("ijk,...jk->...i", self.W, b)
        return out


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an explicit Runge-Kutta method."""

    a: np.ndarray  # (s, s) strictly lower triangular
    b: np.ndarray  # (s,)
    c: np.ndarray  # (s,)
    order: int

    def __post_init__(self):
        s = len(self.b)
        if self.a.shape != (s, s) or self.c.shape != (s,):
            raise ValueError("inconsistent tableau shapes")
        if np.any(np.triu(self.a) != 0):
            raise ValueError("tableau must be explicit (strictly lower triangular a)")
        if not np.isclose(self.b.sum(), 1.0):
            raise ValueError("weights must sum to 1")


RK4 = ButcherTableau(
    a=np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    ),
    b=np.array([1.0 / 6, 1.0 / 3, 1.0 / 3, 1.0 / 6]),
    c=np.array([0.0, 0.5, 0.5, 1.0]),
    order=4,
)


def rk_solve(f, y0: np.ndarray, dt: float, tableau: ButcherTableau = RK4, n_steps: int = 1):
    """Integrate ``y' = f(t, y)`` from 0 to ``dt`` with ``n_steps`` RK steps.

    ``y0`` may have any shape; ``f`` must be vectorized over it.
    """
    y = np.array(y0, dtype=float, copy=True)
    h = dt / n_steps
    s = len(tableau.b)
    t = 0.0
    for _ in range(n_steps):
        ks = []
        for i in range(s):
            yi = y
            for j in range(i):
                if tableau.a[i, j] != 0.0:
                    yi = yi + h * tableau.a[i, j] * ks[j]
            ks.append(f(t + tableau.c[i] * h, yi))
        for i in range(s):
            y = y + h * tableau.b[i] * ks[i]
        t += h
    return y
