"""Tests for the face-ODE integrators: the runtime's exact propagator and
the reference RK4 the tests check it against."""

import numpy as np
import pytest

from repro.core import rk
from repro.core.rk import ExactPropagator, _expm

from .reference_kernels import RK4, ButcherTableau, rk_solve


class TestExactPropagator:
    def test_scalar_exponential(self):
        a = -2.0
        prop = ExactPropagator(np.array([[a]]), n_forcing=0, dt=0.5)
        y = prop.apply(np.array([3.0]), np.zeros((1, 0)))
        assert np.isclose(y[0], 3.0 * np.exp(a * 0.5))

    def test_constant_forcing(self):
        """y' = a y + c: exact solution known."""
        a, c, dt = -1.5, 2.0, 0.7
        prop = ExactPropagator(np.array([[a]]), n_forcing=1, dt=dt)
        y = prop.apply(np.array([0.0]), np.array([[c]]))
        exact = c / (-a) * (1 - np.exp(a * dt))
        assert np.isclose(y[0], exact)

    def test_polynomial_forcing_vs_dense_rk(self):
        """Exact propagator matches a very fine RK4 integration."""
        rng = np.random.default_rng(0)
        A = np.array([[-3.0, 0.0], [1.0, 0.0]])
        K = 4
        b = rng.normal(size=(2, K))
        dt = 0.35
        prop = ExactPropagator(A, n_forcing=K, dt=dt)
        y0 = rng.normal(size=2)
        y_exact = prop.apply(y0, b)

        def f(t, y):
            return A @ y + b @ t ** np.arange(K)

        y_rk = rk_solve(f, y0, dt, RK4, n_steps=2000)
        assert np.allclose(y_exact, y_rk, rtol=1e-9, atol=1e-11)

    def test_batched_apply(self):
        A = np.array([[-1.0]])
        prop = ExactPropagator(A, n_forcing=2, dt=0.1)
        y0 = np.ones((5, 7, 1))
        b = np.zeros((5, 7, 1, 2))
        y = prop.apply(y0, b)
        assert y.shape == (5, 7, 1)
        assert np.allclose(y, np.exp(-0.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactPropagator(np.zeros((2, 3)), 1, 0.1)
        with pytest.raises(ValueError):
            ExactPropagator(np.zeros((2, 2)), 1, -0.1)


def _gravity_blocks(a, K, dt, monkeypatch):
    """Every matrix ``ExactPropagator`` exponentiates for the gravity face
    ODE ``A = [[a, 0], [1, 0]]`` with ``K`` forcing slots over ``dt``."""
    seen = []
    monkeypatch.setattr(rk, "_expm", lambda M: seen.append(M) or _expm(M))
    ExactPropagator(np.array([[a, 0.0], [1.0, 0.0]]), n_forcing=K, dt=dt)
    monkeypatch.undo()
    assert len(seen) == 1 + 2 * K
    return seen


class TestExpm:
    """The in-module exponential against ``scipy.linalg.expm`` on what the
    gravity ODE builds: water (``a = -rho g / Z``, the ``middle`` variant)
    and the undamped ``interior`` variant (``a = 0``)."""

    @pytest.mark.parametrize("a", [-1000.0 * 9.81 / 1.5e6, 0.0])
    @pytest.mark.parametrize("dt", [1e-4, 1e-2, 0.5])
    def test_matches_scipy_on_gravity_blocks(self, a, dt, monkeypatch):
        from scipy.linalg import expm

        for K in range(1, 6):
            for M in _gravity_blocks(a, K, dt, monkeypatch):
                ref = expm(M)
                err = np.abs(_expm(M) - ref).max() / np.abs(ref).max()
                assert err <= 1e-14, (K, err)

    def test_zero_is_identity(self):
        assert np.array_equal(_expm(np.zeros((5, 5))), np.eye(5))

    @pytest.mark.parametrize("dt", [1e-2, 0.5, 4.0])
    def test_semigroup(self, dt, monkeypatch):
        for M in _gravity_blocks(-6.54e-3, 5, dt, monkeypatch):
            E = _expm(M)
            assert np.allclose(_expm(2.0 * M), E @ E, rtol=1e-13,
                               atol=1e-13 * np.abs(E @ E).max())


class TestRK:
    def test_rk4_order(self):
        """Error of y' = y over [0,1] shrinks ~h^4."""
        errs = []
        for n in (4, 8):
            y = rk_solve(lambda t, y: y, np.array([1.0]), 1.0, RK4, n_steps=n)
            errs.append(abs(y[0] - np.e))
        assert np.log2(errs[0] / errs[1]) > 3.7

    def test_tableau_validation(self):
        with pytest.raises(ValueError):
            ButcherTableau(
                a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                b=np.array([0.5, 0.5]),
                c=np.array([0.0, 1.0]),
                order=2,
            )
        with pytest.raises(ValueError):
            ButcherTableau(
                a=np.zeros((2, 2)),
                b=np.array([0.5, 0.6]),
                c=np.array([0.0, 1.0]),
                order=2,
            )

    def test_time_dependent_rhs(self):
        """y' = t  ->  y = t^2/2."""
        y = rk_solve(lambda t, y: np.array([t]), np.array([0.0]), 2.0, RK4, n_steps=4)
        assert np.isclose(y[0], 2.0)
