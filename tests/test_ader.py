"""Tests for the Cauchy-Kowalewski predictor and Taylor utilities."""

import numpy as np

from repro.core.ader import (
    taylor_evaluate,
    stacked_star_matrices,
    taylor_integrate,
)
from repro.core.basis import get_reference_element
from repro.core.kernels import SpatialOperator
from repro.core.materials import elastic, jacobians
from repro.mesh.generators import box_mesh

from tests.reference_kernels import ck_derivatives, dense_star

ROCK = elastic(1.0, 2.0, 1.0)


def star_matrices(mesh):
    """The star Jacobians ``(ne, 3, 9, 9)`` of what the plan holds."""
    return dense_star(stacked_star_matrices(mesh))


def make_setup(order=2, nc=2):
    xs = np.linspace(0, 1, nc + 1)
    mesh = box_mesh(xs, xs, xs, [ROCK])
    ref = get_reference_element(order)
    star = star_matrices(mesh)
    return mesh, ref, star


class TestStarMatrices:
    def test_identity_map_recovers_jacobians(self):
        """For the reference tet itself, star matrices == (A, B, C)."""
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        from repro.mesh.tetmesh import TetMesh

        mesh = TetMesh(verts, np.array([[0, 1, 2, 3]]), [ROCK])
        star = star_matrices(mesh)
        A, B, C = jacobians(ROCK)
        assert np.allclose(star[0, 0], A)
        assert np.allclose(star[0, 1], B)
        assert np.allclose(star[0, 2], C)

    def test_shape(self):
        mesh, ref, star = make_setup()
        assert star.shape == (mesh.n_elements, 3, 9, 9)


class TestCKDerivatives:
    """Analytic truth asserted on the predictor the solver executes
    (``fused_ck`` through ``op.predict``)."""

    @staticmethod
    def predict(mesh, ref, star, Q):
        """``(ne, N+1, B, 9)`` derivatives of ``Q`` (``(ne, B, 9)``),
        through the kernel's quantity-major layout and back."""
        op = SpatialOperator(mesh, ref.order)
        derivs = op.predict(np.ascontiguousarray(Q.transpose(0, 2, 1)))
        return derivs.transpose(0, 1, 3, 2)

    def test_constant_state_is_steady(self):
        mesh, ref, star = make_setup(order=3)
        Q = np.zeros((mesh.n_elements, ref.nbasis, 9))
        Q[:, 0, :] = 1.234  # constant field
        derivs = self.predict(mesh, ref, star, Q)
        assert np.abs(derivs[:, 1:]).max() < 1e-10

    def test_first_derivative_matches_pde(self):
        """dq/dt from CK equals -(A q_x + B q_y + C q_z) for a linear field."""
        mesh, ref, star = make_setup(order=2)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(3, 9))  # gradient of each quantity

        def field(x):
            return x @ g

        pts = mesh.map_points(np.arange(mesh.n_elements), ref.vol_points)
        vals = field(pts.reshape(-1, 3)).reshape(pts.shape[0], -1, 9)
        Q = np.einsum("qb,q,eqn->ebn", ref.V, ref.vol_weights, vals)
        derivs = self.predict(mesh, ref, star, Q)
        A, B, C = jacobians(ROCK)
        expect = -(g[0] @ A.T + g[1] @ B.T + g[2] @ C.T)  # constant in space
        # check cell means: first basis function is the constant sqrt(6)
        got = derivs[:, 1, 0, :] * np.sqrt(6.0)
        assert np.allclose(got, expect[None, :], atol=1e-8 * max(1, np.abs(expect).max()))

    def test_second_derivative_vanishes_for_linear(self):
        mesh, ref, star = make_setup(order=3)
        rng = np.random.default_rng(1)
        g = rng.normal(size=(3, 9))
        pts = mesh.map_points(np.arange(mesh.n_elements), ref.vol_points)
        vals = (pts.reshape(-1, 3) @ g).reshape(pts.shape[0], -1, 9)
        Q = np.einsum("qb,q,eqn->ebn", ref.V, ref.vol_weights, vals)
        derivs = self.predict(mesh, ref, star, Q)
        # first derivative constant in space => second derivative zero
        assert np.abs(derivs[:, 2:]).max() < 1e-8 * np.abs(derivs[:, 1]).max()


class TestCKDerivativesOracle(TestCKDerivatives):
    """The same checks on the reference sweep the kernel battery trusts."""

    @staticmethod
    def predict(mesh, ref, star, Q):
        return ck_derivatives(Q, star, ref)


def levels(derivs):
    """A dense ``(ne, K, ...)`` derivative array as the level sequence
    the Taylor utilities read (level ``k`` is ``derivs[:, k]``)."""
    return derivs.swapaxes(0, 1)


class TestTaylor:
    def test_integrate_constant(self):
        derivs = np.zeros((3, 4, 5, 9))
        derivs[:, 0] = 2.0
        out = taylor_integrate(levels(derivs), 0.0, 0.5)
        assert np.allclose(out, 1.0)

    def test_integrate_polynomial(self):
        """q(t) = q0 + q1 t + q2 t^2/2: integral over [a, b] is exact."""
        rng = np.random.default_rng(2)
        derivs = rng.normal(size=(2, 3, 4, 9))
        a, b = 0.2, 0.7
        exact = (
            derivs[:, 0] * (b - a)
            + derivs[:, 1] * (b**2 - a**2) / 2
            + derivs[:, 2] * (b**3 - a**3) / 6
        )
        assert np.allclose(taylor_integrate(levels(derivs), a, b), exact)

    def test_integrate_into_rows(self):
        """``out=`` rows of a window buffer get the bits of the returned
        array, and nothing else of the buffer is written."""
        rng = np.random.default_rng(6)
        derivs = rng.normal(size=(40, 3, 10, 9))
        window = np.full((100, 10, 9), np.nan)
        rows = window[30:70]
        assert taylor_integrate(levels(derivs), 0.0, 0.013, out=rows) is rows
        np.testing.assert_array_equal(rows, taylor_integrate(levels(derivs), 0.0, 0.013))
        assert np.isnan(window[:30]).all() and np.isnan(window[70:]).all()

    def test_evaluate_matches_series(self):
        rng = np.random.default_rng(3)
        derivs = rng.normal(size=(2, 3, 4, 9))
        tau = 0.3
        exact = derivs[:, 0] + derivs[:, 1] * tau + derivs[:, 2] * tau**2 / 2
        assert np.allclose(taylor_evaluate(levels(derivs), tau), exact)

    def test_evaluate_vectorized_times(self):
        rng = np.random.default_rng(4)
        derivs = rng.normal(size=(2, 2, 4, 9))
        taus = np.array([0.0, 0.1, 0.5])
        out = taylor_evaluate(levels(derivs), taus)
        assert out.shape == (3, 2, 4, 9)
        assert np.allclose(out[0], derivs[:, 0])

    def test_integrate_evaluate_consistency(self):
        """d/dt of the integral equals the evaluation (fundamental theorem)."""
        rng = np.random.default_rng(5)
        derivs = rng.normal(size=(1, 4, 3, 9))
        h = 1e-6
        t = 0.37
        fd = (taylor_integrate(levels(derivs), 0, t + h) - taylor_integrate(levels(derivs), 0, t - h)) / (2 * h)
        assert np.allclose(fd, taylor_evaluate(levels(derivs), t), atol=1e-6)
