"""Tests for the orthonormal Dubiner bases and reference-element operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import (
    FACE_PERMUTATIONS,
    _tet_mode_indices,
    TET_FACES,
    basis_size,
    face_points_to_tet,
    get_reference_element,
    grad_jacobi_p,
    jacobi_p,
    tet_basis,
    tet_basis_grad,
    tri_basis,
    tri_basis_grad,
)
from repro.core.quadrature import tetrahedron_rule, triangle_rule


class TestJacobi:
    @pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 0), (3, 0), (2, 1)])
    def test_orthonormality(self, alpha, beta):
        from scipy.special import roots_jacobi

        x, w = roots_jacobi(12, alpha, beta)
        for n in range(5):
            for m in range(5):
                val = np.sum(w * jacobi_p(x, alpha, beta, n) * jacobi_p(x, alpha, beta, m))
                assert np.isclose(val, 1.0 if n == m else 0.0, atol=1e-12)

    def test_gradient_fd(self):
        x = np.linspace(-0.9, 0.9, 7)
        h = 1e-6
        for n in range(5):
            fd = (jacobi_p(x + h, 2, 0, n) - jacobi_p(x - h, 2, 0, n)) / (2 * h)
            assert np.allclose(grad_jacobi_p(x, 2, 0, n), fd, atol=1e-6)


class TestBasisSize:
    def test_known_values(self):
        assert basis_size(0) == 1
        assert basis_size(1) == 4
        assert basis_size(2) == 10
        assert basis_size(5) == 56
        assert basis_size(2, dim=2) == 6

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            basis_size(2, dim=4)


class TestModeOrder:
    """The modes are degree-ordered: a polynomial of degree ``n`` is the
    prefix of its first ``basis_size(n)`` coefficients, which is what
    stores each Cauchy-Kowalewski level as a prefix array."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_degree_sorted(self, order):
        degs = [sum(m) for m in _tet_mode_indices(order)]
        assert degs == sorted(degs)
        assert len(set(_tet_mode_indices(order))) == basis_size(order)
        for n in range(order + 1):
            assert degs.count(n) == basis_size(n) - (basis_size(n - 1) if n else 0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivative_maps_prefix_to_prefix(self, order):
        """``d/dxi`` of the first ``basis_size(n)`` modes lies in the first
        ``basis_size(n - 1)``."""
        deriv = get_reference_element(order).deriv
        for n in range(1, order + 1):
            leak = deriv[:, basis_size(n - 1):, :basis_size(n)]
            assert np.abs(leak).max() < 1e-12 * np.abs(deriv).max()


class TestTetBasis:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
    def test_orthonormal(self, order):
        pts, w = tetrahedron_rule(order + 2)
        V = tet_basis(pts, order)
        M = V.T @ (w[:, None] * V)
        assert np.abs(M - np.eye(V.shape[1])).max() < 1e-12

    def test_first_mode_constant(self):
        pts = np.random.default_rng(0).random((5, 3)) * 0.3
        V = tet_basis(pts, 3)
        # orthonormal constant mode = sqrt(6) on the unit tet (volume 1/6)
        assert np.allclose(V[:, 0], np.sqrt(6.0))

    def test_gradient_matches_fd(self):
        pts = np.array([[0.2, 0.3, 0.1], [0.1, 0.1, 0.6], [0.25, 0.25, 0.25]])
        G = tet_basis_grad(pts, 4)
        h = 1e-6
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd = (tet_basis(pts + e, 4) - tet_basis(pts - e, 4)) / (2 * h)
            assert np.abs(fd - G[d]).max() < 1e-5

    def test_completeness_linear(self):
        """P1 functions must be exactly representable."""
        pts, w = tetrahedron_rule(4)
        V = tet_basis(pts, 1)
        f = 1.0 + 2 * pts[:, 0] - 3 * pts[:, 1] + 0.5 * pts[:, 2]
        coeff = V.T @ (w * f)
        assert np.allclose(V @ coeff, f, atol=1e-13)

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=5, deadline=None)
    def test_face_eval_consistency(self, face):
        """Basis traces evaluated through face maps match direct evaluation."""
        face = face % 4
        rs, _ = triangle_rule(3)
        pts = face_points_to_tet(face, rs)
        assert np.allclose(tet_basis(pts, 2), tet_basis(pts.copy(), 2))


class TestTriBasis:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_orthonormal(self, order):
        pts, w = triangle_rule(order + 2)
        V = tri_basis(pts, order)
        M = V.T @ (w[:, None] * V)
        assert np.abs(M - np.eye(V.shape[1])).max() < 1e-12

    def test_gradient_fd(self):
        pts = np.array([[0.2, 0.3], [0.4, 0.1]])
        G = tri_basis_grad(pts, 3)
        h = 1e-6
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (tri_basis(pts + e, 3) - tri_basis(pts - e, 3)) / (2 * h)
            assert np.abs(fd - G[d]).max() < 1e-5


class TestFaceGeometry:
    def test_face_points_on_faces(self):
        rs, _ = triangle_rule(3)
        for f in range(4):
            pts = face_points_to_tet(f, rs)
            if f == 0:
                assert np.allclose(pts[:, 2], 0)
            elif f == 1:
                assert np.allclose(pts[:, 1], 0)
            elif f == 2:
                assert np.allclose(pts[:, 0], 0)
            else:
                assert np.allclose(pts.sum(axis=1), 1)

    def test_permutations_cover_same_points(self):
        rs, _ = triangle_rule(2)
        for perm in FACE_PERMUTATIONS:
            pts = face_points_to_tet(2, rs, perm)
            # same physical face, possibly reordered points
            assert np.allclose(pts[:, 0], 0)

    def test_face_vertex_tuples_outward(self):
        verts = np.array(
            [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        centroid = verts.mean(axis=0)
        for f, (a, b, c) in enumerate(TET_FACES):
            n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
            assert n @ (verts[a] - centroid) > 0, f


class TestReferenceElement:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_integration_by_parts(self, order):
        """deriv[d] + deriv[d]^T must equal the boundary bilinear form."""
        ref = get_reference_element(order)
        for d in range(3):
            lhs = ref.deriv[d] + ref.deriv[d].T
            # boundary term: sum_f int_f phi_l phi_m n_d dS
            rhs = np.zeros_like(lhs)
            normals = {
                0: np.array([0.0, 0, -1]),
                1: np.array([0.0, -1, 0]),
                2: np.array([-1.0, 0, 0]),
                3: np.array([1.0, 1, 1]) / np.sqrt(3),
            }
            scales = {0: 1.0, 1: 1.0, 2: 1.0, 3: np.sqrt(3)}  # 2*area factors
            for f in range(4):
                E = ref.E_minus[f]
                rhs += normals[f][d] * scales[f] * (E.T @ (ref.face_weights[:, None] * E))
            assert np.abs(lhs - rhs).max() < 1e-11

    def test_cached(self):
        assert get_reference_element(2) is get_reference_element(2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            get_reference_element(-1)

    def test_shapes(self):
        ref = get_reference_element(3)
        B = basis_size(3)
        assert ref.nbasis == B
        assert ref.deriv.shape == (3, B, B)
        assert ref.E_minus.shape[0] == 4
        assert ref.E_plus.shape[:2] == (4, 6)
