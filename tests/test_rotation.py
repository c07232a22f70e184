"""Tests for the T(n) similarity transforms (paper Eq. 15)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.materials import acoustic, elastic, jacobian_normal, jacobians
from repro.core.rotation import (
    NORMAL_FLIP,
    batched_normal_basis,
    batched_state_rotation,
    bond_matrix,
    fill_state_rotation,
    normal_basis,
    state_rotation,
    state_rotation_inverse,
)

from . import reference_kernels
from .conftest import random_material, random_unit_vector


def random_unit(seed):
    rng = np.random.default_rng(seed)
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


class TestNormalBasis:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_orthonormal_right_handed(self, seed):
        n = random_unit(seed)
        R = normal_basis(n)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-13)
        assert np.isclose(np.linalg.det(R), 1.0)
        assert np.allclose(R[:, 0], n)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            normal_basis(np.zeros(3))

    def test_batched_matches_single(self):
        normals = np.array([random_unit(s) for s in range(10)])
        Rb = batched_normal_basis(normals)
        for i, n in enumerate(normals):
            assert np.allclose(Rb[i], normal_basis(n), atol=1e-14)


class TestBond:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_transforms_stress_correctly(self, seed):
        rng = np.random.default_rng(seed)
        R = normal_basis(random_unit(seed))
        s = rng.normal(size=(3, 3))
        s = s + s.T
        voigt = np.array([s[0, 0], s[1, 1], s[2, 2], s[0, 1], s[1, 2], s[0, 2]])
        rot = R @ s @ R.T
        voigt_rot = bond_matrix(R) @ voigt
        expect = np.array([rot[0, 0], rot[1, 1], rot[2, 2], rot[0, 1], rot[1, 2], rot[0, 2]])
        assert np.allclose(voigt_rot, expect, atol=1e-12)

    def test_identity(self):
        assert np.allclose(bond_matrix(np.eye(3)), np.eye(6))


class TestStateRotation:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_similarity_identity_elastic(self, seed):
        """T(n) A T(n)^-1 == nx A + ny B + nz C (paper Eq. 15)."""
        mat = elastic(2700.0, 6000.0, 3464.0)
        n = random_unit(seed)
        A = jacobians(mat)[0]
        lhs = state_rotation(n) @ A @ state_rotation_inverse(n)
        rhs = jacobian_normal(mat, n)
        assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_similarity_identity_acoustic(self, seed):
        mat = acoustic(1000.0, 1500.0)
        n = random_unit(seed)
        A = jacobians(mat)[0]
        lhs = state_rotation(n) @ A @ state_rotation_inverse(n)
        assert np.abs(lhs - jacobian_normal(mat, n)).max() < 1e-9 * mat.lam

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_inverse(self, seed):
        n = random_unit(seed)
        assert np.allclose(
            state_rotation(n) @ state_rotation_inverse(n), np.eye(9), atol=1e-12
        )

    def test_batched_matches_single(self):
        normals = np.array([random_unit(s) for s in range(7)])
        T, Tinv = batched_state_rotation(normals)
        for i, n in enumerate(normals):
            assert np.allclose(T[i], state_rotation(n), atol=1e-13)
            assert np.allclose(Tinv[i], state_rotation_inverse(n), atol=1e-13)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_similarity_identity_random_materials(self, seed):
        """Eq. 15 holds for any admissible material, not just the fixtures:
        T(n) A T(n)^-1 == nx A + ny B + nz C."""
        rng = np.random.default_rng(seed)
        mat = random_material(rng)
        n = random_unit_vector(rng)
        A = jacobians(mat)[0]
        lhs = state_rotation(n) @ A @ state_rotation_inverse(n)
        rhs = jacobian_normal(mat, n)
        assert np.abs(lhs - rhs).max() < 1e-9 * max(np.abs(rhs).max(), mat.lam)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_block_structure(self, seed):
        """T(n) is exactly blockdiag(bond(R), R) with R = normal_basis(n),
        and its inverse is the same construction from R^T."""
        rng = np.random.default_rng(seed)
        n = random_unit_vector(rng)
        R = normal_basis(n)

        def blockdiag(Rm):
            T = np.zeros((9, 9))
            T[:6, :6] = bond_matrix(Rm)
            T[6:, 6:] = Rm
            return T

        assert np.allclose(state_rotation(n), blockdiag(R), atol=1e-13)
        assert np.allclose(state_rotation_inverse(n), blockdiag(R.T), atol=1e-13)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rotation_preserves_energy_norm(self, seed):
        """The velocity block is orthogonal: kinetic energy density is
        frame-independent under T(n)."""
        rng = np.random.default_rng(seed)
        n = random_unit_vector(rng)
        q = rng.normal(size=9)
        v_rot = (state_rotation(n) @ q)[6:]
        assert np.isclose(v_rot @ v_rot, q[6:] @ q[6:], rtol=1e-12)


# components that make ``argmin |n|`` tie and normals axis-aligned, next
# to generic ones
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
_NORMALS = st.lists(
    st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)
    .filter(lambda n: 1e-6 < max(map(abs, n))),
    min_size=1, max_size=12).map(np.array)


class TestNormalFlip:
    """What lets the plan build rotate each face once: the far side's
    rotation is the near side's times a constant sign diagonal — exactly,
    so the equalities below are bitwise."""

    @given(_NORMALS)
    @settings(max_examples=200, deadline=None)
    def test_flip_identity_is_exact(self, normals):
        """``T(-n) == T(n) D`` and ``T(-n)^-1 == D T(n)^-1``, ties of
        ``argmin |n|`` and axis-aligned normals included."""
        T, Tinv = batched_state_rotation(normals)
        Tf, Tinvf = batched_state_rotation(-normals)
        np.testing.assert_array_equal(Tf, T * NORMAL_FLIP)
        np.testing.assert_array_equal(Tinvf, NORMAL_FLIP[:, None] * Tinv)

    def test_flip_diagonal_is_frozen_signs(self):
        assert set(np.abs(NORMAL_FLIP)) == {1.0}
        assert not NORMAL_FLIP.flags.writeable

    @given(_NORMALS)
    @settings(max_examples=50, deadline=None)
    def test_in_place_fill_matches_seed_rotation(self, normals):
        """The in-place builder — plain, and through the transposed views
        of reused scratch the plan build hands it — has the bits of the
        seed's temporaries-and-copies form."""
        T0, Tinv0 = reference_kernels.batched_state_rotation(normals)
        T, Tinv = batched_state_rotation(normals)
        np.testing.assert_array_equal(T, T0)
        np.testing.assert_array_equal(Tinv, Tinv0)
        n = len(normals)
        Tt = np.zeros((n + 3, 9, 9))
        TinvT = np.zeros((n + 3, 9, 9))
        for _ in range(2):  # the second fill overwrites the first
            fill_state_rotation(normals, Tt[:n].transpose(0, 2, 1),
                                TinvT[:n].transpose(0, 2, 1))
        np.testing.assert_array_equal(Tt[:n], T0.transpose(0, 2, 1))
        np.testing.assert_array_equal(TinvT[:n], Tinv0.transpose(0, 2, 1))
        assert not Tt[n:].any() and not TinvT[n:].any()
