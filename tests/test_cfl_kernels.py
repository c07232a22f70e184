"""Unit tests for the CFL condition and the spatial-operator kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ader import taylor_integrate
from repro.core.cfl import cfl_factor, element_timesteps
from repro.core.kernels import SpatialOperator
from repro.core.materials import acoustic, elastic
from repro.kernels.faces import FacePlan
from repro.mesh.generators import box_mesh

from .conftest import ocean_box_mesh

ROCK = elastic(2700.0, 6000.0, 3464.0)
WATER = acoustic(1000.0, 1500.0)


class TestCFL:
    def test_paper_constant(self):
        """Sec. 6: C(N) = 0.35 / (2N + 1)."""
        assert np.isclose(cfl_factor(5), 0.35 / 11.0)
        assert np.isclose(cfl_factor(0), 0.35)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cfl_factor(-1)

    def test_timestep_scales_with_wave_speed(self):
        xs = np.linspace(0, 1000.0, 3)
        m_fast = box_mesh(xs, xs, xs, [ROCK])
        m_slow = box_mesh(xs, xs, xs, [elastic(2700.0, 3000.0, 1732.0)])
        assert np.allclose(
            element_timesteps(m_slow, 2), 2.0 * element_timesteps(m_fast, 2)
        )

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_higher_order_smaller_dt(self, order):
        xs = np.linspace(0, 1000.0, 3)
        m = box_mesh(xs, xs, xs, [ROCK])
        dt = element_timesteps(m, order)
        dt_next = element_timesteps(m, order + 1)
        assert (dt_next < dt).all()

    def test_acoustic_uses_sound_speed(self):
        xs = np.linspace(0, 1000.0, 3)
        m = box_mesh(xs, xs, xs, [WATER])
        dt = element_timesteps(m, 2)
        m2 = box_mesh(xs, xs, xs, [ROCK])
        # water cp = rock cp / 4 -> dt 4x bigger
        assert np.allclose(dt, 4.0 * element_timesteps(m2, 2))


class TestSpatialOperator:
    def make(self, order=2):
        return SpatialOperator(ocean_box_mesh(np.linspace(0, 2000.0, 4), -2000.0, -500.0), order)

    def test_constant_state_is_steady(self):
        """A constant velocity field is steady: the volume term cancels the
        surface fluxes exactly (free-stream preservation, including the
        coupled elastic-acoustic faces and the free-surface closure)."""
        op = self.make()
        Q = op.new_state()
        Q[:, 7, 0] = 1.0  # constant vy everywhere
        derivs = op.predict(Q)
        I = taylor_integrate(derivs.levels, 0.0, 1e-3)
        out = op.apply(I)
        scale = 1e-3 * ROCK.lam
        assert np.abs(out).max() < 1e-12 * scale

    def test_masked_residual_matches_full(self):
        """active-mask kernels must agree with the unmasked computation on
        the selected elements (the LTS contract)."""
        op = self.make()
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(op.n_elements, 9, op.nbasis))
        derivs = op.predict(Q)
        I = taylor_integrate(derivs.levels, 0.0, 1e-4)
        full = op.new_state()
        op.volume_residual(I, full)
        op.interior_residual(I, full)
        op.boundary_residual(I, full)
        mask = np.zeros(op.n_elements, dtype=bool)
        mask[::3] = True
        part = op.new_state()
        op.volume_residual(I, part, active=mask)
        op.interior_residual(I, part, active=mask)
        op.boundary_residual(I, part, active=mask)
        assert np.allclose(part[mask], full[mask], rtol=1e-12, atol=1e-14)
        assert np.abs(part[~mask]).max() == 0.0

    def test_apply_is_sum_of_parts(self):
        op = self.make()
        rng = np.random.default_rng(1)
        Q = rng.normal(size=(op.n_elements, 9, op.nbasis))
        I = taylor_integrate(op.predict(Q).levels, 0.0, 1e-4)
        total = op.apply(I)
        parts = op.new_state()
        op.volume_residual(I, parts)
        op.interior_residual(I, parts)
        op.boundary_residual(I, parts)
        assert np.allclose(total, parts)

    def test_face_groups_partition_faces(self):
        op = self.make()
        counted = sum(len(g.em) for g in op.interior_groups)
        regular = int((~op.mesh.interior.is_fault).sum())
        assert counted == regular

    def test_trace_minus_constant_field(self):
        op = self.make()
        Q = np.zeros((op.n_elements, op.nbasis, 9))  # the face modules' layout
        Q[:, 0, 8] = 2.0 / np.sqrt(6.0)  # vz = 2 (constant mode is sqrt(6))
        bnd = op.mesh.boundary
        tr = FacePlan.minus(op.ref, bnd.elem, bnd.face).trace(Q)
        assert tr.shape == (len(bnd), op.ref.n_face_points, 9)
        assert np.allclose(tr[:, :, 8], 2.0)
        assert np.allclose(tr[:, :, :8], 0.0, atol=1e-14)
