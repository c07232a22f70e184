"""Tests for the one-way-linking pipeline (3D -> Cartesian grid -> SWE)."""

import numpy as np
import pytest

from repro.core.materials import elastic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.mesh.generators import box_mesh
from repro.tsunami.linking import (
    BedMotionInterpolator,
    SurfaceDisplacementTracker,
    link_static_uplift,
)
from repro.tsunami.swe import ShallowWaterSolver

ROCK1 = elastic(1.0, 2.0, 1.0)


def surface_solver():
    xs = np.linspace(0, 2, 5)
    m = box_mesh(xs, xs, np.linspace(-1, 0, 3), [ROCK1])

    def tagger(cent, nrm):
        tags = np.full(len(cent), FaceKind.ABSORBING.value)
        tags[nrm[:, 2] > 0.99] = FaceKind.FREE_SURFACE.value
        return tags

    m.tag_boundary(tagger)
    return CoupledSolver(m, order=2)


class TestTracker:
    def test_integrates_constant_velocity(self):
        s = surface_solver()

        def ic(x):
            out = np.zeros((len(x), 9))
            out[:, 8] = 0.5
            return out

        s.set_initial_condition(ic)
        tr = SurfaceDisplacementTracker(s)
        n = 5
        for _ in range(n):
            s.step(0.01)
            tr(s)
        # uz ~ v_z * t at early times (waves already redistribute the
        # motion, so only the mean and order of magnitude are checked)
        assert np.isclose(tr.uz.mean(), 0.5 * s.t, rtol=0.2)
        assert tr.uz.min() > 0

    def test_snapshot_grid_interpolation(self):
        s = surface_solver()
        tr = SurfaceDisplacementTracker(s)
        # impose an analytic displacement field and grid it
        tr.uz[:] = tr.points[:, :, 0] + 2.0 * tr.points[:, :, 1]
        xs = np.linspace(0.2, 1.8, 9)
        grid = tr.snapshot_grid(xs, xs)
        xc = 0.5 * (xs[:-1] + xs[1:])
        X, Y = np.meshgrid(xc, xc, indexing="ij")
        assert np.allclose(grid, X + 2 * Y, atol=1e-6)

    def test_requires_matching_faces(self):
        s = surface_solver()
        with pytest.raises(ValueError):
            SurfaceDisplacementTracker(s, kinds=(FaceKind.GRAVITY_FREE_SURFACE,))


class TestBedMotion:
    def test_interpolates_linearly(self):
        b0 = np.zeros((4, 4))
        times = np.array([1.0, 2.0])
        snaps = np.stack([np.ones((4, 4)), 3 * np.ones((4, 4))])
        bm = BedMotionInterpolator(b0, times, snaps)
        assert np.allclose(bm(1.5), 2.0)
        assert np.allclose(bm(0.5), 0.5)  # ramp from zero before first snap
        assert np.allclose(bm(10.0), 3.0)  # static after the last

    def test_validation(self):
        with pytest.raises(ValueError):
            BedMotionInterpolator(np.zeros((2, 2)), np.array([1.0]), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            BedMotionInterpolator(np.zeros((2, 2)), np.array([]), np.zeros((0, 2, 2)))
        with pytest.raises(ValueError):
            BedMotionInterpolator(
                np.zeros((2, 2)), np.array([2.0, 1.0]), np.zeros((2, 2, 2))
            )


class TestStaticLink:
    def test_okada_uplift_initializes_surface(self):
        xs = np.linspace(0, 100, 51)
        swe = ShallowWaterSolver(xs, xs, lambda X, Y: np.full_like(X, -5.0), boundary="wall")
        uplift = 0.4 * np.exp(-((swe.X - 50) ** 2 + (swe.Y - 50) ** 2) / 100.0)
        link_static_uplift(swe, uplift)
        assert np.isclose(swe.eta.max(), uplift.max(), rtol=1e-9)
        v0 = swe.volume()
        swe.run(1.0)
        assert abs(swe.volume() - v0) < 1e-9 * v0


class TestEndToEnd:
    def test_pulse_to_tsunami_pipeline(self):
        """A rising seafloor in the 3D model drives the SWE through the full
        tracker -> grid -> bed-motion pipeline."""
        s = surface_solver()

        def ic(x):
            out = np.zeros((len(x), 9))
            out[:, 8] = 0.2 * np.exp(-(((x[:, 0] - 1) ** 2 + (x[:, 1] - 1) ** 2) / 0.3))
            return out

        s.set_initial_condition(ic)
        tr = SurfaceDisplacementTracker(s)
        snapshots = [(0.0, tr.uz.copy())]
        for _ in range(6):
            s.step(0.02)
            tr(s)
            snapshots.append((s.t, tr.uz.copy()))
        assert tr.uz.max() > 0.001

        xs = np.linspace(0, 2, 21)
        swe = ShallowWaterSolver(xs, xs, lambda X, Y: np.full_like(X, -0.5), boundary="wall")
        times = np.array([t for t, _ in snapshots])
        grids = np.stack([tr.snapshot_grid(xs, xs, uz) for _, uz in snapshots])
        b0 = np.full((20, 20), -0.5)
        swe.set_bed_motion(BedMotionInterpolator(b0, times, grids))
        swe.run(times[-1])
        assert swe.eta.max() > 0.0005
