"""Tests of the gravitational free-surface boundary condition (Sec. 4.3).

The headline test measures the frequency of a standing surface gravity wave
in a compressible ocean box and compares against the *exact* dispersion
relation of the continuous model

    ``omega^2 = c^2 (k^2 - kappa^2) = g kappa tanh(kappa h)``

which includes the compressibility correction — this validates both the
eta-ODE integration and the acoustic volume solver at once.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.core.materials import acoustic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.mesh.generators import box_mesh

from .reference_kernels import gravity_step_oracle


def gravity_box(h=1.0, L=4.0, c=15.0, rho=1000.0, nx=8, nz=4, order=2):
    oc = acoustic(rho, c)
    m = box_mesh(
        np.linspace(0, L, nx + 1), np.linspace(0, 0.5, 2), np.linspace(-h, 0, nz + 1), [oc]
    )
    m.glue_periodic(np.array([L, 0, 0]))
    m.glue_periodic(np.array([0, 0.5, 0]))

    def tagger(cent, nrm):
        tags = np.full(len(cent), FaceKind.WALL.value)
        tags[nrm[:, 2] > 0.99] = FaceKind.GRAVITY_FREE_SURFACE.value
        return tags

    m.tag_boundary(tagger)
    return CoupledSolver(m, order=order)


def rk4_step(gb):
    """A ``GravityBoundary.step`` that integrates the face ODE with the
    oracle's stepped RK4 (every face steps: GTS runs only)."""

    def step(derivs, dt, out, plan=None):
        assert plan is None
        # the oracle reads the predictor in the modules' (B, 9) layout
        gravity_step_oracle(gb, derivs.transpose(0, 1, 3, 2), dt, out,
                            integrator="rk4")

    return step


def exact_gravity_mode(h, L, c, g=9.81):
    k = 2 * np.pi / L
    def f(kap):
        return c**2 * (k**2 - kap**2) - g * kap * np.tanh(kap * h)

    kap = brentq(f, 1e-9, k * (1 - 1e-12))
    return k, kap, np.sqrt(g * kap * np.tanh(kap * h))


def seed_mode(solver, h, L, c, rho=1000.0, A=1e-3, g=9.81):
    k, kap, omega = exact_gravity_mode(h, L, c, g)

    def ic(x):
        out = np.zeros((len(x), 9))
        p = A * np.cosh(kap * (x[:, 2] + h)) * np.cos(k * x[:, 0])
        out[:, 0] = out[:, 1] = out[:, 2] = -p
        return out

    solver.set_initial_condition(ic)
    gb = solver.gravity
    gb.eta[:] = A * np.cosh(kap * h) * np.cos(k * gb.points[:, :, 0]) / (rho * g)
    return omega


class TestGravityDispersion:
    @pytest.mark.slow
    def test_standing_wave_frequency(self):
        h, L, c = 1.0, 4.0, 15.0
        s = gravity_box(h, L, c)
        omega = seed_mode(s, h, L, c)
        assert len(s.gravity) > 0

        T = 2 * np.pi / omega
        ts, etas = [], []
        probe = np.array([[0.05, 0.25]])
        nsteps = int(0.75 * T / s.dt)
        for i in range(nsteps):
            s.step()
            if i % 4 == 0:
                ts.append(s.t)
                etas.append(s.gravity.sample(probe)[0])
        from scipy.optimize import curve_fit

        ts, etas = np.array(ts), np.array(etas)
        popt, _ = curve_fit(
            lambda t, Af, w, ph: Af * np.cos(w * t + ph), ts, etas, p0=[etas[0], omega, 0.0]
        )
        assert abs(abs(popt[1]) - omega) / omega < 0.01
        # standing wave: amplitude preserved to a few percent
        assert abs(popt[0]) / abs(etas[0]) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "h, L, regime",
        [(1.0, 20.0, "shallow"), (1.0, 4.0, "intermediate"), (3.0, 4.0, "deep")],
    )
    def test_dispersion_relation_across_depths(self, h, L, regime):
        """``omega^2 = c^2 (k^2 - kappa^2) = g kappa tanh(kappa h)`` from
        shallow to deep water on the 4 x 2 box: the frequency of the
        ``cos(k x)`` component of eta over half a period, within 1 %."""
        c = 15.0
        s = gravity_box(h, L, c, nx=4, nz=2)
        omega = seed_mode(s, h, L, c)
        k, kap, _ = exact_gravity_mode(h, L, c)
        lo, hi = {"shallow": (0.0, 0.5), "intermediate": (0.5, 3.0),
                  "deep": (3.0, np.inf)}[regime]
        assert lo < kap * h < hi
        gb = s.gravity
        mode = np.cos(k * gb.points[:, :, 0])
        mode /= (mode**2).sum()
        ts, amps = [], []
        for _ in range(int(0.5 * (2 * np.pi / omega) / s.dt)):
            s.step()
            ts.append(s.t)
            amps.append((gb.eta * mode).sum())
        from scipy.optimize import curve_fit

        popt, _ = curve_fit(
            lambda t, Af, w, ph: Af * np.cos(w * t + ph), np.array(ts),
            np.array(amps), p0=[amps[0], omega, 0.0]
        )
        assert abs(abs(popt[1]) - omega) / omega < 0.01
        assert abs(popt[0]) / abs(amps[0]) == pytest.approx(1.0, abs=0.05)

    def test_rk4_matches_exact_integrator(self):
        """The exact face-ODE propagator and the oracle's stepped RK4 give
        the same trajectory."""
        h, L, c = 1.0, 4.0, 15.0
        states = {}
        for integ in ("exact", "rk4"):
            s = gravity_box(h, L, c, nx=4, nz=2, order=2)
            if integ == "rk4":
                s.gravity.step = rk4_step(s.gravity)
            seed_mode(s, h, L, c)
            for _ in range(30):
                s.step()
            states[integ] = (s.Q.copy(), s.gravity.eta.copy())
        dq = np.abs(states["exact"][0] - states["rk4"][0]).max()
        deta = np.abs(states["exact"][1] - states["rk4"][1]).max()
        assert dq < 1e-8 * max(np.abs(states["exact"][0]).max(), 1e-30)
        assert deta < 1e-8 * np.abs(states["exact"][1]).max()


class TestGravityMechanics:
    def test_flat_surface_at_rest_stays(self):
        """Lake at rest: zero perturbation state is preserved exactly."""
        s = gravity_box(nx=4, nz=2)
        for _ in range(20):
            s.step()
        assert np.abs(s.Q).max() < 1e-12
        assert np.abs(s.gravity.eta).max() < 1e-12

    def test_eta_tracks_uplift(self):
        """A steady upward velocity field lifts eta at the right rate."""
        s = gravity_box(nx=4, nz=2, c=100.0)
        v0 = 1e-4

        def ic(x):
            out = np.zeros((len(x), 9))
            out[:, 8] = v0
            return out

        s.set_initial_condition(ic)
        n = 5
        for _ in range(n):
            s.step()
        # early times: deta/dt ~ v0 (gravity feedback still negligible)
        expect = v0 * s.t
        assert np.allclose(s.gravity.eta, expect, rtol=0.05)

    def test_restoring_force_direction(self):
        """A static bump in eta must accelerate the surface downwards."""
        s = gravity_box(nx=8, nz=2, c=50.0)
        gb = s.gravity
        k = 2 * np.pi / 4.0
        gb.eta[:] = 1e-3 * np.cos(k * gb.points[:, :, 0])
        eta0 = gb.eta.copy()
        for _ in range(10):
            s.step()
        # crest (cos=1) must come down, trough must come up
        crest = np.cos(k * gb.points[:, :, 0]) > 0.9
        trough = np.cos(k * gb.points[:, :, 0]) < -0.9
        assert (gb.eta[crest] < eta0[crest]).all()
        assert (gb.eta[trough] > eta0[trough]).all()

    def test_rejects_gravity_on_elastic(self):
        from repro.core.materials import elastic

        rock = elastic(2700.0, 6000.0, 3464.0)
        m = box_mesh(
            np.linspace(0, 4, 3), np.linspace(0, 4, 3), np.linspace(-1, 0, 2), [rock]
        )

        def tagger(cent, nrm):
            tags = np.full(len(cent), FaceKind.WALL.value)
            tags[nrm[:, 2] > 0.99] = FaceKind.GRAVITY_FREE_SURFACE.value
            return tags

        m.tag_boundary(tagger)
        with pytest.raises(ValueError):
            CoupledSolver(m, order=1)

    def test_surface_height_output(self):
        s = gravity_box(nx=4, nz=2)
        xy, eta = s.gravity.surface_height()
        assert xy.shape == (len(s.gravity), 2)
        assert eta.shape == (len(s.gravity),)
