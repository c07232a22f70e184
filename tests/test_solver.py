"""Integration tests for the coupled ADER-DG solver (GTS driver)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.health import total_energy
from repro.core.materials import acoustic, elastic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from repro.mesh.generators import box_mesh, layered_ocean_mesh
from repro.sched import HookBus, Scheduler

from .conftest import l2_error, random_material
from .reference_kernels import energy_oracle

ROCK1 = elastic(1.0, 2.0, 1.0)


def periodic_box(nc, L=1.0, mat=ROCK1):
    xs = np.linspace(0, L, nc + 1)
    m = box_mesh(xs, xs, xs, [mat])
    for vec in np.eye(3):
        m.glue_periodic(vec * L)
    return m


def plane_p_wave(mat, L=1.0):
    k = 2 * np.pi / L
    cp = mat.cp
    r = np.array([mat.lam + 2 * mat.mu, mat.lam, mat.lam, 0, 0, 0, -cp, 0, 0])

    def exact(x, t):
        return r[None, :] * np.sin(k * (x[:, 0] - cp * t))[:, None]

    return exact


def plane_s_wave(mat, L=1.0):
    k = 2 * np.pi / L
    cs = mat.cs
    r = np.array([0, 0, 0, mat.mu, 0, 0, 0, -cs, 0])

    def exact(x, t):
        return r[None, :] * np.sin(k * (x[:, 0] - cs * t))[:, None]

    return exact


class TestConvergence:
    @pytest.mark.parametrize("order,expected", [(1, 2.0), (2, 3.0)])
    def test_p_wave_order_of_accuracy(self, order, expected):
        exact = plane_p_wave(ROCK1)
        errs = []
        for nc in (4, 8):
            m = periodic_box(nc)
            s = CoupledSolver(m, order=order)
            s.set_initial_condition(lambda x: exact(x, 0.0))
            T = 0.15 / ROCK1.cp
            n = int(np.ceil(T / s.dt))
            for _ in range(n):
                s.step(T / n)
            errs.append(l2_error(s, exact, s.t))
        rate = np.log2(errs[0] / errs[1])
        assert rate > expected - 0.45, (errs, rate)

    def test_s_wave_transport(self):
        exact = plane_s_wave(ROCK1)
        m = periodic_box(6)
        s = CoupledSolver(m, order=2)
        s.set_initial_condition(lambda x: exact(x, 0.0))
        T = 0.2 / ROCK1.cs
        n = int(np.ceil(T / s.dt))
        for _ in range(n):
            s.step(T / n)
        ref_norm = l2_error(s, lambda x, t: np.zeros((len(x), 9)), 0.0)
        assert l2_error(s, exact, s.t) < 0.08 * ref_norm

    def test_acoustic_plane_wave(self):
        wat = acoustic(1.0, 1.0)
        k = 2 * np.pi
        r = np.array([wat.lam, wat.lam, wat.lam, 0, 0, 0, -wat.cp, 0, 0])

        def exact(x, t):
            return r[None, :] * np.sin(k * (x[:, 0] - wat.cp * t))[:, None]

        m = periodic_box(6, mat=wat)
        s = CoupledSolver(m, order=2)
        s.set_initial_condition(lambda x: exact(x, 0.0))
        T = 0.2
        n = int(np.ceil(T / s.dt))
        for _ in range(n):
            s.step(T / n)
        ref_norm = l2_error(s, lambda x, t: np.zeros((len(x), 9)), 0.0)
        assert l2_error(s, exact, s.t) < 0.05 * ref_norm


class TestEnergy:
    def test_energy_non_increasing_closed_box(self):
        """Godunov fluxes dissipate: energy must never grow (free surface)."""
        m = box_mesh(*(np.linspace(0, 1000.0, 5),) * 3, [elastic(2700, 6000, 3464)])
        s = CoupledSolver(m, order=2)

        def ic(x):
            out = np.zeros((len(x), 9))
            r2 = ((x - 500.0) ** 2).sum(axis=1)
            out[:, 6:9] = np.exp(-r2 / (2 * 150.0**2))[:, None]
            return out

        s.set_initial_condition(ic)
        energies = [s.energy()]
        for _ in range(15):
            s.step()
            energies.append(s.energy())
        e = np.array(energies)
        assert (np.diff(e) <= 1e-10 * e[0]).all()
        assert e[-1] > 0.5 * e[0]  # but not wildly dissipative either

    def test_absorbing_boundary_drains_energy(self):
        m = box_mesh(*(np.linspace(0, 1000.0, 5),) * 3, [elastic(2700, 6000, 3464)])
        m.tag_boundary(lambda c, n: np.full(len(c), FaceKind.ABSORBING.value))
        s = CoupledSolver(m, order=2)

        def ic(x):
            out = np.zeros((len(x), 9))
            r2 = ((x - 500.0) ** 2).sum(axis=1)
            out[:, 8] = np.exp(-r2 / (2 * 120.0**2))
            return out

        s.set_initial_condition(ic)
        e0 = s.energy()
        # run long enough for the P wave to cross the box
        t_cross = 1500.0 / 6000.0
        n = int(np.ceil(t_cross / s.dt))
        for _ in range(n):
            s.step()
        assert s.energy() < 0.05 * e0

    def test_wall_keeps_energy_better_than_absorbing(self):
        def ic(x):
            out = np.zeros((len(x), 9))
            r2 = ((x - 500.0) ** 2).sum(axis=1)
            out[:, 8] = np.exp(-r2 / (2 * 120.0**2))
            return out

        energies = {}
        for kind in (FaceKind.WALL, FaceKind.ABSORBING):
            m = box_mesh(*(np.linspace(0, 1000.0, 5),) * 3, [elastic(2700, 6000, 3464)])
            m.tag_boundary(lambda c, n, k=kind: np.full(len(c), k.value))
            s = CoupledSolver(m, order=2)
            s.set_initial_condition(ic)
            e0 = s.energy()
            for _ in range(150):
                s.step()
            energies[kind] = s.energy() / e0
        assert energies[FaceKind.WALL] > 3 * energies[FaceKind.ABSORBING]
        assert energies[FaceKind.WALL] > 0.5


SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def three_material_mesh(mats):
    """Graded box, two elastic layers under an acoustic one: unequal
    ``detJ`` and every branch of the energy coefficient table."""
    xs = np.array([0.0, 300.0, 700.0, 1000.0])
    zs = np.array([-900.0, -600.0, -350.0, -150.0, 0.0])
    return box_mesh(
        xs, xs, zs, mats,
        material_id=lambda c: np.digitize(c[:, 2], [-600.0, -150.0]),
    )


def random_state(rng, shape):
    """Random modal state with stresses and velocities of comparable energy."""
    Q = rng.normal(size=shape)
    Q[..., :6] *= 1e6
    return Q


class TestEnergyQuadraticForm:
    """``CoupledSolver.energy`` is one contraction of ``Q`` against a cached
    per-element coefficient table; the per-material loop it replaced is
    the oracle (``tests/reference_kernels.py``)."""

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng(seed)
        mats = [random_material(rng, "elastic"), random_material(rng, "elastic"),
                random_material(rng, "acoustic")]
        return rng, mats

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_matches_oracle_before_and_after_renumbering(self, seed):
        rng, mats = self.draw(seed)
        s = CoupledSolver(three_material_mesh(mats), order=2)
        assert len(np.unique(s.mesh.material_ids)) == 3
        s.Q = random_state(rng, s.Q.shape)
        e = s.energy()
        assert e == pytest.approx(energy_oracle(s), rel=1e-12)

        # the table must follow the numbering the solver was built on
        perm = rng.permutation(s.mesh.n_elements)
        mesh = three_material_mesh(mats)
        mesh.renumber_elements(perm)
        r = CoupledSolver(mesh, order=2)
        r.Q = s.Q[perm]
        assert np.array_equal(r._energy_coeff, s._energy_coeff[perm])
        assert r.energy() == pytest.approx(energy_oracle(r), rel=1e-12)
        assert r.energy() == pytest.approx(e, rel=1e-12)

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_nonnegative_homogeneous_and_additive(self, seed):
        rng, mats = self.draw(seed)
        s = CoupledSolver(three_material_mesh(mats), order=1)
        Q = random_state(rng, s.Q.shape)

        def energy_of(state):
            s.Q = state
            return s.energy()

        e = energy_of(Q)
        assert e > 0.0 and energy_of(np.zeros_like(Q)) == 0.0
        a = float(rng.uniform(0.1, 10.0))
        assert energy_of(a * Q) == pytest.approx(a * a * e, rel=1e-13)
        # disjoint element supports: no cross terms between elements
        part = (rng.random(len(Q)) < 0.5)[:, None, None]
        e_in, e_out = energy_of(Q * part), energy_of(Q * ~part)
        assert e_in >= 0.0 and e_out >= 0.0
        assert e_in + e_out == pytest.approx(e, rel=1e-13)

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_definite_on_elastic_elements(self, seed):
        """``E(Q) = 0 <=> Q = 0`` wherever the compliance is positive
        definite (``cp^2 > 4 cs^2 / 3``, i.e. a positive bulk modulus)."""
        rng = np.random.default_rng(seed)
        mat = random_material(rng, "elastic")
        assert mat.cp**2 > 4.0 * mat.cs**2 / 3.0
        xs = np.linspace(0.0, 1000.0, 3)
        s = CoupledSolver(box_mesh(xs, xs, xs, [mat]), order=1)
        # the per-element form, as a 9 x 9 matrix, has only positive
        # eigenvalues on every element
        for c in s._energy_coeff:
            H = np.diag(c[:9])
            H[:3, :3] += c[9]
            assert np.linalg.eigvalsh(H).min() > 0.0
        # its softest direction is the hydrostatic one: e = p^2 / 2K
        p = float(rng.uniform(1e5, 1e7))
        s.set_initial_condition(
            lambda x: np.tile([p, p, p, 0, 0, 0, 0, 0, 0], (len(x), 1)))
        K = mat.lam + 2.0 * mat.mu / 3.0
        assert s.energy() == pytest.approx(
            p * p * s.mesh.volumes.sum() / (2.0 * K), rel=1e-12)

    def test_acoustic_form_is_only_semidefinite(self):
        """An inviscid fluid stores energy in pressure and motion only: a
        deviatoric stress state has none, so ``E = 0`` does not imply
        ``Q = 0`` there."""
        xs = np.linspace(0.0, 1000.0, 3)
        s = CoupledSolver(box_mesh(xs, xs, xs, [acoustic(1000.0, 1500.0)]), order=1)
        s.set_initial_condition(
            lambda x: np.tile([1e6, -1e6, 0, 3e5, 2e5, 1e5, 0, 0, 0], (len(x), 1)))
        assert s.Q.any() and s.energy() == pytest.approx(0.0, abs=1e-9)

    @given(SEEDS)
    @settings(max_examples=5, deadline=None)
    def test_total_energy_non_increasing_under_gravity_surface(self, seed):
        """Godunov fluxes dissipate (paper Sec. 4.2): on a closed passive
        elastic-over-acoustic box the volume energy plus the sea-surface
        potential never grows — while the volume energy alone does, fed
        by the initial sea-surface hump."""
        rng = np.random.default_rng(seed)
        xs = np.linspace(0.0, 2000.0, 4)
        mesh = layered_ocean_mesh(
            xs, xs,
            zs_earth=np.linspace(-1500.0, -500.0, 3),
            zs_ocean=np.linspace(-500.0, 0.0, 2),
            earth=random_material(rng, "elastic"),
            ocean=random_material(rng, "acoustic"),
        )
        mesh.tag_boundary(ocean_surface_gravity_tagger(mesh, lateral=FaceKind.WALL))
        s = CoupledSolver(mesh, order=2)
        pts = s.gravity.points
        r2 = (pts[..., 0] - 1000.0) ** 2 + (pts[..., 1] - 1000.0) ** 2
        s.gravity.eta[...] = np.exp(-r2 / (2 * 400.0**2))
        assert s.energy() == 0.0
        total = [total_energy(s)]
        for _ in range(10):
            s.step()
            total.append(total_energy(s))
        total = np.array(total)
        assert (np.diff(total) <= 1e-12 * total[0]).all()
        assert s.energy() > 0.0 and total[-1] > 0.99 * total[0]


class TestCoupledInterface:
    def test_acoustic_elastic_transmission(self):
        """A plane P pulse hitting the seafloor splits with the analytic
        normal-incidence reflection/transmission coefficients."""
        water = acoustic(1000.0, 1500.0)
        rock = elastic(2700.0, 6000.0, 3464.0)
        # 1D-like column: thin in x, y
        zs_e = np.linspace(-4000.0, -2000.0, 5)
        zs_o = np.linspace(-2000.0, 0.0, 5)
        xs = np.linspace(0, 500.0, 2)
        m = layered_ocean_mesh(xs, xs, zs_e, zs_o, rock, water)
        m.glue_periodic(np.array([500.0, 0, 0]))
        m.glue_periodic(np.array([0, 500.0, 0]))
        s = CoupledSolver(m, order=3)

        # downward-travelling acoustic pulse centred in the ocean
        z0, width = -800.0, 250.0
        amp = 1.0

        def ic(x):
            out = np.zeros((len(x), 9))
            pulse = amp * np.exp(-((x[:, 2] - z0) ** 2) / (2 * width**2))
            in_ocean = x[:, 2] > -2000.0
            p = np.where(in_ocean, pulse, 0.0)
            out[:, 0] = out[:, 1] = out[:, 2] = -p
            # downgoing wave: v_z = -p / Z_water
            out[:, 8] = np.where(in_ocean, -pulse / water.Zp, 0.0)
            return out

        s.set_initial_condition(ic)
        # propagate until pulse has crossed the interface
        t_end = (abs(z0 + 2000.0) + 600.0) / water.cp
        n = int(np.ceil(t_end / s.dt))
        for _ in range(n):
            s.step()

        # sample transmitted and reflected amplitudes
        T_v = 2 * water.Zp / (rock.Zp + water.Zp)  # velocity transmission
        probe_rock = s.evaluate(np.array([[250.0, 250.0, -2600.0]]))[0]
        vz_inc = -amp / water.Zp
        # transmitted velocity amplitude ~ T_v * incident velocity
        assert np.isclose(probe_rock[8], T_v * vz_inc, rtol=0.15)

    def test_shear_not_transmitted_to_ocean(self):
        """Shear stresses must stay (weakly) zero inside the acoustic layer."""
        water = acoustic(1000.0, 1500.0)
        rock = elastic(2700.0, 6000.0, 3464.0)
        xs = np.linspace(0, 2000.0, 4)
        m = layered_ocean_mesh(
            xs, xs, np.linspace(-3000.0, -1000.0, 4), np.linspace(-1000.0, 0.0, 3), rock, water
        )
        s = CoupledSolver(m, order=2)

        def ic(x):
            out = np.zeros((len(x), 9))
            r2 = ((x - np.array([1000, 1000, -2000.0])) ** 2).sum(axis=1)
            # SH disturbance strictly inside the rock (shear components in
            # the embedded acoustic layer are inert: mu = 0 freezes them)
            out[:, 3] = np.where(x[:, 2] < -1300.0, 1e3 * np.exp(-r2 / (2 * 300.0**2)), 0.0)
            return out

        s.set_initial_condition(ic)
        rock_shear0 = np.abs(s.Q[~m.is_acoustic_elem][:, :, 3:6]).max()
        for _ in range(40):
            s.step()
        ac = m.is_acoustic_elem
        shear = np.abs(s.Q[ac][:, :, 3:6]).max()
        assert shear < 1e-3 * rock_shear0


class TestPointSource:
    def test_ricker_source_radiates(self):
        rock = elastic(2700.0, 6000.0, 3464.0)
        m = box_mesh(*(np.linspace(0, 2000.0, 5),) * 3, [rock])
        m.tag_boundary(lambda c, n: np.full(len(c), FaceKind.ABSORBING.value))
        s = CoupledSolver(m, order=2)
        f0 = 5.0

        def ricker(t):
            a = (np.pi * f0 * (t - 0.25)) ** 2
            return (1 - 2 * a) * np.exp(-a)

        src = PointSource([1000.0, 1000.0, 1000.0], ricker, moment=[1e9] * 3 + [0, 0, 0])
        s.add_source(src)
        for _ in range(80):
            s.step()
        assert s.energy() > 0
        v = s.evaluate(np.array([[1400.0, 1000.0, 1000.0]]))[0]
        assert np.abs(v[6:9]).max() > 0

    def test_source_outside_mesh_rejected(self):
        rock = elastic(2700.0, 6000.0, 3464.0)
        m = box_mesh(*(np.linspace(0, 100.0, 3),) * 3, [rock])
        s = CoupledSolver(m, order=1)
        src = PointSource([500.0, 0, 0], lambda t: 1.0, force=[1, 0, 0])
        with pytest.raises(ValueError):
            s.add_source(src)

    def test_needs_amplitude(self):
        with pytest.raises(ValueError):
            PointSource([0, 0, 0], lambda t: 1.0)


class TestSolverAPI:
    def test_run_reaches_end_time(self):
        m = periodic_box(3)
        s = CoupledSolver(m, order=1)
        calls = []
        hooks = HookBus()
        hooks.on_sync(lambda sv: calls.append(sv.t))
        Scheduler(s).run(10 * s.dt + 0.3 * s.dt, hooks=hooks)
        assert np.isclose(s.t, 10.3 * s.dt, rtol=1e-10)
        assert len(calls) == 11

    def test_tagger_helper(self):
        water = acoustic(1000.0, 1500.0)
        rock = elastic(2700.0, 6000.0, 3464.0)
        xs = np.linspace(0, 1000.0, 3)
        m = layered_ocean_mesh(
            xs, xs, np.linspace(-1500.0, -500.0, 3), np.linspace(-500.0, 0.0, 2), rock, water
        )
        m.tag_boundary(ocean_surface_gravity_tagger(m))
        top = m.boundary.normal[:, 2] > 0.99
        assert (m.boundary.kind[top] == FaceKind.GRAVITY_FREE_SURFACE.value).all()
        assert (m.boundary.kind[~top] == FaceKind.ABSORBING.value).all()

    def test_evaluate_roundtrip(self):
        m = periodic_box(3)
        s = CoupledSolver(m, order=2)
        g = np.array([1.0, -2.0, 0.5])

        def ic(x):
            out = np.zeros((len(x), 9))
            out[:, 7] = x @ g
            return out

        s.set_initial_condition(ic)
        pts = np.array([[0.3, 0.4, 0.5], [0.9, 0.1, 0.2]])
        vals = s.evaluate(pts)
        assert np.allclose(vals[:, 7], pts @ g, atol=1e-10)
        assert np.allclose(vals[:, [0, 1, 2, 3, 4, 5, 6, 8]], 0.0, atol=1e-10)


class TestStateView:
    """The kernels step ``solver.dofs``, the quantity-major ``(ne, 9, B)``
    state; ``solver.Q`` is its ``(ne, B, 9)`` transposed view, what
    checkpoints, digests, diagnostics and fault injection read and write."""

    @staticmethod
    def solver(seed=0):
        s = CoupledSolver(periodic_box(2), order=2)
        s.Q = random_state(np.random.default_rng(seed), s.Q.shape)
        return s

    def test_q_is_a_view_of_dofs(self):
        s = self.solver()
        ne, nb = s.mesh.n_elements, s.op.nbasis
        assert s.dofs.shape == (ne, 9, nb) and s.dofs.flags.c_contiguous
        assert s.Q.shape == (ne, nb, 9)
        assert np.shares_memory(s.Q, s.dofs)
        np.testing.assert_array_equal(s.Q, s.dofs.transpose(0, 2, 1))

    def test_injected_nan_through_q_is_caught(self):
        """A ``FaultInjector`` writes through ``solver.Q.flat``: the NaN
        lands in ``solver.dofs`` and the watchdog's state check fails."""
        from repro.core.health import Watchdog
        from repro.core.health.inject import FaultInjector

        s = self.solver()
        watchdog = Watchdog(s)
        assert watchdog.check().ok
        index = 2 * s.Q[0].size + 13
        FaultInjector().corrupt_state(0, index=index).on_step(s, 0)
        e, b, n = np.unravel_index(index, s.Q.shape)
        assert np.isnan(s.dofs[e, n, b]) and np.isnan(s.dofs).sum() == 1
        report = watchdog.check()
        assert not report.ok and report.checks["state"]

    def test_assignment_copies(self):
        s = self.solver()
        dofs = s.dofs
        X = random_state(np.random.default_rng(1), s.Q.shape)
        s.Q = X
        assert s.dofs is dofs
        np.testing.assert_array_equal(s.Q, X)
        X[:] = 0.0
        assert np.abs(s.dofs).max() > 0.0
        with pytest.raises(ValueError, match="shape"):
            s.Q = X[:, :, :8]

    def test_checkpoint_keeps_its_shapes_and_round_trips(self, tmp_path):
        from repro.ensemble.worker import state_digest
        from repro.io.checkpoint import (
            capture_state,
            restore_checkpoint,
            save_checkpoint,
        )

        s = self.solver()
        Scheduler(s).run(3 * s.dt)
        state = capture_state(s)
        assert state["Q"].shape == (s.mesh.n_elements, s.op.nbasis, 9)
        assert state["Q"].flags.c_contiguous
        path = save_checkpoint(str(tmp_path / "ckpt.npz"), s)
        r = self.solver(seed=7)
        restore_checkpoint(path, r)
        assert np.array_equal(r.dofs, s.dofs) and r.t == s.t
        assert state_digest(r) == state_digest(s)
