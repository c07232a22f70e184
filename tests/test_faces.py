"""The compiled face modules (:mod:`repro.kernels.faces`).

Gravity, dynamic-rupture and prescribed-motion steps run as ``FacePlan``
chains of batched GEMMs.  Two kinds of truth pin them:

* **oracle** — the per-step quadrature-form code they replaced
  (``tests/reference_kernels.py``), to floating-point reassociation
  (<= 1e-12 relative) at orders 1-3, with the oracle integrating the
  face ODE exactly or with stepped RK4;
* **subset independence** — a masked step writes, bitwise, the residual
  rows and the state the full step writes for the same faces (a
  Hypothesis property over random masks), which is what serial ==
  partitioned == any LTS clustering rests on; one digest case runs
  {serial, partitioned} x {GTS, LTS} with all three face kinds present.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gravity import _PROPAGATOR_CACHE_MAX
from repro.core.lts import LocalTimeStepping, cluster_major
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver, ocean_surface_gravity_tagger
from repro.ensemble.worker import state_digest
from repro.kernels.faces import FacePlan
from repro.rupture.fault import FaultSolver, Prestress
from repro.rupture.friction import (
    LinearSlipWeakening,
    RateStateFastVelocityWeakening,
)
from repro.sched import Scheduler

from .conftest import ocean_box_mesh
from .reference_kernels import (
    fault_step_oracle,
    gravity_step_oracle,
    motion_step_oracle,
)

RTOL = 1e-12


def bottom_motion(pts, t):
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    return 1e-2 * np.sin(2 * np.pi * (t + 0.01) / 0.4) * np.exp(-r2 / 1000.0**2)


def build_all_faces(order=2, friction="lsw", backend="serial", workers=None,
                    sort=True):
    """Rupturing fault under a gravity-topped ocean over a moving bottom:
    gravity, fault and prescribed-motion faces on one cluster-major mesh
    (``sort=False``: the mesh as generated, clusters interleaved)."""
    xs = np.array([-1500.0, -750.0, 0.0, 750.0, 1500.0])
    mesh = ocean_box_mesh(xs, -3000.0, -1000.0)
    assert mesh.mark_fault(
        lambda c, nrm: (np.abs(nrm[:, 0]) > 0.99)
        & (np.abs(c[:, 0]) < 1e-6)
        & (c[:, 2] < -1000.0)
    ) > 0
    surface = ocean_surface_gravity_tagger(mesh)

    def tagger(cent, nrm):
        tags = surface(cent, nrm)
        tags[nrm[:, 2] < -0.99] = FaceKind.PRESCRIBED_MOTION.value
        return tags

    mesh.tag_boundary(tagger)
    if friction == "lsw":
        law = LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.05)
        prestress = Prestress(sigma_n=-120e6, tau_s=81.6e6)
    else:
        law = RateStateFastVelocityWeakening(
            a=0.01, b=0.014, L=0.2, Vw=0.1, fw=0.2, f0=0.6)
        prestress = Prestress(sigma_n=-120e6, tau_s=45e6, nucleation_s=45e6)
    if sort:
        cluster_major(mesh, order)
    return CoupledSolver(
        mesh, order=order, fault=FaultSolver(law, prestress),
        bottom_motion=bottom_motion, backend=backend, workers=workers)


def excite(solver, seed=0):
    """A random wavefield of physical magnitudes (stress 1e5 Pa against
    velocities of cm/s), a random sea surface and the matching predictor."""
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=solver.Q.shape)
    Q[:, :, :6] *= 1e5
    Q[:, :, 6:] *= 1e-2
    solver.Q[:] = Q
    solver.gravity.eta[:] = 1e-2 * rng.normal(size=solver.gravity.eta.shape)
    # the face modules read the predictor as the backends hand it to them
    return solver.backend.predict(solver.dofs).transpose(0, 1, 3, 2)


def residual(solver):
    """A zero residual in the ``(ne, B, 9)`` layout the face modules
    write (the backends pass them a view of the kernels' residual)."""
    return np.zeros(solver.Q.shape)


def fault_state(fault):
    return np.stack([getattr(fault, name) for name in fault.STATE_FIELDS])


def assert_close(a, b, what):
    """Equal to RTOL of the oracle's largest entry (and the same entries
    non-finite: rupture times are inf until the front arrives)."""
    finite = np.isfinite(b)
    np.testing.assert_array_equal(np.isfinite(a), finite, err_msg=what)
    np.testing.assert_allclose(a[finite], b[finite], rtol=0.0,
                               atol=RTOL * np.abs(b[finite]).max(),
                               err_msg=what)


# ----------------------------------------------------------------------
# compiled == quadrature-form oracle
# ----------------------------------------------------------------------
class TestOracle:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("integrator", ["exact", "rk4"])
    # one value, unused by the body: it only keeps the test ids
    # (``middle-*``) stable now that the middle state v_n^b is the one
    # eta velocity
    @pytest.mark.parametrize("eta_velocity", ["middle"])
    def test_gravity(self, order, integrator, eta_velocity):
        """The compiled exact step against the oracle integrating the same
        face ODE exactly or with four RK4 steps (whose truncation error on
        one CFL step is below RTOL too)."""
        s = build_all_faces(order)
        derivs = excite(s)
        gb = s.gravity
        eta0 = gb.eta.copy()
        want, got = residual(s), residual(s)
        gravity_step_oracle(gb, derivs, s.dt, want, integrator=integrator)
        eta_want = gb.eta.copy()
        gb.eta[:] = eta0
        gb.step(derivs, s.dt, got)
        assert np.abs(want).max() > 0.0
        assert_close(got, want, "gravity residual")
        assert_close(gb.eta - eta0, eta_want - eta0, "eta increment")

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("friction", ["lsw", "rate_state"])
    def test_fault(self, order, friction):
        s = build_all_faces(order, friction=friction)
        derivs = excite(s)
        fault = s.fault
        start = fault.state_dict()
        want, got = residual(s), residual(s)
        fault_step_oracle(fault, derivs, s.dt, want, t0=0.3)
        state_want = fault_state(fault)
        fault.load_state(start)
        fault.step(derivs, s.dt, got, t0=0.3)
        assert fault.slip_rate.max() > fault.rupture_threshold
        assert np.isfinite(fault.rupture_time).any()
        assert_close(got, want, "fault residual")
        for name, a, b in zip(fault.STATE_FIELDS, fault_state(fault), state_want):
            assert_close(a, b, f"fault state {name}")

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_motion(self, order):
        s = build_all_faces(order)
        derivs = excite(s)
        mb = s.motion
        want, got = residual(s), residual(s)
        motion_step_oracle(mb, derivs, s.dt, want, t0=0.05)
        uplift_want = mb.uplift.copy()
        mb.uplift[:] = 0.0
        mb.step(derivs, s.dt, got, t0=0.05)
        assert np.abs(uplift_want).max() > 0.0
        assert_close(got, want, "motion residual")
        assert_close(mb.uplift, uplift_want, "uplift")


# ----------------------------------------------------------------------
# subset independence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rig():
    s = build_all_faces(2)
    return s, excite(s)


def random_mask(rng, n):
    mask = rng.random(n) < rng.uniform(0.1, 0.9)
    mask[rng.integers(n)] = True
    return mask


class TestMaskedSubsets:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_gravity_masked_equals_full(self, rig, seed):
        s, derivs = rig
        gb = s.gravity
        mask = random_mask(np.random.default_rng(seed), len(gb))
        eta0 = gb.eta.copy()
        full, part = residual(s), residual(s)
        gb.step(derivs, s.dt, full)
        eta_full = gb.eta.copy()
        gb.eta[:] = eta0
        gb.step(derivs, s.dt, part, plan=gb.plan.select(mask))
        eta_part = gb.eta.copy()
        gb.eta[:] = eta0
        np.testing.assert_array_equal(part[gb.elem[mask]], full[gb.elem[mask]])
        np.testing.assert_array_equal(eta_part[mask], eta_full[mask])
        np.testing.assert_array_equal(eta_part[~mask], eta0[~mask])
        untouched = np.ones(len(part), dtype=bool)
        untouched[gb.elem[mask]] = False
        assert not part[untouched].any()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_motion_masked_equals_full(self, rig, seed):
        s, derivs = rig
        mb = s.motion
        mask = random_mask(np.random.default_rng(seed), len(mb))
        full, part = residual(s), residual(s)
        mb.uplift[:] = 0.0
        mb.step(derivs, s.dt, full, t0=0.05)
        uplift_full = mb.uplift.copy()
        mb.uplift[:] = 0.0
        mb.step(derivs, s.dt, part, t0=0.05, plan=mb.plan.select(mask))
        np.testing.assert_array_equal(part[mb.elem[mask]], full[mb.elem[mask]])
        np.testing.assert_array_equal(mb.uplift[mask], uplift_full[mask])
        assert not mb.uplift[~mask].any()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fault_masked_equals_full(self, rig, seed):
        s, derivs = rig
        fault = s.fault
        picked = random_mask(np.random.default_rng(seed), len(fault))
        active = np.zeros(s.mesh.n_elements, dtype=bool)
        active[fault.em[picked]] = True
        mask = active[fault.em]  # the faces `select` derives from `active`
        start = fault.state_dict()
        full, part = residual(s), residual(s)
        fault.step(derivs, s.dt, full, t0=0.3)
        state_full = fault_state(fault)
        fault.load_state(start)
        fault.step(derivs, s.dt, part, sides=fault.select(active), t0=0.3)
        state_part = fault_state(fault)
        fault.load_state(start)
        rows = np.concatenate([fault.em[mask], fault.ep[mask]])
        np.testing.assert_array_equal(part[rows], full[rows])
        np.testing.assert_array_equal(state_part[:, mask], state_full[:, mask])
        np.testing.assert_array_equal(state_part[:, ~mask],
                                      fault_state(fault)[:, ~mask])

    def test_digests_serial_partitioned_gts_lts(self):
        """Serial == partitioned, bitwise, under GTS and under clustered
        LTS, with gravity, fault and prescribed-motion faces all present."""
        digests = {}
        for backend, workers in (("serial", None), ("partitioned", 2)):
            for mode in ("gts", "lts"):
                s = build_all_faces(1, backend=backend, workers=workers)
                lts = LocalTimeStepping(s) if mode == "lts" else None
                Scheduler(s, lts).run(0.12)
                assert s.fault.slip.max() > 0.0
                assert np.abs(s.gravity.eta).max() > 0.0
                assert np.abs(s.motion.uplift).max() > 0.0
                digests[backend, mode] = state_digest(s, lts)
                s.backend.close()
        assert digests["partitioned", "gts"] == digests["serial", "gts"]
        assert digests["partitioned", "lts"] == digests["serial", "lts"]

    def test_concurrent_masked_steps(self, rig):
        """Partition workers step disjoint face sets of one boundary at the
        same time (sub-plans built once and shared by every repetition,
        one propagator cache, no lock on the plan): more threads than
        cores, a shortened switch interval, same bits as one sweep."""
        import sys

        s, derivs = rig
        gb = s.gravity
        eta0 = gb.eta.copy()
        want = residual(s)
        gb.step(derivs, s.dt, want)
        eta_want = gb.eta.copy()
        n_threads = 8
        owner = np.arange(len(gb)) % n_threads
        subs = [gb.plan.select(owner == k) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                gb.eta[:] = eta0
                gb._propagators.clear()
                got = residual(s)
                threads = [
                    threading.Thread(
                        target=gb.step, args=(derivs, s.dt, got),
                        kwargs={"plan": subs[k]})
                    for k in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(gb.eta, eta_want)
        finally:
            sys.setswitchinterval(interval)
            gb.eta[:] = eta0


# ----------------------------------------------------------------------
# the plan itself
# ----------------------------------------------------------------------
class TestFacePlan:
    def test_groups_partition_the_faces(self, rig):
        s, _ = rig
        for plan in (s.gravity.plan, s.motion.plan, *s.fault._sides):
            rows = np.concatenate(
                [np.arange(plan.n)[g.rows] for g in plan.groups])
            assert sorted(rows) == list(range(plan.n))
            for g in plan.groups:
                assert len(np.unique(g.elem)) == len(g.elem)

    def test_select_picks_the_masked_faces(self, rig):
        s, _ = rig
        plan = s.gravity.plan
        mask = np.arange(plan.n) % 3 == 0
        sub = plan.select(mask)
        assert sub.n == mask.sum()
        np.testing.assert_array_equal(np.arange(plan.n)[sub.idx],
                                      np.flatnonzero(mask))
        assert plan.select(np.zeros(plan.n, dtype=bool)).groups == []

    def test_factor_names_may_not_shadow_group_attributes(self, rig):
        s, _ = rig
        bnd = s.mesh.boundary
        with pytest.raises(ValueError, match="trace"):
            FacePlan.minus(s.op.ref, bnd.elem, bnd.face,
                           trace=np.zeros(len(bnd)))


# ----------------------------------------------------------------------
# per-step caches stay bounded
# ----------------------------------------------------------------------
class TestBoundedCaches:
    def test_propagator_cache_is_lru_bounded(self, rig):
        s, derivs = rig
        gb = s.gravity
        eta0 = gb.eta.copy()
        out = residual(s)
        for k in range(_PROPAGATOR_CACHE_MAX + 10):
            gb.step(derivs, s.dt * (1.0 - 1e-3 * k), out)
        assert len(gb._propagators) == _PROPAGATOR_CACHE_MAX
        # the nominal dt (first in, long evicted) comes back; the newest stay
        gb.step(derivs, s.dt, out)
        assert (float(s.dt), derivs.shape[1]) in gb._propagators
        assert len(gb._propagators) == _PROPAGATOR_CACHE_MAX
        gb.eta[:] = eta0

    def test_newton_load_is_a_constant_size_summary(self):
        s = build_all_faces(1, friction="rate_state")
        derivs = excite(s)
        fault = s.fault
        out = residual(s)
        for _ in range(4):
            fault.step(derivs, s.dt, out)
        load = fault.newton
        assert load.count == 4 * fault.n_time_nodes
        assert 1 <= load.last <= load.max
        assert load.total >= load.count
        assert load.mean == pytest.approx(load.total / load.count)
        fault.load_state(fault.state_dict())
        assert fault.newton.count == 0
