"""Integration tests for the dynamic-rupture fault solver."""

import numpy as np
import pytest

from repro.core.materials import elastic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.mesh.generators import box_mesh
from repro.rupture.fault import FaultSolver, Prestress
from repro.rupture.friction import LinearSlipWeakening, RateStateFastVelocityWeakening

from .conftest import ocean_box_mesh

ROCK = elastic(2670.0, 6000.0, 3464.0)


def fault_box(L=6000.0, nc=8, absorbing=True):
    xs = np.linspace(-L / 2, L / 2, nc + 1)
    m = box_mesh(xs, xs, xs, [ROCK])
    n = m.mark_fault(lambda c, nrm: (np.abs(nrm[:, 0]) > 0.99) & (np.abs(c[:, 0]) < 1e-6))
    assert n > 0
    if absorbing:
        m.tag_boundary(lambda c, nr: np.full(len(c), FaceKind.ABSORBING.value))
    return m


class TestLockedFault:
    def test_stays_locked_below_strength(self):
        """Stress below static strength: nothing happens, exactly."""
        fr = LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.4)
        fault = FaultSolver(fr, Prestress(sigma_n=-120e6, tau_s=20e6))
        s = CoupledSolver(fault_box(nc=4), order=2, fault=fault)
        for _ in range(15):
            s.step()
        assert fault.peak_slip_rate.max() == 0.0
        assert np.abs(s.Q).max() < 1e-10

    def test_locked_fault_transmits_waves_like_welded(self):
        """A wave crossing a locked fault behaves as if no fault existed."""

        def ic(x):
            out = np.zeros((len(x), 9))
            pulse = np.exp(-((x[:, 0] + 1500.0) ** 2) / (2 * 400.0**2))
            out[:, 0] = 1e5 * pulse  # weak P pulse, far below strength change
            out[:, 6] = -1e5 / ROCK.Zp * pulse
            return out

        fr = LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.4)
        fault = FaultSolver(fr, Prestress(sigma_n=-120e6, tau_s=20e6))
        s_fault = CoupledSolver(fault_box(), order=2, fault=fault)
        s_fault.set_initial_condition(ic)

        m_plain = fault_box()
        m_plain.interior.is_fault[:] = False
        s_plain = CoupledSolver(m_plain, order=2)
        s_plain.set_initial_condition(ic)

        for _ in range(40):
            s_fault.step()
            s_plain.step()
        scale = np.abs(s_plain.Q).max()
        assert np.abs(s_fault.Q - s_plain.Q).max() < 1e-6 * scale
        assert fault.peak_slip_rate.max() == 0.0


class TestSpontaneousRupture:
    def run_lsw(self, steps=150):
        def tau_s(x):
            r = np.sqrt(x[:, 1] ** 2 + x[:, 2] ** 2)
            return np.where(r < 1200.0, 85e6, 72e6)

        fr = LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.05)
        fault = FaultSolver(fr, Prestress(sigma_n=-120e6, tau_s=tau_s))
        s = CoupledSolver(fault_box(), order=2, fault=fault)
        for _ in range(steps):
            s.step()
        return s, fault

    def test_rupture_nucleates_and_propagates(self):
        s, fault = self.run_lsw()
        assert fault.peak_slip_rate.max() > 1.0
        assert 0.1 < fault.ruptured_fraction() <= 1.0
        # rupture front expands: points farther from the hypocenter break later
        r = np.sqrt(fault.points[:, :, 1] ** 2 + fault.points[:, :, 2] ** 2)
        rt = fault.rupture_time
        fin = np.isfinite(rt)
        near = rt[fin & (r < 800)]
        far = rt[fin & (r > 2000)]
        assert near.size and far.size
        assert np.median(near) < np.median(far)

    def test_rupture_speed_below_p_wave(self):
        s, fault = self.run_lsw()
        # measure front speed outside the (instantly broken) nucleation
        # patch, relative to the patch edge
        r = np.sqrt(fault.points[:, :, 1] ** 2 + fault.points[:, :, 2] ** 2)
        rt = fault.rupture_time
        fin = np.isfinite(rt) & (rt > 0.05) & (r > 1500.0)
        assert fin.any()
        speed = (r[fin] - 1200.0) / rt[fin]
        assert speed.max() < ROCK.cp * 1.05

    def test_moment_magnitude_grows(self):
        def tau_s(x):
            r = np.sqrt(x[:, 1] ** 2 + x[:, 2] ** 2)
            return np.where(r < 1200.0, 85e6, 72e6)

        fr = LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.05)
        fault = FaultSolver(fr, Prestress(sigma_n=-120e6, tau_s=tau_s))
        s = CoupledSolver(fault_box(), order=2, fault=fault)
        mags = []
        for _ in range(3):
            for _ in range(30):
                s.step()
            mags.append(fault.moment_magnitude())
        assert mags[0] < mags[1] < mags[2]

    def test_slip_direction_follows_prestress(self):
        """Shear prestress along s only: slip stays along s."""
        s, fault = self.run_lsw(steps=80)
        slipped = fault.slip > 0.01
        assert slipped.any()
        assert np.abs(fault.slip_t[slipped]).max() < 0.05 * np.abs(fault.slip_s[slipped]).max()

    def test_radiates_seismic_waves(self):
        s, fault = self.run_lsw(steps=100)
        v = s.evaluate(np.array([[1500.0, 0.0, 0.0]]))[0]
        assert np.abs(v[6:9]).max() > 1e-3


class TestRateStateRupture:
    def test_nucleates_with_overstress(self):
        fr = RateStateFastVelocityWeakening(a=0.01, b=0.014, L=0.2, Vw=0.1, fw=0.2, f0=0.6)

        def nuc(x):
            r = np.sqrt(x[:, 1] ** 2 + x[:, 2] ** 2)
            return np.where(r < 1200.0, 45e6, 0.0)

        fault = FaultSolver(
            fr, Prestress(sigma_n=-120e6, tau_s=45e6, nucleation_s=nuc)
        )
        s = CoupledSolver(fault_box(nc=8), order=2, fault=fault)
        for _ in range(100):
            s.step()
        assert fault.peak_slip_rate.max() > 1.0
        assert fault.slip.max() > 0.1
        # the Sec. 5.3 load signal: one sample per time node, O(1) memory
        load = fault.newton
        assert load.count == 100 * fault.n_time_nodes
        assert 1 <= load.last <= load.max and load.total >= load.count

    def test_no_overstress_stays_creeping(self):
        fr = RateStateFastVelocityWeakening(a=0.01, b=0.014, L=0.2, Vw=0.1, fw=0.2, f0=0.6)
        fault = FaultSolver(fr, Prestress(sigma_n=-120e6, tau_s=45e6))
        s = CoupledSolver(fault_box(nc=4), order=1, fault=fault)
        for _ in range(20):
            s.step()
        assert fault.peak_slip_rate.max() < 1e-10


class TestFaultAPI:
    def test_requires_marked_fault(self):
        m = fault_box(nc=4)
        m.interior.is_fault[:] = False
        fr = LinearSlipWeakening(mu_s=0.6, mu_d=0.3, d_c=0.4)
        with pytest.raises(ValueError):
            CoupledSolver(m, order=1, fault=FaultSolver(fr, Prestress()))

    def test_rejects_acoustic_side(self):
        m = ocean_box_mesh(np.linspace(0, 2000.0, 3), -2000.0, -500.0, earth=ROCK)
        # mark the ocean-bottom interface as "fault"
        m.mark_fault(lambda c, n: (np.abs(n[:, 2]) > 0.99) & (np.abs(c[:, 2] + 500.0) < 1.0))
        fr = LinearSlipWeakening(mu_s=0.6, mu_d=0.3, d_c=0.4)
        with pytest.raises(ValueError):
            CoupledSolver(m, order=1, fault=FaultSolver(fr, Prestress()))

    def test_step_before_bind_raises(self):
        fr = LinearSlipWeakening(mu_s=0.6, mu_d=0.3, d_c=0.4)
        fault = FaultSolver(fr, Prestress())
        with pytest.raises(RuntimeError):
            fault.step(None, 0.1, None)

    def test_prestress_callable_and_scalar(self):
        p = Prestress(sigma_n=lambda x: -100e6 + x[:, 2], tau_s=30e6)
        pts = np.zeros((2, 3, 3))
        pts[..., 2] = 5.0
        sn, ts, tt = p.evaluate(pts)
        assert sn.shape == (2, 3)
        assert np.allclose(sn, -100e6 + 5.0)
        assert np.allclose(ts, 30e6)
        assert np.allclose(tt, 0.0)
