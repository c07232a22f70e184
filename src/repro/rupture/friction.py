"""Fault friction laws (paper Eq. 2).

Two laws are implemented, matching the paper's two applications:

* :class:`LinearSlipWeakening` — Andrews (1976); used in the Scenario-A
  megathrust benchmark (Sec. 6.1) because it is "computationally less
  demanding";
* :class:`RateStateFastVelocityWeakening` — the strongly velocity-weakening
  rate-and-state law (Dunham et al. flavor, as in SeisSol and the Palu
  source model of Ulrich et al. 2019) used for the Palu scenario
  (Sec. 6.2).  Solving its traction-balance needs a Newton iteration per
  fault quadrature point with a data-dependent iteration count — the
  dynamic-load property Sec. 5.3 blames for the load-balancing challenge.

The friction solve enforces, per quadrature point, the traction balance of
the fault Riemann problem:

    ``|tau_stick| - eta_s * V = tau_S(V, psi)``,

where ``eta_s = Zs- Zs+ / (Zs- + Zs+)`` is the radiation-damping impedance
and ``tau_stick`` the traction that would lock the interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LinearSlipWeakening", "RateStateFastVelocityWeakening"]


@dataclass
class LinearSlipWeakening:
    """Linear slip-weakening friction.

    ``mu_f = mu_s - (mu_s - mu_d) * min(slip / d_c, 1)``.

    The state variable ``psi`` is the accumulated slip magnitude.
    Parameters may be scalars or per-point arrays (e.g. to strengthen the
    fault near the seafloor, as Scenario A does to stop the rupture).
    """

    mu_s: float | np.ndarray
    mu_d: float | np.ndarray
    d_c: float | np.ndarray
    cohesion: float | np.ndarray = 0.0

    def initial_state(self, n: int) -> np.ndarray:
        return np.zeros(n)

    def coefficient(self, psi: np.ndarray) -> np.ndarray:
        frac = np.minimum(psi / self.d_c, 1.0)
        return self.mu_s - (self.mu_s - self.mu_d) * frac

    def solve(self, tau_stick: np.ndarray, sigma_bar: np.ndarray, psi: np.ndarray, eta_s: np.ndarray):
        """Return (V, tau) magnitudes.

        For slip-weakening the strength does not depend on V, so the balance
        is closed-form: ``V = max(|tau_stick| - tau_S, 0) / eta_s``.
        """
        tau_strength = self.cohesion + self.coefficient(psi) * sigma_bar
        V = np.maximum(np.abs(tau_stick) - tau_strength, 0.0) / eta_s
        tau = np.minimum(np.abs(tau_stick), tau_strength)
        return V, tau

    def evolve_state(self, psi: np.ndarray, V: np.ndarray, dt) -> np.ndarray:
        """State = slip: d psi / dt = V."""
        return psi + V * dt


@dataclass
class RateStateFastVelocityWeakening:
    """Rate-and-state friction with fast (strong) velocity weakening.

    ``f(V, psi) = a * asinh( V / (2 V0) * exp(psi / a) )`` with the slip-law
    state evolution towards

    ``psi_ss(V) = a * ln( 2 V0 / V * sinh(f_ss(V) / a) )``,
    ``f_ss(V) = f_w + (f_lv(V) - f_w) / (1 + (V / Vw)^8)^(1/8)``,
    ``f_lv(V) = f0 - (b - a) * ln(V / V0)``.

    Parameters may be per-point arrays, which is how velocity-strengthening
    barriers at fault edges are expressed.
    """

    a: float | np.ndarray = 0.01
    b: float | np.ndarray = 0.014
    L: float | np.ndarray = 0.2
    f0: float = 0.6
    V0: float = 1e-6
    Vw: float | np.ndarray = 0.1
    fw: float | np.ndarray = 0.1
    Vini: float = 1e-16
    #: Newton stopping rule of :meth:`solve` (class constants, not fields)
    newton_tol = 1e-10
    newton_maxit = 50

    def initial_state(self, n: int) -> np.ndarray:
        """Steady-state psi at the (tiny) initial creep velocity."""
        return np.broadcast_to(self.psi_ss(np.full(n, self.Vini)), (n,)).copy()

    def initial_state_from_stress(self, tau0: np.ndarray, sigma_bar: np.ndarray) -> np.ndarray:
        """State consistent with creeping at ``Vini`` under the prestress.

        ``psi0 = a ln( (2 V0 / Vini) sinh( tau0 / (sigma_bar a) ) )`` — the
        standard initialization for strongly-velocity-weakening setups (the
        fault is exactly in frictional equilibrium with the background
        stress, so a stress asperity above it nucleates spontaneously).
        """
        ratio = tau0 / (np.maximum(sigma_bar, 1e-300) * self.a)
        log_sinh = np.where(
            ratio > 20.0, ratio - np.log(2.0), np.log(np.sinh(np.minimum(ratio, 20.0)) + 1e-300)
        )
        return self.a * (np.log(2.0 * self.V0 / self.Vini) + log_sinh)

    # -- law ingredients -------------------------------------------------
    def f(self, V: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return self.a * np.arcsinh(np.maximum(V, 0.0) / (2 * self.V0) * np.exp(psi / self.a))

    def dfdV(self, V: np.ndarray, psi: np.ndarray) -> np.ndarray:
        e = np.exp(psi / self.a) / (2 * self.V0)
        x = np.maximum(V, 0.0) * e
        return self.a * e / np.sqrt(1.0 + x**2)

    def f_ss(self, V: np.ndarray) -> np.ndarray:
        V = np.maximum(V, 1e-30)
        flv = self.f0 - (self.b - self.a) * np.log(V / self.V0)
        return self.fw + (flv - self.fw) / (1.0 + (V / self.Vw) ** 8) ** 0.125

    def psi_ss(self, V: np.ndarray) -> np.ndarray:
        V = np.maximum(V, 1e-30)
        fss = self.f_ss(V)
        # a * ln(2 V0/V * sinh(fss/a)); sinh overflow-safe via logaddexp
        x = fss / self.a
        log_sinh = np.where(x > 20.0, x - np.log(2.0), np.log(np.sinh(np.minimum(x, 20.0)) + 1e-300))
        return self.a * (np.log(2.0 * self.V0 / V) + log_sinh)

    # -- solver ----------------------------------------------------------
    def solve(self, tau_stick: np.ndarray, sigma_bar: np.ndarray, psi: np.ndarray, eta_s: np.ndarray):
        """Newton solve of ``|tau_stick| - eta_s V - sigma_bar f(V, psi) = 0``.

        Returns ``(V, tau)``.  The iteration count of the last call is kept
        in :attr:`last_iterations` because the data-dependent Newton cost is
        exactly the dynamic-load imbalance studied in Sec. 5.3.
        """
        ts = np.abs(tau_stick)
        eta = np.broadcast_to(eta_s, ts.shape)
        sig = np.broadcast_to(sigma_bar, ts.shape)
        psi_b = np.broadcast_to(psi, ts.shape)

        # g(V) = ts - eta V - sigma f(V, psi) is strictly decreasing with
        # g(0) = ts >= 0, so the root is unique in [0, ts/eta].  Newton on a
        # linear V scale overshoots badly (f has enormous curvature near
        # V = 0), so iterate in u = ln(V), seeded by the large-V asymptote
        # f ~ psi + a ln(V / (2 V0)).
        Vmax = ts / eta
        with np.errstate(over="ignore"):
            seed = 2.0 * self.V0 * np.exp((ts / np.maximum(sig, 1e-300) - psi_b) / self.a)
        V = np.clip(np.where(sig > 0, seed, Vmax), 1e-25, np.maximum(Vmax, 1e-25))
        u = np.log(np.maximum(V, 1e-300))

        it_used = 0
        for it in range(self.newton_maxit):
            V = np.exp(u)
            g = ts - eta * V - sig * self.f(V, psi_b)
            dgdu = -(eta + sig * self.dfdV(V, psi_b)) * V
            du = np.where(np.abs(dgdu) > 0, g / dgdu, 0.0)
            du = np.clip(du, -2.0, 2.0)  # damping
            u = u - du
            it_used = it + 1
            if np.max(np.abs(du)) < self.newton_tol:
                break
        V = np.exp(u)

        # bisection fallback for any stragglers (ill-conditioned points)
        bad = np.abs(ts - eta * V - sig * self.f(V, psi_b)) > 1e-6 * np.maximum(ts, 1.0)
        if np.any(bad):
            lo = np.full_like(ts, -80.0)  # ln-space bracket [e^-80, Vmax]
            hi = np.log(np.maximum(Vmax, 1e-30))
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                gm = ts - eta * np.exp(mid) - sig * self.f(np.exp(mid), psi_b)
                lo = np.where(gm > 0, mid, lo)
                hi = np.where(gm > 0, hi, mid)
            V = np.where(bad, np.exp(0.5 * (lo + hi)), V)
            it_used += 80

        tau = np.maximum(ts - eta * V, 0.0)
        self.last_iterations = it_used
        return V, tau

    def evolve_state(self, psi: np.ndarray, V: np.ndarray, dt) -> np.ndarray:
        """Exponential (exact for frozen V) slip-law update:

        ``psi -> psi_ss + (psi - psi_ss) exp(-V dt / L)``.
        """
        Vc = np.maximum(V, 1e-30)
        pss = self.psi_ss(Vc)
        return pss + (psi - pss) * np.exp(-Vc * dt / self.L)
