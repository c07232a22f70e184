"""Okada (1985) surface displacements of a rectangular dislocation.

The classical half-space solution used by standard one-way-linked tsunami
workflows (paper Sec. 2: "the seafloor uplift is commonly simplified by
using analytical solutions ... within a homogeneous elastic half-space
(Okada)").  Only the free-surface displacement field is implemented (that
is what initializes a tsunami); strike-slip and dip-slip components are
supported, composed by Chinnery's four-corner substitution.

Conventions (Okada 1985, Fig. 1): the fault is a rectangle of length ``L``
along strike (x-axis) and width ``W`` up-dip, dipping ``delta`` from
horizontal; ``depth`` is the depth of the *bottom* edge reference origin.
``slip_strike > 0`` is left-lateral, ``slip_dip > 0`` is reverse (thrust).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OkadaFault", "okada_displacement"]

_EPS = 1e-12


def _chinnery(f, x, p, L, W, const):
    return f(x, p, const) - f(x, p - W, const) - f(x - L, p, const) + f(x - L, p - W, const)


def _safe_atan(num, den):
    """Principal-value arctan(num / den) (NOT atan2 — the Chinnery
    differences require the principal branch, as in Okada's original
    checkpoint tables)."""
    good = np.abs(den) >= _EPS
    out = np.where(good, np.arctan(num / np.where(good, den, 1.0)), 0.5 * np.pi * np.sign(num))
    return np.where(np.abs(num) < _EPS, 0.0, out)


def _I5(xi, eta, q, delta, R, d_b, mu_bar):
    X = np.sqrt(xi**2 + q**2)
    cd, sd = np.cos(delta), np.sin(delta)
    if abs(cd) < 1e-6:
        return -mu_bar * xi * sd / (R + d_b)
    num = eta * (X + q * cd) + X * (R + X) * sd
    den = xi * (R + X) * cd
    return mu_bar * 2.0 / cd * _safe_atan(num, den)


def _I4(xi, eta, q, delta, R, d_b, mu_bar):
    cd, sd = np.cos(delta), np.sin(delta)
    if abs(cd) < 1e-6:
        return -mu_bar * q / (R + d_b)
    return mu_bar / cd * (np.log(R + d_b) - sd * np.log(R + eta))


def _I3(xi, eta, q, delta, R, d_b, mu_bar):
    cd, sd = np.cos(delta), np.sin(delta)
    y_b = eta * cd + q * sd
    if abs(cd) < 1e-6:
        return mu_bar / 2.0 * (eta / (R + d_b) + y_b * q / (R + d_b) ** 2 - np.log(R + eta))
    return (
        mu_bar * (y_b / (cd * (R + d_b)) - np.log(R + eta))
        + sd / cd * _I4(xi, eta, q, delta, R, d_b, mu_bar)
    )


def _I2(xi, eta, q, delta, R, d_b, mu_bar):
    return mu_bar * (-np.log(R + eta)) - _I3(xi, eta, q, delta, R, d_b, mu_bar)


def _I1(xi, eta, q, delta, R, d_b, mu_bar):
    cd, sd = np.cos(delta), np.sin(delta)
    if abs(cd) < 1e-6:
        return -mu_bar / 2.0 * xi * q / (R + d_b) ** 2
    return (
        mu_bar * (-xi / (cd * (R + d_b)))
        - sd / cd * _I5(xi, eta, q, delta, R, d_b, mu_bar)
    )


def _strike_slip(x, p, const):
    q, delta, mu_bar = const
    xi, eta = x, p
    R = np.sqrt(xi**2 + eta**2 + q**2)
    d_b = eta * np.sin(delta) - q * np.cos(delta)
    y_b = eta * np.cos(delta) + q * np.sin(delta)
    Reta = R + eta
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = xi * q / (R * Reta) + _safe_atan(xi * eta, q * R) + _I1(
            xi, eta, q, delta, R, d_b, mu_bar
        ) * np.sin(delta)
        uy = y_b * q / (R * Reta) + q * np.cos(delta) / Reta + _I2(
            xi, eta, q, delta, R, d_b, mu_bar
        ) * np.sin(delta)
        uz = d_b * q / (R * Reta) + q * np.sin(delta) / Reta + _I4(
            xi, eta, q, delta, R, d_b, mu_bar
        ) * np.sin(delta)
    return np.stack([ux, uy, uz])


def _dip_slip(x, p, const):
    q, delta, mu_bar = const
    xi, eta = x, p
    R = np.sqrt(xi**2 + eta**2 + q**2)
    d_b = eta * np.sin(delta) - q * np.cos(delta)
    y_b = eta * np.cos(delta) + q * np.sin(delta)
    sd, cd = np.sin(delta), np.cos(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = q / R - _I3(xi, eta, q, delta, R, d_b, mu_bar) * sd * cd
        uy = y_b * q / (R * (R + xi)) + cd * _safe_atan(xi * eta, q * R) - _I1(
            xi, eta, q, delta, R, d_b, mu_bar
        ) * sd * cd
        uz = d_b * q / (R * (R + xi)) + sd * _safe_atan(xi * eta, q * R) - _I5(
            xi, eta, q, delta, R, d_b, mu_bar
        ) * sd * cd
    return np.stack([ux, uy, uz])


@dataclass
class OkadaFault:
    """A rectangular dislocation source.

    Parameters
    ----------
    length, width:
        Along-strike length and down-dip width [m].
    depth:
        Depth of the fault *top* edge [m, positive down].
    dip:
        Dip angle [degrees].
    strike:
        Strike angle [degrees, clockwise from the +y (north) axis].
    slip_strike, slip_dip:
        Slip components [m].
    x0, y0:
        Horizontal position of the center of the fault's top edge.
    """

    poisson = 0.25  #: Poisson ratio (a Poisson solid: lambda = mu)

    length: float
    width: float
    depth: float
    dip: float
    strike: float = 0.0
    slip_strike: float = 0.0
    slip_dip: float = 0.0
    x0: float = 0.0
    y0: float = 0.0

    def displacement(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return okada_displacement(self, x, y)


def okada_displacement(fault: OkadaFault, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Surface displacement ``(3, ...)`` (east, north, up in fault frame
    rotated by strike) at points ``(x, y)``.

    ``x, y`` are absolute coordinates; broadcasting shapes are preserved.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    delta = np.deg2rad(fault.dip)
    mu_bar = (1.0 - 2.0 * fault.poisson) / (2.0 * (1.0 - fault.poisson))

    # rotate observation points into the fault-aligned frame: x' along strike
    phi = np.deg2rad(90.0 - fault.strike)  # strike measured from +y
    dx = x - fault.x0
    dy = y - fault.y0
    xf = dx * np.cos(phi) + dy * np.sin(phi)
    yf = -dx * np.sin(phi) + dy * np.cos(phi)

    # Okada origin: bottom-left corner of the fault plane
    d_bottom = fault.depth + fault.width * np.sin(delta)
    xr = xf + fault.length / 2.0
    yr = yf + fault.width * np.cos(delta)
    p = yr * np.cos(delta) + d_bottom * np.sin(delta)
    q = yr * np.sin(delta) - d_bottom * np.cos(delta)

    u = np.zeros((3,) + x.shape)
    if fault.slip_strike != 0.0:
        const = (q, delta, mu_bar)
        u += (
            -fault.slip_strike
            / (2.0 * np.pi)
            * _chinnery(_strike_slip, xr, p, fault.length, fault.width, const)
        )
    if fault.slip_dip != 0.0:
        const = (q, delta, mu_bar)
        u += (
            -fault.slip_dip
            / (2.0 * np.pi)
            * _chinnery(_dip_slip, xr, p, fault.length, fault.width, const)
        )

    # rotate horizontal components back to absolute coordinates
    ux = u[0] * np.cos(phi) - u[1] * np.sin(phi)
    uy = u[0] * np.sin(phi) + u[1] * np.cos(phi)
    return np.stack([ux, uy, u[2]])
