"""Fig. 5 (paper Sec. 6.2): Palu snapshots, fully coupled vs one-way linked.

The paper compares vertical ocean-surface displacement snapshots of the
fully coupled Palu run against a one-way linked 2D shallow-water run on the
same bathymetry: overall dynamics and amplitudes agree; the wavefronts are
noticeably *smoother* in the fully coupled model, which the paper
attributes to "non-hydrostatic effects that filter short-wavelength
features in the transfer function between seafloor and sea surface motions
[Kajiura]".

This bench (i) compares the two Palu fields (correlation, amplitudes,
roughness — noting that at rupture time scales the coupled field also
carries ocean-acoustic oscillations), and (ii) *measures the smoothing
mechanism itself*: the seafloor-to-surface transfer function of the coupled
model vs the exact Kajiura filter ``1/cosh(kh)``, against the hydrostatic
(linked/shallow-water) transfer of 1.
"""

import numpy as np

from _cache import FAST, palu_config, palu_coupled_run, palu_linked_run, palu_t_end, report
from repro.analysis.fields import sea_surface_grid
from repro.core.materials import acoustic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.mesh.generators import box_mesh


def roughness(field, mask):
    """RMS of the discrete Laplacian — front-sharpness proxy."""
    lap = (
        field[2:, 1:-1] + field[:-2, 1:-1] + field[1:-1, 2:] + field[1:-1, :-2]
        - 4 * field[1:-1, 1:-1]
    )
    m = mask[1:-1, 1:-1]
    return float(np.sqrt(np.mean(lap[m] ** 2)))


def kajiura_transfer(kh_target: float, h: float = 1.0, c: float = 25.0) -> float:
    """Measured seafloor->surface transfer of the coupled model at one kh."""
    L = 2 * np.pi * h / kh_target
    nx = max(6, int(round(4 * L / h)))
    oc = acoustic(1000.0, c)
    m = box_mesh(
        np.linspace(0, L, nx + 1), np.linspace(0, 0.4, 2), np.linspace(-h, 0, 5), [oc]
    )
    m.glue_periodic(np.array([L, 0, 0]))
    m.glue_periodic(np.array([0, 0.4, 0]))

    def tagger(cent, nrm):
        tags = np.full(len(cent), FaceKind.WALL.value)
        tags[nrm[:, 2] < -0.99] = FaceKind.PRESCRIBED_MOTION.value
        tags[nrm[:, 2] > 0.99] = FaceKind.GRAVITY_FREE_SURFACE.value
        return tags

    m.tag_boundary(tagger)
    k = 2 * np.pi / L
    u0, T_rise = 1e-4, 3 * h / c

    def motion(pts, t):
        rate = u0 / T_rise if t < T_rise else 0.0
        return rate * np.cos(k * pts[:, 0])

    s = CoupledSolver(m, order=2, bottom_motion=motion)
    omega = np.sqrt(9.81 * k * np.tanh(k * h))
    t_end = T_rise + 2 * np.pi / omega
    x = s.gravity.points[:, :, 0]
    ts, amps = [], []
    while s.t < t_end:
        s.step()
        if s.t > T_rise:
            ts.append(s.t)
            amps.append(2 * np.mean(s.gravity.eta * np.cos(k * x)))
    ts, amps = np.array(ts), np.array(amps)
    basis = np.column_stack([np.cos(omega * ts), np.sin(omega * ts), np.ones_like(ts)])
    coef = np.linalg.lstsq(basis, amps, rcond=None)[0]
    return float(np.hypot(coef[0], coef[1])) / u0


def test_fig5_palu_vs_linked():
    cfg = palu_config()
    solver, fault, lts, receivers = palu_coupled_run()
    eq, fault2, tracker, swe = palu_linked_run()
    xs = np.linspace(cfg.x_extent[0] + 300, cfg.x_extent[1] - 300, 33)
    ys = np.linspace(cfg.y_extent[0] + 300, cfg.y_extent[1] - 300, 45)
    X, Y, eta_c = sea_surface_grid(solver, xs, ys)
    eta_l = swe.sample_eta(np.column_stack([X.ravel(), Y.ravel()])).reshape(X.shape)

    from repro.scenarios.palu import palu_bathymetry

    bay = palu_bathymetry(cfg)(X, Y) < -0.5 * cfg.bay_depth
    corr = np.corrcoef(eta_c[bay], eta_l[bay])[0, 1]
    r_c = roughness(eta_c, bay)
    r_l = roughness(eta_l, bay)
    amp_c = float(np.abs(eta_c[bay]).max())
    amp_l = float(np.abs(eta_l[bay]).max())

    # the smoothing mechanism: measured transfer function vs Kajiura
    khs = (0.8, 2.5) if FAST else (0.8, 3.14)
    transfer = {kh: kajiura_transfer(kh) for kh in khs}

    rows = [
        f"Fig. 5 (Sec. 6.2): Palu vertical surface displacement at t = {palu_t_end():.1f} s",
        f"coupled: {solver.mesh.n_elements} elems | linked: "
        f"{eq.mesh.n_elements}-elem earthquake model + {swe.nx}x{swe.ny} SWE grid",
        "",
        f"{'comparison (within the bay)':46} {'paper':>14} {'measured':>10}",
        f"{'overall dynamics (field correlation)':46} {'similar':>14} {corr:>10.2f}",
        f"{'peak |eta| coupled [m]':46} {'similar':>14} {amp_c:>10.2f}",
        f"{'peak |eta| linked  [m]':46} {'similar':>14} {amp_l:>10.2f}",
        f"{'roughness coupled (RMS Laplacian)':46} {'(see below)':>14} {r_c:>10.4f}",
        f"{'roughness linked':46} {'sharper':>14} {r_l:>10.4f}",
        "",
        "(at tsunami-genesis times the coupled field still carries ocean",
        " acoustics, so raw roughness mixes two effects; the paper's",
        " smoothness claim concerns the seafloor->surface *transfer*, which",
        " is measured directly below)",
        "",
        "seafloor->surface transfer (the Kajiura mechanism, paper [22]):",
        f"{'kh':>8} {'hydrostatic/linked':>20} {'coupled measured':>17} {'1/cosh(kh)':>12}",
    ]
    for kh, tr in transfer.items():
        rows.append(f"{kh:>8.2f} {'1.00':>20} {tr:>17.3f} {1 / np.cosh(kh):>12.3f}")
    rows += [
        "",
        f"seafloor uplift driving the linked model: "
        f"[{tracker.uz.min():+.2f}, {tracker.uz.max():+.2f}] m "
        f"(paper: mean 1.5 m uplift under the bay)",
        "",
        "paper: 'While most wavefield features are quite similar, as are",
        "predicted wave heights ... The one-way linking approach produces a",
        "tsunami with much sharper wavefronts ... The wavefield is notably",
        "smoother in the fully coupled model.'",
    ]
    assert corr > 0.3, corr
    assert 0.2 < amp_c / max(amp_l, 1e-12) < 5.0
    # the mechanism: short wavelengths filtered per Kajiura, vs 1 hydrostatic
    for kh, tr in transfer.items():
        assert np.isclose(tr, 1.0 / np.cosh(kh), rtol=0.3), (kh, tr)
    khs_sorted = sorted(transfer)
    assert transfer[khs_sorted[1]] < 0.6 * transfer[khs_sorted[0]]
    report("fig5_palu_vs_linked", rows)
