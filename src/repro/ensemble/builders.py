"""Built-in ensemble scenario builders: quickstart, Scenario A, Palu.

Each builder maps ``(perturb, seed)`` onto a fully configured coupled
solver.  Perturbation keys are the *config dataclass fields* of the
underlying scenario (``PaluConfig`` / ``ScenarioAConfig``), so an
ensemble sweep is written in the vocabulary of the paper: perturb
``nucleation_y`` for hypocenter location, ``tau_strike`` for loading,
``rs_a``/``rs_b`` for friction, ``bay_depth`` for bathymetry.  The seed
adds a small deterministic jitter on top (hypocenter position for the
fault scenarios, source position for the quickstart point source), so a
members-only sweep with default perturbations still explores the space.

Unknown perturbation keys raise ``ValueError`` up front — a typo in a
thousand-member production sweep must fail at submission, not after the
fleet has burned its allocation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .spec import ScenarioHandle, register_builder

__all__ = ["quickstart_builder", "scenario_a_builder", "palu_builder"]


def _apply_config(cfg, perturb: dict, scenario: str):
    """Override dataclass config fields with ``perturb``; reject typos."""
    valid = {f.name for f in dataclasses.fields(cfg)}
    unknown = sorted(set(perturb) - valid)
    if unknown:
        raise ValueError(
            f"unknown {scenario} perturbation key(s) {unknown}; valid fields: "
            f"{', '.join(sorted(valid))}"
        )
    return dataclasses.replace(cfg, **perturb) if perturb else cfg


def _eta_summary(solver) -> dict:
    """Scenario-level sea-surface metrics shared by all builders."""
    if not len(solver.gravity):
        return {}
    eta = solver.gravity.eta
    return {
        "eta_max": float(np.max(eta)),
        "eta_min": float(np.min(eta)),
        "eta_abs_max": float(np.max(np.abs(eta))),
    }


@register_builder("quickstart")
def quickstart_builder(perturb: dict, seed: int, backend: str = "serial",
                       workers: int | None = None) -> ScenarioHandle:
    """Small layered Earth-ocean box with an explosive point source.

    Cheap enough for chaos tests and overhead benchmarks; perturbation
    keys: ``n_x`` (horizontal grid points), ``extent``, ``order``, ``f0``
    (source frequency), ``moment``, ``source_depth``, ``amp_jitter``
    (relative moment jitter scale driven by the seed).
    """
    from ..core.lts import cluster_major
    from ..core.materials import acoustic, elastic
    from ..core.solver import (
        CoupledSolver,
        PointSource,
        ocean_surface_gravity_tagger,
    )
    from ..mesh.generators import layered_ocean_mesh

    p = {"n_x": 5, "extent": 2500.0, "order": 2, "f0": 2.0, "moment": 5e12,
         "source_depth": -900.0, "amp_jitter": 0.1}
    unknown = sorted(set(perturb) - set(p))
    if unknown:
        raise ValueError(
            f"unknown quickstart perturbation key(s) {unknown}; valid: "
            f"{', '.join(sorted(p))}"
        )
    p.update(perturb)

    rng = np.random.default_rng(seed)
    crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
    ocean = acoustic(rho=1000.0, cp=1500.0)
    xs = np.linspace(0.0, p["extent"], int(p["n_x"]))
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-1500.0, -500.0, 3),
        zs_ocean=np.linspace(-500.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    cluster_major(mesh, int(p["order"]))
    solver = CoupledSolver(mesh, order=int(p["order"]), backend=backend,
                           workers=workers)

    # seed-driven member identity: source position inside the middle of the
    # box plus a relative moment jitter
    mid, half = 0.5 * p["extent"], 0.2 * p["extent"]
    sx, sy = mid + half * (2 * rng.random(2) - 1)
    moment = p["moment"] * (1.0 + p["amp_jitter"] * (2 * rng.random() - 1))
    f0 = float(p["f0"])

    def ricker(t):
        a = (np.pi * f0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(PointSource(
        [sx, sy, p["source_depth"]], ricker, moment=[moment] * 3 + [0, 0, 0]
    ))
    return ScenarioHandle(solver=solver, summarize=_eta_summary)


@register_builder("scenario_a")
def scenario_a_builder(perturb: dict, seed: int, backend: str = "serial",
                       workers: int | None = None) -> ScenarioHandle:
    """Scaled Scenario-A dynamic-rupture member (paper Fig. 3 family).

    Perturbation keys are ``ScenarioAConfig`` fields; the seed jitters the
    nucleation overstress by ±5% when ``nucleation_tau`` is not pinned.
    """
    from ..scenarios.scenario_a import ScenarioAConfig, build_coupled

    cfg = _apply_config(ScenarioAConfig(), perturb, "scenario_a")
    if "nucleation_tau" not in perturb:
        rng = np.random.default_rng(seed)
        cfg = dataclasses.replace(
            cfg, nucleation_tau=cfg.nucleation_tau * (1 + 0.05 * (2 * rng.random() - 1))
        )
    solver, _fault = build_coupled(cfg, backend=backend, workers=workers)
    return ScenarioHandle(solver=solver, summarize=_eta_summary)


@register_builder("palu")
def palu_builder(perturb: dict, seed: int, backend: str = "serial",
                 workers: int | None = None) -> ScenarioHandle:
    """Scaled Palu supershear member (paper Sec. 6.2 / Fig. 1 family).

    Perturbation keys are ``PaluConfig`` fields — hypocenter
    (``nucleation_y``), loading (``tau_strike``, ``rake_deg``), friction
    (``rs_a``/``rs_b``/``rs_Vw``) and bathymetry (``bay_depth``,
    ``bay_half_width``).  The seed jitters the hypocenter along strike by
    ±200 m when ``nucleation_y`` is not pinned.
    """
    from ..scenarios.palu import PaluConfig, build_coupled

    cfg = _apply_config(PaluConfig(), perturb, "palu")
    if "nucleation_y" not in perturb:
        rng = np.random.default_rng(seed)
        cfg = dataclasses.replace(
            cfg, nucleation_y=cfg.nucleation_y + 200.0 * (2 * rng.random() - 1)
        )
    solver, fault = build_coupled(cfg, backend=backend, workers=workers)

    def summarize(s):
        out = _eta_summary(s)
        out["peak_slip_rate"] = float(np.max(np.abs(fault.slip_rate)))
        return out

    return ScenarioHandle(solver=solver, summarize=summarize)
