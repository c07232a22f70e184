"""Tests for the scenario builders (Scenario A and Palu) and the CLI
that runs the registered scenarios.

These verify geometry, fault placement, boundary tagging and short-run
behaviour on miniature configurations; the full scaled scenarios run in
``benchmarks/``.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.core.riemann import FaceKind
from repro.obs.runlog import read_records
from repro.scenarios import run_linked_twin
from repro.scenarios.palu import PaluConfig, build_coupled as build_palu
from repro.scenarios.palu import build_earthquake_only as build_palu_eq
from repro.scenarios.palu import palu_bathymetry
from repro.scenarios.scenario_a import (
    ScenarioAConfig,
    build_coupled as build_a,
    build_earthquake_only as build_a_eq,
)


def tiny_a_config():
    return ScenarioAConfig(
        x_extent=(-1500.0, 1500.0),
        y_extent=(-1200.0, 1200.0),
        dy=600.0,
        n_earth_layers=6,
        fault_length_y=900.0,
        order=1,
    )


def tiny_palu_config():
    return PaluConfig(
        x_extent=(-2400.0, 2400.0),
        y_extent=(-3000.0, 3000.0),
        dx_fine=600.0,
        dx_coarse=1200.0,
        n_earth_layers=4,
        earth_depth=2000.0,
        bay_length=2200.0,
        fault_y_extent=(-2400.0, 2400.0),
        nucleation_y=1600.0,
        nucleation_radius=700.0,
        order=1,
    )


class TestScenarioAGeometry:
    def test_fault_plane_dips_correctly(self):
        cfg = tiny_a_config()
        solver, fault = build_a(cfg)
        n_expected = cfg.fault_normal
        dots = np.abs(fault.normal @ n_expected)
        assert (dots > 0.999).all()
        # fault below the seafloor
        assert fault.points[:, :, 2].max() < cfg.seafloor_z

    def test_dz_matches_dip(self):
        cfg = tiny_a_config()
        assert np.isclose(cfg.dz, cfg.dx * np.tan(np.deg2rad(cfg.dip_deg)))

    def test_gravity_surface_present(self):
        cfg = tiny_a_config()
        solver, fault = build_a(cfg)
        assert len(solver.gravity) > 0
        ocean_frac = solver.mesh.is_acoustic_elem.mean()
        assert 0.05 < ocean_frac < 0.5

    def test_seafloor_strengthening(self):
        cfg = tiny_a_config()
        solver, fault = build_a(cfg)
        mu_s = np.asarray(fault.friction.mu_s)
        z = fault.points[:, :, 2]
        # strength grows towards the seafloor
        assert mu_s[z > z.mean()].mean() >= mu_s[z < z.mean()].mean()

    def test_rupture_produces_uplift(self):
        cfg = tiny_a_config()
        solver, fault = build_a(cfg)
        for _ in range(60):
            solver.step()
        assert fault.slip.max() > 0.05
        # thrust slip: hanging wall up-dip => positive seafloor/sea-surface
        # signal somewhere
        assert np.abs(solver.gravity.eta).max() > 1e-4

    def test_earthquake_only_variant(self):
        cfg = tiny_a_config()
        eq, fault, tracker = build_a_eq(cfg)
        assert not eq.mesh.is_acoustic_elem.any()
        assert len(tracker.face_ids) > 0
        bnd = eq.mesh.boundary
        top = bnd.kind == FaceKind.FREE_SURFACE.value
        assert np.allclose(bnd.centroid[top][:, 2], cfg.seafloor_z)


    def test_linked_twin(self):
        """The one-way-linked twin records the surface displacement at
        ``t = 0`` and ``n_snap`` equal times, then drives the
        shallow-water run to ``t_end`` with it as bed motion."""
        cfg = tiny_a_config()
        eq, fault, tracker, swe = run_linked_twin("scenario_a", cfg, 0.4,
                                                  n_snap=2)
        motion = swe.bed_motion
        np.testing.assert_allclose(motion.times, [0.0, 0.2, 0.4], rtol=1e-12)
        assert eq.t == pytest.approx(0.4) and swe.t == pytest.approx(0.4)
        assert fault is eq.fault and tracker.solver is eq
        assert not motion.snapshots[0].any() and motion.snapshots[-1].any()
        assert np.abs(swe.eta).max() > 0


class TestPaluGeometry:
    def test_bathymetry_shape(self):
        cfg = tiny_palu_config()
        bathy = palu_bathymetry(cfg)
        # deepest in the bay center, shallow at the far shelf
        assert bathy(cfg.bay_x, 0.0) < -0.7 * cfg.bay_depth
        assert bathy(cfg.x_extent[0], cfg.y_extent[0]) > -2.5 * cfg.shelf_depth
        # bathtub: closes toward the head (-y)
        assert bathy(cfg.bay_x, cfg.y_extent[0]) > bathy(cfg.bay_x, 0.0)

    def test_fault_is_vertical_plane(self):
        cfg = tiny_palu_config()
        solver, fault = build_palu(cfg)
        assert (np.abs(np.abs(fault.normal[:, 0]) - 1.0) < 1e-9).all()
        assert np.allclose(fault.points[:, :, 0], cfg.fault_x, atol=1e-6)

    def test_fault_below_seafloor(self):
        cfg = tiny_palu_config()
        solver, fault = build_palu(cfg)
        bathy = palu_bathymetry(cfg)
        z = fault.points[:, :, 2]
        floor = bathy(fault.points[:, :, 0], fault.points[:, :, 1])
        assert (z < floor).all()

    def test_rake_has_normal_component(self):
        cfg = tiny_palu_config()
        solver, fault = build_palu(cfg)
        # projected shear magnitude: background everywhere, plus the
        # nucleation overstress inside the asperity
        tau_mag = np.sqrt(fault.tau_s0**2 + fault.tau_t0**2)
        assert np.isclose(tau_mag.min(), cfg.tau_strike, rtol=1e-6)
        assert np.isclose(tau_mag.max(), cfg.tau_strike + cfg.nucleation_tau, rtol=1e-6)
        # the rake's dip-slip part: shear has a z-component, i.e. both
        # tangential components are exercised somewhere on the fault
        assert np.abs(fault.tau_s0).max() > 0
        assert np.abs(fault.tau_t0).max() > 0

    def test_short_run_nucleates(self):
        cfg = tiny_palu_config()
        solver, fault = build_palu(cfg)
        from repro.core.lts import LocalTimeStepping
        from repro.sched import Scheduler

        lts = LocalTimeStepping(solver)
        Scheduler(solver, lts).run(0.35)
        assert fault.peak_slip_rate.max() > 0.5
        assert np.abs(solver.gravity.eta).max() > 1e-4

    def test_earthquake_only_surface_follows_bathymetry(self):
        cfg = tiny_palu_config()
        eq, fault, tracker = build_palu_eq(cfg)
        bathy = palu_bathymetry(cfg)
        pts = tracker.points.reshape(-1, 3)
        # the mesh surface is piecewise linear, so mid-face quadrature
        # points deviate from the smooth bathymetry by up to the sagitta
        assert np.allclose(pts[:, 2], bathy(pts[:, 0], pts[:, 1]), atol=0.12 * cfg.bay_depth)

    def test_mesh_is_wet_everywhere(self):
        """Our coastline substitute: a thin wet shelf instead of dry land."""
        cfg = tiny_palu_config()
        solver, fault = build_palu(cfg)
        assert solver.mesh.is_acoustic_elem.sum() > 0
        assert len(solver.gravity) > 0


def test_cli_runs_outside_a_source_checkout(tmp_path):
    """The simulation verbs build from the scenario registry, so the
    package alone, with no ``examples/`` beside it, runs them."""
    import repro

    shutil.copytree(os.path.dirname(os.path.abspath(repro.__file__)),
                    tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "quickstart", "--t-end", "0.05"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "eta_abs_max: " in proc.stdout


def test_cli_run_record_counts_the_build(tmp_path):
    """A CLI run's session opens before the scenario is built, so its
    record counts the build's plan-cache lookup, as a fleet member's
    does."""
    from repro.__main__ import main

    log = str(tmp_path / "run.jsonl")
    assert main(["quickstart", "--t-end", "0.05", "--metrics",
                 "--log-json", log]) == 0
    run_end = [r for r in read_records(log)[0] if r["event"] == "run_end"][-1]
    counters = run_end["metrics"]["counters"]
    assert counters.get("cache/plan_hits", 0) \
        + counters.get("cache/plan_misses", 0) >= 1
