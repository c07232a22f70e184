"""Watchdog, fault injection, and rollback/dt-backoff recovery."""

import os

import numpy as np
import pytest

from repro.core.health import (
    HealthError,
    SimulationDiverged,
    Watchdog,
    total_energy,
)
from repro.core.health.inject import FaultInjector, InjectedIOError
from repro.core.lts import LocalTimeStepping
from repro.core.materials import Material, acoustic, elastic
from repro.core.resilience import ResilientRunner
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from repro.mesh.generators import box_mesh, layered_ocean_mesh

ROCK = elastic(2700.0, 6000.0, 3464.0)


def build_coupled(order=2):
    crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
    ocean = acoustic(rho=1000.0, cp=1500.0)
    xs = np.linspace(0.0, 2000.0, 4)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-1500.0, -500.0, 3),
        zs_ocean=np.linspace(-500.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=order)

    def ricker(t):
        a = (np.pi * 2.0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(
        PointSource([1000.0, 1000.0, -900.0], ricker, moment=[5e12] * 3 + [0, 0, 0])
    )
    return solver


def build_closed_passive():
    """Closed elastic box with an initial condition: strict Lyapunov domain."""
    xs = np.linspace(0.0, 1000.0, 4)
    mesh = box_mesh(xs, xs, xs, [ROCK])
    solver = CoupledSolver(mesh, order=1)

    def bump(points):
        out = np.zeros((len(points), 9))
        r2 = ((points - 500.0) ** 2).sum(axis=1)
        out[:, 8] = np.exp(-r2 / 200.0**2)
        return out

    solver.set_initial_condition(bump)
    return solver


class TestWatchdog:
    def test_healthy_run_stays_healthy(self):
        solver = build_closed_passive()
        wd = Watchdog(solver)
        assert wd.energy_mode == "strict"
        for _ in range(5):
            solver.step()
            assert wd.check(dt=solver.dt).ok

    def test_nan_detected_with_location_detail(self):
        solver = build_closed_passive()
        wd = Watchdog(solver)
        solver.Q.flat[3] = np.nan
        report = wd.check()
        assert not report.ok
        assert "NaN" in report.checks["state"]

    def test_energy_growth_trips_strict_mode(self):
        solver = build_closed_passive()
        wd = Watchdog(solver)
        assert wd.check().ok
        solver.Q *= 2.0  # quadruples the energy
        report = wd.check()
        assert not report.ok
        assert "Lyapunov" in report.checks["energy"]

    def test_sources_switch_auto_to_growth_mode(self):
        solver = build_coupled()
        wd = Watchdog(solver)
        assert wd.energy_mode == "growth"
        # energy injection by the source must NOT trip the watchdog
        for _ in range(5):
            solver.step()
            assert wd.check(dt=solver.dt).ok

    def test_energy_runaway_trips_growth_mode(self):
        solver = build_coupled()
        wd = Watchdog(solver, growth_factor=10.0)
        for _ in range(3):
            solver.step()
            wd.check()
        solver.Q *= 100.0
        assert not wd.check().ok

    def test_cfl_violation_detected(self):
        solver = build_closed_passive()
        wd = Watchdog(solver)
        assert wd.check(dt=solver.dt).ok
        report = wd.check(dt=solver.dt * 64.0)
        assert not report.ok
        assert "CFL" in report.checks["cfl"]

    def test_ensure_raises_health_error(self):
        solver = build_closed_passive()
        wd = Watchdog(solver)
        solver.Q.flat[0] = np.inf
        with pytest.raises(HealthError, match="Inf"):
            wd.ensure()

    def test_total_energy_includes_surface_potential(self):
        solver = build_coupled()
        assert total_energy(solver) == pytest.approx(solver.energy())
        solver.gravity.eta += 0.5
        assert total_energy(solver) > solver.energy()


class TestLastEnergy:
    def test_last_energy_is_the_swept_states_total_energy(self):
        solver = build_coupled()
        solver.gravity.eta += 0.5
        wd = Watchdog(solver)
        assert wd.last_energy is None
        wd.ensure(dt=solver.dt)
        assert wd.last_energy == total_energy(solver)
        snap = wd.snapshot()
        solver.step()
        wd.ensure(dt=solver.dt)
        assert wd.last_energy == total_energy(solver) != snap["last_energy"]
        wd.restore(snap)
        assert wd.last_energy == snap["last_energy"]
        wd.reset()
        assert wd.last_energy is None
        assert Watchdog(solver, energy_mode="off").check().ok
        off = Watchdog(solver, energy_mode="off")
        off.ensure(dt=solver.dt)
        assert off.last_energy is None

    @pytest.mark.parametrize("use_lts", [False, True])
    def test_flight_recorder_steps_carry_it(self, tmp_path, use_lts):
        solver = build_coupled()
        lts = LocalTimeStepping(solver) if use_lts else None
        runner = ResilientRunner(solver, lts=lts, verbose=False,
                                 blackbox_dir=str(tmp_path))
        seen = []
        runner.run(solver.t + 3 * (lts.dt_min * 2**lts.cmax if lts else solver.dt),
                   callback=lambda s: seen.append(runner.watchdog.last_energy))
        steps = [e for e in runner.recorder.events() if e["kind"] == "step"]
        assert len(steps) == len(seen) == runner.step_count > 0
        assert [e["energy"] for e in steps] == seen
        assert seen[-1] == total_energy(solver)


class TestWatchdogSweepCost:
    def test_one_sweep_reads_energy_once_and_never_rescans_dt_elem(self):
        """Count-based budget of ``Watchdog.check``: one ``solver.energy``
        evaluation per sweep, and the static admissible CFL step is taken
        at construction, not re-reduced from ``dt_elem`` per sweep."""
        from repro.obs.metrics import get_metrics

        class CountingMin(np.ndarray):
            calls = 0

            def min(self, *args, **kwargs):
                CountingMin.calls += 1
                return super().min(*args, **kwargs)

        solver = build_closed_passive()
        solver.dt_elem = solver.dt_elem.view(CountingMin)
        wd = Watchdog(solver)
        assert CountingMin.calls == 1  # construction
        energy_calls = []
        real_energy = solver.energy
        solver.energy = lambda: energy_calls.append(1) or real_energy()
        met = get_metrics()
        met.reset()
        met.enable()  # the gauge path used to reduce dt_elem a second time
        try:
            for n in range(1, 4):
                solver.step()
                assert wd.check(dt=solver.dt, step=n).ok
                assert len(energy_calls) == n
            margin = met.snapshot()["gauges"]["health/cfl_margin"]["value"]
            assert margin == pytest.approx(0.0)
        finally:
            met.disable()
            met.reset()
        assert CountingMin.calls == 1
        assert not wd.check(dt=2.0 * solver.dt).ok  # the cached bound still bites


class TestSingleCapture:
    """A checkpointing segment captures the state once: the archive is
    written from the rollback snapshot, not from a second capture."""

    def _runner(self, tmp_path):
        return ResilientRunner(
            build_coupled(), checkpoint_every=0.05,
            checkpoint_dir=str(tmp_path), verbose=False,
        )

    def test_one_capture_per_segment(self, tmp_path, monkeypatch):
        import repro.core.resilience as resilience
        import repro.io.checkpoint as checkpoint

        calls = {"runner": 0, "io": 0}

        def counting(where, real):
            def capture(solver, lts=None):
                calls[where] += 1
                return real(solver, lts)
            return capture

        monkeypatch.setattr(resilience, "capture_state",
                            counting("runner", resilience.capture_state))
        monkeypatch.setattr(checkpoint, "capture_state",
                            counting("io", checkpoint.capture_state))
        runner = self._runner(tmp_path)
        runner.run(0.15)
        assert len(runner.checkpoints_written) == 3
        # the snapshot run() enters with, then one per segment
        assert calls == {"runner": 1 + 3, "io": 0}

    def test_archive_equals_rollback_snapshot_not_live_state(self, tmp_path):
        from repro.io.checkpoint import load_checkpoint
        from repro.sched import HookBus

        runner = self._runner(tmp_path)
        snaps = []
        real_snapshot = runner._snapshot
        runner._snapshot = lambda: snaps.append(real_snapshot()) or snaps[-1]
        # subscribers of the caller's bus fire before the checkpoint write:
        # whatever they do to the solver must not reach the archive
        hooks = HookBus()

        @hooks.on_segment_end
        def scribble(solver):
            solver.Q += 1.0
            solver.gravity.eta += 1.0

        runner.run(0.05, hooks=hooks)
        (path,) = runner.checkpoints_written
        on_disk = load_checkpoint(path)["state"]
        state = snaps[-1]["state"]
        assert sorted(on_disk) == sorted(state)
        for key, arr in state.items():
            assert np.array_equal(on_disk[key], arr), key
        assert not np.array_equal(on_disk["Q"], runner.solver.Q)
        assert not np.array_equal(on_disk["gravity_eta"],
                                  runner.solver.gravity.eta)


class TestRecovery:
    def test_injected_nan_triggers_rollback_and_run_completes(self):
        solver = build_coupled()
        injector = FaultInjector().corrupt_state(at_step=5)
        runner = ResilientRunner(
            solver, checkpoint_every=0.2, injector=injector, verbose=False
        )
        runner.run(0.4)
        assert runner.rollbacks >= 1
        assert (5, "state", "Q") in injector.log
        assert solver.t == pytest.approx(0.4)
        assert np.isfinite(solver.Q).all()

    def test_inflated_dt_trips_cfl_and_recovers(self):
        solver = build_coupled()
        injector = FaultInjector().inflate_dt(at_step=3, factor=1e3)
        runner = ResilientRunner(solver, injector=injector, verbose=False)
        runner.run(0.15)
        assert runner.rollbacks >= 1
        assert solver.t == pytest.approx(0.15)
        assert np.isfinite(solver.Q).all()

    def test_backoff_halves_dt_and_relaxes_after_success(self):
        solver = build_coupled()
        injector = FaultInjector().corrupt_state(at_step=2)
        runner = ResilientRunner(
            solver, checkpoint_every=0.1, injector=injector, verbose=False
        )
        scales = []

        orig_rollback = runner._rollback

        def spy(snap):
            orig_rollback(snap)
            scales.append(runner.dt_scale)

        runner._rollback = spy
        runner.run(0.3)
        # the rollback happened with the scale still at 1; halving follows,
        # then the scale relaxes back to 1 across healthy segments
        assert runner.rollbacks == 1
        assert scales == [1.0]
        assert runner.dt_scale == 1.0

    def test_persistent_corruption_exhausts_retries(self):
        solver = build_coupled()
        injector = FaultInjector().corrupt_state(at_step=4, persistent=True)
        runner = ResilientRunner(
            solver, injector=injector, max_retries=2, verbose=False
        )
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(0.3)
        diag = exc_info.value.diagnostics()
        assert diag["attempts"] == 3
        assert diag["failures"]
        assert diag["dt_scale"] < 1.0

    def test_lts_injected_nan_recovers(self):
        crust = elastic(2700.0, 6000.0, 3464.0)
        ocean = acoustic(1000.0, 1500.0)
        xs = np.linspace(0.0, 2000.0, 4)
        mesh = layered_ocean_mesh(
            xs, xs,
            zs_earth=np.linspace(-1500.0, -500.0, 3),
            zs_ocean=np.linspace(-500.0, 0.0, 2),
            earth=crust, ocean=ocean,
        )
        mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
        solver = CoupledSolver(mesh, order=1)
        lts = LocalTimeStepping(solver)
        injector = FaultInjector().corrupt_state(at_step=2, target="eta")
        runner = ResilientRunner(
            solver, lts=lts, checkpoint_every=0.05, injector=injector,
            verbose=False,
        )
        runner.run(0.15)
        assert runner.rollbacks >= 1
        assert np.isfinite(solver.gravity.eta).all()
        assert solver.t == pytest.approx(0.15)

    def test_io_failure_keeps_previous_checkpoint(self, tmp_path):
        baseline = build_coupled()

        # first run: two checkpoints, the SECOND write fails
        runner = ResilientRunner(
            baseline, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        runner.run(0.1)  # one segment -> one good checkpoint
        first = runner.manager.latest()
        assert first is not None

        injector = FaultInjector().fail_io(at_step=runner.step_count + 1)
        runner.injector = injector
        with pytest.warns(RuntimeWarning, match="checkpoint write failed"):
            runner.run(0.2)
        # the failed write left the earlier checkpoint untouched and no junk
        assert runner.manager.latest() == first
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
        assert injector.log[-1][1] == "io"

        # and the run itself kept going past the failed write
        assert baseline.t == pytest.approx(0.2)
        runner.injector = None
        runner.run(0.3)  # next segment checkpoints fine again
        assert runner.manager.latest() != first


class TestInjectorContract:
    def test_one_shot_actions_do_not_refire(self):
        solver = build_coupled()
        injector = FaultInjector().corrupt_state(at_step=1)
        injector.on_step(solver, 1)
        solver.Q.flat[0] = 0.0
        injector.on_step(solver, 1)
        assert solver.Q.flat[0] == 0.0
        assert len(injector.log) == 1

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption target"):
            FaultInjector().corrupt_state(0, target="flux")

    def test_io_gate_budget(self):
        injector = FaultInjector().fail_io(at_step=0, count=2)
        for _ in range(2):
            with pytest.raises(InjectedIOError):
                injector.io_gate(5)
        injector.io_gate(5)  # budget exhausted: passes


class TestInputValidation:
    def test_rejects_invalid_boundary_tags(self):
        xs = np.linspace(0.0, 1000.0, 3)
        mesh = box_mesh(xs, xs, xs, [ROCK])
        mesh.tag_boundary(
            lambda c, n: np.full(len(c), FaceKind.FAULT.value)
        )
        with pytest.raises(ValueError, match="invalid or untagged"):
            CoupledSolver(mesh, order=1)

    def test_rejects_non_finite_material(self):
        xs = np.linspace(0.0, 1000.0, 3)
        bad = Material(rho=float("nan"), lam=3e10, mu=3e10)
        mesh = box_mesh(xs, xs, xs, [bad])
        with pytest.raises(ValueError, match="non-finite"):
            CoupledSolver(mesh, order=1)

    def test_valid_mesh_still_accepted(self):
        xs = np.linspace(0.0, 1000.0, 3)
        mesh = box_mesh(xs, xs, xs, [ROCK])
        CoupledSolver(mesh, order=1)  # must not raise


class TestPointSourceBinding:
    def test_bind_caches_time_quadrature(self):
        solver = build_coupled()
        src = solver.sources[0]
        assert src._tq is not None and src._wq is not None
        out = np.zeros_like(solver.Q)
        src.add(out, 0.25, solver.dt)
        assert np.abs(out).max() > 0

    def test_add_matches_fresh_quadrature(self):
        from repro.core.quadrature import gauss_legendre_01

        solver = build_coupled()
        src = solver.sources[0]
        out = np.zeros_like(solver.Q)
        src.add(out, 0.25, solver.dt)
        tq, wq = gauss_legendre_01(6)
        s_int = solver.dt * sum(
            w * src.stf(0.25 + solver.dt * t) for t, w in zip(tq, wq)
        )
        expected = s_int * np.outer(src._phi, src._amp)
        assert np.array_equal(out[src._elem], expected)


class TestPartitionedBackendRecovery:
    """Supervision must be backend-agnostic: the watchdog and the rollback
    / dt-backoff ladder behave identically when steps execute on the
    partitioned (threaded, halo-exchanging) backend (ISSUE 6 satellite)."""

    def build_partitioned(self, workers=2):
        crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
        ocean = acoustic(rho=1000.0, cp=1500.0)
        xs = np.linspace(0.0, 2000.0, 4)
        mesh = layered_ocean_mesh(
            xs, xs,
            zs_earth=np.linspace(-1500.0, -500.0, 3),
            zs_ocean=np.linspace(-500.0, 0.0, 2),
            earth=crust, ocean=ocean,
        )
        mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
        solver = CoupledSolver(mesh, order=2, backend="partitioned",
                               workers=workers)

        def ricker(t):
            a = (np.pi * 2.0 * (t - 0.3)) ** 2
            return (1.0 - 2.0 * a) * np.exp(-a)

        solver.add_source(PointSource(
            [1000.0, 1000.0, -900.0], ricker, moment=[5e12] * 3 + [0, 0, 0]
        ))
        return solver

    def test_watchdog_healthy_on_partitioned_steps(self):
        solver = self.build_partitioned()
        wd = Watchdog(solver)
        for _ in range(5):
            solver.step()
            assert wd.check(dt=solver.dt).ok

    def test_injected_nan_recovers_on_partitioned_backend(self):
        solver = self.build_partitioned()
        injector = FaultInjector().corrupt_state(at_step=5)
        runner = ResilientRunner(
            solver, checkpoint_every=0.2, injector=injector, verbose=False
        )
        runner.run(0.4)
        assert runner.rollbacks >= 1
        assert solver.t == pytest.approx(0.4)
        assert np.isfinite(solver.Q).all()

    def test_recovery_path_identical_to_serial_backend(self):
        # the recovery ladder (rollback, dt-halved replay, relaxation) must
        # be an execution detail of the SUPERVISOR, not the backend: the
        # same injected fault on serial and partitioned backends walks the
        # same path and lands on bitwise-identical state
        runs = {}
        for backend, workers in (("serial", None), ("partitioned", 2)):
            if backend == "serial":
                solver = build_coupled()
            else:
                solver = self.build_partitioned(workers=workers)
            runner = ResilientRunner(
                solver, checkpoint_every=0.1,
                injector=FaultInjector().corrupt_state(at_step=4),
                verbose=False,
            )
            runner.run(0.2)
            runs[backend] = (solver, runner)
        serial, partitioned = runs["serial"], runs["partitioned"]
        assert serial[1].rollbacks == partitioned[1].rollbacks >= 1
        assert np.array_equal(serial[0].Q, partitioned[0].Q)
        assert np.array_equal(serial[0].gravity.eta,
                              partitioned[0].gravity.eta)

    def test_persistent_fault_diverges_on_partitioned_backend(self):
        solver = self.build_partitioned()
        injector = FaultInjector().corrupt_state(at_step=3, persistent=True)
        runner = ResilientRunner(
            solver, injector=injector, max_retries=2, verbose=False
        )
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(0.3)
        assert exc_info.value.diagnostics()["attempts"] == 3
