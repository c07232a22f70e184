"""Observability layer: telemetry, structured run logs, roofline report."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.health import SimulationDiverged
from repro.core.health.inject import FaultInjector
from repro.core.resilience import ResilientRunner
from repro.obs import (
    EVENT_FIELDS,
    ObsSession,
    RunLog,
    get_telemetry,
    run_manifest,
    validate_jsonl,
)
from repro.obs.report import (
    lts_cluster_updates,
    phase_total,
    roofline_rows,
    worker_split,
)

from repro.core.materials import acoustic, elastic
from repro.core.solver import (
    CoupledSolver,
    PointSource,
    ocean_surface_gravity_tagger,
)
from repro.mesh.generators import layered_ocean_mesh


def build_coupled(order=2):
    """Small coupled Earth-ocean solver (same setup as test_resilience)."""
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
        PointSource([1000.0, 1000.0, -900.0], ricker,
                    moment=[5e12] * 3 + [0, 0, 0])
    )
    return solver


@pytest.fixture(autouse=True)
def _clean_telemetry():
    tel = get_telemetry()
    tel.disable()
    tel.reset()
    yield
    tel.disable()
    tel.reset()


# ----------------------------------------------------------------------
class TestTelemetry:
    def test_disabled_phase_is_shared_noop(self):
        tel = get_telemetry()
        assert tel.phase("a") is tel.phase("b")  # one shared null CM
        with tel.phase("a"):
            tel.count("c", 5)
            tel.add_time("t", 1.0)
        snap = tel.snapshot()
        assert snap["phases"] == {} and snap["counters"] == {}

    def test_nested_phases_record_hierarchical_paths(self):
        tel = get_telemetry()
        tel.enable()
        with tel.phase("step"):
            with tel.phase("predict"):
                pass
            with tel.phase("predict"):
                pass
        snap = tel.snapshot()["phases"]
        assert set(snap) == {"step", "step/predict"}
        assert snap["step/predict"]["calls"] == 2
        assert snap["step"]["calls"] == 1
        assert snap["step"]["seconds"] >= snap["step/predict"]["seconds"]
        # suffix aggregation finds the nested path
        assert phase_total(snap, "predict") == snap["step/predict"]["seconds"]

    def test_counters_and_add_time(self):
        tel = get_telemetry()
        tel.enable()
        tel.count("elem_updates/predictor", 10)
        tel.count("elem_updates/predictor", 32)
        tel.add_time("worker/p0/compute", 0.25)
        tel.add_time("worker/p0/compute", 0.75)
        assert tel.counter("elem_updates/predictor") == 42
        snap = tel.snapshot()
        assert snap["phases"]["worker/p0/compute"]["seconds"] == pytest.approx(1.0)
        assert snap["phases"]["worker/p0/compute"]["calls"] == 2

    def test_reset_keeps_enabled_flag(self):
        tel = get_telemetry()
        tel.enable()
        tel.count("x")
        tel.reset()
        assert tel.enabled
        assert tel.snapshot()["counters"] == {}

    def test_counter_read_takes_the_registry_lock(self):
        """Regression: ``counter()`` used to read ``_counters`` without
        ``_lock``, so a read racing the partitioned workers' ``count()``
        calls could observe torn state relative to ``snapshot()``."""
        tel = get_telemetry()
        tel.enable()

        acquisitions = []
        real_lock = tel._lock

        class RecordingLock:
            def __enter__(self):
                acquisitions.append(True)
                return real_lock.__enter__()

            def __exit__(self, *exc):
                return real_lock.__exit__(*exc)

        tel._lock = RecordingLock()
        try:
            tel.count("c", 2)
            acquisitions.clear()
            assert tel.counter("c") == 2
            assert acquisitions, "counter() must acquire the registry lock"
            assert tel.counter("never-set") == 0
        finally:
            tel._lock = real_lock

    def test_counter_reads_race_concurrent_increments(self):
        tel = get_telemetry()
        tel.enable()

        def bump():
            for _ in range(2000):
                tel.count("raced")

        reads = []

        def read():
            for _ in range(2000):
                reads.append(tel.counter("raced"))

        threads = [threading.Thread(target=bump) for _ in range(2)]
        threads.append(threading.Thread(target=read))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.counter("raced") == 4000
        assert all(0 <= v <= 4000 for v in reads)
        assert reads == sorted(reads)  # monotonic counter, consistent reads

    def test_thread_safety(self):
        tel = get_telemetry()
        tel.enable()

        def work(i):
            for _ in range(1000):
                tel.count("shared")
                tel.add_time(f"worker/p{i}/compute", 1e-6)
                with tel.phase("kernels/volume"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = tel.snapshot()
        assert tel.counter("shared") == 4000
        assert snap["phases"]["kernels/volume"]["calls"] == 4000
        assert len(worker_split(snap["phases"])) == 4

    def test_disabled_overhead_below_two_percent_of_step(self):
        """The acceptance bar: telemetry off must not tax the solver.

        Estimates the per-step cost of every disabled instrumentation
        site (one ``enabled`` check + null context manager each) and
        compares it against the measured per-step wall time.
        """
        solver = build_coupled(order=2)
        tel = get_telemetry()

        # how many phase/count sites fire per step: measure one enabled step
        tel.enable()
        solver.step()
        snap = tel.snapshot()
        tel.disable()
        tel.reset()
        sites = sum(c["calls"] for c in snap["phases"].values())
        sites += len(snap["counters"])  # upper bound on count() sites
        assert sites >= 5  # the step is actually instrumented

        # per-call cost of the disabled fast path
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with tel.phase("x"):
                pass
            tel.count("c", 3)
        per_call = (time.perf_counter() - t0) / n

        # measured step time with telemetry off
        t0 = time.perf_counter()
        for _ in range(3):
            solver.step()
        per_step = (time.perf_counter() - t0) / 3

        overhead = sites * per_call / per_step
        assert overhead < 0.02, (
            f"disabled telemetry costs {overhead * 100:.3f}% of a step "
            f"({sites} sites x {per_call * 1e9:.0f} ns)"
        )


# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_serial_step_phases_and_counters(self):
        solver = build_coupled(order=2)
        tel = get_telemetry()
        tel.enable()
        solver.step()
        snap = tel.snapshot()
        ne = solver.mesh.n_elements
        assert snap["counters"]["elem_updates/predictor"] == ne
        assert snap["counters"]["elem_updates/corrector"] == ne
        # one kernel path, un-suffixed phase names (DESIGN.md §5 maps
        # them to the paper's Sec. 5 kernels)
        for leaf in ("predict", "corrector", "kernels/volume",
                     "kernels/surface_interior", "kernels/surface_boundary",
                     "gravity/ode"):
            assert phase_total(snap["phases"], leaf) > 0.0, leaf
        # kernels nest under the corrector under the step
        assert "step/corrector/kernels/volume" in snap["phases"]

    def test_partitioned_workers_report_halo_split(self):
        solver = build_coupled(order=2)
        psolver = build_coupled(order=2)
        from repro.exec.partitioned import PartitionedBackend

        backend = PartitionedBackend(workers=4)
        backend.bind(psolver)
        psolver.backend = backend
        try:
            tel = get_telemetry()
            tel.enable()
            for _ in range(2):
                psolver.step()
                solver.step()
            snap = tel.snapshot()
        finally:
            backend.close()
        np.testing.assert_allclose(psolver.Q, solver.Q, rtol=1e-10,
                                   atol=1e-13 * max(np.abs(solver.Q).max(), 1e-300))
        split = worker_split(snap["phases"])
        assert len(split) == len(backend.plans) >= 2
        for s in split.values():
            assert s["compute_s"] > 0.0
            assert 0.0 <= s["halo_fraction"] <= 1.0
        assert snap["counters"]["elem_updates/corrector"] == \
            2 * psolver.mesh.n_elements * 2  # both solvers, two steps

    def test_lts_cluster_counters(self):
        from repro.core.lts import LocalTimeStepping

        solver = build_coupled(order=1)
        lts = LocalTimeStepping(solver)
        tel = get_telemetry()
        tel.enable()
        lts.run(solver.dt * 4)
        clusters = lts_cluster_updates(tel.snapshot()["counters"])
        assert clusters
        total = sum(c["elem_updates"] for c in clusters.values())
        assert total == sum(int(u * n) for u, n in
                            zip(lts.updates, lts.elem_count))


# ----------------------------------------------------------------------
class TestRunLog:
    def test_schema_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={"command": "test"}))
            log.emit("heartbeat", step=2, sim_t=0.1, dt=0.05, energy=1.0,
                     wall_rate=20.0)
            log.emit("run_end", steps=2, wall_s=0.1, phases={}, counters={})
        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["events"] == {"manifest": 1, "heartbeat": 1, "run_end": 1}
        recs = [json.loads(line) for line in open(path)]
        assert [r["seq"] for r in recs] == [0, 1, 2]
        assert len({r["run_id"] for r in recs}) == 1

    def test_unknown_event_rejected_and_garbage_detected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        with pytest.raises(ValueError, match="unknown run-log event"):
            log.emit("explosion", boom=True)
        log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1)  # missing fields
        log.close()
        with open(path, "a") as fh:
            fh.write("not json at all\n")
        result = validate_jsonl(path)
        msgs = [m for _, m in result["errors"]]
        assert any("missing required field" in m for m in msgs)
        assert any("invalid JSON" in m for m in msgs)

    def test_manifest_covers_solver_identity(self):
        solver = build_coupled(order=2)
        man = run_manifest(solver, config={"command": "t"}, resumed=False)
        for key in EVENT_FIELDS["manifest"]:
            assert key in man
        assert man["order"] == 2
        assert man["n_elements"] == solver.mesh.n_elements
        assert man["backend"] == solver.backend.describe()
        assert isinstance(man["fingerprint"], str)

    def test_numpy_values_serialize(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("heartbeat", step=np.int64(3), sim_t=np.float64(0.5),
                     dt=np.float32(0.1), energy=np.float64(2.0),
                     wall_rate=np.array([1.0, 2.0]))
        assert validate_jsonl(path)["errors"] == []


# ----------------------------------------------------------------------
class TestObsSession:
    def test_kill_resume_appends_to_same_log(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ckpt = str(tmp_path / "ckpt")

        # first leg: checkpoint, then "die" without a clean finish
        solver = build_coupled(order=1)
        obs = ObsSession(log_json=path, heartbeat_every=1,
                         config={"command": "leg1"})
        runner = ResilientRunner(solver, checkpoint_every=0.05,
                                 checkpoint_dir=ckpt, verbose=False,
                                 runlog=obs.runlog)
        obs.start(solver)
        runner.run(0.1, callback=obs.chain(None))
        obs.runlog.close()  # abrupt end: no run_end record

        # second leg resumes from the checkpoint and appends
        solver2 = build_coupled(order=1)
        obs2 = ObsSession(log_json=path, heartbeat_every=1,
                          config={"command": "leg2"})
        runner2 = ResilientRunner(solver2, checkpoint_every=0.05,
                                  checkpoint_dir=ckpt, verbose=False,
                                  runlog=obs2.runlog)
        runner2.resume(ckpt)
        assert solver2.t == pytest.approx(solver.t)
        obs2.start(solver2, resumed=True)
        runner2.run(0.2, callback=obs2.chain(None))
        obs2.finish(solver2)

        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["events"]["manifest"] == 2
        assert result["events"]["resume"] == 1
        assert result["events"]["checkpoint"] >= 2
        assert result["events"]["heartbeat"] >= 2
        assert result["events"]["run_end"] == 1
        manifests = [json.loads(line) for line in open(path)
                     if json.loads(line)["event"] == "manifest"]
        assert [m["resumed"] for m in manifests] == [False, True]
        assert manifests[0]["fingerprint"] == manifests[1]["fingerprint"]

    def test_recovery_and_diverged_events_logged(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=2)
        injector = FaultInjector().corrupt_state(at_step=4, persistent=True)
        obs = ObsSession(log_json=path, config={"command": "doomed"})
        runner = ResilientRunner(solver, injector=injector, max_retries=2,
                                 verbose=False, runlog=obs.runlog)
        obs.start(solver)
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(0.3, callback=obs.chain(None))
        obs.runlog.close()

        # satellite: the exception reports the wall clock spent
        assert exc_info.value.wall_s is not None
        assert exc_info.value.wall_s > 0.0
        assert "s wall" in str(exc_info.value)
        assert exc_info.value.diagnostics()["wall_s"] == exc_info.value.wall_s

        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["events"]["recovery"] == 2
        assert result["events"]["diverged"] == 1
        recs = [json.loads(line) for line in open(path)]
        div = [r for r in recs if r["event"] == "diverged"][0]
        assert div["attempts"] == 3 and div["wall_s"] > 0.0
        rec = [r for r in recs if r["event"] == "recovery"][0]
        assert rec["attempt"] == 1 and "NaN" in rec["reason"]

    def test_heartbeat_rate_and_chain(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=1)
        seen = []
        obs = ObsSession(log_json=path, heartbeat_every=2)
        obs.start(solver)
        cb = obs.chain(lambda s: seen.append(s.t))
        for _ in range(5):
            solver.step()
            cb(solver)
        obs.finish(solver)
        assert len(seen) == 5
        recs = [json.loads(line) for line in open(path)]
        beats = [r for r in recs if r["event"] == "heartbeat"]
        assert [b["step"] for b in beats] == [2, 4]
        assert all(b["wall_rate"] > 0 for b in beats)
        assert all(np.isfinite(b["energy"]) for b in beats)

    def test_heartbeat_without_runlog_prints_to_stdout(self, capsys):
        """Satellite regression: an explicit ``--heartbeat-every`` without
        ``--log-json`` used to be silently ignored."""
        solver = build_coupled(order=1)
        obs = ObsSession(heartbeat_every=2)
        assert obs.active  # heartbeats alone make the session active
        obs.start(solver)
        cb = obs.chain(None)
        assert cb is not None
        for _ in range(4):
            solver.step()
            cb(solver)
        obs.finish(solver)
        out = capsys.readouterr().out
        beats = [ln for ln in out.splitlines() if ln.startswith("[heartbeat]")]
        assert len(beats) == 2
        assert "step 2" in beats[0] and "step 4" in beats[1]
        assert "sim t" in beats[0] and "steps/s" in beats[0]

    def test_heartbeat_with_runlog_stays_off_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=1)
        obs = ObsSession(log_json=path, heartbeat_every=1)
        obs.start(solver)
        cb = obs.chain(None)
        for _ in range(2):
            solver.step()
            cb(solver)
        obs.finish(solver)
        assert "[heartbeat]" not in capsys.readouterr().out
        recs = [json.loads(line) for line in open(path)]
        assert sum(r["event"] == "heartbeat" for r in recs) == 2

    def test_finish_is_exception_safe(self, tmp_path, capsys):
        """Satellite: an exception mid-``finish()`` (here: the trace export
        hitting a nonexistent directory) must still close the run log and
        disable the session-owned registry."""
        log_path = str(tmp_path / "run.jsonl")
        bad_trace = str(tmp_path / "no-such-dir" / "out.trace.json")
        solver = build_coupled(order=1)
        obs = ObsSession(profile=True, trace=bad_trace, log_json=log_path)
        tel = get_telemetry()
        assert tel.enabled
        obs.start(solver)
        solver.step()
        with pytest.raises(OSError):
            obs.finish(solver)
        assert not tel.enabled, "registry leaked enabled after finish() raised"
        assert obs.runlog.closed
        capsys.readouterr()  # swallow partial output

    def test_inactive_session_is_transparent(self):
        obs = ObsSession()
        assert not obs.active
        cb = object()
        assert obs.chain(cb) is cb
        assert obs.chain(None) is None
        obs.start()
        obs.finish()  # must not raise without a solver or log

    def test_quickstart_example_cli_forwards_metrics(self, tmp_path,
                                                     monkeypatch):
        """``python examples/quickstart.py --metrics`` used to drop the
        flag between argparse and ``main()``: 0 ``metrics`` records where
        ``python -m repro quickstart --metrics`` wrote one."""
        import runpy
        import sys
        from pathlib import Path

        path = str(tmp_path / "q.jsonl")
        script = str(Path(__file__).resolve().parent.parent
                     / "examples" / "quickstart.py")
        monkeypatch.setattr(sys, "argv", [script, "--t-end", "0.05",
                                          "--metrics", "--log-json", path])
        runpy.run_path(script, run_name="__main__")
        events = [json.loads(line)["event"] for line in open(path)]
        assert "metrics" in events


# ----------------------------------------------------------------------
class TestReport:
    def _fake_run(self, n_steps=3):
        solver = build_coupled(order=2)
        tel = get_telemetry()
        tel.enable()
        for _ in range(n_steps):
            solver.step()
        return solver, tel.snapshot()

    @pytest.mark.parametrize("node", ["rome", "local"])
    def test_roofline_rows_sane(self, node):
        """Measured <= 1.05 x the roofline model, on the paper's Rome node
        and on ``local``, the nominal model of the executing host: a coarse
        gate against a timer that measures nothing or a wildly wrong FLOP
        count (the rows sit at 7-14 % of ``local``).  It cannot see a
        small-factor miscount; exact accounting is pinned by
        ``test_roofline_credits_executed_flops``."""
        solver, snap = self._fake_run()
        rows = roofline_rows(snap["phases"], snap["counters"],
                             order=solver.order, node=node)
        kernels = {r["kernel"]: r for r in rows}
        assert set(kernels) == {"predictor", "corrector"}
        for r in rows:
            assert r["seconds"] > 0
            assert r["elem_updates"] == 3 * solver.mesh.n_elements
            assert r["measured_gflops"] == pytest.approx(
                r["gflop"] / r["seconds"])
            assert r["model_gflops"] > 0
            assert r["measured_gflops"] <= 1.05 * r["model_gflops"]
            assert 0 < r["efficiency"] < 1  # NumPy won't beat the roofline

    def test_roofline_credits_executed_flops(self, capsys):
        """A profiled run's GFLOP per row are the *executed* (fused)
        counts x the element-update counters — not the dense counts of
        the retired kernel path, which overstated the predictor 3.94x at
        order 2."""
        from repro.hpc.perfmodel import kernel_counts

        solver = build_coupled(order=2)
        obs = ObsSession(profile=True)
        obs.start(solver)
        for _ in range(2):
            solver.step()
        counters = get_telemetry().snapshot()["counters"]
        obs.finish(solver)
        kc = kernel_counts(2, variant="fused")
        want = {
            "predictor": kc.flops_predictor * counters["elem_updates/predictor"] / 1e9,
            "corrector": kc.flops_corrector * counters["elem_updates/corrector"] / 1e9,
        }
        table = capsys.readouterr().out.split("roofline (measured vs modeled")[1]
        for kernel, gflop in want.items():
            row = next(ln.split() for ln in table.splitlines()
                       if ln.split()[:1] == [kernel])
            assert float(row[2]) == pytest.approx(gflop, abs=5e-4)

    def test_profile_lines_render(self):
        from repro.obs.report import profile_lines

        solver, snap = self._fake_run(n_steps=1)
        lines = profile_lines(snap, order=solver.order, wall_s=1.0)
        text = "\n".join(lines)
        assert "phase breakdown" in text
        assert "roofline" in text
        assert "predictor" in text and "corrector" in text

    def test_obs_report_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "run.jsonl")
        solver = build_coupled(order=1)
        obs = ObsSession(profile=True, log_json=path, heartbeat_every=2,
                         config={"command": "cli-test"})
        obs.start(solver)
        cb = obs.chain(None)
        for _ in range(4):
            solver.step()
            cb(solver)
        obs.finish(solver)
        capsys.readouterr()

        assert main(["obs-report", path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "0 schema error(s) -> OK" in out
        assert "cli-test" in out
        assert "heartbeats: 2" in out
        assert "phase breakdown" in out
        assert "roofline" in out

        assert main(["obs-report", path, "--node", "atari2600"]) == 2

    def test_check_runlog_tool(self, tmp_path):
        import importlib.util
        import os

        spec = importlib.util.spec_from_file_location(
            "check_runlog",
            os.path.join(os.path.dirname(__file__), "..", "tools",
                         "check_runlog.py"),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={}))
        assert mod.main([path]) == 0
        assert mod.main([path, "--min-manifests", "2"]) == 1
        assert mod.main([path, "--require-heartbeat"]) == 1
        with open(path, "a") as fh:
            fh.write("garbage\n")
        assert mod.main([path]) == 1


# ----------------------------------------------------------------------
class TestRunLogDurability:
    """Crash-safe logging for ensemble workers (ISSUE 6 satellites)."""

    def test_durable_records_visible_before_close(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path, durable=True)
        log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                 wall_rate=1.0)
        # no close(): a kill -9 right now must still leave the record
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
        assert len(recs) == 1 and recs[0]["event"] == "heartbeat"
        log.close()

    def test_torn_final_line_reported_not_failed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                     wall_rate=1.0)
        with open(path, "a") as fh:
            fh.write('{"event": "heartbeat", "step": 2, "si')  # no newline
        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["truncated_tail"]
        assert result["records"] == 1  # the torn tail is not a record

    def test_garbage_with_newline_still_an_error(self, tmp_path):
        # only an UNTERMINATED final line is a legitimate crash artifact;
        # newline-terminated garbage is corruption and must keep failing
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                     wall_rate=1.0)
        with open(path, "a") as fh:
            fh.write("not json\n")
        result = validate_jsonl(path)
        assert result["errors"]
        assert not result["truncated_tail"]

    def test_torn_mid_file_line_still_an_error(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as fh:
            fh.write('{"torn": \n')
            fh.write('{"event": "heartbeat", "step": 2, "si')
        result = validate_jsonl(path)
        # the mid-file bad line errors even though the tail is tolerated
        assert any("invalid JSON" in m for _, m in result["errors"])
        assert result["truncated_tail"]

    def test_emit_many_is_one_write_one_fsync(self, tmp_path, monkeypatch):
        """A batch is durable when the call returns, under a single fsync,
        with consecutive ``seq``; one record still costs one fsync."""
        import os as _os

        syncs = []
        real_fsync = _os.fsync
        monkeypatch.setattr(_os, "fsync", lambda fd: syncs.append(fd) or real_fsync(fd))
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path, durable=True)
        log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                 wall_rate=1.0)
        assert len(syncs) == 1
        log.emit_many([
            ("metrics", dict(step=2, sim_t=0.1, metrics={})),
            ("heartbeat", dict(step=2, sim_t=0.1, dt=0.1, energy=0.0,
                               wall_rate=1.0)),
        ])
        assert len(syncs) == 2
        with open(path) as fh:  # no close(): a kill -9 now loses nothing
            recs = [json.loads(line) for line in fh]
        assert [r["event"] for r in recs] == ["heartbeat", "metrics", "heartbeat"]
        assert [r["seq"] for r in recs] == [0, 1, 2]
        log.emit("run_end", steps=2, wall_s=0.1, phases={}, counters={})
        log.close()
        result = validate_jsonl(path)
        assert result["errors"] == [] and result["records"] == 4
        assert json.loads(open(path).readlines()[-1])["seq"] == 3

    def test_emit_many_rejects_the_whole_batch(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            with pytest.raises(ValueError, match="unknown run-log event"):
                log.emit_many([
                    ("heartbeat", dict(step=1, sim_t=0.0, dt=0.1, energy=0.0,
                                       wall_rate=1.0)),
                    ("explosion", {}),
                ])
            log.emit("run_end", steps=0, wall_s=0.0, phases={}, counters={})
        recs = [json.loads(line) for line in open(path)]
        assert [(r["event"], r["seq"]) for r in recs] == [("run_end", 0)]

    def test_torn_batch_is_a_torn_tail(self, tmp_path):
        """A kill inside a batch write leaves whole records plus one
        partial line: the torn-tail rule covers it."""
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit_many([
                ("metrics", dict(step=1, sim_t=0.0, metrics={})),
                ("heartbeat", dict(step=1, sim_t=0.0, dt=0.1, energy=0.0,
                                   wall_rate=1.0)),
            ])
        raw = open(path).read()
        for cut in (len(raw) - 10, raw.index("\n") + 20, 15):
            with open(path, "w") as fh:
                fh.write(raw[:cut])
            result = validate_jsonl(path)
            assert result["errors"] == []
            assert result["truncated_tail"]
            assert result["records"] == raw[:cut].count("\n")

    def test_supervisor_events_schema(self, tmp_path):
        path = str(tmp_path / "ens.jsonl")
        with RunLog(path) as log:
            log.emit("member_start", member="m0", attempt=1,
                     scenario="quickstart", pid=123)
            log.emit("member_retry", member="m0", attempt=1,
                     reason="killed by signal 9", delay_s=0.25, resume=True,
                     dt_scale=1.0)
            log.emit("member_quarantined", member="m0", attempts=3,
                     diagnosis="worker_death after 3 attempt(s)",
                     verdict="worker_death", bundle=None)
            log.emit("member_end", member="m0", status="quarantined",
                     attempts=3, wall_s=1.5)
            log.emit("ensemble_summary", members=1, ok=0, recovered=0,
                     quarantined=1, wall_s=2.0)
        result = validate_jsonl(path)
        assert result["errors"] == []
        assert result["records"] == 5
        # an incomplete supervisor event is caught by validation
        with RunLog(str(tmp_path / "x.jsonl")) as bad:
            bad.emit("member_start", member="m")
        msgs = [m for _, m in validate_jsonl(str(tmp_path / "x.jsonl"))["errors"]]
        assert any("missing required field" in m for m in msgs)
