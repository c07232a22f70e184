"""Observability layer: the instrument registry, run logs, kernel rates."""

import json
import threading

import numpy as np
import pytest

from repro.core.health import SimulationDiverged, total_energy
from repro.core.health.inject import FaultInjector
from repro.core.resilience import ResilientRunner
from repro.obs import (
    EVENT_FIELDS,
    MetricRegistry,
    ObsSession,
    RunLog,
    read_records,
    run_manifest,
    validate_jsonl,
)
from repro.obs.report import (
    lts_cluster_updates,
    phase_total,
    worker_split,
)

from repro.sched import HookBus, Scheduler

from .conftest import disabled_step_overhead, gravity_box

#: the layers a session times on every solver (ledger names)
SOLVER_PHASES = ("kernels.predict", "kernels.apply", "core.step",
                 "core.gravity", "exec.predict", "exec.corrector")


# ----------------------------------------------------------------------
class TestTelemetry:
    def test_disabled_phase_is_shared_noop(self):
        """A session that records nothing owns no registry and leaves the
        solver's instances as it found them: no wrapper, no cost."""
        solver = gravity_box(order=1)
        solver.step()  # the step's own buffers exist before the count
        owners = (solver, solver.op, solver.backend, solver.gravity)
        before = [dict(vars(o)) for o in owners]
        obs = ObsSession()
        assert obs.registry is None
        obs.start(solver)
        solver.step()
        assert [set(vars(o)) for o in owners] == [set(b) for b in before]
        obs.finish(solver)

    def test_disabled_overhead_below_two_percent_of_step(self, tmp_path,
                                                         registry_calls):
        """A logging run without metrics (``--log-json`` alone) keeps the
        registry off: no phase or counter site fires in its steps, and the
        one per-step cost it adds, the sync hook between heartbeats, stays
        under 2 % of a step."""
        path = str(tmp_path / "run.jsonl")
        solver = gravity_box(order=2)
        obs = ObsSession(log_json=path, heartbeat_every=2)
        assert obs.registry is None
        bus = obs.subscribe(HookBus())
        obs.start(solver)
        Scheduler(solver).run(4 * solver.dt, hooks=bus)
        obs.finish(solver)
        assert sum(registry_calls.values()) == 0
        beats = [r for r in read_records(path)[0] if r["event"] == "heartbeat"]
        assert beats and all("metrics" not in b for b in beats)

        quiet = ObsSession(log_json=str(tmp_path / "quiet.jsonl"),
                           heartbeat_every=10**9)
        quiet.start(solver)
        try:
            overhead, per_site = disabled_step_overhead(
                solver, 1, lambda: quiet.on_step(solver))
        finally:
            quiet.close()
        assert overhead < 0.02, (
            f"the registry-off session costs {overhead * 100:.3f}% of a "
            f"step ({per_site * 1e9:.0f} ns per sync)")

    def test_phases_record_flat_names(self):
        """A phase opened inside another keeps its own (ledger) name; the
        outer one's seconds include it."""
        met = MetricRegistry()
        with met.phase("core.step"):
            with met.phase("kernels.predict"):
                pass
            with met.phase("kernels.predict"):
                pass
        snap = met.snapshot()["phases"]
        assert set(snap) == {"core.step", "kernels.predict"}
        assert snap["kernels.predict"]["calls"] == 2
        assert snap["core.step"]["calls"] == 1
        assert snap["core.step"]["seconds"] >= snap["kernels.predict"]["seconds"]
        assert phase_total(snap, "kernels.predict") \
            == snap["kernels.predict"]["seconds"]
        assert phase_total(snap, "never.ran") == 0.0

    def test_counters_and_add_time(self):
        met = MetricRegistry()
        met.inc("elem_updates/predictor", 10)
        met.inc("elem_updates/predictor", 32)
        met.add_time("worker/p0/compute", 0.25)
        met.add_time("worker/p0/compute", 0.75)
        assert met.value("elem_updates/predictor") == 42
        snap = met.snapshot()
        assert snap["phases"]["worker/p0/compute"]["seconds"] == pytest.approx(1.0)
        assert snap["phases"]["worker/p0/compute"]["calls"] == 2

    def test_reset_keeps_enabled_flag(self):
        """``reset`` empties the tables; the registry records on."""
        met = MetricRegistry()
        met.inc("x")
        with met.phase("p"):
            pass
        met.reset()
        snap = met.snapshot()
        assert snap["counters"] == {} and snap["phases"] == {}
        met.inc("x")
        assert met.value("x") == 1

    def test_counter_read_takes_the_registry_lock(self):
        """Regression: counter reads used to skip the lock, so a read
        racing the partitioned workers' ``inc()`` calls could observe
        torn state relative to ``snapshot()``."""
        met = MetricRegistry()

        acquisitions = []
        real_lock = met._lock

        class RecordingLock:
            def __enter__(self):
                acquisitions.append(True)
                return real_lock.__enter__()

            def __exit__(self, *exc):
                return real_lock.__exit__(*exc)

        met._lock = RecordingLock()
        try:
            met.inc("c", 2)
            acquisitions.clear()
            assert met.value("c") == 2
            assert acquisitions, "value() must acquire the registry lock"
            assert met.value("never-set") is None
        finally:
            met._lock = real_lock

    def test_counter_reads_race_concurrent_increments(self):
        """Reads of a registry racing two incrementing threads never tear
        and never run backwards."""
        met = MetricRegistry()

        def bump():
            for _ in range(2000):
                met.inc("raced")

        reads = []

        def read():
            for _ in range(2000):
                reads.append(met.value("raced") or 0)

        threads = [threading.Thread(target=bump) for _ in range(2)]
        threads.append(threading.Thread(target=read))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert met.value("raced") == 4000
        assert all(0 <= v <= 4000 for v in reads)
        assert reads == sorted(reads)  # monotonic counter, consistent reads

    def test_thread_safety(self):
        met = MetricRegistry()

        def work(i):
            for _ in range(1000):
                met.inc("shared")
                met.add_time(f"worker/p{i}/compute", 1e-6)
                with met.phase("kernels.apply"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = met.snapshot()
        assert met.value("shared") == 4000
        assert snap["phases"]["kernels.apply"]["calls"] == 4000
        assert len(worker_split(snap["phases"])) == 4


# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_serial_step_phases_and_counters(self):
        solver = gravity_box(order=2)
        obs = ObsSession(metrics=True)
        obs.start(solver)
        solver.step()
        snap = obs.snapshot()
        obs.close()
        ne = solver.mesh.n_elements
        assert snap["counters"]["elem_updates/predictor"] == ne
        assert snap["counters"]["elem_updates/corrector"] == ne
        # the perf ledger's layer names, one flat phase each
        for name in SOLVER_PHASES:
            assert snap["phases"][name]["calls"] == 1, name
            assert snap["phases"][name]["seconds"] > 0.0, name
        assert snap["phases"]["core.step"]["seconds"] \
            >= snap["phases"]["exec.corrector"]["seconds"] \
            >= snap["phases"]["kernels.apply"]["seconds"]

    def test_partitioned_workers_report_compute(self):
        from repro.exec.partitioned import PartitionedBackend

        solver = gravity_box(order=2)
        backend = PartitionedBackend(workers=4)
        psolver = gravity_box(order=2, backend=backend)
        obs = ObsSession(metrics=True)
        obs.start(psolver)
        try:
            for _ in range(2):
                psolver.step()
                solver.step()
            snap = obs.snapshot()
        finally:
            obs.close()
            backend.close()
        np.testing.assert_allclose(psolver.Q, solver.Q, rtol=1e-10,
                                   atol=1e-13 * max(np.abs(solver.Q).max(), 1e-300))
        split = worker_split(snap["phases"])
        assert len(split) == len(backend.plans) >= 2
        for s in split.values():
            assert set(s) == {"compute_s"} and s["compute_s"] > 0.0
        # each part's residual kernels are the corrector's kernels
        assert sum(s["compute_s"] for s in split.values()) \
            == pytest.approx(snap["phases"]["kernels.apply"]["seconds"])
        assert snap["counters"]["elem_updates/corrector"] == \
            2 * psolver.mesh.n_elements  # the observed solver, two steps

    def test_lts_cluster_counters(self):
        from repro.core.lts import LocalTimeStepping

        solver = gravity_box(order=1)
        lts = LocalTimeStepping(solver)
        obs = ObsSession(metrics=True)
        bus = obs.subscribe(HookBus())
        obs.start(solver)
        Scheduler(solver, lts).run(solver.dt * 4, hooks=bus)
        clusters = lts_cluster_updates(obs.snapshot()["counters"])
        obs.close()
        assert clusters
        total = sum(c["elem_updates"] for c in clusters.values())
        assert total == sum(int(u * n) for u, n in
                            zip(lts.updates, lts.elem_count))

    def test_each_quantity_counted_once(self):
        """One name per quantity: plan-cache lookups only as
        ``cache/plan_hits|misses`` (agreeing with ``PlanCache.stats()``;
        building the solver is the one lookup, a run makes none), LTS
        cluster updates only as the ``lts/updates`` counters (no twin
        counter, no per-sync gauge), steps only as the sync points of
        ``sched/sync_total`` (no step counter of the scheduler's own, no
        ``sched/*`` gauge: rate and simulated time are the heartbeat's)."""
        from repro.core.lts import LocalTimeStepping
        from repro.exec.plan_cache import get_plan_cache

        cache = get_plan_cache()
        before = cache.stats()
        obs = ObsSession(metrics=True)  # before the build: it is counted
        solver = gravity_box(order=1)
        lts = LocalTimeStepping(solver)
        assert lts.n_clusters == 2
        sched = Scheduler(solver, lts)
        n_sync = sched.compiled_plan(solver.dt * 4).n_sync
        bus = obs.subscribe(HookBus())
        obs.start(solver)
        sched.run(solver.dt * 4, hooks=bus)
        snap = obs.snapshot()
        obs.close()
        assert {n for n in snap["counters"] if "plan" in n} \
            <= {"cache/plan_hits", "cache/plan_misses"}
        assert {n for n in snap["counters"] if n.startswith("sched/")} \
            == {"sched/sync_total"}
        assert snap["counters"]["sched/sync_total"] == n_sync
        assert not [n for n in snap["gauges"] if n.startswith("sched/")]
        assert not [n for n in snap["gauges"] if "updates" in n]
        clusters = lts_cluster_updates(snap["counters"])
        assert [clusters[c]["updates"] for c in range(lts.n_clusters)] \
            == lts.updates.tolist()
        lookups = sum(cache.stats()[k] - before[k] for k in ("hits", "misses"))
        assert lookups == 1
        assert snap["counters"].get("cache/plan_hits", 0) \
            + snap["counters"].get("cache/plan_misses", 0) == lookups


# ----------------------------------------------------------------------
class TestRunLog:
    def test_schema_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={"command": "test"}))
            log.emit("heartbeat", step=2, sim_t=0.1, dt=0.05, energy=1.0,
                     wall_rate=20.0)
            log.emit("run_end", steps=2, wall_s=0.1,
                     metrics=MetricRegistry().snapshot())
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

    def test_one_schema_for_payloads_and_bundle_fields(self, tmp_path,
                                                       capsys):
        """The snapshot a heartbeat or ``run_end`` carries, a ``bundle``
        path and a ``verdict`` are part of the one schema ``obs-report
        --check`` judges a log by; a schema-3 ``metrics`` record is an
        unknown event."""
        from repro.__main__ import main

        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={}))
            log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=1.0,
                     wall_rate=1.0, metrics={
                         "schema": 1, "counters": {"c": "many"},
                         "gauges": {}})
            log.emit("member_quarantined", member="m0", attempts=1,
                     diagnosis="?", verdict="gremlins", bundle=7)
            log.emit("run_end", steps=1, wall_s=0.1, metrics={
                "counters": {}, "gauges": {"g": 1.0}})
        with open(path, "a") as fh:
            fh.write(json.dumps({"event": "metrics", "seq": 4, "wall": 1.0,
                                 "run_id": "r", "step": 1, "sim_t": 0.0,
                                 "metrics": {"schema": 1}}) + "\n")
        msgs = [m for _, m in validate_jsonl(path)["errors"]]
        assert any("'counters' must map names to numbers" in m for m in msgs)
        assert any("verdict 'gremlins'" in m for m in msgs)
        assert any("'bundle' must be null" in m for m in msgs)
        assert any("missing integer 'schema'" in m for m in msgs)
        assert any("gauge 'g'" in m for m in msgs)
        assert any("unknown event type 'metrics'" in m for m in msgs)
        assert len(msgs) == 6
        assert main(["obs-report", path, "--check"]) == 1
        assert "6 schema error(s) -> INVALID" in capsys.readouterr().out

    def test_forward_compatible_log(self, tmp_path, capsys):
        """A log from a newer writer — a newer manifest schema, an event
        this reader does not know, extra fields on known events — loads
        through the reader, ``obs-report`` and ``obs-status`` without a
        traceback, and ``--check`` reports exactly the unknown event."""
        from repro.__main__ import main

        run_dir = tmp_path / "ens"
        path = str(run_dir / "m0" / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **dict(run_manifest(config={}), schema=99,
                                        accelerator={"kind": "gpu"}))
            log.emit("heartbeat", step=1, sim_t=0.1, dt=0.1, energy=1.0,
                     wall_rate=5.0, gpu_temp=61.5)
            log.emit("run_end", steps=1, wall_s=0.2,
                     metrics=MetricRegistry().snapshot(), exit_reason="t_end")
        with open(path, "a") as fh:
            fh.write(json.dumps({"event": "carbon_budget", "seq": 3,
                                 "wall": 1.0, "run_id": "r", "g": 2}) + "\n")
        with RunLog(str(run_dir / "ensemble.jsonl")) as sup:
            sup.emit("member_start", member="m0", attempt=1,
                     scenario="quickstart", pid=1, queue="fast")
        records, torn = read_records(path)
        assert [r["event"] for r in records] == \
            ["manifest", "heartbeat", "run_end", "carbon_budget"]
        assert not torn
        assert main(["obs-report", path]) == 0
        assert main(["obs-status", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["obs-report", path, "--check"]) == 1
        out = capsys.readouterr().out
        assert f"{path}:4: unknown event type 'carbon_budget'" in out
        assert "1 schema error(s)" in out
        assert main(["obs-status", str(run_dir), "--check"]) == 1
        out = capsys.readouterr().out
        assert f"{path}:4: unknown event type 'carbon_budget'" in out
        assert "1 problem(s) -> INVALID" in out

    @pytest.mark.parametrize("missing", [False, True])
    def test_unreadable_log_is_one_line(self, tmp_path, capsys, missing):
        """A missing file or a directory is a usage error (exit 2 and one
        line on stderr), not a traceback."""
        from repro.__main__ import main

        path = str(tmp_path / "nope.jsonl") if missing else str(tmp_path)
        for argv in (["obs-report", path], ["obs-report", path, "--check"]):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"obs-report: {path}: ")

    def test_manifest_covers_solver_identity(self):
        solver = gravity_box(order=2)
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
        solver = gravity_box(order=1)
        obs = ObsSession(log_json=path, heartbeat_every=1,
                         config={"command": "leg1"})
        runner = ResilientRunner(solver, checkpoint_every=0.05,
                                 checkpoint_dir=ckpt, verbose=False,
                                 runlog=obs.runlog)
        obs.start(solver)
        runner.run(0.1, hooks=obs.subscribe(HookBus()))
        obs.runlog.close()  # abrupt end: no run_end record

        # second leg resumes from the checkpoint and appends
        solver2 = gravity_box(order=1)
        obs2 = ObsSession(log_json=path, heartbeat_every=1,
                          config={"command": "leg2"})
        runner2 = ResilientRunner(solver2, checkpoint_every=0.05,
                                  checkpoint_dir=ckpt, verbose=False,
                                  runlog=obs2.runlog)
        runner2.resume(ckpt)
        assert solver2.t == pytest.approx(solver.t)
        obs2.start(solver2, resumed=True)
        runner2.run(0.2, hooks=obs2.subscribe(HookBus()))
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
        solver = gravity_box(order=2)
        injector = FaultInjector().corrupt_state(at_step=4, persistent=True)
        obs = ObsSession(log_json=path, config={"command": "doomed"})
        runner = ResilientRunner(solver, injector=injector, max_retries=2,
                                 verbose=False, runlog=obs.runlog)
        obs.start(solver)
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(0.3, hooks=obs.subscribe(HookBus()))
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

    def test_supervised_heartbeats_follow_the_runner(self, tmp_path):
        """Under a ``ResilientRunner`` that rolls back once, the session
        counts the runner's steps (not the discarded ones a second time),
        never beats a replayed step again, and reports the backed-off
        ``dt`` the step actually took."""
        path = str(tmp_path / "run.jsonl")
        solver = gravity_box(order=1)
        obs = ObsSession(log_json=path, heartbeat_every=1, metrics=True)
        runner = ResilientRunner(
            solver, checkpoint_every=3 * solver.dt,
            injector=FaultInjector().corrupt_state(at_step=5),  # one-shot
            max_retries=2, verbose=False, runlog=obs.runlog)
        hooks = obs.subscribe(HookBus(), runner=runner)
        dt_at = {}  # step -> dt when the step first completed
        hooks.on_sync(lambda s: dt_at.setdefault(
            runner.step_count, s.dt * runner.dt_scale))
        obs.start(solver)
        runner.run(8 * solver.dt, hooks=hooks)
        obs.finish(solver)

        assert runner.rollbacks == 1
        recs, _ = read_records(path)
        run_end = [r for r in recs if r["event"] == "run_end"][-1]
        assert run_end["steps"] == runner.step_count
        beats = [r for r in recs if r["event"] == "heartbeat"]
        steps = [b["step"] for b in beats]
        assert steps == sorted(set(steps))  # strictly increasing
        assert steps[-1] == runner.step_count
        assert any(dt_at[s] != solver.dt for s in steps)  # a backed-off beat
        for b in beats:
            assert b["dt"] == dt_at[b["step"]]
        assert validate_jsonl(path)["errors"] == []

    def test_heartbeat_rate_and_chain(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        solver = gravity_box(order=1)
        seen = []
        obs = ObsSession(log_json=path, heartbeat_every=2)
        obs.start(solver)
        bus = obs.subscribe(HookBus())
        bus.on_sync(lambda s: seen.append(s.t))
        for _ in range(5):
            solver.step()
            bus.sync(solver)
        obs.finish(solver)
        assert len(seen) == 5
        recs = [json.loads(line) for line in open(path)]
        beats = [r for r in recs if r["event"] == "heartbeat"]
        assert [b["step"] for b in beats] == [2, 4]
        assert all(b["wall_rate"] > 0 for b in beats)
        assert all(np.isfinite(b["energy"]) for b in beats)

    def test_heartbeat_energy_is_total_energy(self, tmp_path):
        """A session heartbeat's ``energy`` is the quantity fleet members
        log: volume energy plus sea-surface potential."""
        path = str(tmp_path / "run.jsonl")
        solver = gravity_box(order=1)
        solver.gravity.eta[:] = 0.05  # a raised sea surface
        obs = ObsSession(log_json=path, heartbeat_every=2)
        obs.start(solver)
        bus = obs.subscribe(HookBus())
        at_beat = {}
        bus.on_sync(lambda s: at_beat.setdefault(
            obs.steps, (total_energy(s), s.energy())))
        Scheduler(solver).run(6 * solver.dt, hooks=bus)
        obs.finish(solver)
        beats = [r for r in map(json.loads, open(path))
                 if r["event"] == "heartbeat"]
        assert [b["step"] for b in beats] == [2, 4, 6]
        for b in beats:
            total, volume = at_beat[b["step"]]
            assert total > volume  # the sea-surface potential is not zero
            assert b["energy"] == total

    def test_heartbeat_without_runlog_prints_to_stdout(self, capsys):
        """Satellite regression: an explicit ``--heartbeat-every`` without
        ``--log-json`` used to be silently ignored."""
        solver = gravity_box(order=1)
        obs = ObsSession(heartbeat_every=2)
        assert obs.active  # heartbeats alone make the session active
        obs.start(solver)
        bus = obs.subscribe(HookBus())
        assert len(bus) == 1
        for _ in range(4):
            solver.step()
            bus.sync(solver)
        obs.finish(solver)
        out = capsys.readouterr().out
        beats = [ln for ln in out.splitlines() if ln.startswith("[heartbeat]")]
        assert len(beats) == 2
        assert "step 2" in beats[0] and "step 4" in beats[1]
        assert "sim t" in beats[0] and "steps/s" in beats[0]

    def test_heartbeat_with_runlog_stays_off_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        solver = gravity_box(order=1)
        obs = ObsSession(log_json=path, heartbeat_every=1)
        obs.start(solver)
        bus = obs.subscribe(HookBus())
        for _ in range(2):
            solver.step()
            bus.sync(solver)
        obs.finish(solver)
        assert "[heartbeat]" not in capsys.readouterr().out
        recs = [json.loads(line) for line in open(path)]
        assert sum(r["event"] == "heartbeat" for r in recs) == 2

    def test_finish_is_exception_safe(self, tmp_path, capsys):
        """Satellite: an exception mid-``finish()`` (here: the trace export
        hitting a nonexistent directory) must still close the run log and
        take the session's instruments off the solver."""
        log_path = str(tmp_path / "run.jsonl")
        bad_trace = str(tmp_path / "no-such-dir" / "out.trace.json")
        solver = gravity_box(order=1)
        obs = ObsSession(profile=True, trace=bad_trace, log_json=log_path)
        obs.start(solver)
        assert "step" in vars(solver)
        solver.step()
        with pytest.raises(OSError):
            obs.finish(solver)
        assert "step" not in vars(solver), "wrapper leaked after finish() raised"
        assert "apply" not in vars(solver.op)
        assert obs.runlog.closed
        capsys.readouterr()  # swallow partial output

    def test_inactive_session_is_transparent(self):
        obs = ObsSession()
        assert not obs.active
        bus = HookBus()
        assert obs.subscribe(bus) is bus and len(bus) == 0
        obs.start()
        obs.finish()  # must not raise without a solver or log

    def test_quickstart_example_cli_forwards_metrics(self, tmp_path,
                                                     monkeypatch):
        """``python examples/quickstart.py --metrics`` used to drop the
        flag between argparse and ``main()``: an empty snapshot where
        ``python -m repro quickstart --metrics`` logged the run's."""
        import runpy
        import sys
        from pathlib import Path

        path = str(tmp_path / "q.jsonl")
        script = str(Path(__file__).resolve().parent.parent
                     / "examples" / "quickstart.py")
        monkeypatch.setattr(sys, "argv", [script, "--t-end", "0.05",
                                          "--metrics", "--log-json", path])
        runpy.run_path(script, run_name="__main__")
        run_end = [r for r in map(json.loads, open(path))
                   if r["event"] == "run_end"][-1]
        assert run_end["metrics"]["counters"]["sched/sync_total"] > 0


# ----------------------------------------------------------------------
class TestReport:
    def _fake_run(self, n_steps=3):
        solver = gravity_box(order=2)
        obs = ObsSession(metrics=True)
        obs.start(solver)
        for _ in range(n_steps):
            solver.step()
        snap = obs.snapshot()
        obs.close()
        return solver, snap

    def test_roofline_credits_executed_flops(self, capsys):
        """A profiled run's GFLOP per row are the *executed* (fused)
        counts x the element-update counters — not the dense counts of
        the retired kernel path, which overstated the predictor 3.94x at
        order 2.  The corrector row credits the quantity-major surface
        kernel: one pair of flux-factor products per interior face for
        both sides."""
        from repro.hpc.perfmodel import kernel_counts

        solver = gravity_box(order=2)
        obs = ObsSession(profile=True)
        obs.start(solver)
        for _ in range(2):
            solver.step()
        counters = obs.snapshot()["counters"]
        obs.finish(solver)
        kc = kernel_counts(2, variant="fused")
        # per element update (B = 10, F = 6): two faces' stacked traces,
        # (6, 18) @ (18, F) and (18, 6) @ (6, F) flux-factor products and
        # (9, F) @ (F, F) changes of basis, and four (9, F) @ (F, B)
        # face-row lifts
        assert kc.flops_surface == 2 * (2 * 2 * 9 * 10 * 6 + 2 * 2 * 18 * 6 * 6
                                        + 2 * 9 * 6 * 6) + 4 * 2 * 9 * 6 * 10
        want = {
            "predictor": kc.flops_predictor * counters["elem_updates/predictor"] / 1e9,
            "corrector": kc.flops_corrector * counters["elem_updates/corrector"] / 1e9,
        }
        table = capsys.readouterr().out.split("kernel rates (")[1]
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
        assert "kernel rates" in text
        assert "predictor" in text and "corrector" in text

    def test_obs_report_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "run.jsonl")
        solver = gravity_box(order=1)
        obs = ObsSession(profile=True, log_json=path, heartbeat_every=2,
                         config={"command": "cli-test"})
        obs.start(solver)
        bus = obs.subscribe(HookBus())
        for _ in range(4):
            solver.step()
            bus.sync(solver)
        obs.finish(solver)
        capsys.readouterr()

        assert main(["obs-report", path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "0 schema error(s) -> OK" in out
        assert "cli-test" in out
        assert "heartbeats: 2" in out
        assert "phase breakdown" in out
        assert "kernel rates" in out

    def test_obs_report_check_rejects_garbage(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("manifest", **run_manifest(config={}))
        assert main(["obs-report", path, "--check"]) == 0
        with open(path, "a") as fh:
            fh.write("garbage\n")
        assert main(["obs-report", path, "--check"]) == 1
        assert f"{path}:2: invalid JSON" in capsys.readouterr().out


# ----------------------------------------------------------------------
class TestRunLogDurability:
    """Crash-safe logging: every run log may belong to a process that is
    killed at any instruction."""

    def test_durable_records_visible_before_close(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
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

    def test_heartbeat_with_metrics_is_one_write_one_fsync(self, tmp_path,
                                                          monkeypatch):
        """A heartbeat carrying its snapshot is one record, durable when
        ``emit`` returns, under one fsync, with consecutive ``seq``."""
        import os as _os

        syncs = []
        real_fsync = _os.fsync
        monkeypatch.setattr(_os, "fsync", lambda fd: syncs.append(fd) or real_fsync(fd))
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        for step in (1, 2):
            log.emit("heartbeat", step=step, sim_t=0.1 * step, dt=0.1,
                     energy=0.0, wall_rate=1.0,
                     metrics={"schema": 1, "counters": {"c": step},
                              "gauges": {}})
        assert len(syncs) == 2
        with open(path) as fh:  # no close(): a kill -9 now loses nothing
            recs = [json.loads(line) for line in fh]
        assert [(r["event"], r["seq"]) for r in recs] == \
            [("heartbeat", 0), ("heartbeat", 1)]
        assert recs[1]["metrics"]["counters"] == {"c": 2}
        log.close()

    def test_torn_heartbeat_with_metrics_is_a_torn_tail(self, tmp_path):
        """A kill inside the write of a heartbeat carrying its snapshot
        leaves whole records plus one partial line: the torn-tail rule
        covers it."""
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            for step in (1, 2):
                log.emit("heartbeat", step=step, sim_t=0.1 * step, dt=0.1,
                         energy=0.0, wall_rate=1.0,
                         metrics={"schema": 1, "counters": {"c": step},
                                  "gauges": {}})
        raw = open(path).read()
        for cut in (len(raw) - 10, raw.index("\n") + 20, 15):
            with open(path, "w") as fh:
                fh.write(raw[:cut])
            result = validate_jsonl(path)
            assert result["errors"] == []
            assert result["truncated_tail"]
            assert result["records"] == raw[:cut].count("\n")

    def test_read_records_tolerates_what_a_kill_leaves(self, tmp_path):
        """The one reader skips garbled and non-object lines, reports a
        torn tail in its flag, and reads a missing file as empty."""
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("heartbeat", step=1, sim_t=0.0, dt=0.1, energy=0.0,
                     wall_rate=1.0)
        with open(path, "a") as fh:
            fh.write("not json\n[1, 2]\n\n")
            fh.write('{"event": "heartbeat", "step": 2, "si')
        records, torn = read_records(path)
        assert [r["event"] for r in records] == ["heartbeat"] and torn
        assert read_records(str(tmp_path / "missing.jsonl")) == ([], False)
        result = validate_jsonl(path)  # the strict view of the same lines
        assert [m for _, m in result["errors"]][0].startswith("invalid JSON")
        assert result["records"] == 3 and result["truncated_tail"]

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
