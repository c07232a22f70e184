"""The run log's flight-recorder ring, diagnostic bundles, NaN
localization and classifier."""

import json
import os
import time
import types

import numpy as np
import pytest

from repro.core.health import (
    SimulationDiverged,
    first_nonfinite_index,
    state_arrays,
    Watchdog,
)
from repro.core.health.inject import FaultInjector
from repro.core.materials import elastic
from repro.core.resilience import ResilientRunner
from repro.core.solver import CoupledSolver
from repro.mesh.generators import box_mesh
import repro.obs.runlog as runlog_module
from repro.obs.blackbox import (
    BUNDLE_SCHEMA_VERSION,
    BUNDLE_SUFFIX,
    VERDICTS,
    build_bundle,
    classify_bundle,
    diagnose_bundle_file,
    dump_bundle,
    field_statistics,
    find_bundles,
    load_bundle,
    locate_nonfinite,
    newest_bundle,
    thread_stacks,
    validate_bundle,
    write_bundle,
)
from repro.obs.runlog import RunLog, validate_record

from .conftest import gravity_box

ROCK = elastic(2700.0, 6000.0, 3464.0)


#: a supervisor bundle as the schema-2 writer produced it (thread stacks
#: emptied before fingerprinting, to keep it short)
SCHEMA_2_BUNDLE = (
    '{"context": {"attempt": 1, "member": "m1"}, "created_unix": 1000.5, '
    '"error": null, "exit": "killed by signal 9", "failures": [], '
    '"field_stats": {}, "fingerprint": '
    '"ef1908d1838fc6e1fd2b527b21f8a96f176568cf8ddcaaa894097e01b5ce5c67", '
    '"kind": "supervisor", "last_error": null, "manifest": null, '
    '"metrics": {"counters": {"sched/sync_total": 10}, "gauges": {}, '
    '"schema": 1}, "nan_origin": null, "reason": "killed by signal 9", '
    '"ring": {"events": [{"dt": 0.02, "energy": 1.0, "event": "heartbeat", '
    '"run_id": "r", "seq": 3, "sim_t": 0.2, "step": 10, "wall": 1000.0, '
    '"wall_rate": 50.0}]}, "schema": 2, '
    '"spans": [["kernels/volume", 0, 1.0, 2.0]], "stacks": {}}'
)


def micro_event(index, cluster, t_int, dt):
    """A scheduler micro-step event, as ``HookBus.micro_step`` passes it."""
    return types.SimpleNamespace(index=index, cluster=cluster, t_int=t_int,
                                 dt=dt)


def build_closed_passive():
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


# ----------------------------------------------------------------------
class TestFlightRecorder:
    """The flight recorder is the run log's in-memory ring."""

    def test_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(runlog_module, "RING_CAPACITY", 8)
        rec = RunLog()
        for i in range(100):
            rec.record_micro(None, micro_event(i, i % 3, i, 1e-3))
        events = rec.tail()
        assert len(events) == 8
        # oldest events fell off the ring; the tail is intact, in order
        assert [e["index"] for e in events] == list(range(92, 100))

    def test_event_normalization(self, tmp_path):
        """Micro-steps and steps come back run-log shaped; an emitted
        record comes back exactly as it was written to the file."""
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as rec:
            rec.record_micro(None, micro_event(0, 2, 5, 1e-3))
            rec.record_step(1, 0.25, 1e-3, energy=3.5, dt_scale=0.5)
            rec.emit("checkpoint", step=1, sim_t=0.25, path="x.npz")
            micro, step, ckpt = rec.tail()
        assert micro == {"event": "micro", "index": 0, "cluster": 2,
                         "t_int": 5, "dt": 1e-3}
        assert step == {"event": "step", "step": 1, "sim_t": 0.25,
                        "dt": 1e-3, "energy": 3.5, "dt_scale": 0.5}
        assert [ckpt] == [json.loads(line) for line in open(path)]
        assert ckpt["path"] == "x.npz" and validate_record(ckpt) == []

    def test_subscribe_records_scheduler_windows(self, monkeypatch):
        from repro.sched import HookBus

        monkeypatch.setattr(runlog_module, "RING_CAPACITY", 4)
        rec = RunLog()
        bus = HookBus()
        bus.on_micro_step(rec.record_micro)
        bus.micro_step(None, micro_event(7, 1, 3, 2e-3))
        assert rec.tail() == [{"event": "micro", "index": 7, "cluster": 1,
                               "t_int": 3, "dt": 2e-3}]


# ----------------------------------------------------------------------
class TestLocalization:
    def test_bisection_finds_first_bad_entry(self):
        arr = np.zeros(5000)
        arr[3777] = np.nan
        assert first_nonfinite_index(arr) == 3777

    def test_bisection_small_and_edge_cases(self):
        assert first_nonfinite_index(np.zeros(10)) is None
        a = np.zeros(10)
        a[0] = np.inf
        assert first_nonfinite_index(a) == 0
        b = np.zeros(2000)
        b[-1] = np.nan
        assert first_nonfinite_index(b) == 1999

    def test_first_of_several(self):
        arr = np.zeros(4096)
        arr[[100, 2000, 4000]] = np.nan
        assert first_nonfinite_index(arr) == 100

    def test_locate_on_clean_solver_is_none(self):
        solver = build_closed_passive()
        assert locate_nonfinite(solver) is None

    def test_locate_names_field_and_element(self):
        solver = build_closed_passive()
        n_dof = solver.Q.shape[1] * solver.Q.shape[2]
        elem = 7
        solver.Q.flat[elem * n_dof] = np.nan
        loc = locate_nonfinite(solver)
        assert loc["field"] == "Q"
        assert loc["element"] == elem
        assert loc["n_nan"] == 1 and loc["n_inf"] == 0
        assert loc["value"] == "nan"

    def test_locate_names_partition_and_cluster(self):
        """A NaN planted in a part-1 element of a 2-part LTS solver is
        traced to that part (the backend's cut) and its LTS cluster."""
        from repro.exec import PartitionedBackend

        from tests.test_exec_equivalence import build_lts_fault_gravity

        solver, _, lts = build_lts_fault_gravity(
            PartitionedBackend(workers=1, n_parts=2), sort=True)
        parts = solver.backend.parts
        assert set(parts.tolist()) == {0, 1} and lts.n_clusters >= 2
        part1 = np.flatnonzero(parts == 1)
        elem = int(part1[np.argmax(lts.cluster[part1])])
        assert lts.cluster[elem] > 0
        solver.Q[elem, 2, 4] = np.nan
        loc = locate_nonfinite(solver, lts)
        assert loc["element"] == elem
        assert loc["partition"] == 1
        assert loc["lts_cluster"] == int(lts.cluster[elem])
        solver.Q[elem, 2, 4] = 0.0
        assert locate_nonfinite(solver, lts) is None
        solver.backend.close()

    def test_watchdog_report_names_element_and_field(self):
        """Satellite: the non-finite report localizes the first offender
        even without the full bundle path."""
        solver = build_closed_passive()
        n_dof = solver.Q.shape[1] * solver.Q.shape[2]
        solver.Q.flat[5 * n_dof] = np.inf
        report = Watchdog(solver).check()
        assert not report.ok
        msg = report.checks["state"]
        assert "first at element 5" in msg
        assert "Q[5" in msg

    def test_field_statistics(self):
        solver = build_closed_passive()
        solver.Q.flat[0] = np.nan
        stats = field_statistics(solver)
        q = stats["Q"]
        assert q["n_nan"] == 1
        assert q["size"] == solver.Q.size
        assert np.isfinite(q["abs_max"])

    def test_state_arrays_covers_modal_state(self):
        solver = build_closed_passive()
        names = [name for name, _ in state_arrays(solver)]
        assert "Q" in names


# ----------------------------------------------------------------------
class TestBundleIO:
    def _doc(self, **kw):
        kw.setdefault("kind", "diverged")
        kw.setdefault("reason", "Q has 1 NaN")
        return build_bundle(**kw)

    def test_round_trip_and_validation(self, tmp_path):
        path = str(tmp_path / ("a" + BUNDLE_SUFFIX))
        rec = RunLog()
        rec.record_step(1, 0.1, 1e-3)
        doc = self._doc(ring=rec.tail(), context={"member": "m0",
                                                  "attempt": 2})
        write_bundle(path, doc)
        loaded = load_bundle(path)
        assert loaded["schema"] == BUNDLE_SCHEMA_VERSION
        assert loaded["context"] == {"member": "m0", "attempt": 2}
        assert loaded["ring"]["events"][0]["event"] == "step"
        assert validate_bundle(loaded) == []
        # no temp files left behind by the atomic publish
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_fingerprint_detects_tampering(self, tmp_path):
        path = str(tmp_path / ("b" + BUNDLE_SUFFIX))
        write_bundle(path, self._doc())
        doc = load_bundle(path)
        doc["reason"] = "totally fine actually"
        errors = validate_bundle(doc)
        assert any("fingerprint mismatch" in e for e in errors)

    def test_validate_rejects_malformed(self):
        assert validate_bundle([]) == ["bundle is not a JSON object"]
        errors = validate_bundle({"schema": "x", "ring": 3})
        assert any("schema" in e for e in errors)
        assert any("ring" in e for e in errors)

    def test_ring_is_the_one_history(self):
        """A schema-3 bundle holds no copies beside its ring: no span
        tail, no last metrics snapshot (the ring's heartbeats carry it)."""
        doc = self._doc(ring=[{"event": "heartbeat", "step": 1}])
        assert doc["schema"] == BUNDLE_SCHEMA_VERSION == 3
        assert "spans" not in doc and "metrics" not in doc
        assert validate_bundle(doc) == []

    def test_schema_2_bundle_still_validates(self, tmp_path):
        """A bundle as the schema-2 writer left it — with its ``spans``
        and ``metrics`` copies — loads, validates and classifies."""
        path = tmp_path / ("old" + BUNDLE_SUFFIX)
        path.write_text(SCHEMA_2_BUNDLE)
        doc = load_bundle(str(path))
        assert doc["schema"] == 2 and doc["spans"] and doc["metrics"]
        assert validate_bundle(doc) == []
        assert classify_bundle(doc)["verdict"] == "worker_death"
        assert diagnose_bundle_file(str(path), check=True) == 0

    def test_suffix_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="blackbox.json"):
            write_bundle(str(tmp_path / "a.json"), self._doc())

    def test_state_excerpt_rides_alongside(self, tmp_path):
        path = str(tmp_path / ("c" + BUNDLE_SUFFIX))
        state = {"Q": np.arange(6.0).reshape(2, 3)}
        dump_bundle(path, kind="diverged", state=state)
        doc = load_bundle(path)
        assert validate_bundle(doc) == []  # fingerprint covers the excerpt
        npz = os.path.join(str(tmp_path), doc["excerpt"])
        assert os.path.isfile(npz)
        back = np.load(npz)
        np.testing.assert_array_equal(back["Q"], state["Q"])

    def test_find_and_newest(self, tmp_path):
        assert find_bundles(str(tmp_path)) == []
        assert newest_bundle(str(tmp_path)) is None
        a = str(tmp_path / ("a" + BUNDLE_SUFFIX))
        b = str(tmp_path / ("b" + BUNDLE_SUFFIX))
        write_bundle(a, self._doc())
        write_bundle(b, self._doc())
        os.utime(a, (time.time() - 100, time.time() - 100))
        assert find_bundles(str(tmp_path)) == [a, b]
        assert newest_bundle(str(tmp_path)) == b
        assert find_bundles(str(tmp_path / "missing")) == []

    def test_solver_forensics_embedded(self, tmp_path):
        solver = build_closed_passive()
        solver.Q.flat[0] = np.nan
        doc = self._doc(solver=solver)
        assert doc["nan_origin"]["field"] == "Q"
        assert doc["field_stats"]["Q"]["n_nan"] == 1
        assert "forensics_error" not in doc

    def test_thread_stacks_cover_current_thread(self):
        stacks = thread_stacks()
        assert any(s["current"] for s in stacks.values())
        mine = [s for s in stacks.values() if s["current"]][0]
        assert any("thread_stacks" in ln or "test_blackbox" in ln
                   for ln in mine["frames"])


# ----------------------------------------------------------------------
class TestClassifier:
    def test_located_nan_beats_everything(self):
        doc = build_bundle(
            kind="diverged",
            reason="energy runaway and CFL violated",  # red herrings
            extra={"nan_origin": {"field": "Q", "element": 3,
                                  "flat_index": 3, "index": [3, 0, 0],
                                  "value": "nan", "n_nan": 1, "n_inf": 0,
                                  "sim_t": 0.5, "lts_cluster": 1,
                                  "partition": 0}},
        )
        v = classify_bundle(doc)
        assert v["verdict"] == "nan_origin"
        assert any("Q[3]" in e for e in v["evidence"])
        assert any("LTS cluster 1" in e for e in v["evidence"])

    def test_textual_nan(self):
        doc = build_bundle(kind="recovery",
                           failures=["Q has 2 NaN / 0 Inf values"])
        assert classify_bundle(doc)["verdict"] == "nan_origin"

    def test_cfl(self):
        doc = build_bundle(kind="diverged",
                           reason="CFL violated: dt 0.5 not admissible")
        assert classify_bundle(doc)["verdict"] == "cfl_collapse"

    def test_energy(self):
        doc = build_bundle(kind="diverged",
                           reason="energy grew beyond the Lyapunov bound")
        assert classify_bundle(doc)["verdict"] == "energy_blowup"

    def test_supervisor_kind_is_worker_death(self):
        doc = build_bundle(kind="supervisor", reason="heartbeat_timeout")
        assert classify_bundle(doc)["verdict"] == "worker_death"

    def test_death_markers(self):
        for reason in ("killed by signal 9", "exited with status 3",
                       "corrupt_result", "hang detected"):
            doc = build_bundle(kind="supervisor", reason=reason)
            assert classify_bundle(doc)["verdict"] == "worker_death", reason

    @pytest.mark.parametrize("path", [
        "/data/maintenance/m0/run.jsonl",  # holds "nan"
        "/srv/cflow/m0/run.jsonl",  # holds "cfl"
        "/home/bioenergy/m0/run.jsonl",  # holds "energy"
    ])
    def test_symptoms_are_words_not_substrings(self, path):
        """A path in a strike reason names no physics symptom."""
        doc = build_bundle(kind="supervisor", reason=(
            "exited with status 3 (OSError: [Errno 28] No space left on "
            f"device: '{path}')"))
        assert classify_bundle(doc)["verdict"] == "worker_death"

    def test_exception_kind_is_worker_death(self):
        doc = build_bundle(kind="exception",
                           error="Traceback ...\nKeyError: 'x'\n")
        assert classify_bundle(doc)["verdict"] == "worker_death"

    def test_unknown(self):
        doc = build_bundle(kind="diverged")
        v = classify_bundle(doc)
        assert v["verdict"] == "unknown"
        assert v["verdict"] in VERDICTS


# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def _run_to_divergence(self, tmp_path, injector, **kw):
        solver = gravity_box(1, source=False)
        runner = ResilientRunner(
            solver, injector=injector, max_retries=1, verbose=False,
            checkpoint_dir=str(tmp_path), **kw,
        )
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(6 * solver.dt)
        return runner, exc_info.value

    def test_nan_divergence_dumps_classifiable_bundle(self, tmp_path):
        inj = FaultInjector().corrupt_state(at_step=2, persistent=True)
        runner, exc = self._run_to_divergence(tmp_path, inj)
        assert exc.bundle is not None
        assert exc.bundle.endswith(BUNDLE_SUFFIX)
        assert exc.diagnostics()["bundle"] == exc.bundle
        doc = load_bundle(exc.bundle)
        assert validate_bundle(doc) == []
        assert doc["kind"] == "diverged"
        # dumped BEFORE rollback: the corruption is still localizable
        assert doc["nan_origin"]["field"] == "Q"
        assert classify_bundle(doc)["verdict"] == "nan_origin"
        # the terminal bundle ships a state excerpt next to the JSON
        assert os.path.isfile(os.path.join(str(tmp_path), doc["excerpt"]))
        # ring recorded the supervised steps leading up to the fault
        kinds = {e["event"] for e in doc["ring"]["events"]}
        assert "step" in kinds
        # the retry before exhaustion dumped its own recovery bundle
        kinds_written = [load_bundle(p)["kind"]
                         for p in runner.bundles_written]
        assert kinds_written.count("recovery") >= 1
        assert kinds_written[-1] == "diverged"
        assert runner.last_bundle == exc.bundle

    def test_energy_blowup_verdict(self, tmp_path):
        inj = FaultInjector().corrupt_state(at_step=2, value=1.0e30,
                                            persistent=True)
        _, exc = self._run_to_divergence(tmp_path, inj)
        doc = load_bundle(exc.bundle)
        assert doc["nan_origin"] is None  # finite — huge, but finite
        assert classify_bundle(doc)["verdict"] == "energy_blowup"

    def test_cfl_collapse_verdict(self, tmp_path):
        inj = FaultInjector().inflate_dt(at_step=2, factor=64.0,
                                         persistent=True)
        _, exc = self._run_to_divergence(tmp_path, inj)
        doc = load_bundle(exc.bundle)
        assert classify_bundle(doc)["verdict"] == "cfl_collapse"

    def test_no_directory_means_no_bundle_but_same_fault(self):
        solver = gravity_box(1, source=False)
        inj = FaultInjector().corrupt_state(at_step=2, persistent=True)
        runner = ResilientRunner(solver, injector=inj, max_retries=1,
                                 verbose=False)
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(6 * solver.dt)
        assert exc_info.value.bundle is None
        assert runner.bundles_written == []

    def test_clean_run_dumps_nothing(self, tmp_path):
        solver = gravity_box(1, source=False)
        runner = ResilientRunner(solver, verbose=False,
                                 checkpoint_dir=str(tmp_path))
        runner.run(4 * solver.dt)
        assert runner.bundles_written == []
        assert runner.last_bundle is None
        assert find_bundles(str(tmp_path)) == []
        # ...but the ring was recording the whole time
        steps = [e for e in runner.recorder.tail() if e["event"] == "step"]
        assert len(steps) >= 4

    def test_lts_micro_steps_pass_through_record_micro(self):
        """Under LTS supervision every micro-step window of the plan is
        recorded by ``record_micro`` itself (the method the perf ledger's
        ``obs.recorder`` seam times), once each."""
        from repro.core.lts import LocalTimeStepping
        from repro.sched import Scheduler

        class Counting(RunLog):
            calls = 0

            def record_micro(self, solver, event):
                self.calls += 1
                super().record_micro(solver, event)

        solver = gravity_box(1, source=False)
        lts = LocalTimeStepping(solver)
        assert lts.n_clusters == 2
        t_end = 4 * lts.dt_min * lts.rate
        n_micro = Scheduler(solver, lts).compiled_plan(t_end).n_micro
        runner = ResilientRunner(solver, lts=lts, verbose=False)
        runner.recorder = Counting()
        runner.run(t_end)
        assert runner.recorder.calls == n_micro == sum(lts.updates)
        kinds = [e["event"] for e in runner.recorder.tail()]
        assert kinds.count("micro") == n_micro

    def test_recovered_run_keeps_recovery_bundle_only(self, tmp_path):
        solver = gravity_box(1, source=False)
        inj = FaultInjector().corrupt_state(at_step=2)  # one-shot
        runner = ResilientRunner(solver, injector=inj, max_retries=3,
                                 verbose=False, checkpoint_dir=str(tmp_path))
        runner.run(6 * solver.dt)  # recovers
        kinds = [load_bundle(p)["kind"] for p in runner.bundles_written]
        assert kinds == ["recovery"]

    def test_ring_events_carry_the_runlog_fields(self, tmp_path):
        """Supervision events are emitted once, into the one stream: the
        runner's recorder is the run log it was given, and the ring's
        recovery and checkpoint events are its written records."""
        solver = gravity_box(1, source=False)
        inj = FaultInjector().corrupt_state(at_step=2)  # one-shot
        log_path = str(tmp_path / "run.jsonl")
        with RunLog(log_path) as log:
            runner = ResilientRunner(
                solver, injector=inj, max_retries=3, verbose=False,
                runlog=log, checkpoint_every=2 * solver.dt,
                checkpoint_dir=str(tmp_path))
            runner.run(6 * solver.dt)
        assert runner.recorder is log
        logged = [json.loads(line) for line in open(log_path)]
        ring = [e for e in runner.recorder.tail()
                if e["event"] not in ("micro", "step")]
        kinds = [e["event"] for e in ring]
        assert kinds.count("recovery") == 1
        assert kinds.count("checkpoint") >= 2
        assert ring == logged

    def test_dump_exception_bundle(self, tmp_path):
        solver = gravity_box(1, source=False)
        runner = ResilientRunner(solver, verbose=False,
                                 checkpoint_dir=str(tmp_path))
        try:
            raise KeyError("boom")
        except KeyError as exc:
            path = runner.dump_exception(exc)
        doc = load_bundle(path)
        assert doc["kind"] == "exception"
        assert "KeyError" in doc["error"]
        assert classify_bundle(doc)["verdict"] == "worker_death"

    def test_bundle_context_is_stamped(self, tmp_path):
        solver = gravity_box(1, source=False)
        inj = FaultInjector().corrupt_state(at_step=2, persistent=True)
        runner = ResilientRunner(solver, injector=inj, max_retries=1,
                                 verbose=False, checkpoint_dir=str(tmp_path))
        runner.bundle_context = {"member": "m7", "attempt": 2}
        with pytest.raises(SimulationDiverged) as exc_info:
            runner.run(6 * solver.dt)
        doc = load_bundle(exc_info.value.bundle)
        assert doc["context"] == {"member": "m7", "attempt": 2}


# ----------------------------------------------------------------------
class TestDiagnoseCLI:
    def _bundle(self, tmp_path, **kw):
        path = str(tmp_path / ("x" + BUNDLE_SUFFIX))
        kw.setdefault("kind", "diverged")
        write_bundle(path, build_bundle(**kw))
        return path

    def test_diagnose_ok(self, tmp_path, capsys):
        path = self._bundle(tmp_path, reason="Q has 1 NaN",
                            context={"member": "m0", "attempt": 1})
        assert diagnose_bundle_file(path, check=True) == 0
        out = capsys.readouterr().out
        assert "verdict nan_origin" in out
        assert "member m0, attempt 1" in out
        assert "OK" in out

    def test_diagnose_directory_picks_newest(self, tmp_path, capsys):
        self._bundle(tmp_path, reason="Q has 1 NaN")
        assert diagnose_bundle_file(str(tmp_path)) == 0
        assert "verdict nan_origin" in capsys.readouterr().out

    def test_diagnose_empty_directory(self, tmp_path, capsys):
        assert diagnose_bundle_file(str(tmp_path)) == 2
        assert "no" in capsys.readouterr().err

    def test_diagnose_unreadable(self, tmp_path, capsys):
        bad = str(tmp_path / ("bad" + BUNDLE_SUFFIX))
        with open(bad, "w") as fh:
            fh.write("{ torn")
        assert diagnose_bundle_file(bad) == 2

    def test_diagnose_tampered_fails_check_only(self, tmp_path, capsys):
        path = self._bundle(tmp_path, reason="energy runaway")
        doc = json.loads(open(path).read())
        doc["reason"] = "nothing to see"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        # without --check: still classifies (with a warning on stderr)
        assert diagnose_bundle_file(path) == 0
        captured = capsys.readouterr()
        assert "fingerprint mismatch" in captured.err
        assert diagnose_bundle_file(path, check=True) == 1

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._bundle(tmp_path, reason="CFL violated")
        assert main(["obs-diagnose", path, "--check"]) == 0
        assert "verdict cfl_collapse" in capsys.readouterr().out


# ----------------------------------------------------------------------
class TestOverheadBudget:
    def test_recorder_hot_path_within_step_budget(self):
        """The always-on ring must cost < 2% of a step at ~2 record sites
        per supervised step (micro window + post-watchdog gauge)."""
        solver = gravity_box(2, source=False)
        rec = RunLog()
        n = 50_000
        ev = micro_event(0, 0, 0, 1e-3)
        t0 = time.perf_counter()
        for i in range(n):
            rec.record_micro(solver, ev)
            rec.record_step(i, 1e-3 * i, 1e-3, energy=1.0, dt_scale=1.0)
        per_call = (time.perf_counter() - t0) / (2 * n)

        t0 = time.perf_counter()
        for _ in range(3):
            solver.step()
        per_step = (time.perf_counter() - t0) / 3

        sites = 2  # recorder appends per supervised step
        overhead = sites * per_call / per_step
        assert overhead < 0.02, (
            f"the ring costs {overhead * 100:.3f}% of a step "
            f"({per_call * 1e9:.0f} ns per append)"
        )
