"""Fault-tolerant ensemble driver: supervision, retry ladder, chaos.

Every supervised attempt runs in a real worker process, so the chaos
matrix is the production path: kill -9, corrupt result files, workers
that cannot start and persistent failures driving quarantine —
asserting the driver never crashes and every recovered member is
*bitwise identical* to its uninterrupted twin — beside the retry policy,
the spec registry/pickling contract and the worker's result publishing.
The ``slow`` tier holds what waits for a timeout of several seconds
(hangs, a dead supervisor), runs a script in a child interpreter, or
forks from a threaded parent, and the larger worker-reuse fleets.
"""

import dataclasses
import gc
import importlib
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import types

import pytest

from repro.core.health.inject import FaultInjector
from repro.ensemble import (
    EnsembleResult,
    MemberSpec,
    RetryPolicy,
    Supervisor,
    get_builder,
    load_result,
    run_member,
    state_digest,
)
from repro.ensemble import supervisor as supervisor_module
from repro.ensemble.worker import RESULT_NAME
from repro.exec.plan_cache import clear_plan_cache
from repro.io.checkpoint import checkpoint_candidates
from repro.obs.blackbox import BUNDLE_SUFFIX, classify_bundle, load_bundle
from repro.obs.fleet import status_rows
from repro.obs.metrics import get_metrics
from repro.obs.runlog import (
    EVENT_FIELDS,
    read_records,
    validate_jsonl,
    validate_record,
)
from repro.sched import Scheduler
from repro.scenarios import SCENARIOS, build

from .conftest import FastRetry

#: smallest useful member: 27-element coupled mesh, ~25 steps
TINY = dict(builder="quickstart", perturb={"n_x": 4}, t_end=0.12,
            checkpoint_every=0.03)


def tiny_spec(member_id="m0", seed=7, **over):
    kw = {**TINY, **over}
    return MemberSpec(member_id=member_id, seed=seed, **kw)


def _src_env() -> dict:
    """The environment of a child interpreter that imports ``repro``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _one_thread() -> None:
    """Let the pool threads of earlier tests wind down: a worker is a fork
    only of a process that runs one thread."""
    gc.collect()
    deadline = time.monotonic() + 5.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == 1, threading.enumerate()


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_per_seed_and_strike(self):
        pol = RetryPolicy()
        a = pol.decide(2, seed=11)
        b = pol.decide(2, seed=11)
        assert a == b
        assert pol.decide(2, seed=12).delay_s != a.delay_s

    def test_backoff_grows_and_caps(self):
        pol = RetryPolicy(max_retries=20)
        delays = [pol.decide(s, seed=0).delay_s for s in range(1, 12)]
        assert delays == sorted(delays)
        assert delays[-1] == pol.max_delay_s == 30.0

    def test_escalation_ladder(self):
        pol = RetryPolicy(max_retries=4)
        # strike 1: resume, but full dt — keeps single-fault recoveries
        # bitwise identical to the uninterrupted run
        d1 = pol.decide(1, seed=0)
        assert d1.retry and d1.resume and d1.dt_scale == 1.0
        # strikes 2..: dt backs off geometrically
        assert pol.decide(2, seed=0).dt_scale == 0.5
        assert pol.decide(3, seed=0).dt_scale == 0.25
        # past the budget: no retry, quarantine
        assert not pol.decide(5, seed=0).retry

    def test_dt_scale_floor(self):
        pol = RetryPolicy(max_retries=50)
        assert pol.decide(40, seed=0).dt_scale == pol.min_dt_scale == 0.125

    def test_jitter_bounded(self):
        pol = RetryPolicy()
        for seed in range(20):
            d = pol.decide(1, seed=seed).delay_s
            assert 0.25 <= d <= 0.25 * 1.25


class TestSpecRegistry:
    def test_builtin_builders_registered(self):
        assert sorted(SCENARIOS) == ["palu", "quickstart", "scenario_a"]
        # get_builder is the registry's build, bound to the name
        a = get_builder("quickstart")({"n_x": 4}, 3).solver
        b = build("quickstart", {"n_x": 4}, 3).solver
        for s in (a, b):
            Scheduler(s).run(2 * s.dt)
        assert state_digest(a) == state_digest(b)

    def test_unknown_builder_rejected(self, capsys):
        from repro.__main__ import main

        listing = (r"unknown scenario 'no_such_scenario' "
                   r"\(scenarios: palu, quickstart, scenario_a\)")
        for call in (lambda: build("no_such_scenario"),
                     lambda: get_builder("no_such_scenario"),
                     lambda: tiny_spec(builder="no_such_scenario").build()):
            with pytest.raises(KeyError, match=listing):
                call()
        assert main(["ensemble", "--scenario", "no_such_scenario"]) == 2
        assert re.fullmatch(listing + "\n", capsys.readouterr().out)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_unknown_override_rejected(self, name):
        """A typo'd config field fails before anything is built, naming
        every valid field."""
        module = importlib.import_module(f"repro.scenarios.{name}")
        config = getattr(module, SCENARIOS[name].config)
        valid = ", ".join(sorted(f.name for f in dataclasses.fields(config)))
        with pytest.raises(ValueError) as exc:
            build(name, {"order": 1, "n_xx": 8})
        assert str(exc.value) == (f"unknown {name} override key(s) ['n_xx']; "
                                  f"valid fields: {valid}")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="member_id"):
            MemberSpec(member_id="")
        with pytest.raises(ValueError, match="t_end"):
            MemberSpec(member_id="x", t_end=0.0)

    def test_spec_pickles_with_injector(self):
        # the spawn boundary: specs cross by value, builders by name
        spec = tiny_spec(injector=FaultInjector().kill_process(at_step=5))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.member_id == spec.member_id
        assert clone.builder == spec.builder
        assert clone.injector is not None
        assert clone.without_injector().injector is None
        clone.build()  # registry resolves after the round trip

    def test_perturbation_changes_trajectory(self, tmp_path):
        base = run_member(tiny_spec(), str(tmp_path / "a"))
        moved = run_member(
            tiny_spec(perturb={"n_x": 4, "amp_jitter": 0.3}, seed=99),
            str(tmp_path / "b"),
        )
        assert base["digest"] != moved["digest"]


# ----------------------------------------------------------------------
class TestWorker:
    def test_inline_run_reproducible(self, tmp_path):
        r1 = run_member(tiny_spec(), str(tmp_path / "a"))
        r2 = run_member(tiny_spec(), str(tmp_path / "b"))
        assert r1["status"] == "completed"
        assert r1["digest"] == r2["digest"]
        assert r1["sim_t"] == pytest.approx(TINY["t_end"])

    def test_digest_matches_direct_solver_run(self, tmp_path):
        # comparable to a bare scheduler run only without mid-run checkpoint
        # segments (segment boundaries clamp dt exactly like t_end does)
        spec = tiny_spec(checkpoint_every=None)
        result = run_member(spec, str(tmp_path / "m"))
        handle = spec.build()
        Scheduler(handle.solver).run(spec.t_end)
        assert result["digest"] == state_digest(handle.solver)

    def test_result_file_published_and_valid(self, tmp_path):
        result = run_member(tiny_spec(), str(tmp_path / "m"))
        on_disk = load_result(result["paths"]["result"])
        assert on_disk is not None
        assert on_disk["digest"] == result["digest"]
        assert on_disk["attempt"] == 1
        # durable member run log survives validation, heartbeats included
        report = validate_jsonl(result["paths"]["runlog"])
        assert not report["errors"], report["errors"]
        assert report["events"].get("heartbeat", 0) >= 1

    def test_heartbeat_is_one_fsync_and_the_watchdogs_energy(
            self, tmp_path, monkeypatch):
        """A beat is one record carrying its own counters and gauges, under
        one fsync, and reports the energy the watchdog computed for the
        step (volume + sea-surface potential) instead of a second
        evaluation."""
        import json
        import os

        from repro.core.health import total_energy

        syncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: syncs.append(os.fstat(fd).st_ino) or real_fsync(fd))
        spec = tiny_spec(checkpoint_every=None)
        result = run_member(spec, str(tmp_path / "m"))
        recs = [json.loads(line) for line in open(result["paths"]["runlog"])]
        events = [r["event"] for r in recs]
        beats = [r for r in recs if r["event"] == "heartbeat"]
        assert len(beats) == result["steps"]  # a beat per step
        # every beat carries its snapshot; the final one rides on run_end
        # alone (the result file holds no copy)
        assert sum("metrics" in b for b in beats) == len(beats)
        assert "metrics" not in events
        assert events[-1] == "run_end" and recs[-1]["metrics"]["phases"]
        assert "metrics" not in result
        # one fsync per record
        log_inode = os.stat(result["paths"]["runlog"]).st_ino
        assert syncs.count(log_inode) == len(recs)
        handle = spec.build()
        Scheduler(handle.solver).run(spec.t_end)
        assert beats[-1]["energy"] == total_energy(handle.solver)

    def test_pipe_carries_control_only(self, tmp_path):
        """What a member measured is in its run log alone: the worker's
        pipe messages say which attempt is alive, and how far along it is
        in its life, nothing more."""
        sent = []
        channel = types.SimpleNamespace(send=sent.append)
        result = run_member(tiny_spec(), str(tmp_path / "m"), channel=channel)
        kinds = [msg["kind"] for msg in sent]
        assert kinds == ["started"] + ["heartbeat"] * result["steps"] \
            + ["done"]
        assert {key for msg in sent for key in msg} == {
            "kind", "member", "attempt", "pid"}

    def test_member_beat_reuses_the_watchdogs_energy(self, tmp_path,
                                                     monkeypatch):
        """A member runs under an ``ObsSession`` subscribed with its
        runner: no beat evaluates the energy the watchdog already swept."""
        import repro.obs.session as session_module

        calls = []
        real = session_module.total_energy
        monkeypatch.setattr(session_module, "total_energy",
                            lambda s: calls.append(s) or real(s))
        result = run_member(tiny_spec(), str(tmp_path / "m"))
        records, _ = read_records(result["paths"]["runlog"])
        beats = [r for r in records if r["event"] == "heartbeat"]
        assert len(beats) == result["steps"] and calls == []

    def test_load_result_rejects_garbage(self, tmp_path):
        path = str(tmp_path / RESULT_NAME)
        assert load_result(path) is None  # missing
        with open(path, "w") as f:
            f.write('{"member_id": "x", "truncat')
        assert load_result(path) is None  # torn
        with open(path, "w") as f:
            json.dump({"member_id": "x"}, f)
        assert load_result(path) is None  # missing required keys

    def test_injected_corrupt_result_is_unreadable(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().corrupt_result(on_attempt=1))
        result = run_member(spec, str(tmp_path / "m"))
        assert load_result(result["paths"]["result"]) is None


# ----------------------------------------------------------------------
class TestSupervisorInProcess:
    """The supervisor in the test process driving forked ``workers=1``
    fleets: the retry ladder, quarantine and forensics on real worker
    deaths and diverged attempts."""

    def run_ensemble(self, specs, tmp_path, **kw):
        kw.setdefault("retry", FastRetry(max_retries=2))
        kw.setdefault("member_timeout", 60.0)
        sup = Supervisor(specs, workers=1, out_dir=str(tmp_path), **kw)
        return sup.run()

    def test_retry_skips_garbled_newest_rotation(self, tmp_path):
        """The retry resumes from the rotation that loads, and the result
        file and the ``resume`` record name that file, not the garbled
        newest one; the digest still equals the uninterrupted twin's."""
        ckpt_dir = os.path.join(str(tmp_path / "chaos"), "m0", "ckpt")
        garbled = []

        class GarbleNewest(FastRetry):
            def decide(self, strikes, seed=0):
                newest = checkpoint_candidates(ckpt_dir)[0]
                with open(newest, "wb") as f:
                    f.write(b"\x00garbled")
                garbled.append(newest)
                return super().decide(strikes, seed)

        spec = tiny_spec(injector=FaultInjector().kill_process(at_step=20))
        policy = GarbleNewest(max_retries=2)
        result = self.run_ensemble([spec], tmp_path / "chaos", retry=policy)
        twin = run_member(spec.without_injector(), str(tmp_path / "twin"))
        m = result.members[0]
        assert m.status == "recovered" and m.attempts == 2
        assert m.digest == twin["digest"]
        restored = load_result(m.paths["result"])["resumed_from"]
        assert restored and restored != garbled[0]
        assert os.path.dirname(restored) == ckpt_dir
        # the worker skipped the garbled rotation: its run log names the
        # rotation it restored instead
        resumes = [r for r in read_records(m.paths["runlog"])[0]
                   if r["event"] == "resume"]
        assert [r["path"] for r in resumes] == [restored]

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        """A worker killed before its first checkpoint is retried with
        ``resume`` and, finding no rotation, starts from the beginning."""
        spec = tiny_spec(injector=FaultInjector().kill_process(at_step=2))
        result = self.run_ensemble([spec], tmp_path / "chaos")
        twin = run_member(spec.without_injector(), str(tmp_path / "twin"))
        m = result.members[0]
        assert m.status == "recovered" and m.history[0]["resume"]
        retried = load_result(m.paths["result"])
        assert retried["attempt"] == 2 and retried["resumed_from"] is None
        assert m.digest == twin["digest"]
        report = validate_jsonl(m.paths["runlog"])
        assert not report["errors"], report["errors"]
        assert "resume" not in report["events"]

    def test_recovered_member_drops_stale_bundle(self, tmp_path):
        # a member that recovers on retry must NOT carry the failed
        # attempt's bundle forward — the per-attempt dumps stay in its
        # history entries, but verdict/bundle on the result are clean
        spec = tiny_spec(injector=FaultInjector().kill_process(at_step=10))
        result = self.run_ensemble([spec], tmp_path)
        m = result.members[0]
        assert m.status == "recovered"
        assert m.verdict is None
        assert m.bundle is None
        assert m.history[0]["bundle"]
        assert m.history[0]["bundle"].endswith(BUNDLE_SUFFIX)
        assert m.history[0]["verdict"] == "worker_death"
        # the published result file round-trips the same contract
        loaded = EnsembleResult.load(os.path.join(str(tmp_path),
                                                  "ensemble.json"))
        lm = loaded.member("m0")
        assert lm.verdict is None and lm.bundle is None
        assert lm.history[0]["verdict"] == "worker_death"
        # ... and so does the status view rebuilt from the run dir, though
        # the failed attempt's bundle is still the newest in the member dir
        assert [(r["member"], r["state"], r["verdict"])
                for r in status_rows(str(tmp_path))] == \
            [("m0", "recovered", None)]

    def test_persistent_nan_quarantines_as_nan_origin(self, tmp_path):
        # a diverging member's quarantine record carries the flight
        # recorder's verdict and a bundle path that localizes the NaN
        spec = tiny_spec(injector=FaultInjector()
                         .corrupt_state(3, persistent=True))
        result = self.run_ensemble([spec], tmp_path)
        m = result.members[0]
        assert m.status == "quarantined"
        assert m.verdict == "nan_origin"
        assert m.diagnosis.startswith("nan_origin after 3 attempt(s)")
        assert m.bundle and os.path.isfile(m.bundle)
        doc = load_bundle(m.bundle)
        verdict = classify_bundle(doc)
        assert verdict["verdict"] == "nan_origin"
        # attempt-scoped attribution: the quarantine bundle belongs to
        # the final attempt, not a stale dump from an earlier one
        assert (doc.get("context") or {}).get("attempt") == m.attempts
        assert all(h["verdict"] == "nan_origin" for h in m.history)
        assert all(h["bundle"] for h in m.history)

    def test_every_bundle_ring_has_one_record_shape(self, tmp_path):
        """The ring of a bundle a worker dumps itself (a persistent NaN)
        and of one the supervisor synthesizes for a killed worker hold the
        same records: run-log shaped, each naming its ``event``, each
        run-log event valid against the one schema."""
        specs = [
            tiny_spec("nan", injector=FaultInjector()
                      .corrupt_state(3, persistent=True)),
            tiny_spec("kill", injector=FaultInjector().kill_process(
                at_step=10)),
        ]
        result = self.run_ensemble(specs, tmp_path)
        kinds = {}
        for m in result.members:
            for entry in m.history:
                doc = load_bundle(entry["bundle"])
                events = doc["ring"]["events"]
                assert events and all("event" in e for e in events)
                for e in events:
                    if e["event"] in EVENT_FIELDS:
                        assert validate_record(e) == [], e
                kinds.setdefault(m.member_id, set()).add(doc["kind"])
                assert "heartbeat" in {e["event"] for e in events}
        assert kinds == {"nan": {"diverged"}, "kill": {"supervisor"}}

    def test_quarantine_events_carry_verdict_and_bundle(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector()
                         .corrupt_state(3, persistent=True))
        self.run_ensemble([spec], tmp_path)
        log_path = os.path.join(str(tmp_path), "ensemble.jsonl")
        report = validate_jsonl(log_path)
        assert not report["errors"], report["errors"]
        with open(log_path, encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        retries = [r for r in records if r["event"] == "member_retry"]
        quars = [r for r in records if r["event"] == "member_quarantined"]
        assert retries and quars
        for r in retries + quars:
            assert r["verdict"] == "nan_origin"
            assert r["bundle"] and r["bundle"].endswith(BUNDLE_SUFFIX)

    def test_fleet_survives_one_bad_member(self, tmp_path):
        specs = [
            tiny_spec("good", seed=1),
            tiny_spec("bad", seed=2, injector=FaultInjector().kill_process(
                at_step=5, persistent=True)),
        ]
        result = self.run_ensemble(specs, tmp_path)
        assert result.member("good").status == "ok"
        assert result.member("bad").status == "quarantined"

    def test_supervisor_events_logged_and_valid(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().kill_process(at_step=10))
        self.run_ensemble([spec], tmp_path)
        report = validate_jsonl(os.path.join(str(tmp_path), "ensemble.jsonl"))
        assert not report["errors"], report["errors"]
        ev = report["events"]
        assert ev["member_start"] == 2
        assert ev["member_retry"] == 1
        assert ev["member_end"] == 1
        assert ev["ensemble_summary"] == 1

    def test_ensemble_result_round_trips(self, tmp_path):
        spec = tiny_spec()
        self.run_ensemble([spec], tmp_path)
        loaded = EnsembleResult.load(os.path.join(str(tmp_path),
                                                  "ensemble.json"))
        assert loaded.counts["ok"] == 1
        assert loaded.member("m0").digest

    def test_driver_error_propagates_past_summary(self, tmp_path,
                                                  monkeypatch):
        """A driver-level failure with members still unfinished reaches the
        caller as itself (not as an AttributeError from summarising
        ``None`` results), after a summary over the finished members, and
        with every worker reaped."""
        assign = Supervisor._assign

        def fail_on_second(self, m, w, log):
            if m.spec.member_id == "m1":
                raise RuntimeError("driver misconfigured")
            return assign(self, m, w, log)

        monkeypatch.setattr(Supervisor, "_assign", fail_on_second)
        specs = [tiny_spec(f"m{k}", seed=k) for k in range(3)]
        with pytest.raises(RuntimeError, match="driver misconfigured"):
            self.run_ensemble(specs, tmp_path)
        with open(tmp_path / "ensemble.jsonl", encoding="utf-8") as f:
            summary = [json.loads(line) for line in f][-1]
        assert summary["event"] == "ensemble_summary"
        assert (summary["members"], summary["ok"]) == (3, 1)
        assert multiprocessing.active_children() == []

    def test_duplicate_member_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            Supervisor([tiny_spec("x"), tiny_spec("x")],
                       out_dir=str(tmp_path))


class TestStartFailure:
    """No worker, no attempt: a worker that cannot be started is a strike
    on the retry ladder, and a fleet needs at least one worker."""

    def test_start_failure_is_a_strike(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        def no_start(self):
            raise OSError("process start unavailable")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_start)
        specs = [tiny_spec(f"m{k}", seed=k) for k in range(2)]
        result = Supervisor(specs, workers=2, out_dir=str(tmp_path),
                            retry=FastRetry(max_retries=2)).run()
        assert result.counts == {"ok": 0, "recovered": 0, "quarantined": 2}
        for m in result.members:
            assert m.attempts == 3 and len(m.history) == 3  # 1 + max_retries
            for h in m.history:
                assert h["reason"] == "spawn failed: process start unavailable"
                assert h["verdict"] == "worker_death"
            assert m.verdict == "worker_death"
            assert m.diagnosis.startswith("worker_death after 3 attempt(s)")
        loaded = EnsembleResult.load(str(tmp_path / "ensemble.json"))
        assert [m.member_id for m in loaded.members] == ["m0", "m1"]
        capsys.readouterr()
        code = main(["obs-status", str(tmp_path), "--check"])
        assert code == 0, capsys.readouterr().out

    def test_zero_workers_rejected(self, tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(ValueError, match="workers must be >= 1"):
            Supervisor([tiny_spec()], workers=0, out_dir=str(tmp_path))
        assert main(["ensemble", "--workers", "0",
                     "--out", str(tmp_path / "ens")]) == 2
        assert "workers must be >= 1" in capsys.readouterr().out
        assert not os.path.exists(tmp_path / "ens")


class TestSimulatedFaultPlumbing:
    def test_attempt_scoping(self):
        # one-shot faults are scoped to a process incarnation: a respawned
        # attempt gets a freshly unpickled injector, so `fired` cannot
        # carry over — on_attempt is what prevents an infinite kill loop
        inj = pickle.loads(pickle.dumps(
            FaultInjector().kill_process(at_step=3, on_attempt=1)))
        (kill,) = inj._actions
        assert inj._due_process(kill, attempt=1)
        assert not inj._due_process(kill, attempt=2)  # wrong attempt
        inj.process_gate(3, attempt=2)  # quiet: this process lives on
        inj_p = FaultInjector().kill_process(at_step=3, persistent=True)
        for attempt in (1, 2, 3):
            fresh = pickle.loads(pickle.dumps(inj_p))
            assert fresh._due_process(fresh._actions[0], attempt)

    def test_result_gate_consumes_action(self):
        inj = FaultInjector().corrupt_result(on_attempt=2)
        assert not inj.result_gate(attempt=1)
        assert inj.result_gate(attempt=2)
        assert not inj.result_gate(attempt=2)  # one-shot


# ----------------------------------------------------------------------
class TestSupervisorMultiprocess:
    """The chaos matrix over real worker processes."""

    RETRY = FastRetry(max_retries=2)

    def run_ensemble(self, specs, out_dir, **kw):
        kw.setdefault("retry", self.RETRY)
        kw.setdefault("member_timeout", 60.0)
        sup = Supervisor(specs, workers=kw.pop("workers", 2),
                         out_dir=str(out_dir), **kw)
        return sup.run()

    def test_clean_ensemble_matches_inline(self, tmp_path):
        specs = [tiny_spec(f"m{k}", seed=k) for k in range(2)]
        result = self.run_ensemble(specs, tmp_path / "ens")
        assert result.counts == {"ok": 2, "recovered": 0, "quarantined": 0}
        assert not result.degraded
        for k, m in enumerate(result.members):
            assert m.attempts == 1
            twin = run_member(specs[k], str(tmp_path / f"twin{k}"))
            assert m.digest == twin["digest"], m.member_id

    def test_kill9_recovers_bitwise(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().kill_process(
            at_step=10, on_attempt=1))
        result = self.run_ensemble([spec], tmp_path / "ens")
        twin = run_member(spec.without_injector(), str(tmp_path / "twin"))
        m = result.members[0]
        assert m.status == "recovered"
        assert m.attempts == 2
        assert m.dt_scale == 1.0  # first retry must not perturb physics
        assert m.digest == twin["digest"]
        assert "signal 9" in m.history[0]["reason"]

    @pytest.mark.slow
    def test_hang_detected_by_heartbeat_timeout(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().hang(at_step=8))
        result = self.run_ensemble([spec], tmp_path / "ens",
                                   member_timeout=3.0)
        twin = run_member(spec.without_injector(), str(tmp_path / "twin"))
        m = result.members[0]
        assert m.status == "recovered"
        assert m.digest == twin["digest"]
        assert "heartbeat_timeout" in m.history[0]["reason"]

    @pytest.mark.slow
    def test_persistent_hang_quarantines_as_worker_death(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().hang(at_step=8,
                                                       persistent=True))
        result = self.run_ensemble([spec], tmp_path, workers=1,
                                   member_timeout=2.0)
        m = result.members[0]
        assert m.status == "quarantined" and m.attempts == 3
        assert all("heartbeat_timeout" in h["reason"] for h in m.history)
        assert m.verdict == "worker_death"
        assert m.bundle and os.path.isfile(m.bundle)
        assert classify_bundle(load_bundle(m.bundle))["verdict"] == \
            "worker_death"

    def test_corrupt_result_file_retries(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().corrupt_result(on_attempt=1))
        result = self.run_ensemble([spec], tmp_path / "ens")
        twin = run_member(spec.without_injector(), str(tmp_path / "twin"))
        m = result.members[0]
        assert m.status == "recovered"
        assert m.digest == twin["digest"]
        assert m.history[0]["reason"] == "corrupt_result"

    def test_persistent_kill_quarantined_with_history(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().kill_process(
            at_step=10, persistent=True))
        result = self.run_ensemble([spec], tmp_path / "ens")
        m = result.members[0]
        assert m.status == "quarantined"
        assert m.attempts == 3
        assert len(m.history) == 3
        assert all("signal 9" in h["reason"] for h in m.history)
        # a real kill -9 leaves no worker-side bundle: the supervisor
        # synthesizes one and the classifier reads the death marker
        assert "worker_death after 3 attempt(s)" in m.diagnosis
        assert m.verdict == "worker_death"
        assert m.bundle and os.path.isfile(m.bundle)
        assert result.degraded
        # escalation recorded: the second strike already reduced dt
        # (the final entry is the quarantine decision itself, no retry)
        assert m.history[1]["dt_scale"] < 1.0

    def test_chaos_fleet_complete_result(self, tmp_path):
        """Mixed fleet: clean + killed + corrupt; the driver always
        terminates with one result per member and a valid event log."""
        specs = [
            tiny_spec("clean", seed=1),
            tiny_spec("killed", seed=2,
                      injector=FaultInjector().kill_process(at_step=10)),
            tiny_spec("torn", seed=3,
                      injector=FaultInjector().corrupt_result(on_attempt=1)),
        ]
        result = self.run_ensemble(specs, tmp_path / "ens", workers=3)
        assert len(result.members) == 3
        assert result.member("clean").status == "ok"
        assert result.member("killed").status == "recovered"
        assert result.member("torn").status == "recovered"
        for m in result.members:
            spec = next(s for s in specs if s.member_id == m.member_id)
            twin = run_member(spec.without_injector(),
                              str(tmp_path / f"twin_{m.member_id}"))
            assert m.digest == twin["digest"], m.member_id
        report = validate_jsonl(result.runlog_path)
        assert not report["errors"], report["errors"]
        assert report["events"]["ensemble_summary"] == 1


def _events(result, name):
    with open(result.runlog_path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    return [r for r in records if r["event"] == name]


def _assert_reaped(result):
    """Every process a ``member_start`` named is gone *and* waited for."""
    assert multiprocessing.active_children() == []
    for pid in {e["pid"] for e in _events(result, "member_start")}:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestPersistentWorkers:
    """Worker reuse over real processes: what is shared between a
    worker's members (the interpreter, the plan cache), what is not
    (metrics, injector state), and who pays for a strike."""

    RETRY = TestSupervisorMultiprocess.RETRY
    run_ensemble = TestSupervisorMultiprocess.run_ensemble

    @pytest.mark.parametrize("parent_built", [False, True],
                             ids=["cold_parent", "warm_parent"])
    def test_one_worker_runs_every_member(self, tmp_path, parent_built):
        specs = [tiny_spec(f"m{k}", seed=k) for k in range(4)]
        clear_plan_cache()
        if parent_built:  # operator and step plans, as a member builds them
            run_member(tiny_spec("parent"), str(tmp_path / "parent"))
        _one_thread()
        result = self.run_ensemble(specs, tmp_path / "ens", workers=1)
        assert result.counts == {"ok": 4, "recovered": 0, "quarantined": 0}
        starts = _events(result, "member_start")
        assert len(starts) == 4 and len({e["pid"] for e in starts}) == 1
        for k, m in enumerate(result.members):
            twin = run_member(specs[k], str(tmp_path / f"twin{k}"))
            assert m.digest == twin["digest"], m.member_id
            # the registry is the worker's, the numbers are the member's
            final = [r for r in read_records(m.paths["runlog"])[0]
                     if r["event"] == "run_end"][-1]
            counters = final["metrics"]["counters"]
            assert counters["sched/sync_total"] == twin["steps"]
            # ... and the plan cache is the worker's too, forked warm
            # when the supervisor had built the plan
            assert ("cache/plan_misses" in counters) == (
                k == 0 and not parent_built)
        _assert_reaped(result)

    @pytest.mark.slow
    def test_kill_costs_one_worker_not_the_pool(self, tmp_path):
        specs = [tiny_spec("killed", seed=9, injector=FaultInjector()
                           .kill_process(at_step=10, on_attempt=1))]
        specs += [tiny_spec(f"s{k}", seed=k) for k in range(3)]
        result = self.run_ensemble(specs, tmp_path / "ens", workers=2)
        assert result.member("killed").status == "recovered"
        assert result.counts["ok"] == 3
        starts = _events(result, "member_start")
        first, second = [e["pid"] for e in starts if e["member"] == "killed"]
        assert first != second
        # five attempts on the dead worker, its replacement and the
        # sibling's worker, which went on taking members
        assert len(starts) == 5 and len({e["pid"] for e in starts}) <= 3
        _assert_reaped(result)

    def test_strike_retires_a_live_worker(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().corrupt_result(on_attempt=1))
        result = self.run_ensemble([spec], tmp_path / "ens", workers=1)
        twin = run_member(spec.without_injector(), str(tmp_path / "twin"))
        m = result.members[0]
        assert m.status == "recovered" and m.digest == twin["digest"]
        first, second = [e["pid"] for e in _events(result, "member_start")]
        assert first != second  # not in the interpreter that failed it
        _assert_reaped(result)

    @pytest.mark.slow
    def test_finished_member_wakes_supervisor(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_module, "POLL_INTERVAL_S", 3.0)
        result = self.run_ensemble([tiny_spec()], tmp_path / "ens",
                                   workers=1)
        assert result.counts["ok"] == 1
        assert result.wall_s < 3.0  # not one sleep to notice, one to leave

    @pytest.mark.slow
    def test_hung_worker_is_killed_and_reaped(self, tmp_path):
        spec = tiny_spec(injector=FaultInjector().hang(at_step=8))
        result = self.run_ensemble([spec], tmp_path / "ens", workers=1,
                                   member_timeout=3.0)
        assert result.members[0].status == "recovered"
        _assert_reaped(result)


#: a two-member fleet as a script with no file behind it (``python -``)
STDIN_FLEET = """
import sys
from repro.ensemble import MemberSpec, Supervisor
specs = [MemberSpec(member_id=f"m{k}", builder="quickstart",
                    perturb={"n_x": 4}, seed=k, t_end=0.12,
                    checkpoint_every=0.03) for k in range(2)]
print(Supervisor(specs, workers=2, out_dir=sys.argv[1]).run().counts)
"""

#: member ``a`` runs to its end, member ``h`` hangs for 3 s at step 2
HUNG_FLEET = """
import sys
from repro.core.health.inject import FaultInjector
from repro.ensemble import MemberSpec, Supervisor
tiny = dict(builder="quickstart", perturb={"n_x": 4}, t_end=0.12,
            checkpoint_every=0.03)
specs = [MemberSpec(member_id="a", seed=1, **tiny),
         MemberSpec(member_id="h", seed=2, **tiny,
                    injector=FaultInjector().hang(at_step=2, seconds=3.0))]
Supervisor(specs, workers=2, member_timeout=60.0, out_dir=sys.argv[1],
           verbose=True).run()
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie nobody reaped is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux")
class TestForkedWorkers:
    """A worker is a fork of the supervising process: what it inherits
    (imports, builders, the plan cache), what it must not (metric counts,
    open phases, the supervisor's pipe ends, the environment), and where
    it is spawned instead."""

    RETRY = TestSupervisorMultiprocess.RETRY
    run_ensemble = TestSupervisorMultiprocess.run_ensemble

    @pytest.mark.slow
    def test_fleet_runs_from_a_stdin_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-", str(tmp_path / "ens")], input=STDIN_FLEET,
            capture_output=True, text=True, env=_src_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "'ok': 2" in proc.stdout, proc.stdout + proc.stderr

    def test_member_reports_only_its_own_metrics(self, tmp_path):
        clear_plan_cache()
        run_member(tiny_spec("parent"), str(tmp_path / "parent"))
        met = get_metrics()
        met.reset()
        met.enable(trace=True)
        try:
            handle = get_builder("quickstart")(dict(TINY["perturb"]), 0)
            Scheduler(handle.solver).run(3 * handle.solver.dt)
            parent = met.snapshot()["counters"]
            assert parent["sched/sync_total"] == 3
            _one_thread()
            with met.phase("driver"):  # open while the worker forks
                result = self.run_ensemble([tiny_spec()], tmp_path / "ens",
                                           workers=1)
            assert met.snapshot()["counters"]["sched/sync_total"] == 3
        finally:
            met.disable()
            met.reset()
        m = result.members[0]
        final = [r for r in read_records(m.paths["runlog"])[0]
                 if r["event"] == "run_end"][-1]["metrics"]
        twin = run_member(tiny_spec(), str(tmp_path / "twin"))
        assert final["counters"]["sched/sync_total"] == twin["steps"]
        # the parent's plan, not a build of its own
        assert "cache/plan_misses" not in final["counters"]
        assert final["counters"]["cache/plan_hits"] >= 1
        assert final["phases"]
        assert not [p for p in final["phases"] if p.startswith("driver")]

    @pytest.mark.slow
    def test_dead_supervisor_reaches_every_worker(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-u", "-", str(tmp_path / "ens")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_src_env(),
        )
        proc.stdin.write(HUNG_FLEET)
        proc.stdin.close()
        pids = {}
        try:
            while True:
                line = proc.stdout.readline()
                if not line or "] a: ok" in line:
                    break
                started = re.search(r"\] (\w+): attempt 1 \(pid (\d+)", line)
                if started:
                    pids[started[1]] = int(started[2])
            assert line and set(pids) == {"a", "h"}, line
            proc.kill()
            proc.wait()
            killed = time.monotonic()
            # a's worker idles in recv: it reads EOF at once, while h's,
            # the sibling forked after it, still sleeps in its hang
            while _running(pids["a"]) and time.monotonic() - killed < 5.0:
                time.sleep(0.01)
            assert not _running(pids["a"])
            assert _running(pids["h"])
            while _running(pids["h"]) and time.monotonic() - killed < 5.0:
                time.sleep(0.05)
            assert not _running(pids["h"])
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in pids.values():
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.slow
    def test_threaded_parent_spawns_an_equal_twin(self, tmp_path,
                                                  monkeypatch):
        # spawn ships the parent's sys.path itself: no PYTHONPATH needed
        monkeypatch.delenv("PYTHONPATH", raising=False)
        methods = []
        get_context = multiprocessing.get_context

        def recording(method=None):
            methods.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording)
        stop = threading.Event()
        extra = threading.Thread(target=stop.wait)
        extra.start()
        try:
            spawned = self.run_ensemble([tiny_spec()], tmp_path / "spawn",
                                        workers=1)
        finally:
            stop.set()
            extra.join()
        _one_thread()
        forked = self.run_ensemble([tiny_spec()], tmp_path / "fork",
                                   workers=1)
        assert methods == ["spawn", "fork"]
        assert spawned.counts["ok"] == forked.counts["ok"] == 1
        assert spawned.members[0].digest == forked.members[0].digest

    @pytest.mark.slow
    def test_run_leaves_the_environment_alone(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PYTHONPATH", raising=False)
        before = dict(os.environ)
        result = self.run_ensemble([tiny_spec()], tmp_path / "ens",
                                   workers=1)
        assert result.counts["ok"] == 1
        assert dict(os.environ) == before


@pytest.mark.slow
class TestEnsembleCLI:
    def test_cli_clean_run(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "ensemble", "--members", "2",
             "--workers", "2", "--t-end", "0.12", "--checkpoint-every",
             "0.04", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=_src_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = EnsembleResult.load(str(tmp_path / "out" / "ensemble.json"))
        assert loaded.counts["ok"] == 2
