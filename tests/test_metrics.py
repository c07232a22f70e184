"""The instrument registry, snapshot merging, exporters, status view.

Covers the four layers of the fleet-metrics stack: registry semantics
under concurrent mutation and the session's instruments, which an
unobserved solver never carries, the
associative snapshot merge the supervisor folds member views with
(property-tested), the Prometheus text exporter against the strict
validator CI runs on every ``.prom`` artifact, the
:class:`~repro.obs.fleet.FleetAggregator` + offline status view, and
end-to-end ensembles (in-process fast tier, spawned in the ``slow``
tier) whose on-disk fleet totals must agree with the member run logs.
"""

import io
import json
import os
import re
import shutil
import sys
import threading

import pytest

from repro.obs import fleet
from repro.obs.fleet import (
    FLEET_PROM,
    FleetAggregator,
    fold_run_dir,
    prom_name,
    status_lines,
    status_rows,
    validate_prometheus,
    watch_status,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricRegistry,
    merge_snapshots,
)
from repro.obs.runlog import read_new_records, read_records

from .conftest import FastRetry, gravity_box


def _records(path):
    return read_records(path)[0]


# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_and_reads(self):
        reg = MetricRegistry()
        reg.inc("a/b", 3)
        reg.inc("a/b")
        assert reg.value("a/b") == 4
        with pytest.raises(ValueError, match="monotonic"):
            reg.inc("a/b", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricRegistry()
        reg.set_gauge("g", 1.5)
        reg.set_gauge("g", -2.0)
        assert reg.value("g") == -2.0
        snap = reg.snapshot()
        assert snap["gauges"]["g"]["value"] == -2.0
        assert snap["gauges"]["g"]["t"] > 0

    def test_name_pins_type(self):
        reg = MetricRegistry()
        reg.inc("x")
        with pytest.raises(ValueError, match="counter"):
            reg.set_gauge("x", 1.0)

    def test_disabled_is_a_noop(self):
        """A closed session records nothing more: the solver it observed
        steps unwrapped and the registry does not move."""
        from repro.obs import ObsSession

        solver = gravity_box(order=1)
        obs = ObsSession(metrics=True)
        obs.start(solver)
        solver.step()
        obs.close()
        before = obs.registry.snapshot()
        solver.step()
        assert obs.registry.snapshot() == before
        assert before["counters"]["elem_updates/predictor"] \
            == solver.mesh.n_elements

    def test_reset_keeps_enabled_flag(self):
        reg = MetricRegistry()
        reg.inc("c")
        reg.reset()
        assert reg.value("c") is None
        reg.inc("c")  # a reset registry records on
        assert reg.value("c") == 1

    def test_concurrent_mixed_mutation_is_exact(self):
        """N threads hammer one counter, their own gauges and one phase
        while a reader polls the counter: no lost updates, and reads are
        consistent (never torn, never running backwards)."""
        reg = MetricRegistry()
        n_threads, n_iter = 8, 400
        barrier = threading.Barrier(n_threads + 1, timeout=30)
        errors = []
        reads = []

        def work(tid):
            try:
                barrier.wait()
                for k in range(n_iter):
                    reg.inc("race/steps")
                    reg.set_gauge(f"race/g{tid}", float(k))
                    with reg.phase("race/phase"):
                        pass
                    if k % 97 == 0:
                        reg.snapshot()  # concurrent readers must not tear
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            barrier.wait()
            for _ in range(n_iter):
                reads.append(reg.value("race/steps") or 0)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        threads.append(threading.Thread(target=read))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside the locks
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        total = n_threads * n_iter
        assert reg.value("race/steps") == total
        assert reads == sorted(reads) and reads[-1] <= total
        snap = reg.snapshot()
        assert snap["phases"]["race/phase"]["calls"] == total
        assert [snap["gauges"][f"race/g{t}"]["value"]
                for t in range(n_threads)] == [float(n_iter - 1)] * n_threads


# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def snap(self, reg):
        return reg.snapshot()

    def test_none_is_identity(self):
        reg = MetricRegistry()
        reg.inc("c", 2)
        snap = reg.snapshot()
        assert merge_snapshots(snap, None) == merge_snapshots(None, snap)
        empty = merge_snapshots(None, None)
        assert empty["counters"] == {} and empty["schema"] == \
            METRICS_SCHEMA_VERSION

    def test_counters_sum_gauges_newest_wins(self):
        a = {"schema": 1, "counters": {"c": 3},
             "gauges": {"g": {"value": 1.0, "t": 10.0}}}
        b = {"schema": 1, "counters": {"c": 4, "d": 1},
             "gauges": {"g": {"value": 9.0, "t": 5.0}}}
        m = merge_snapshots(a, b)
        assert m["counters"] == {"c": 7, "d": 1}
        assert m["gauges"]["g"] == {"value": 1.0, "t": 10.0}  # newest t wins


def _hypothesis_snapshots():
    """Strategy for wire snapshots with exact-arithmetic values.

    Values are integer-valued floats so counter addition is exact.
    """
    from hypothesis import strategies as st

    names = st.sampled_from(["m/a", "m/b", "m/c"])
    ints = st.integers(min_value=0, max_value=1000)
    nums = ints.map(float)
    ts = st.integers(min_value=0, max_value=50).map(float)
    gauge_cell = st.fixed_dictionaries({"value": nums, "t": ts})
    snapshot = st.fixed_dictionaries({
        "schema": st.just(METRICS_SCHEMA_VERSION),
        "counters": st.dictionaries(names, ints, max_size=3),
        "gauges": st.dictionaries(names, gauge_cell, max_size=3),
    })
    return st.one_of(st.none(), snapshot)


try:
    from hypothesis import given, settings

    _SNAPS = _hypothesis_snapshots()

    class TestMergeAssociativity:
        """The fold contract :class:`FleetAggregator` relies on."""

        @given(a=_SNAPS, b=_SNAPS, c=_SNAPS)
        @settings(max_examples=200)
        def test_merge_is_associative(self, a, b, c):
            left = merge_snapshots(merge_snapshots(a, b), c)
            right = merge_snapshots(a, merge_snapshots(b, c))
            assert left == right

        @given(a=_SNAPS, b=_SNAPS)
        @settings(max_examples=100)
        def test_merge_never_mutates_operands(self, a, b):
            a0 = json.loads(json.dumps(a)) if a is not None else None
            b0 = json.loads(json.dumps(b)) if b is not None else None
            merge_snapshots(a, b)
            assert a == a0 and b == b0
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass


# ----------------------------------------------------------------------
class TestPrometheusExport:
    def registry_snapshot(self):
        reg = MetricRegistry()
        reg.inc("sched/sync_total", 42)
        reg.inc("cache/plan_hits", 3)
        reg.set_gauge("health/cfl_margin", 0.25)
        reg.set_gauge("health/energy_drift_ratio", -1.5e-9)
        return reg.snapshot()

    def render(self, snapshot):
        """What one running member with ``snapshot`` exports as."""
        agg = FleetAggregator("unused")
        agg.update("m0", snapshot, wall=100.0, state="running")
        return agg.to_prometheus(now=101.5)

    def test_export_passes_strict_validator(self):
        text = self.render(self.registry_snapshot())
        assert validate_prometheus(text) == [], validate_prometheus(text)
        assert text.endswith("\n")

    def test_counter_total_suffix_and_sanitized_names(self):
        text = self.render(self.registry_snapshot())
        assert "# TYPE repro_sched_sync_total counter" in text
        assert "repro_sched_sync_total 42" in text
        # _total is appended exactly once, names sanitized / -> _
        assert "repro_cache_plan_hits_total 3" in text
        assert prom_name("a/b-c.d") == "repro_a_b_c_d"

    def test_extra_families(self):
        """Fleet spread and liveness ride along as labelled gauges."""
        text = self.render(self.registry_snapshot())
        assert validate_prometheus(text) == [], validate_prometheus(text)
        assert "repro_sched_sync_total 42" in text
        assert "repro_health_cfl_margin 0.25" in text
        assert "repro_fleet_members 1.0" in text
        assert 'repro_fleet_gauge_max{metric="health/cfl_margin"} 0.25' \
            in text
        assert 'repro_fleet_member_staleness_seconds{member="m0"} 1.5' \
            in text
        assert 'repro_fleet_members_by_state{state="running"} 1.0' in text

    def test_validator_rejects_bad_documents(self):
        assert validate_prometheus("x_total 1\n")  # sample without TYPE
        assert validate_prometheus("# TYPE x counter\nx 1")  # no newline
        assert validate_prometheus("# TYPE x counter\nx -3\n")  # negative
        assert validate_prometheus(
            "# TYPE x counter\n# TYPE x counter\nx 1\n")  # duplicate TYPE
        assert validate_prometheus("not a metric line at all\n")

    def test_histogram_in_fleet_export_fails(self, tmp_path):
        """Nothing emits histograms (or summaries): a ``fleet.prom`` that
        holds one is not this exporter's, and fails validation whole —
        even a well-formed, cumulative one."""
        agg = FleetAggregator(str(tmp_path))
        agg.update("m0", self.registry_snapshot(), wall=100.0)
        agg.export(now=101.0)
        prom = tmp_path / FLEET_PROM
        assert validate_prometheus(prom.read_text()) == []
        with open(prom, "a") as fh:
            fh.write("# TYPE repro_step_seconds histogram\n"
                     'repro_step_seconds_bucket{le="+Inf"} 2\n'
                     "repro_step_seconds_sum 1.0\n"
                     "repro_step_seconds_count 2\n")
        errors = validate_prometheus(prom.read_text())
        assert any("type histogram" in e for e in errors), errors
        assert any("repro_step_seconds_bucket has no preceding" in e
                   for e in errors), errors
        assert validate_prometheus("# TYPE s summary\ns 1\n")

    def test_validator_accepts_own_fleet_export(self, tmp_path):
        agg = FleetAggregator(str(tmp_path))
        agg.update("m0", self.registry_snapshot(), wall=100.0,
                   state="running")
        agg.update("m1", self.registry_snapshot(), wall=101.0, state="ok")
        text = agg.to_prometheus(now=102.0)
        assert validate_prometheus(text) == [], validate_prometheus(text)


# ----------------------------------------------------------------------
class TestFleetAggregator:
    def member_snap(self, steps, drift):
        reg = MetricRegistry()
        reg.inc("sched/sync_total", steps)
        reg.set_gauge("health/energy_drift_ratio", drift)
        return reg.snapshot()

    def test_fleet_fold_sums_counters(self, tmp_path):
        agg = FleetAggregator(str(tmp_path))
        agg.update("m0", self.member_snap(10, 1e-9), wall=50.0)
        agg.update("m1", self.member_snap(32, 3e-9), wall=51.0)
        fleet = agg.fleet_snapshot()
        assert fleet["counters"]["sched/sync_total"] == 42
        stats = agg.gauge_stats()["health/energy_drift_ratio"]
        assert stats["min"] == 1e-9 and stats["max"] == 3e-9
        assert stats["n"] == 2

    def test_member_brief_and_staleness(self, tmp_path):
        """The brief's step is the runner step the message carried, not
        the executed-steps counter (which a resumed attempt restarts and
        a rollback inflates); last-seen only moves forward."""
        agg = FleetAggregator(str(tmp_path))
        agg.update("m0", self.member_snap(57, 2e-9), wall=50.0,
                   state="running", step=40, sim_t=0.8)
        assert agg.member_brief("m0") == {"step": 40, "sim_t": 0.8,
                                          "energy_drift": 2e-9}
        agg.update("m0", wall=49.0, state="retrying")
        assert agg.staleness(now=57.0) == {"m0": 7.0}
        assert agg.members["m0"]["retries"] == 1
        assert agg.member_brief("nope") == {}

    def test_future_schema_snapshot_ignored(self, tmp_path):
        agg = FleetAggregator(str(tmp_path))
        agg.update("m0", {"schema": METRICS_SCHEMA_VERSION + 1,
                          "counters": {"c": 1}}, wall=1.0)
        assert agg.fleet_snapshot()["counters"] == {}  # not misfolded
        assert "m0" in agg.members  # but liveness is still refreshed

    def test_export_atomic_artifacts(self, tmp_path):
        agg = FleetAggregator(str(tmp_path))
        agg.update("m0", self.member_snap(5, 0.0), wall=10.0,
                   state="running")
        agg.export(now=11.0)
        agg.update("m0", self.member_snap(9, 0.0), wall=12.0,
                   state="ok")
        agg.export(now=13.0)
        prom = (tmp_path / FLEET_PROM).read_text()
        assert validate_prometheus(prom) == [], validate_prometheus(prom)
        # the newest view replaced the old one
        assert "repro_sched_sync_total 9" in prom
        assert 'repro_fleet_members_by_state{state="ok"} 1.0' in prom
        # the one artifact, no leftover temp files from the atomic publish
        assert os.listdir(tmp_path) == [FLEET_PROM]

    def test_wall_rate_from_the_steps_folded(self, tmp_path):
        """The brief's rate is steps over wall time between the two
        latest steps seen: a repeated step keeps it, a resume (the step
        goes back) restarts it."""
        agg = FleetAggregator(str(tmp_path))
        agg.update("m0", wall=100.0, step=20)
        assert "wall_rate" not in agg.member_brief("m0")
        agg.update("m0", wall=104.0, step=40)
        agg.update("m0", wall=105.0, step=40)
        assert agg.member_brief("m0")["wall_rate"] == 5.0
        agg.update("m0", wall=106.0, step=30)
        agg.update("m0", wall=108.0, step=31)
        assert agg.member_brief("m0")["wall_rate"] == 0.5

    def test_export_requires_out_dir(self):
        # where the exporters write is fixed at construction
        with pytest.raises(TypeError, match="out_dir"):
            FleetAggregator()


# ----------------------------------------------------------------------
class TestStatusView:
    def write_jsonl(self, path, records):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

    def synthetic_run_dir(self, tmp_path):
        root = tmp_path / "ens"

        def beat(seq, wall, step, sim_t, syncs):
            # what a session with metrics on writes per beat: a heartbeat
            # carrying counters + gauges (sched/sync_total counts executed
            # steps)
            snap = {"schema": METRICS_SCHEMA_VERSION,
                    "counters": {"sched/sync_total": syncs},
                    "gauges": {"health/energy_drift_ratio":
                               {"value": 2e-9, "t": wall}}}
            return [
                {"event": "heartbeat", "seq": seq, "wall": wall,
                 "run_id": "r", "step": step, "sim_t": sim_t, "dt": 0.02,
                 "energy": 1.0, "wall_rate": 20.0, "metrics": snap},
            ]

        # m0 rolled back once: 46 steps executed for runner step 40
        self.write_jsonl(str(root / "m0" / "run.jsonl"),
                         beat(1, 100.0, 20, 0.4, 20)
                         + beat(3, 104.0, 40, 0.8, 46))
        # m1: heartbeats only (metrics off), plus a torn tail to tolerate
        self.write_jsonl(str(root / "m1" / "run.jsonl"), [
            {"event": "heartbeat", "seq": 1, "wall": 101.0, "run_id": "r",
             "step": 7, "sim_t": 0.14},
        ])
        with open(root / "m1" / "run.jsonl", "a") as fh:
            fh.write('{"event": "heartbeat", "torn')
        self.write_jsonl(str(root / "ensemble.jsonl"), [
            {"event": "member_start", "seq": 1, "wall": 99.0, "run_id": "s",
             "member": "m0", "attempt": 1},
            {"event": "member_start", "seq": 2, "wall": 99.5, "run_id": "s",
             "member": "m1", "attempt": 1},
            {"event": "member_retry", "seq": 3, "wall": 103.0, "run_id": "s",
             "member": "m1", "attempt": 1, "reason": "signal 9",
             "delay_s": 0.1},
        ])
        return str(root)

    def test_rows_prefer_metric_gauges_with_heartbeat_fallback(self, tmp_path):
        rows = {r["member"]: r
                for r in status_rows(self.synthetic_run_dir(tmp_path),
                                     now=110.0)}
        m0, m1 = rows["m0"], rows["m1"]
        assert m0["step"] == 40 and m0["sim_t"] == 0.8  # the runner's
        # the rate derived from the runner steps: (40 - 20) / (104 - 100)
        assert m0["wall_rate"] == 5.0
        assert m0["energy_drift"] == 2e-9  # drift from the gauge
        assert m0["state"] == "running"
        assert m0["stale_s"] == pytest.approx(6.0)
        # m1 falls back to its heartbeat record; retry state from the
        # supervisor log; the torn tail is skipped, not fatal
        assert m1["step"] == 7 and m1["sim_t"] == 0.14
        assert m1["energy_drift"] is None
        assert m1["state"] == "retrying"
        assert m1["retries"] == 1

    def test_terminal_states_come_from_member_end(self, tmp_path):
        """Every terminal state is a ``member_end`` event: the fold reads
        it there, and an ``ensemble.json`` beside the logs is not read."""
        root = self.synthetic_run_dir(tmp_path)
        with open(os.path.join(root, "ensemble.jsonl"), "a") as fh:
            for seq, (mid, status) in enumerate(
                    [("m0", "ok"), ("m1", "quarantined")], start=4):
                fh.write(json.dumps({
                    "event": "member_end", "seq": seq, "wall": 105.0,
                    "run_id": "s", "member": mid, "status": status,
                    "attempts": 1, "wall_s": 6.0}) + "\n")
        with open(os.path.join(root, "ensemble.json"), "w") as fh:
            json.dump({"members": [{"member_id": "m0", "status": "recovered"},
                                   {"member_id": "m1", "status": "ok"}]}, fh)
        rows = {r["member"]: r for r in status_rows(root, now=110.0)}
        assert rows["m0"]["state"] == "ok"
        assert rows["m1"]["state"] == "quarantined"

    def test_fold_on_equals_a_fresh_fold(self, tmp_path):
        """Folding on from an earlier fold reads only the records appended
        since — a line still being written waits for its newline — and
        ends where a fresh fold of the same bytes does."""
        root = self.synthetic_run_dir(tmp_path)
        agg, _, _ = fold_run_dir(root)
        assert agg.members["m1"]["step"] == 7  # the torn tail is not read
        with open(os.path.join(root, "m1", "run.jsonl"), "a") as fh:
            fh.write('": 1, "seq": 2, "wall": 106.0, "run_id": "r", '
                     '"step": 9, "sim_t": 0.18}\n')
        with open(os.path.join(root, "ensemble.jsonl"), "a") as fh:
            fh.write(json.dumps({
                "event": "member_end", "seq": 4, "wall": 105.0,
                "run_id": "s", "member": "m0", "status": "ok",
                "attempts": 1, "wall_s": 6.0}) + "\n")
        same, sup, logs = fold_run_dir(root, agg)
        assert same is agg
        assert [r["event"] for r in sup] == ["member_end"]
        assert logs["m0"] == [] and [r["step"] for r in logs["m1"]] == [9]
        fresh, _, _ = fold_run_dir(root)
        assert agg.members == fresh.members
        assert agg.offsets == fresh.offsets
        assert agg.members["m1"]["step"] == 9
        assert agg.members["m0"]["state"] == "ok"

    def test_watch_folds_on_and_check_folds_once(self, tmp_path,
                                                  monkeypatch):
        """A watch's next render reads each log from where the last one
        stopped, and folds afresh once a log is shorter than that;
        ``--check`` folds the run dir once."""
        root = self.synthetic_run_dir(tmp_path)
        m0_log = os.path.join(root, "m0", "run.jsonl")
        reads = []

        def spy(path, start=0):
            records, end = read_new_records(path, start)
            reads.append((path, start, end))
            return records, end

        def beat(step):
            with open(m0_log, "a") as fh:
                fh.write(json.dumps({"event": "heartbeat", "seq": 9,
                                     "wall": 108.0, "run_id": "r",
                                     "step": step, "sim_t": 1.2}) + "\n")

        def between_renders(_seconds):
            if len(reads) == 3:  # after the first render: m0 beats
                beat(60)
            else:  # after the second: m0's log is rewritten, shorter
                with open(m0_log, "w"):
                    pass
                beat(61)

        monkeypatch.setattr(fleet, "read_new_records", spy)
        monkeypatch.setattr(fleet.time, "sleep", between_renders)
        buf = io.StringIO()
        assert watch_status(root, interval=1.0, iterations=3,
                            stream=buf) == 0
        first, second, third = reads[:3], reads[3:6], reads[6:]
        assert [start for _, start, _ in first] == [0, 0, 0]
        assert [(path, start) for path, start, _ in second] == \
            [(path, end) for path, _, end in first]
        assert all(end > 0 for _, _, end in first)
        assert [start for _, start, _ in third] == [0, 0, 0]
        tables = buf.getvalue().split("== fleet status")[1:]
        steps = [re.search(r"\n  m0 +\w+ +(\d+)", t).group(1) for t in tables]
        assert steps == ["40", "60", "61"]

        folds = []
        fold = fleet.fold_run_dir
        monkeypatch.setattr(fleet, "fold_run_dir",
                            lambda *a: folds.append(a) or fold(*a))
        watch_status(root, check=True, stream=io.StringIO())
        assert len(folds) == 1

    def test_lines_render_and_count_states(self, tmp_path):
        lines = status_lines(self.synthetic_run_dir(tmp_path), now=110.0)
        text = "\n".join(lines)
        assert "m0" in text and "m1" in text
        assert "1 retrying" in text and "1 running" in text

    def test_empty_dir_is_not_an_error(self, tmp_path):
        assert status_rows(str(tmp_path)) == []
        assert any("no members" in ln for ln in status_lines(str(tmp_path)))

    def test_watch_single_shot_and_missing_dir(self, tmp_path):
        buf = io.StringIO()
        assert watch_status(self.synthetic_run_dir(tmp_path),
                            stream=buf) == 0
        assert "fleet status" in buf.getvalue()
        # bounded watch over a dir that never exists: placeholder rows,
        # not a traceback, and a clean exit after `iterations` renders
        buf = io.StringIO()
        assert watch_status(str(tmp_path / "gone"), interval=0.0,
                            iterations=2, stream=buf) == 0
        assert buf.getvalue().count("fleet status") == 2

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_not_a_directory_is_an_error(self, tmp_path, capsys, kind,
                                         check):
        from repro.__main__ import main

        path = tmp_path / "no-such-dir"
        if kind == "file":
            path.write_text("")
        argv = ["obs-status", str(path)] + (["--check"] if check else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"obs-status: {path}: not a directory\n"

    def test_watch_ctrl_c_exits_clean(self, tmp_path, monkeypatch):
        def boom(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.obs.fleet.time.sleep", boom)
        buf = io.StringIO()
        assert watch_status(self.synthetic_run_dir(tmp_path), interval=5.0,
                            stream=buf) == 0


# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_registry_within_step_budget(self, registry_calls):
        """The whole guard's bar: the registry off must not tax the solver.

        An observed step fires the session's sites (phase records and
        counter increments); the same solver unobserved, before the
        session and after it closes, fires no registry entry point at
        all: off, a step has no site to charge against the 2 % budget.
        """
        from repro.obs import ObsSession

        solver = gravity_box(order=2)
        solver.step()
        assert sum(registry_calls.values()) == 0

        obs = ObsSession(metrics=True)
        obs.start(solver)
        solver.step()
        snap = obs.snapshot()
        obs.close()
        sites = sum(c["calls"] for c in snap["phases"].values())
        sites += len(snap["counters"]) + len(snap["gauges"])
        assert sites >= 5  # the step is actually instrumented
        assert registry_calls["record"] >= 5  # and the spy sees its sites

        registry_calls.clear()
        for _ in range(3):
            solver.step()
        assert sum(registry_calls.values()) == 0, (
            f"a closed session left {dict(registry_calls)} registry calls "
            "in the step")


class TestSessionInstruments:
    def test_unobserved_solver_carries_no_wrapper(self):
        """An unobserved solver runs its class methods: no instance of
        its operator, backend, gravity and fault modules holds a wrapper
        (there is no disabled path to pay for).  A session wraps them on
        the instances and, closed, puts back exactly what it found — a
        wrapper installed before it (the perf ledger's traced pass) too."""
        from repro.core.solver import CoupledSolver
        from repro.obs import ObsSession
        from repro.rupture.fault import FaultSolver, Prestress
        from repro.rupture.friction import LinearSlipWeakening

        from .test_fault import fault_box

        fault = FaultSolver(LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.4),
                            Prestress(sigma_n=-120e6, tau_s=20e6))
        solver = gravity_box(order=1)
        faulted = CoupledSolver(fault_box(nc=4), order=1, fault=fault)
        seams = {
            "op": ("predict_states", "apply"),
            "backend": ("predict", "update_predictor", "corrector"),
            "gravity": ("step",),
            "fault": ("step",),
        }

        def own(s):
            return {(owner, attr) for owner, attrs in seams.items()
                    for attr in attrs
                    if getattr(s, owner) is not None
                    and attr in vars(getattr(s, owner))}

        for s in (solver, faulted):
            s.step()
            assert own(s) == set() and "step" not in vars(s)

        # wrappers installed before the session, as the perf ledger's are
        calls = []
        fault_step, corrector = faulted.fault.step, faulted.backend.corrector

        def earlier_fault(*args, **kwargs):
            return fault_step(*args, **kwargs)

        def earlier_corrector(*args, **kwargs):
            calls.append(1)
            return corrector(*args, **kwargs)

        faulted.fault.step = earlier_fault
        faulted.backend.corrector = earlier_corrector
        obs = ObsSession(metrics=True)
        obs.start(faulted)
        assert own(faulted) == {(o, a) for o, attrs in seams.items()
                                for a in attrs}
        faulted.step()
        snap = obs.snapshot()
        obs.close()
        assert snap["phases"]["rupture.fault"]["calls"] == 1
        assert calls == [1]  # the session called through the earlier one
        assert vars(faulted.fault)["step"] is earlier_fault
        assert vars(faulted.backend)["corrector"] is earlier_corrector
        assert own(faulted) == {("fault", "step"), ("backend", "corrector")}
        assert "step" not in vars(faulted) and not own(solver)


# ----------------------------------------------------------------------
def _last_metrics_steps(runlog_path):
    """``sched/sync_total`` of the final snapshot in a run log."""
    ends = [r for r in _records(runlog_path) if r.get("event") == "run_end"]
    assert ends, f"no run_end record in {runlog_path}"
    return ends[-1]["metrics"]["counters"]["sched/sync_total"]


def _prom_value(text, name):
    m = re.search(rf"^{re.escape(name)} (\S+)$", text, re.M)
    assert m, f"{name} not found in .prom export"
    return float(m.group(1))


class TestEnsembleFleetMetrics:
    """Two-member ensembles on forked workers, metrics on."""

    def specs(self, n=2, **over):
        from repro.ensemble import MemberSpec

        return [MemberSpec(member_id=f"m{k}", builder="quickstart",
                           perturb={"n_x": 4}, t_end=0.12, seed=k, **over)
                for k in range(n)]

    def run_ensemble(self, specs, out_dir):
        from repro.ensemble import Supervisor

        sup = Supervisor(specs, workers=2, out_dir=str(out_dir),
                         retry=FastRetry(max_retries=1),
                         member_timeout=60.0)
        return sup.run()

    def test_fleet_totals_agree_with_member_runlogs(self, tmp_path):
        result = self.run_ensemble(self.specs(), tmp_path)
        assert result.counts["ok"] == 2

        prom = (tmp_path / FLEET_PROM).read_text()
        assert validate_prometheus(prom) == [], validate_prometheus(prom)
        expected = sum(
            _last_metrics_steps(str(tmp_path / m.member_id / "run.jsonl"))
            for m in result.members)
        assert expected > 0
        assert _prom_value(prom, "repro_sched_sync_total") == expected
        assert _prom_value(prom, "repro_fleet_members") == 2.0
        assert 'repro_fleet_members_by_state{state="ok"} 2.0' in prom

    def test_status_view_renders_completed_fleet(self, tmp_path):
        self.run_ensemble(self.specs(), tmp_path)
        rows = {r["member"]: r for r in status_rows(str(tmp_path))}
        assert set(rows) == {"m0", "m1"}
        for row in rows.values():
            assert row["state"] == "ok"
            assert row["step"] > 0
            assert row["sim_t"] == pytest.approx(0.12)
            assert row["energy_drift"] is not None  # from its snapshots
            assert row["wall_rate"] > 0  # derived from its beats
        lines = status_lines(str(tmp_path))
        assert any("2 ok" in ln for ln in lines)
        assert watch_status(str(tmp_path), stream=io.StringIO(),
                            check=True) == 0

    def test_supervisor_events_carry_metric_briefs(self, tmp_path):
        import dataclasses

        from repro.core.health.inject import FaultInjector

        specs = self.specs()
        specs[1] = dataclasses.replace(
            specs[1], injector=FaultInjector().kill_process(at_step=10),
            checkpoint_every=0.03)
        self.run_ensemble(specs, tmp_path)
        sup = _records(str(tmp_path / "ensemble.jsonl"))
        retries = [r for r in sup if r.get("event") == "member_retry"]
        assert retries
        # the retry event is self-contained: it embeds where the member was
        assert retries[0]["metrics"].get("step", 0) > 0
        ends = [r for r in sup if r.get("event") == "member_end"]
        assert ends and all("metrics" in r for r in ends)

    def test_member_run_end_carries_the_attempts_snapshot(self, tmp_path):
        """A member's ``run_end`` carries what the attempt measured (it
        used to log ``phases={}, counters={}`` whatever was recorded),
        and it is the one copy: the result file has none."""
        from repro.io import load_result
        from repro.obs.report import phase_total

        self.run_ensemble(self.specs(n=1), tmp_path)
        records = _records(str(tmp_path / "m0" / "run.jsonl"))
        run_end = [r for r in records if r.get("event") == "run_end"][-1]
        result = load_result(str(tmp_path / "m0" / "result.json"))
        n_elements = [r for r in records
                      if r.get("event") == "manifest"][-1]["n_elements"]
        assert "metrics" not in result
        assert run_end["metrics"]["counters"]["elem_updates/predictor"] == \
            result["steps"] * n_elements
        assert phase_total(run_end["metrics"]["phases"],
                           "kernels.apply") > 0.0

    def test_metrics_registry_not_leaked_after_ensemble(self, tmp_path):
        """A driver's registry is untouched by a fleet: members count in
        their own sessions' registries, never in the driver's."""
        from repro.obs import ObsSession

        obs = ObsSession(metrics=True)
        met = obs.registry
        met.inc("driver/marker")
        before = met.snapshot()
        result = self.run_ensemble(self.specs(n=1), tmp_path)
        assert result.counts["ok"] == 1
        assert met.snapshot() == before

    def test_merged_trace_one_lane_per_member(self, tmp_path):
        from repro.obs.trace import merge_chrome_traces, validate_chrome_trace

        self.run_ensemble(self.specs(trace=True), tmp_path)
        out = tmp_path / "ensemble.trace.json"
        doc = merge_chrome_traces(str(tmp_path), out_path=str(out))
        assert validate_chrome_trace(doc) == [], validate_chrome_trace(doc)
        assert doc["otherData"]["members"] == ["m0", "m1"]
        events = doc["traceEvents"]
        span_pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert span_pids == {1, 2}  # one process lane per member
        lane_names = {e["args"]["name"] for e in events
                      if e.get("name") == "process_name"}
        assert {"supervisor", "member m0", "member m1"} <= lane_names
        instants = [e for e in events if e.get("ph") == "i"]
        assert instants and all(e["pid"] == 0 for e in instants)
        assert any(e["name"].startswith("member_start") for e in instants)
        # written artifact parses and validates too
        on_disk = json.loads(out.read_text())
        assert validate_chrome_trace(on_disk) == []

    def test_merge_without_traces_raises(self, tmp_path):
        from repro.obs.trace import merge_chrome_traces

        self.run_ensemble(self.specs(), tmp_path)  # metrics, no traces
        with pytest.raises(FileNotFoundError):
            merge_chrome_traces(str(tmp_path))


class TestStatusCheck:
    """``obs-status RUN_DIR --check`` and the one fold over a real fleet."""

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        """Two members on forked workers, metrics on; ``m1``'s worker is
        killed after its first checkpoint and the retry resumes from it."""
        import dataclasses

        from repro.core.health.inject import FaultInjector
        from repro.ensemble import MemberSpec, Supervisor

        out = tmp_path_factory.mktemp("fleet")
        specs = [MemberSpec(member_id=f"m{k}", builder="quickstart",
                            perturb={"n_x": 4}, t_end=0.12, seed=k,
                            checkpoint_every=0.03) for k in range(2)]
        specs[1] = dataclasses.replace(
            specs[1], injector=FaultInjector().kill_process(at_step=10))
        Supervisor(specs, workers=2, out_dir=str(out),
                   retry=FastRetry(max_retries=1),
                   member_timeout=60.0).run()
        return out

    def check(self, run_dir, capsys):
        from repro.__main__ import main

        code = main(["obs-status", str(run_dir), "--check"])
        return code, capsys.readouterr().out

    def broken_copy(self, fleet, tmp_path):
        return shutil.copytree(fleet, tmp_path / "fleet")

    def test_fleet_with_a_recovery_passes(self, fleet, capsys):
        code, out = self.check(fleet, capsys)
        assert code == 0, out
        assert "1 ok, 1 recovered" in out
        assert "0 problem(s) -> OK" in out

    def test_brief_and_status_report_the_runner_step(self, fleet):
        """The supervisor's brief and ``obs-status`` fold the same step —
        the runner's — also after a resumed attempt (the executed-steps
        counter restarts there)."""
        sup = _records(str(fleet / "ensemble.jsonl"))
        records = _records(str(fleet / "m1" / "run.jsonl"))
        with open(fleet / "m1" / "result.json") as fh:
            result = json.load(fh)
        assert result["resumed_from"]
        end = [r for r in sup
               if r["event"] == "member_end" and r["member"] == "m1"][-1]
        row = {r["member"]: r for r in status_rows(str(fleet))}["m1"]
        assert end["metrics"]["step"] == row["step"] == result["steps"]
        assert row["state"] == "recovered" and row["retries"] == 1
        # before the retry: the step of the last beat of attempt 1
        second = [i for i, r in enumerate(records)
                  if r["event"] == "manifest"][1]
        beats = [r["step"] for r in records[:second]
                 if r["event"] == "heartbeat"]
        retry = next(r for r in sup if r["event"] == "member_retry")
        assert retry["metrics"]["step"] == beats[-1]

    def test_fleet_prom_is_the_fold_of_the_logs(self, fleet):
        """The supervisor's fold is the logs' (folded on from export to
        export): after a kill and a resume, ``fleet.prom`` holds the
        counter and gauge families a fresh :func:`fold_run_dir` of the
        logs renders (staleness aside, which depends on when it is
        rendered)."""
        def families(text):
            return [ln for ln in text.splitlines()
                    if "member_staleness_seconds" not in ln]

        agg, _, _ = fold_run_dir(str(fleet))
        written = (fleet / FLEET_PROM).read_text()
        assert families(written) == families(agg.to_prometheus())
        assert "repro_sched_sync_total" in written
        assert 'repro_fleet_members_by_state{state="recovered"} 1.0' \
            in written

    def test_briefs_equal_status_rows(self, fleet):
        """Each ``member_end`` brief is what ``obs-status`` shows for the
        member: both fold its run log."""
        rows = {r["member"]: r for r in status_rows(str(fleet))}
        ends = [r for r in _records(str(fleet / "ensemble.jsonl"))
                if r["event"] == "member_end"]
        assert sorted(r["member"] for r in ends) == ["m0", "m1"]
        for end in ends:
            row = rows[end["member"]]
            assert end["metrics"] == {
                k: row[k] for k in ("step", "sim_t", "wall_rate",
                                    "energy_drift") if row[k] is not None}

    def test_garbled_member_log_line(self, fleet, tmp_path, capsys):
        run_dir = self.broken_copy(fleet, tmp_path)
        log = run_dir / "m0" / "run.jsonl"
        with open(log, "a") as fh:
            fh.write("not json\n")
        code, out = self.check(run_dir, capsys)
        assert code == 1
        assert f"{log}:" in out and "invalid JSON" in out

    def test_invalid_fleet_prom(self, fleet, tmp_path, capsys):
        run_dir = self.broken_copy(fleet, tmp_path)
        prom = run_dir / FLEET_PROM
        with open(prom, "a") as fh:
            fh.write("repro_orphan 1\n")
        code, out = self.check(run_dir, capsys)
        assert code == 1
        assert f"{prom}: " in out and "no preceding # TYPE" in out

    @pytest.mark.parametrize("damage", ["missing", "tampered"])
    def test_broken_referenced_bundle(self, fleet, tmp_path, capsys, damage):
        run_dir = self.broken_copy(fleet, tmp_path)
        retry = next(r for r in _records(str(run_dir / "ensemble.jsonl"))
                     if r["event"] == "member_retry")
        bundle = run_dir / "m1" / os.path.basename(retry["bundle"])
        if damage == "missing":
            bundle.unlink()
        else:
            doc = json.loads(bundle.read_text())
            doc["reason"] = "nothing to see"
            bundle.write_text(json.dumps(doc))
        code, out = self.check(run_dir, capsys)
        assert code == 1
        assert f"bundle {retry['bundle']}" in out
        assert ("No such file" if damage == "missing"
                else "fingerprint mismatch") in out

    def test_missing_final_metrics_record(self, fleet, tmp_path, capsys):
        """Every finished member's final snapshot rides on its
        ``run_end``: a run log without one fails the check."""
        run_dir = self.broken_copy(fleet, tmp_path)
        log = run_dir / "m0" / "run.jsonl"
        lines = [ln for ln in log.read_text().splitlines(keepends=True)
                 if '"event": "run_end"' not in ln]
        log.write_text("".join(lines))
        code, out = self.check(run_dir, capsys)
        assert code == 1
        assert f"{log}: no run_end record" in out

    def test_torn_result_file(self, fleet, tmp_path, capsys):
        """A finished member's ``result.json`` holds the digest and
        summary the ensemble result reads: a torn one fails the check."""
        run_dir = self.broken_copy(fleet, tmp_path)
        result = run_dir / "m0" / "result.json"
        result.write_text(result.read_text()[:40])
        code, out = self.check(run_dir, capsys)
        assert code == 1
        assert f"{result}: unreadable" in out


@pytest.mark.slow
class TestEnsembleFleetMetricsSpawned:
    """The acceptance bar across real process boundaries."""

    def test_spawned_fleet_totals_agree_with_runlogs(self, tmp_path):
        from repro.ensemble import MemberSpec, RetryPolicy, Supervisor

        specs = [MemberSpec(member_id=f"m{k}", builder="quickstart",
                            perturb={"n_x": 4}, t_end=0.12, seed=k)
                 for k in range(2)]
        sup = Supervisor(specs, workers=2, out_dir=str(tmp_path),
                         retry=RetryPolicy(max_retries=1),
                         member_timeout=60.0)
        result = sup.run()
        assert result.counts["ok"] == 2

        prom = (tmp_path / FLEET_PROM).read_text()
        assert validate_prometheus(prom) == [], validate_prometheus(prom)
        expected = sum(
            _last_metrics_steps(str(tmp_path / m.member_id / "run.jsonl"))
            for m in result.members)
        assert expected > 0
        assert _prom_value(prom, "repro_sched_sync_total") == expected

    def test_obs_status_cli_on_spawned_run(self, tmp_path):
        import subprocess
        import sys

        from repro.ensemble import MemberSpec, Supervisor

        specs = [MemberSpec(member_id="m0", builder="quickstart",
                            perturb={"n_x": 4}, t_end=0.12, seed=1)]
        Supervisor(specs, workers=1, out_dir=str(tmp_path),
                   member_timeout=60.0).run()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "obs-status", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "m0" in proc.stdout
        assert "1 ok" in proc.stdout
