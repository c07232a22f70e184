"""Fleet metrics: typed registry, snapshot merging, exporters, status view.

Covers the four layers of the fleet-metrics stack: registry semantics
under concurrent mutation, the associative snapshot merge the supervisor
folds member views with (property-tested), the Prometheus text exporter
against the strict validator CI runs on every ``.prom`` artifact, the
:class:`~repro.obs.fleet.FleetAggregator` + offline status view, and
end-to-end ensembles (in-process fast tier, spawned in the ``slow``
tier) whose on-disk fleet totals must agree with the member run logs.
"""

import io
import json
import os
import re
import threading
import time

import pytest

from repro.obs.fleet import (
    FLEET_JSONL,
    FLEET_PROM,
    FleetAggregator,
    read_jsonl_tolerant,
    status_lines,
    status_rows,
    watch_status,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricRegistry,
    get_metrics,
    merge_snapshots,
    prom_name,
    to_prometheus,
    validate_prometheus,
)


@pytest.fixture(autouse=True)
def _clean_metrics():
    met = get_metrics()
    met.disable()
    met.reset()
    yield
    met.disable()
    met.reset()


# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_and_reads(self):
        reg = MetricRegistry()
        reg.enable()
        reg.inc("a/b", 3)
        reg.inc("a/b")
        assert reg.value("a/b") == 4
        with pytest.raises(ValueError, match="monotonic"):
            reg.inc("a/b", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricRegistry()
        reg.enable()
        reg.set_gauge("g", 1.5)
        reg.set_gauge("g", -2.0)
        assert reg.value("g") == -2.0
        snap = reg.snapshot()
        assert snap["gauges"]["g"]["value"] == -2.0
        assert snap["gauges"]["g"]["t"] > 0

    def test_name_pins_type(self):
        reg = MetricRegistry()
        reg.enable()
        reg.inc("x")
        with pytest.raises(ValueError, match="counter"):
            reg.set_gauge("x", 1.0)

    def test_disabled_is_a_noop(self):
        reg = MetricRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert reg.value("c") is None

    def test_reset_keeps_enabled_flag(self):
        reg = MetricRegistry()
        reg.enable()
        reg.inc("c")
        reg.reset()
        assert reg.enabled
        assert reg.value("c") is None

    def test_concurrent_mixed_mutation_is_exact(self):
        """N threads hammer one counter: no lost updates."""
        reg = MetricRegistry()
        reg.enable()
        n_threads, n_iter = 8, 400
        barrier = threading.Barrier(n_threads)
        errors = []

        def work(tid):
            try:
                barrier.wait()
                for k in range(n_iter):
                    reg.inc("race/steps")
                    reg.set_gauge(f"race/g{tid}", float(k))
                    if k % 97 == 0:
                        reg.snapshot()  # concurrent readers must not tear
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = n_threads * n_iter
        assert reg.value("race/steps") == total
        gauges = reg.snapshot()["gauges"]
        assert [gauges[f"race/g{t}"]["value"] for t in range(n_threads)] \
            == [float(n_iter - 1)] * n_threads


# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def snap(self, reg):
        return reg.snapshot()

    def test_none_is_identity(self):
        reg = MetricRegistry()
        reg.enable()
        reg.inc("c", 2)
        snap = reg.snapshot()
        assert merge_snapshots(snap, None) == merge_snapshots(None, snap)
        empty = merge_snapshots(None, None)
        assert empty["counters"] == {} and empty["schema"] == \
            METRICS_SCHEMA_VERSION

    def test_counters_sum_gauges_newest_wins(self):
        a = {"schema": 1, "counters": {"c": 3}, "histograms": {},
             "gauges": {"g": {"value": 1.0, "t": 10.0}}}
        b = {"schema": 1, "counters": {"c": 4, "d": 1}, "histograms": {},
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
        reg.enable()
        reg.inc("sched/steps_total", 42)
        reg.inc("cache/plan_hits", 3)
        reg.set_gauge("sched/sim_time", 1.25)
        reg.set_gauge("health/energy_drift_ratio", -1.5e-9)
        return reg.snapshot()

    def test_export_passes_strict_validator(self):
        text = to_prometheus(self.registry_snapshot())
        assert validate_prometheus(text) == [], validate_prometheus(text)
        assert text.endswith("\n")

    def test_counter_total_suffix_and_sanitized_names(self):
        text = to_prometheus(self.registry_snapshot())
        assert "# TYPE repro_sched_steps_total counter" in text
        assert "repro_sched_steps_total 42" in text
        # _total is appended exactly once, names sanitized / -> _
        assert "repro_cache_plan_hits_total 3" in text
        assert prom_name("a/b-c.d") == "repro_a_b_c_d"

    def test_constant_labels_and_extra_families(self):
        text = to_prometheus(
            self.registry_snapshot(), labels={"member": "m0"},
            extra={"fleet/members": [({}, 2.0)],
                   "fleet/gauge_max": [({"metric": "x"}, 7.0)]})
        assert validate_prometheus(text) == [], validate_prometheus(text)
        assert 'repro_sched_steps_total{member="m0"} 42' in text
        assert "repro_fleet_members 2.0" in text
        assert 'repro_fleet_gauge_max{metric="x"} 7.0' in text

    def test_validator_rejects_bad_documents(self):
        assert validate_prometheus("x_total 1\n")  # sample without TYPE
        assert validate_prometheus("# TYPE x counter\nx 1")  # no newline
        assert validate_prometheus("# TYPE x counter\nx -3\n")  # negative
        assert validate_prometheus(
            "# TYPE x counter\n# TYPE x counter\nx 1\n")  # duplicate TYPE
        assert validate_prometheus("# TYPE h histogram\n"
                                   'h_bucket{le="1"} 2\n'
                                   'h_bucket{le="+Inf"} 1\n'
                                   "h_sum 1.0\nh_count 1\n")  # not cumulative
        assert validate_prometheus("# TYPE h histogram\n"
                                   'h_bucket{le="+Inf"} 2\n'
                                   "h_sum 1.0\nh_count 3\n")  # Inf != count
        assert validate_prometheus("not a metric line at all\n")

    def test_validator_accepts_own_fleet_export(self, tmp_path):
        agg = FleetAggregator(out_dir=str(tmp_path))
        agg.update("m0", self.registry_snapshot(), wall=100.0,
                   state="running")
        agg.update("m1", self.registry_snapshot(), wall=101.0, state="ok")
        text = agg.to_prometheus(now=102.0)
        assert validate_prometheus(text) == [], validate_prometheus(text)


# ----------------------------------------------------------------------
class TestFleetAggregator:
    def member_snap(self, steps, sim_t, drift):
        reg = MetricRegistry()
        reg.enable()
        reg.inc("sched/steps_total", steps)
        reg.set_gauge("sched/sim_time", sim_t)
        reg.set_gauge("health/energy_drift_ratio", drift)
        return reg.snapshot()

    def test_fleet_fold_sums_counters(self):
        agg = FleetAggregator()
        agg.update("m0", self.member_snap(10, 1.0, 1e-9), wall=50.0)
        agg.update("m1", self.member_snap(32, 2.0, 3e-9), wall=51.0)
        fleet = agg.fleet_snapshot()
        assert fleet["counters"]["sched/steps_total"] == 42
        stats = agg.gauge_stats()["health/energy_drift_ratio"]
        assert stats["min"] == 1e-9 and stats["max"] == 3e-9
        assert stats["n"] == 2

    def test_member_brief_and_staleness(self):
        agg = FleetAggregator()
        agg.update("m0", self.member_snap(10, 1.5, 0.0), wall=50.0,
                   state="running")
        brief = agg.member_brief("m0")
        assert brief["step"] == 10 and brief["sim_t"] == 1.5
        assert agg.staleness(now=57.0) == {"m0": 7.0}
        assert agg.member_brief("nope") == {}

    def test_future_schema_snapshot_ignored(self):
        agg = FleetAggregator()
        agg.update("m0", {"schema": METRICS_SCHEMA_VERSION + 1,
                          "counters": {"c": 1}}, wall=1.0)
        assert agg.member_snapshot("m0") is None  # not misfolded
        assert "m0" in agg.members  # but liveness is still refreshed

    def test_export_atomic_artifacts(self, tmp_path):
        agg = FleetAggregator(out_dir=str(tmp_path))
        agg.update("m0", self.member_snap(5, 0.5, 0.0), wall=10.0,
                   state="running")
        agg.export(now=11.0)
        agg.update("m0", self.member_snap(9, 0.9, 0.0), wall=12.0,
                   state="ok")
        agg.export(now=13.0)
        prom = (tmp_path / FLEET_PROM).read_text()
        assert validate_prometheus(prom) == [], validate_prometheus(prom)
        history = read_jsonl_tolerant(str(tmp_path / FLEET_JSONL))
        assert len(history) == 2  # full bounded history, newest last
        assert history[-1]["members"]["m0"]["state"] == "ok"
        assert history[-1]["fleet"]["counters"]["sched/steps_total"] == 9
        # no leftover temp files from the atomic publish
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_export_requires_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            FleetAggregator().export()


# ----------------------------------------------------------------------
class TestStatusView:
    def write_jsonl(self, path, records):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

    def synthetic_run_dir(self, tmp_path):
        root = tmp_path / "ens"
        snap = {"schema": METRICS_SCHEMA_VERSION, "counters": {},
                "gauges": {"sched/steps_total": {"value": 40.0, "t": 104.0},
                           "sched/sim_time": {"value": 0.8, "t": 104.0},
                           "sched/wall_rate": {"value": 25.0, "t": 104.0},
                           "health/energy_drift_ratio":
                               {"value": 2e-9, "t": 104.0}},
                "histograms": {}}
        self.write_jsonl(str(root / "m0" / "run.jsonl"), [
            {"event": "heartbeat", "seq": 1, "wall": 100.0, "run_id": "r",
             "step": 20, "sim_t": 0.4, "dt": 0.01, "energy": 1.0,
             "wall_rate": 20.0},
            {"event": "metrics", "seq": 2, "wall": 104.0, "run_id": "r",
             "step": 40, "sim_t": 0.8, "metrics": snap},
        ])
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
        assert m0["step"] == 40.0 and m0["sim_t"] == 0.8  # from gauges
        assert m0["wall_rate"] == 25.0
        assert m0["energy_drift"] == 2e-9
        assert m0["state"] == "running"
        assert m0["stale_s"] == pytest.approx(6.0)
        # m1 falls back to its heartbeat record; retry state from the
        # supervisor log; the torn tail is skipped, not fatal
        assert m1["step"] == 7 and m1["sim_t"] == 0.14
        assert m1["energy_drift"] is None
        assert m1["state"] == "retrying"
        assert m1["retries"] == 1

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

    def test_watch_ctrl_c_exits_clean(self, tmp_path, monkeypatch):
        def boom(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.obs.fleet.time.sleep", boom)
        buf = io.StringIO()
        assert watch_status(self.synthetic_run_dir(tmp_path), interval=5.0,
                            stream=buf) == 0


# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_registry_within_step_budget(self):
        """The guard-discipline bar: metrics off must not tax the solver.

        Mirrors the telemetry budget test: per-call cost of the disabled
        mutation entry points times a conservative count of wired guard
        sites must stay under 2% of a measured solver step.
        """
        from repro.core.materials import acoustic, elastic
        from repro.core.solver import (
            CoupledSolver,
            ocean_surface_gravity_tagger,
        )
        from repro.mesh.generators import layered_ocean_mesh

        import numpy as np

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
        solver = CoupledSolver(mesh, order=2)

        met = get_metrics()
        assert not met.enabled
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            met.inc("x")
            met.set_gauge("g", 1.0)
        per_call = (time.perf_counter() - t0) / (2 * n)

        t0 = time.perf_counter()
        for _ in range(3):
            solver.step()
        per_step = (time.perf_counter() - t0) / 3

        sites = 40  # upper bound on guarded sites per step across layers
        overhead = sites * per_call / per_step
        assert overhead < 0.02, (
            f"disabled metrics cost {overhead * 100:.3f}% of a step "
            f"({sites} sites x {per_call * 1e9:.0f} ns)"
        )


# ----------------------------------------------------------------------
def _last_metrics_steps(runlog_path):
    """``sched/steps_total`` of the last metrics record in a run log."""
    metrics = [r for r in read_jsonl_tolerant(runlog_path)
               if r.get("event") == "metrics"]
    assert metrics, f"no metrics records in {runlog_path}"
    return metrics[-1]["metrics"]["counters"]["sched/steps_total"]


def _prom_value(text, name):
    m = re.search(rf"^{re.escape(name)} (\S+)$", text, re.M)
    assert m, f"{name} not found in .prom export"
    return float(m.group(1))


class TestEnsembleFleetMetrics:
    """In-process (workers=0) two-member ensembles with metrics on."""

    def specs(self, n=2, **over):
        from repro.ensemble import MemberSpec

        return [MemberSpec(member_id=f"m{k}", builder="quickstart",
                           perturb={"n_x": 4}, t_end=0.12, seed=k, **over)
                for k in range(n)]

    def run_ensemble(self, specs, out_dir):
        from repro.ensemble import RetryPolicy, Supervisor

        sup = Supervisor(specs, workers=0, out_dir=str(out_dir),
                         retry=RetryPolicy(max_retries=1, backoff_base=0.01,
                                           max_delay_s=0.02))
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
        assert _prom_value(prom, "repro_sched_steps_total") == expected
        assert _prom_value(prom, "repro_fleet_members") == 2.0

        history = read_jsonl_tolerant(str(tmp_path / FLEET_JSONL))
        assert history
        last = history[-1]
        assert last["fleet"]["counters"]["sched/steps_total"] == expected
        assert set(last["members"]) == {"m0", "m1"}
        assert all(cell["state"] in ("ok", "completed")
                   for cell in last["members"].values())
        # fleet spread stats cover the physics gauges
        assert "sched/sim_time" in last["gauge_stats"]

    def test_status_view_renders_completed_fleet(self, tmp_path):
        self.run_ensemble(self.specs(), tmp_path)
        rows = {r["member"]: r for r in status_rows(str(tmp_path))}
        assert set(rows) == {"m0", "m1"}
        for row in rows.values():
            assert row["state"] == "ok"
            assert row["step"] > 0
            assert row["sim_t"] == pytest.approx(0.12)
            assert row["metrics_records"] >= 1
        lines = status_lines(str(tmp_path))
        assert any("2 ok" in ln for ln in lines)
        assert any(FLEET_PROM in ln for ln in lines)

    def test_supervisor_events_carry_metric_briefs(self, tmp_path):
        import dataclasses

        from repro.core.health.inject import FaultInjector

        specs = self.specs()
        specs[1] = dataclasses.replace(
            specs[1], injector=FaultInjector().kill_process(at_step=10),
            checkpoint_every=0.03)
        self.run_ensemble(specs, tmp_path)
        sup = read_jsonl_tolerant(str(tmp_path / "ensemble.jsonl"))
        retries = [r for r in sup if r.get("event") == "member_retry"]
        assert retries
        # the retry event is self-contained: it embeds where the member was
        assert retries[0]["metrics"].get("step", 0) > 0
        ends = [r for r in sup if r.get("event") == "member_end"]
        assert ends and all("metrics" in r for r in ends)

    def test_metrics_registry_not_leaked_after_ensemble(self, tmp_path):
        self.run_ensemble(self.specs(n=1), tmp_path)
        assert not get_metrics().enabled

    def test_no_metrics_opt_out(self, tmp_path):
        result = self.run_ensemble(self.specs(metrics=False), tmp_path)
        assert result.counts["ok"] == 2
        for m in result.members:
            records = read_jsonl_tolerant(
                str(tmp_path / m.member_id / "run.jsonl"))
            assert not [r for r in records if r.get("event") == "metrics"]

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
        assert _prom_value(prom, "repro_sched_steps_total") == expected
        history = read_jsonl_tolerant(str(tmp_path / FLEET_JSONL))
        assert history[-1]["fleet"]["counters"]["sched/steps_total"] == \
            expected

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
