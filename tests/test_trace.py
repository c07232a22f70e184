"""Span tracing: bounded buffer, Chrome-trace export, checker, CLI."""

import json
import os
import threading

import pytest

from repro.obs import ObsSession, TraceBuffer, get_metrics
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    export_chrome_trace,
    load_trace,
    validate_chrome_trace,
)
from repro.sched import HookBus, Scheduler

from .conftest import gravity_box
from tests.test_obs import disabled_step_overhead


@pytest.fixture(autouse=True)
def _clean_registry():
    met = get_metrics()
    met.disable()
    met.reset()
    yield
    met.disable()
    met.reset()


def _partitioned(order=2, workers=2):
    from repro.exec.partitioned import PartitionedBackend

    backend = PartitionedBackend(workers=workers)
    return gravity_box(order=order, backend=backend), backend


# ----------------------------------------------------------------------
class TestTraceBuffer:
    def test_bounded_with_drop_counter(self, shrink):
        shrink(TraceBuffer, capacity=3)
        buf = TraceBuffer()
        for i in range(5):
            buf.add(f"s{i}", float(i), float(i) + 0.5, None)
        assert len(buf) == 3
        assert buf.dropped == 2
        snap = buf.snapshot()
        assert [s[0] for s in snap["spans"]] == ["s0", "s1", "s2"]
        assert snap["dropped"] == 2 and snap["capacity"] == 3

    def test_snapshot_sorted_by_begin_and_thread_names(self):
        buf = TraceBuffer()
        buf.add("late", 2.0, 3.0, None)
        buf.add("early", 0.0, 1.0, {"k": 1})
        snap = buf.snapshot()
        assert [s[0] for s in snap["spans"]] == ["early", "late"]
        tid = threading.get_ident()
        assert snap["threads"][tid] == threading.current_thread().name


class TestTelemetryTracing:
    def test_phase_spans_recorded_when_tracing(self):
        met = get_metrics()
        met.enable(trace=True)
        assert met.tracing
        with met.phase("step"):
            with met.phase("predict"):
                pass
        spans = met.trace_snapshot()["spans"]
        names = [s[0] for s in spans]
        # sorted by begin time: the outer phase opened first
        assert names == ["step", "step/predict"]
        for _, t0, t1, tid, _ in spans:
            assert t1 >= t0
            assert tid == threading.get_ident()

    def test_trace_span_and_add_span_carry_args(self):
        met = get_metrics()
        met.enable(trace=True)
        with met.trace_span("lts/cluster", cluster=2, elems=17):
            pass
        met.add_span("worker/compute", 1.0, 1.5, part=1, blocks=4)
        spans = {s[0]: s for s in met.trace_snapshot()["spans"]}
        assert spans["lts/cluster"][4] == {"cluster": 2, "elems": 17}
        assert spans["worker/compute"][4] == {"part": 1, "blocks": 4}

    def test_trace_off_modes_are_noops(self):
        met = get_metrics()
        # enabled without trace: trace entry points are shared no-ops
        met.enable()
        assert not met.tracing
        assert met.trace_span("a") is met.trace_span("b")
        met.add_span("x", 0.0, 1.0)
        assert met.trace_snapshot()["spans"] == []
        # plain enable() after a traced session drops the old buffer
        met.enable(trace=True)
        with met.trace_span("s"):
            pass
        met.enable()
        assert not met.tracing
        assert met.trace_snapshot()["spans"] == []

    def test_reset_empties_buffer_but_keeps_trace_mode(self, shrink):
        shrink(TraceBuffer, capacity=7)
        met = get_metrics()
        met.enable(trace=True)
        met.add_span("x", 0.0, 1.0)
        met.reset()
        assert met.tracing
        snap = met.trace_snapshot()
        assert snap["spans"] == [] and snap["capacity"] == 7

    def test_disabled_overhead_with_trace_sites_below_two_percent(self):
        """The 2% guard extended to the trace entry points: a solver whose
        hot loops carry ``trace_span``/``add_span`` sites must stay free
        when the registry is fully off."""
        solver = gravity_box(order=2)
        met = get_metrics()

        met.enable(trace=True)
        solver.step()
        snap = met.snapshot()
        n_spans = len(met.trace_snapshot()["spans"])
        met.disable()
        met.reset()
        met.enable()  # drop the buffer: measure the trace-disabled path
        met.disable()
        sites = sum(c["calls"] for c in snap["phases"].values())
        sites += len(snap["counters"])
        sites += n_spans  # every span site also guards on tracing
        assert n_spans > 0  # the traced step actually recorded spans

        def one_site():
            with met.phase("x"):
                pass
            with met.trace_span("y", part=0):
                pass
            met.add_span("z", 0.0, 1.0, part=0)

        overhead, per_site = disabled_step_overhead(solver, sites, one_site)
        assert met.trace_snapshot()["spans"] == []
        assert overhead < 0.02, (
            f"disabled trace instrumentation costs {overhead * 100:.3f}% of "
            f"a step ({sites} sites x {per_site * 1e9:.0f} ns)"
        )


# ----------------------------------------------------------------------
class TestChromeTraceExport:
    def test_traced_partitioned_run_round_trips(self, tmp_path):
        """The acceptance test: a traced 2-worker partitioned run exports
        valid Chrome-trace JSON with one lane per worker."""
        solver, backend = _partitioned(workers=2)
        met = get_metrics()
        met.enable(trace=True)
        try:
            for _ in range(2):
                solver.step()
        finally:
            backend.close()

        path = str(tmp_path / "run.trace.json")
        doc = export_chrome_trace(path, metadata={"steps": 2})
        assert validate_chrome_trace(doc) == []

        loaded = load_trace(path)
        assert loaded == json.loads(json.dumps(doc))  # JSON round-trip
        other = loaded["otherData"]
        assert other["schema"] == TRACE_SCHEMA_VERSION
        assert other["steps"] == 2
        assert other["dropped"] == 0
        assert other["spans"] > 0

        events = loaded["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == other["spans"]
        for ev in xs:
            assert ev["ts"] >= 0 and ev["dur"] >= 0

        # one lane per partitioned worker, named and sorted
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        n_parts = len(backend.plans)
        assert n_parts >= 2
        assert {f"worker p{p.part_id}" for p in backend.plans} <= names
        worker_tids = {e["tid"] for e in xs
                       if "args" in e and "part" in e.get("args", {})}
        assert len(worker_tids) == n_parts  # distinct lanes
        assert all(t >= 10_000 for t in worker_tids)

        # the worker slices carry the structured args the summarizer needs
        span_names = {e["name"] for e in xs}
        assert {"worker/predict", "worker/compute"} <= span_names
        assert not any("halo" in name for name in span_names)

    def test_lts_cluster_slices_colored_by_cluster(self, tmp_path):
        from repro.core.lts import LocalTimeStepping

        solver = gravity_box(order=1)
        lts = LocalTimeStepping(solver)
        met = get_metrics()
        met.enable(trace=True)
        Scheduler(solver, lts).run(solver.dt * 2)

        doc = chrome_trace(met.trace_snapshot())
        assert validate_chrome_trace(doc) == []
        clusters = [e for e in doc["traceEvents"]
                    if e.get("name") == "lts/cluster"]
        assert clusters
        for ev in clusters:
            assert "cname" in ev  # colored by cluster id
            assert ev["args"]["cluster"] >= 0
            assert ev["args"]["elems"] > 0
        assert len({e["args"]["cluster"] for e in clusters}) == lts.n_clusters

    def test_dropped_spans_surface_in_export(self, shrink):
        shrink(TraceBuffer, capacity=2)
        met = get_metrics()
        met.enable(trace=True)
        for i in range(5):
            met.add_span(f"s{i}", float(i), float(i) + 0.1)
        doc = chrome_trace(met.trace_snapshot())
        assert doc["otherData"]["spans"] == 2
        assert doc["otherData"]["dropped"] == 3

    def test_empty_snapshot_exports_empty_valid_doc(self, tmp_path):
        path = str(tmp_path / "empty.trace.json")
        doc = export_chrome_trace(path)  # registry never traced
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["spans"] == 0

    def test_interrupted_export_leaves_no_partial_file(self, tmp_path):
        """An export that dies mid-write — here on a span argument JSON
        cannot encode, after most of the document is out — leaves the
        previous trace whole, or no file at all: never the torn document
        ``obs-trace --merge`` would choke on."""
        spans = [("step", 0.0, 1.0, 1, None)] * 2000
        bad = {"spans": spans + [("x", 1.0, 2.0, 1, {"arg": object()})],
               "threads": {}}
        fresh = tmp_path / "fresh.json"
        with pytest.raises(TypeError):
            export_chrome_trace(str(fresh), bad)
        assert not fresh.exists()
        kept = tmp_path / "trace.json"
        good = export_chrome_trace(str(kept), {"spans": spans, "threads": {}})
        with pytest.raises(TypeError):
            export_chrome_trace(str(kept), bad)
        assert json.loads(kept.read_text()) == good
        assert os.listdir(tmp_path) == ["trace.json"]  # no temp file left


class TestValidator:
    def test_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_flags_bad_events(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": -1.0, "dur": 2.0, "pid": 0, "tid": 0},
            {"ph": "X", "name": "b", "ts": 0.0, "dur": -2.0, "pid": 0, "tid": 0},
            {"ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0},
            {"ph": "Q", "name": "c"},
            {"ph": "E", "name": "d", "ts": 0.0, "pid": 0, "tid": 1},
            {"ph": "B", "name": "e", "ts": 5.0, "pid": 0, "tid": 1},
            {"ph": "B", "name": "f", "ts": 4.0, "pid": 0, "tid": 1},
        ]}
        errors = validate_chrome_trace(doc)
        text = "\n".join(errors)
        assert "negative ts" in text
        assert "negative dur" in text
        assert "missing 'name'" in text
        assert "unknown phase" in text
        assert "E event without matching B" in text
        assert "non-monotone ts" in text
        assert "unclosed B" in text

    def test_accepts_matched_duration_events(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "a", "ts": 0.0, "pid": 0, "tid": 0},
            {"ph": "B", "name": "b", "ts": 1.0, "pid": 0, "tid": 0},
            {"ph": "E", "ts": 2.0, "pid": 0, "tid": 0},
            {"ph": "E", "ts": 3.0, "pid": 0, "tid": 0},
        ]}
        assert validate_chrome_trace(doc) == []


# ----------------------------------------------------------------------
class TestCliAndSession:
    def test_obs_trace_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        solver, backend = _partitioned(workers=2)
        met = get_metrics()
        met.enable(trace=True)
        try:
            solver.step()
        finally:
            backend.close()
        path = str(tmp_path / "run.trace.json")
        export_chrome_trace(path)
        met.disable()

        doc = load_trace(path)
        spans = sum(ev["ph"] == "X" for ev in doc["traceEvents"])
        assert main(["obs-trace", path]) == 0
        assert capsys.readouterr().out.strip() == (
            f"{path}: {len(doc['traceEvents'])} events, {spans} spans, "
            f"0 dropped -> OK")

        # a schema error and a garbled document each exit 1
        bad = str(tmp_path / "bad.trace.json")
        with open(bad, "w") as fh:
            json.dump({"traceEvents": [{"ph": "X", "ts": -1.0}]}, fh)
        assert main(["obs-trace", bad]) == 1
        out = capsys.readouterr().out
        assert "negative ts" in out and "-> INVALID" in out
        with open(path, "r+") as fh:
            fh.truncate(len(fh.read()) // 2)
        assert main(["obs-trace", path]) == 1
        assert "-> INVALID" in capsys.readouterr().out

    def test_obs_session_trace_export(self, tmp_path, capsys):
        path = str(tmp_path / "session.trace.json")
        solver = gravity_box(order=1)
        obs = ObsSession(trace=path, config={"command": "trace-test"})
        assert obs.active
        obs.start(solver)
        bus = obs.subscribe(HookBus())
        for _ in range(2):
            solver.step()
            bus.sync(solver)
        obs.finish(solver)

        met = get_metrics()
        assert not met.enabled  # session-owned registry switched back off
        doc = load_trace(path)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["spans"] > 0
        assert doc["otherData"]["steps"] == 2
        assert doc["otherData"]["config"]["command"] == "trace-test"
        assert "trace:" in capsys.readouterr().out

    def test_trace_composes_with_profile(self, tmp_path, capsys):
        path = str(tmp_path / "both.trace.json")
        solver = gravity_box(order=1)
        obs = ObsSession(profile=True, trace=path)
        obs.start(solver)
        solver.step()
        obs.finish(solver)
        out = capsys.readouterr().out
        assert "== profile" in out and "trace:" in out
        assert validate_chrome_trace(load_trace(path)) == []

    def test_quickstart_example_accepts_trace(self, tmp_path):
        import inspect
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))
        try:
            import quickstart
        finally:
            sys.path.pop(0)
        assert "trace" in inspect.signature(quickstart.main).parameters
