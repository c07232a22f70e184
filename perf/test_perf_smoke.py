"""Smoke test of the perf ledger: ``python -m pytest perf -q``.

Not collected by the tier-1 suite (``testpaths = tests``).  Runs the
benchmark at a tenth of its size, so it checks the harness — names, exact
counts, null-with-reason seams, span-tree consistency, the contract line —
and not the numbers.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

import compare  # noqa: E402
import hostref  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import seams  # noqa: E402
import spans  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

RUN = [sys.executable, os.path.join(PERF, "run.py")]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _ledger(tag: str) -> dict:
    out = os.path.join(PERF, "out", f"smoke-{tag}.json")
    proc = subprocess.run(RUN + ["--quick", "--out", out], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        return {"doc": json.load(fh), "stdout": proc.stdout}


@pytest.fixture(scope="module")
def quick_a():
    return _ledger("a")


@pytest.fixture(scope="module")
def quick_b(quick_a):
    return _ledger("b")


def test_every_workload_emits_every_metric_by_name(quick_a):
    doc, text = quick_a["doc"], quick_a["stdout"]
    assert list(doc["workloads"]) == list(WORKLOADS)
    for name, entry in doc["workloads"].items():
        if entry["status"] == "unmeasured":
            assert entry["reason"] and f"unmeasured: {entry['reason']}" in text
            continue
        for m in ledger.END_TO_END + (ledger.FAILED_FRAC,):
            s = entry["end_to_end"][m.name]
            assert s["unit"] == m.unit and s["n"] >= 1 and s["median"] is not None
        assert entry["end_to_end"]["failed_frac"]["median"] == 0
        for m in ledger.PER_LAYER:
            p = entry["per_layer"][m.name]
            assert p["unit"] == m.unit
            applies = set(m.needs) <= WORKLOADS[name].tags
            if not applies:
                assert p.get("na") and p["reason"]
            elif p["value"] is None:
                assert p["reason"], m.name
            assert m.name in text
        assert all(c["ok"] for c in entry["checks"]), entry["checks"]
        un = entry["per_layer"]["ledger.unattributed_frac"]["value"]
        assert un is not None and un <= ledger.UNATTRIBUTED_WARN
        assert entry["per_layer"]["trace.overhead_frac"]["value"] is not None
    host = doc["host"]
    assert host["nproc"] >= 1 and host["blas_threads"] == 1 and host["git_rev"]


def test_exact_counts_repeat(quick_a, quick_b):
    for name, a in quick_a["doc"]["workloads"].items():
        b = quick_b["doc"]["workloads"][name]
        assert a["status"] == b["status"]
        if a["status"] == "measured":
            assert a["exact_counts"] and a["exact_counts"] == b["exact_counts"]


def test_compare_two_runs_of_one_commit(quick_a, quick_b):
    lines = []
    compare.compare(quick_a["doc"], quick_b["doc"], out=lines.append)
    text = "\n".join(lines)
    assert "exact counts: identical" in text and "DIFFER" not in text
    for name in WORKLOADS:
        assert name in text


def test_span_tree_self_times_sum_to_the_roots(quick_a):
    for name, entry in quick_a["doc"]["workloads"].items():
        if entry["status"] != "measured":
            continue
        with open(os.path.join(PERF, "out", f"{name}.spans.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["spans"], name
        own, roots = ledger.span_tree_balanced(doc["spans"])
        assert own == pytest.approx(roots, rel=1e-9, abs=1e-9)
        assert all(t >= -1e-9 for t in spans.self_times(doc["spans"]))
        # set-up and warm-up ran before the window and left no span
        assert all(s["start"] >= 0.0 for s in doc["spans"])
        if WORKLOADS[name].t_warm:
            assert entry["setup"]["warmup_s"] > 0.0


def test_warm_up_is_untraced_and_host_samples_leave_the_window():
    tracer = spans.Tracer()
    f = tracer.wrap(lambda: 1, "x", count=lambda: 1)
    assert f() == 1 and tracer.collect() == ([], {})
    tracer.on = True
    f()
    assert [s["name"] for s in tracer.collect()[0]] == ["x"]

    # six samples inside a window whatever its number of sync points
    assert [hostref.sync_stride(n) for n in (1, 6, 24, 57)] == [1, 1, 4, 10]
    host = seams._HostSampler()
    host.edge()  # outside the window: costs it nothing
    assert len(host.units) == hostref.UNITS and host.wall_s == 0.0
    hook = host.hook(stride=2)
    for _ in range(4):
        hook(None)
    assert len(host.units) == 3 * hostref.UNITS
    inside = sum(host.units[hostref.UNITS:])
    assert inside <= host.wall_s <= 1.2 * inside
    assert 0.0 < host.cpu_s <= 1.05 * host.wall_s
    assert hostref.speed([hostref.NOMINAL_UNIT_S] * 3)["speed"] == pytest.approx(1.0)


def test_missing_seam_yields_null_with_reason():
    class Refactored:  # the function the seam wrapped is gone
        pass

    s = seams._Seams(spans.Tracer())
    s.wrap("kernels.predict", lambda: Refactored(), "predict_states")
    s.wrap("core.gravity", lambda: Refactored().gravity, "step")
    assert set(s.missing) == {"kernels.predict", "core.gravity"}
    traced = {
        "spans": [], "counts": {}, "missing": s.missing,
        "facts": {"mesh.elements": 1, "mesh.dof": 9, "workers": 1},
        "setup": {}, "state": {}, "e2e": {"wall_s": 1.0},
        "host": {"speed": 1.0},
    }
    layers = ledger.derive_layers(WORKLOADS["palu_gts"].tags, traced, [])
    for name in ("kernels.predict_s", "kernels.predict_gflops", "core.gravity_s"):
        assert layers[name]["value"] is None
        assert "not found" in layers[name]["reason"]
    assert layers["kernels.apply_s"]["value"] == 0.0  # its seam is intact
    assert layers["io.checkpoint_s"]["na"]            # not this workload's layer


def test_unmeasured_is_unresolved_never_same():
    ok = {"median": 1.0, "min": 0.99, "max": 1.01}
    m = ledger.END_TO_END[0]
    assert compare.verdict(ok, ok, m) == "same"
    assert compare.verdict(ok, {"median": 2.0, "min": 1.9, "max": 2.1}, m) == "worse"
    assert compare.verdict({"median": 2.0, "min": 1.9, "max": 2.1}, ok, m) == "better"
    noisy = {"median": 1.0, "min": 0.7, "max": 1.4}
    assert compare.verdict(ok, noisy, m) == "unresolved"
    zero = {"median": 0.0, "min": 0.0, "max": 0.0}
    assert compare.verdict(zero, {"median": 0.1, "min": 0.1, "max": 0.1},
                           ledger.FAILED_FRAC) == "worse"
    a = {"host": {"git_rev": "x"}, "config": {"seed": 0, "scale": 1, "passes": 3},
         "workloads": {"w": {"status": "unmeasured", "reason": "needs 2 cpus"}}}
    lines = []
    assert compare.compare(a, a, out=lines.append) == 0
    assert all("unresolved (unmeasured: needs 2 cpus)" in ln
               for ln in lines if ln.startswith("w "))


def _pass(digest: str, speed: float = 1.0) -> dict:
    """An untraced ``palu_gts`` pass with a window of 0.1 simulated s."""
    w = WORKLOADS["palu_gts"]
    return {"host": {"speed": speed},
            "state": {"finite": True, "sim_t": 0.1 * (1 + w.t_warm / w.t_end),
                      "digest": digest,
                      "energy": 1.0, "eta_abs_max": 0.0, "peak_slip_rate": 0.0,
                      "state_l2": 1.0},
            "e2e": {"wall_s": 1.0, "sim_s": 0.1, "setup_s": 0.5, "cpu_s": 1.0,
                    "peak_rss_mb": 100.0, "attempted": 10, "failed": 0},
            "facts": {}}


def _doc(rev: str, **workloads) -> dict:
    return {"host": {"git_rev": rev},
            "config": {"seed": 1, "scale": 1, "passes": 2},
            "workloads": {n: {"status": "measured", "end_to_end": ev["end_to_end"],
                              "exact_counts": counts}
                          for n, (ev, counts) in workloads.items()}}


def test_failed_check_sets_failed_frac_and_is_gated():
    w = WORKLOADS["palu_gts"]
    good = run.evaluate(w, 1, 0.1, [_pass("aa"), _pass("aa")], None)
    bad = run.evaluate(w, 1, 0.1, [_pass("aa"), _pass("bb")], None)
    assert good["correct"] and good["end_to_end"]["failed_frac"]["median"] == 0
    assert [c["name"] for c in bad["checks"] if not c["ok"]] == \
        ["passes_bitwise_equal"]
    ff = bad["end_to_end"]["failed_frac"]
    assert not bad["correct"] and ff["median"] == 1.0
    assert ff["failed"] == ff["attempted"] == 20
    a, b = _doc("x", w=(good, {})), _doc("y", w=(bad, {}))
    lines = []
    assert compare.compare(a, b, out=lines.append) == 1
    assert any("failed_frac" in ln and ln.endswith("worse") for ln in lines)
    assert compare.compare(a, a, out=lines.append) == 0


def test_times_are_reported_in_reference_host_seconds():
    # the host ran at half speed during the second pass: same program, so
    # the same calibrated times (raw seconds x speed)
    slow = _pass("aa", speed=0.5)
    slow["e2e"].update(wall_s=2.0, setup_s=1.0, cpu_s=2.0)
    e2e = ledger.end_to_end([_pass("aa"), slow])
    for name in ("wall_s", "setup_s", "cpu_s", "sim_s_per_wall_s"):
        assert e2e[name]["min"] == e2e[name]["max"], name
    assert e2e["wall_s"]["median"] == 1.0
    assert e2e["host_speed"]["min"] == 0.5 and e2e["peak_rss_mb"]["max"] == 100.0


def test_compare_reports_both_sides_and_gates_counts_within_a_revision():
    ev = run.evaluate(WORKLOADS["palu_gts"], 1, 0.1, [_pass("aa")], None)
    a = _doc("x", w=(ev, {"mesh.elements": 4}))
    b = _doc("x", w=(ev, {"mesh.elements": 5}), only_b=(ev, {}))
    ab, ba = [], []
    assert compare.compare(a, b, out=ab.append) == 1  # same program
    assert any("DIFFER  mesh.elements: 4 -> 5" in ln for ln in ab)
    assert any(ln.startswith("only_b") and "(missing from A)" in ln for ln in ab)
    compare.compare(b, a, out=ba.append)
    assert any(ln.startswith("only_b") and "(missing from B)" in ln for ln in ba)
    b["host"]["git_rev"] = "y"  # another program may count differently
    assert compare.compare(a, b, out=ab.append) == 0


def test_benchmark_json_agrees_with_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perf/run.py"]
    assert bench["paths"] == ["perf"]
    assert bench["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in ledger.END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in ledger.PER_LAYER]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]
             + bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert 1 <= len(bench["per_layer"]) <= 128 and 1 <= len(bench["end_to_end"]) <= 16


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    proc = subprocess.run(
        RUN + ["--workload", "palu_gts", "--seed", "3",
               "--seconds", str(RUN_SECONDS / 10), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    want = bench["per_layer"] if trace else bench["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "palu_gts", "--seed", "0",
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
