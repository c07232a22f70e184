#!/usr/bin/env python3
"""The perf ledger: one command, five whole-scenario workloads.

    python perf/run.py                      # the ledger: every workload,
                                            # >= 3 timed passes + 1 traced
    python perf/run.py --quick              # smoke: t_end / 10, 1 + 1 passes
    python perf/run.py --update-reference   # rewrite perf/reference.json
    python perf/run.py --workload W --seed N --seconds S --trace 0|1
                                            # one workload, one JSON line
                                            # (the BENCHMARK.json contract)

Every pass is a fresh child process (``child.py``), one at a time, with
``PYTHONPATH=src`` and one BLAS thread, so total threads never exceed the
cpu count.  End-to-end metrics come from untraced passes only; one traced
pass per workload gives the layer budget and the tracing overhead.  A pass
warms up before its timed window and measures the host's speed around and
inside it (``hostref.py``); the end-to-end times are reported in seconds of
the calm reference host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# one BLAS thread, set before any child imports NumPy
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import checks  # noqa: E402
import ledger  # noqa: E402
from workloads import (  # noqa: E402
    PASSES, QUICK_DIVISOR, RUN_SECONDS, WORKLOADS, nproc)

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
#: a pass takes 5-8 s; one that takes longer than this is hung, not slow
#: (four of them still end inside the contract's 180 s per invocation)
PASS_TIMEOUT_S = 40.0
#: glibc keeps what the solver frees instead of returning it to the kernel:
#: after the warm-up the window takes (almost) no page faults, whose cost on
#: a shared guest is the host's and varies 4x between two passes (README
#: "Steadiness"); spawned fleet workers inherit it
CHILD_MALLOC = {"MALLOC_MMAP_MAX_": "0",
                "MALLOC_TRIM_THRESHOLD_": str(1 << 34),
                "MALLOC_TOP_PAD_": str(1 << 28)}


def unmeasurable(w) -> str | None:
    """Why this host cannot measure ``w`` (``None`` when it can)."""
    if nproc() < w.min_cpus:
        return (f"needs {w.min_cpus} cpus for {w.min_cpus} workers, this "
                f"host has {nproc()}; not run oversubscribed")
    return None


def launch(w, seed: int, t_end: float, traced: bool) -> dict:
    """Run one cold pass of ``w`` in a child process; its record."""
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=tmp)
    result = os.path.join(work, "result.json")
    env = dict(os.environ, **CHILD_MALLOC)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cmd = [sys.executable, os.path.join(PERF_DIR, "child.py"),
           "--workload", w.name, "--seed", str(seed), "--t-end", repr(t_end),
           "--trace", str(int(traced)), "--out-dir", work, "--result", result]
    log = os.path.join(work, "child.log")
    try:
        with open(log, "w", encoding="utf-8") as fh:
            # own session: a hung fleet pass is killed with its workers
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=PASS_TIMEOUT_S * max(1.0, t_end / w.t_end))
            except subprocess.TimeoutExpired:
                pass
            finally:  # timeout or interrupt: nothing is left running
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if proc.returncode != 0 or not os.path.exists(result):
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(
                f"{w.name}: pass exited {proc.returncode} without a result\n"
                f"{tail}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_spans(name: str, record: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.spans.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": record["seed"],
                   "t_end": record["t_end"], "wall_s": record["e2e"]["wall_s"],
                   "spans": record["spans"], "counts": record["counts"],
                   "missing": record["missing"]}, fh)


def host_block(numpy_version: str | None) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=5)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_rev = "unknown"
    return {"nproc": nproc(), "blas_threads": 1,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(), "git_rev": git_rev or "unknown"}


def evaluate(w, seed: int, t_end: float, untraced: list, traced: dict | None,
             gts: list = (), serial: list = ()) -> dict:
    """Checks, end-to-end summary and layer budget of one workload.

    ``untraced`` / ``traced`` are its own passes; ``gts`` and ``serial``
    are the untraced ``palu_gts`` / ``palu_lts`` passes of the same
    invocation, which the LTS energy check and speedup and the
    partitioned digest check and parallel speedup are ratios to.  The one
    place that decides what a failed check means: ``failed_frac`` = 1.
    """
    def wall(passes):
        return statistics.median(ledger.calibrated(p, "wall_s") for p in passes)

    cross = {"own_wall_s": wall(untraced)}
    if "lts" in w.tags and gts:
        cross["gts_wall_s"] = wall(gts)
        cross["gts_energy"] = gts[0]["state"]["energy"]
    if "partitioned" in w.tags and serial:
        cross["serial_wall_s"] = wall(serial)
        cross["serial_digest"] = serial[0]["state"]["digest"]
    results = checks.check_workload(
        w, seed, t_end, untraced + ([traced] if traced else []),
        checks.load_reference(), cross)
    correct = all(c["ok"] for c in results)
    return {"correct": correct, "checks": results,
            "end_to_end": ledger.end_to_end(untraced, correct),
            "per_layer": (ledger.derive_layers(w.tags, traced, untraced, cross)
                          if traced else None)}


# ----------------------------------------------------------------------
# the BENCHMARK.json contract: one workload, one JSON line
# ----------------------------------------------------------------------
def contract(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[name]
    reason = unmeasurable(w)
    if reason:
        print(f"{name}: unmeasured: {reason}", file=sys.stderr)
        return 3
    t_end = w.t_end * seconds / RUN_SECONDS
    untraced = [launch(w, seed, t_end, False)
                for _ in range(1 if trace else PASSES)]
    traced = launch(w, seed, t_end, True) if trace else None
    # bitwise equality with the serial backend needs the serial run of the
    # same seed (it also gives the parallel speedup); the measured LTS
    # speedup is a ratio to GTS on the same mesh and seed
    serial = ([launch(WORKLOADS["palu_lts"], seed, t_end, False)]
              if "partitioned" in w.tags else [])
    gts = ([launch(WORKLOADS["palu_gts"], seed, t_end, False)]
           if trace and "lts" in w.tags else [])
    ev = evaluate(w, seed, t_end, untraced, traced, gts, serial)
    for c in ev["checks"]:
        if not c["ok"]:
            print(f"{name}: check FAILED {c['name']}: {c['detail']}",
                  file=sys.stderr)

    if trace:
        write_spans(name, traced)
        metrics = {}
        for m in ledger.PER_LAYER:
            p = ev["per_layer"][m.name]
            entry = {"value": 0 if p.get("na") else p["value"], "unit": m.unit}
            if entry["value"] is None:
                entry["reason"] = p["reason"]
            metrics[m.name] = entry
    else:
        metrics = {m.name: {"value": ev["end_to_end"][m.name]["median"],
                            "unit": m.unit} for m in ledger.END_TO_END}
    ff = ev["end_to_end"]["failed_frac"]
    print(json.dumps({"correct": ev["correct"], "attempted": ff["attempted"],
                      "failed": ff["failed"], "metrics": metrics}))
    return 0 if ev["correct"] else 1


# ----------------------------------------------------------------------
# the ledger: every workload, interleaved passes, printed tables
# ----------------------------------------------------------------------
def run_ledger(seed: int, scale: float, n_passes: int) -> dict:
    t_ends = {n: w.t_end * scale for n, w in WORKLOADS.items()}
    reasons = {n: unmeasurable(w) for n, w in WORKLOADS.items()}
    live = [n for n in WORKLOADS if reasons[n] is None]
    untraced = {n: [] for n in live}
    for k in range(n_passes):  # round-robin: pass 1 over all, pass 2, ...
        for n in live:
            print(f"[pass {k + 1}/{n_passes}] {n}", file=sys.stderr)
            untraced[n].append(launch(WORKLOADS[n], seed, t_ends[n], False))
    traced = {}
    for n in live:
        print(f"[traced] {n}", file=sys.stderr)
        traced[n] = launch(WORKLOADS[n], seed, t_ends[n], True)
        write_spans(n, traced[n])

    entries, numpy_version = {}, None
    for n, w in WORKLOADS.items():
        if reasons[n]:
            entries[n] = {"status": "unmeasured", "reason": reasons[n],
                          "why": w.why}
            continue
        ev = evaluate(w, seed, t_ends[n], untraced[n], traced[n],
                      untraced.get("palu_gts", ()), untraced.get("palu_lts", ()))
        numpy_version = traced[n]["facts"].get("numpy", numpy_version)
        entries[n] = {
            "status": "measured", "why": w.why, "t_end": t_ends[n],
            "end_to_end": ev["end_to_end"], "per_layer": ev["per_layer"],
            "exact_counts": ledger.exact_counts(ev["per_layer"]),
            "checks": ev["checks"], "setup": traced[n]["setup"],
        }
    return {"host": host_block(numpy_version),
            "config": {"seed": seed, "scale": scale, "passes": n_passes,
                       "run_seconds": RUN_SECONDS},
            "workloads": entries}


def update_reference() -> None:
    reference = checks.load_reference()
    for scale in (1.0, 1.0 / QUICK_DIVISOR):
        for n, w in WORKLOADS.items():
            if unmeasurable(w):
                print(f"{n}: unmeasured, reference kept", file=sys.stderr)
                continue
            t_end = w.t_end * scale
            print(f"[reference] {n} t_end={t_end:.6g}", file=sys.stderr)
            rec = launch(w, checks.REFERENCE_SEED, t_end, False)
            reference[checks.reference_key(n, t_end)] = checks.reference_entry(rec)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="contract mode: run this one workload and print one "
                         "JSON line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                    help="nominal measured seconds per invocation; scales "
                         "every t_end (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help=f"smoke mode: t_end / {QUICK_DIVISOR}, 1 timed pass")
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "ledger.json"),
                    help="ledger mode: where the JSON record goes")
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perf/run.py: src/repro not found next to perf/ — nothing to "
              "benchmark", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    seed = args.seed % 2**32  # the builders seed numpy generators
    if args.workload:
        return contract(args.workload, seed, args.seconds, bool(args.trace))

    if args.update_reference:
        update_reference()
        return 0
    scale = args.seconds / RUN_SECONDS
    n_passes = PASSES
    if args.quick:
        scale /= QUICK_DIVISOR
        n_passes = 1
    t0 = time.perf_counter()
    doc = run_ledger(seed, scale, n_passes)
    print(f"perf ledger: seed {seed}, scale {scale:g}, {n_passes} timed "
          f"pass(es) + 1 traced per workload, host {doc['host']}")
    for n, entry in doc["workloads"].items():
        ledger.print_workload(n, entry)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    measured = [e for e in doc["workloads"].values() if e["status"] == "measured"]
    bad = [c for e in measured for c in e["checks"] if not c["ok"]]
    print(f"\n{len(measured)} of {len(WORKLOADS)} workloads measured, "
          f"{len(bad)} failed check(s), {time.perf_counter() - t0:.0f} s; "
          f"record: {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
