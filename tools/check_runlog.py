#!/usr/bin/env python3
"""Validate a structured run log (JSONL) produced with ``--log-json``.

Checks every line against the one repro.obs run-log schema
(:func:`repro.obs.runlog.validate_record`: envelope, required fields,
``metrics`` snapshot payloads, diagnostic-bundle ``bundle`` / ``verdict``
fields — the same judgement ``python -m repro obs-report --check``
passes) and optionally enforces minimum content requirements (used by CI
to assert that a kill/resume pair actually produced two manifests and a
stream of heartbeats).

Pointing the tool at an **ensemble out-dir** instead of a file validates
``ensemble.jsonl`` plus every member's ``run.jsonl``, reports each
member's metric staleness — how far behind the fleet's newest record the
member's last metrics snapshot is — and checks that every referenced
diagnostic bundle actually exists on disk.

Exit status: 0 when the log is valid and all requirements hold,
1 otherwise.

Run:  python tools/check_runlog.py RUN.jsonl [--min-manifests 2] [--require-heartbeat]
                                           [--require-metrics]
      python tools/check_runlog.py ENSEMBLE_DIR [--require-metrics]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.runlog import read_records, validate_jsonl  # noqa: E402


def check_file(path, min_manifests=0, require_heartbeat=False,
               label=None) -> tuple[bool, dict]:
    """Validate one run log; returns (ok, info) and prints errors.

    ``info`` carries the event counts plus the wall stamps of the last
    metrics record and the last record overall (for staleness).
    """
    label = label or path
    result = validate_jsonl(path)
    ok = not result["errors"]
    for lineno, msg in result["errors"]:
        print(f"{label}:{lineno}: {msg}", file=sys.stderr)

    records, _ = read_records(path)
    walls = [r["wall"] for r in records
             if isinstance(r.get("wall"), (int, float))]
    metrics = [r for r in records if r.get("event") == "metrics"]
    events = result["events"]
    n_manifests = events.get("manifest", 0)
    if n_manifests < min_manifests:
        print(f"check_runlog: {label}: {n_manifests} manifest event(s), "
              f"need >= {min_manifests}", file=sys.stderr)
        ok = False
    if require_heartbeat and events.get("heartbeat", 0) < 1:
        print(f"check_runlog: {label}: no heartbeat events", file=sys.stderr)
        ok = False

    summary = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
    if result["truncated_tail"]:
        summary += ", truncated_tail"
    status = "OK" if ok else "FAIL"
    print(f"check_runlog: {label}: {result['records']} record(s) "
          f"[{summary}] -> {status}")
    return ok, {"events": events, "last_wall": max(walls, default=None),
                "last_metrics_wall": metrics[-1].get("wall") if metrics else None,
                "n_metrics": len(metrics),
                "bundles": [r["bundle"] for r in records
                            if isinstance(r.get("bundle"), str)]}


def check_ensemble_dir(run_dir, require_metrics=False) -> bool:
    """Validate an ensemble out-dir: supervisor log + member logs +
    per-member metric staleness."""
    ok = True
    referenced = []  # (source label, bundle path, dirs to resolve against)
    sup = os.path.join(run_dir, "ensemble.jsonl")
    if os.path.exists(sup):
        sup_ok, sup_info = check_file(sup, label=sup)
        ok = ok and sup_ok
        referenced += [(sup, b, None) for b in sup_info["bundles"]]
    else:
        print(f"check_runlog: {sup}: no supervisor log", file=sys.stderr)
        ok = False

    members = {}
    for name in sorted(os.listdir(run_dir)):
        mdir = os.path.join(run_dir, name)
        log = os.path.join(mdir, "run.jsonl")
        if os.path.isfile(log):
            m_ok, info = check_file(log, label=log)
            ok = ok and m_ok
            members[name] = info
            referenced += [(log, b, mdir) for b in info["bundles"]]

    if not members:
        print(f"check_runlog: {run_dir}: no member run logs", file=sys.stderr)
        return False

    # staleness is offline-relative: against the newest wall stamp seen
    # anywhere in the run, not against the clock of whoever runs the tool
    newest = max((i["last_wall"] for i in members.values()
                  if i["last_wall"] is not None), default=None)
    print(f"\nper-member metrics ({len(members)} member(s)):")
    for name, info in sorted(members.items()):
        n = info["n_metrics"]
        if n == 0:
            line = f"  {name:14} no metrics records"
            if require_metrics:
                ok = False
                line += "  [FAIL: --require-metrics]"
        else:
            stale = ""
            if newest is not None and info["last_metrics_wall"] is not None:
                stale = (f", {newest - info['last_metrics_wall']:.1f}s behind "
                         "the fleet's newest record")
            line = f"  {name:14} {n} metrics record(s){stale}"
        print(line)

    # every bundle path a log references must exist; tolerate run dirs
    # that were relocated by also trying the basename in each member dir
    # (worker logs record the path as seen inside the worker)
    if referenced:
        missing = 0
        member_dirs = [os.path.join(run_dir, n) for n in sorted(members)]
        for src, bundle, mdir in referenced:
            candidates = [bundle, os.path.join(run_dir, bundle)]
            base = os.path.basename(bundle)
            for d in ([mdir] if mdir else member_dirs):
                candidates.append(os.path.join(d, base))
            if not any(os.path.isfile(c) for c in candidates):
                print(f"check_runlog: {src}: referenced bundle "
                      f"{bundle!r} not found", file=sys.stderr)
                missing += 1
                ok = False
        print(f"\ndiagnostic bundles: {len(referenced)} referenced, "
              f"{missing} missing")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runlog", help="path to a JSONL run log, or an ensemble "
                    "out-dir (validates ensemble.jsonl + member logs)")
    ap.add_argument("--min-manifests", type=int, default=1,
                    help="minimum number of manifest events (default 1; "
                    "a kill/resume pair should have 2)")
    ap.add_argument("--require-heartbeat", action="store_true",
                    help="fail unless at least one heartbeat event is present")
    ap.add_argument("--require-metrics", action="store_true",
                    help="fail for a log (directory mode: for each member) "
                    "without any metrics records")
    args = ap.parse_args(argv)

    if os.path.isdir(args.runlog):
        return 0 if check_ensemble_dir(
            args.runlog, require_metrics=args.require_metrics) else 1
    if not os.path.exists(args.runlog):
        print(f"check_runlog: {args.runlog}: no such file", file=sys.stderr)
        return 1
    ok, info = check_file(args.runlog, min_manifests=args.min_manifests,
                          require_heartbeat=args.require_heartbeat)
    if args.require_metrics and info["n_metrics"] == 0:
        print(f"check_runlog: {args.runlog}: no metrics records",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
