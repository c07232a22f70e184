"""Measured performance accounting and run-log summaries.

The one answer to "where did the time go": converts the registry
snapshot of a profiled run (the ledger-named phase times of
:class:`~repro.obs.session.ObsSession` plus its element-update counters)
into the phase breakdown and the paper's Sec. 5 currency — achieved
GFLOP/s per kernel — and renders human-readable summaries of structured
run logs (``python -m repro obs-report RUN.jsonl``).

Accounting conventions:

* the **predictor** row uses the ``kernels.predict`` phase (the
  Cauchy-Kowalewski sweeps), the **corrector** row the ``kernels.apply``
  phase (volume and surface kernels), excluding the gravity/fault/source
  modules the FLOP count does not cover — under the partitioned backend
  both are summed across worker threads, so the reported rate is the
  aggregate compute rate;
* FLOPs are the *executed* ``kernel_counts(order, variant="fused")`` x the
  ``elem_updates/*`` counters the session counts at the backend, so
  LTS runs are credited for the updates they actually performed, not
  for GTS-equivalent sweeps.

The rates are this host's; the model of the paper's node lives with the
T1 bench (:mod:`repro.hpc.perfmodel`).
"""

from __future__ import annotations

import re
import sys

__all__ = [
    "phase_total",
    "worker_split",
    "lts_cluster_updates",
    "kernel_rates",
    "profile_lines",
    "summarize_runlog",
]

_WORKER_RE = re.compile(r"^worker/p(\d+)/compute$")
_LTS_RE = re.compile(r"^lts/(updates|elem_updates)/c(\d+)$")


# ----------------------------------------------------------------------
def phase_total(phases: dict, key: str) -> float:
    """Seconds of the phase ``key`` (0 when it never ran)."""
    cell = phases.get(key)
    if cell is None:
        return 0.0
    return cell["seconds"] if isinstance(cell, dict) else cell[0]


def worker_split(phases: dict) -> dict:
    """Per-worker busy time of a partitioned run:
    ``{part_id: {"compute_s"}}``."""
    out: dict[int, dict] = {}
    for path, cell in phases.items():
        m = _WORKER_RE.match(path)
        if not m:
            continue
        seconds = cell["seconds"] if isinstance(cell, dict) else cell[0]
        slot = out.setdefault(int(m.group(1)), {"compute_s": 0.0})
        slot["compute_s"] += seconds
    return out


def lts_cluster_updates(counters: dict) -> dict:
    """``{cluster: {"updates", "elem_updates"}}`` from registry counters."""
    out: dict[int, dict] = {}
    for name, value in counters.items():
        m = _LTS_RE.match(name)
        if not m:
            continue
        slot = out.setdefault(int(m.group(2)), {"updates": 0, "elem_updates": 0})
        slot[m.group(1)] += int(value)
    return out


# ----------------------------------------------------------------------
def kernel_rates(phases: dict, counters: dict, order: int) -> list[dict]:
    """Measured GFLOP/s rows for the predictor and corrector.

    FLOPs are those of the kernel path the operator executes (crediting
    it with the dense SeisSol-shaped counts would overstate measured
    GFLOP/s).  Rows contain ``kernel``, ``seconds``, ``elem_updates``,
    ``gflop`` and ``measured_gflops``; kernels with no recorded time or
    updates are omitted.
    """
    from ..core.kernels import SpatialOperator
    from ..hpc.perfmodel import kernel_counts

    kc = kernel_counts(order, variant=SpatialOperator.kernel_variant)
    rows = []
    for kernel, phase, flops_per_update in (
        ("predictor", "kernels.predict", kc.flops_predictor),
        ("corrector", "kernels.apply", kc.flops_corrector),
    ):
        seconds = phase_total(phases, phase)
        updates = counters.get(f"elem_updates/{kernel}", 0)
        if seconds <= 0.0 or updates <= 0:
            continue
        gflop = flops_per_update * updates / 1e9
        rows.append({
            "kernel": kernel,
            "seconds": seconds,
            "elem_updates": int(updates),
            "gflop": gflop,
            "measured_gflops": gflop / seconds,
        })
    return rows


# ----------------------------------------------------------------------
def profile_lines(snapshot: dict, order: int | None = None,
                  wall_s: float | None = None, top: int = 20) -> list[str]:
    """Render a registry snapshot as the phase table, the kernel rates
    (given the ``order``), the worker and LTS-cluster tables and the
    counters."""
    phases = snapshot.get("phases", {})
    counters = snapshot.get("counters", {})
    lines: list[str] = []

    def seconds_of(cell):
        return cell["seconds"] if isinstance(cell, dict) else cell[0]

    def calls_of(cell):
        return cell["calls"] if isinstance(cell, dict) else cell[1]

    if phases:
        lines.append("phase breakdown (busy seconds, accumulated across threads):")
        lines.append(f"  {'phase':40} {'calls':>9} {'seconds':>10} {'% wall':>7}")
        ranked = sorted(phases.items(), key=lambda kv: -seconds_of(kv[1]))
        for path, cell in ranked[:top]:
            sec = seconds_of(cell)
            pct = f"{100.0 * sec / wall_s:6.1f}%" if wall_s else "      -"
            lines.append(f"  {path:40} {calls_of(cell):>9} {sec:>10.4f} {pct:>7}")
        if len(ranked) > top:
            lines.append(f"  ... {len(ranked) - top} more phases")

    if order is not None:
        rows = kernel_rates(phases, counters, order)
        if rows:
            lines.append("")
            lines.append("kernel rates (executed FLOPs / measured seconds):")
            lines.append(f"  {'kernel':12} {'elem-updates':>12} {'GFLOP':>10} "
                         f"{'GFLOP/s':>10}")
            for r in rows:
                lines.append(
                    f"  {r['kernel']:12} {r['elem_updates']:>12} "
                    f"{r['gflop']:>10.3f} {r['measured_gflops']:>10.3f}"
                )

    split = worker_split(phases)
    if split:
        lines.append("")
        lines.append("partitioned workers (corrector busy time):")
        lines.append(f"  {'worker':>8} {'compute s':>11}")
        for part in sorted(split):
            lines.append(f"  {f'p{part}':>8} {split[part]['compute_s']:>11.4f}")

    clusters = lts_cluster_updates(counters)
    if clusters:
        lines.append("")
        lines.append("LTS cluster updates:")
        lines.append(f"  {'cluster':>8} {'updates':>9} {'elem-updates':>13}")
        for c in sorted(clusters):
            lines.append(
                f"  {f'c{c}':>8} {clusters[c]['updates']:>9} "
                f"{clusters[c]['elem_updates']:>13}"
            )

    misc = {k: v for k, v in counters.items()
            if not _LTS_RE.match(k)}
    if misc:
        lines.append("")
        lines.append("counters:")
        for name in sorted(misc):
            lines.append(f"  {name:40} {misc[name]:>12}")
    return lines


# ----------------------------------------------------------------------
def _num(value, spec: str, missing: str = "?") -> str:
    """Format a maybe-missing numeric record field without crashing."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return missing
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return missing


def summarize_runlog(path: str, check: bool = False) -> int:
    """Print a summary of a JSONL run log; returns a process exit code.

    With ``check=True`` the log is validated against the schema first and
    a non-zero code is returned when any record is malformed.  A path that
    cannot be read (missing, a directory) prints one line to stderr and
    returns 2.
    """
    from .runlog import read_records, validate_jsonl

    try:
        result = validate_jsonl(path)
    except OSError as exc:
        print(f"obs-report: {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if check:
        for lineno, msg in result["errors"]:
            print(f"{path}:{lineno}: {msg}")
        status = "OK" if not result["errors"] else "INVALID"
        print(f"{path}: {result['records']} records, "
              f"{len(result['errors'])} schema error(s) -> {status}")
        if result["errors"]:
            return 1

    records, _ = read_records(path)
    manifests = [r for r in records if r.get("event") == "manifest"]
    heartbeats = [r for r in records if r.get("event") == "heartbeat"]
    recoveries = [r for r in records
                  if r.get("event") in ("recovery", "diverged")]
    run_end = next((r for r in reversed(records)
                    if r.get("event") == "run_end"), None)

    print(f"== run log {path} ==")
    if manifests:
        m = manifests[0]
        print(f"run: {m.get('config', {}).get('command', '?')} | "
              f"backend {m.get('backend', '?')} (workers {m.get('workers', '?')}) | "
              f"order {m.get('order', '?')} | {m.get('n_elements', '?')} elements | "
              f"git {str(m.get('git_rev', '?'))[:12]}")
        if len(manifests) > 1:
            print(f"resumed {len(manifests) - 1} time(s) (append-continued log)")
    else:
        print("no manifest record found")

    if heartbeats:
        # every heartbeat field is optional here: ensemble workers (and
        # older schema versions) emit records without wall_rate/energy,
        # and a report must summarize what is there, not crash on what
        # is not
        last = heartbeats[-1]
        rates = [h.get("wall_rate") for h in heartbeats
                 if isinstance(h.get("wall_rate"), (int, float))]
        mean_rate = sum(rates) / len(rates) if rates else None
        print(f"heartbeats: {len(heartbeats)} | "
              f"last step {last.get('step', '?')} "
              f"at sim t = {_num(last.get('sim_t'), '.6g')} s | "
              f"mean rate {_num(mean_rate, '.2f')} steps/s | "
              f"last energy {_num(last.get('energy'), '.4g')} J")
    for rec in recoveries:
        if rec.get("event") == "recovery":
            print(f"recovery: rollback at step {rec.get('step')} "
                  f"(attempt {rec.get('attempt')}/{rec.get('max_retries')}, "
                  f"dt scale {rec.get('dt_scale')}, "
                  f"{_num(rec.get('wall_s'), '.2f', '?')} s wall): "
                  f"{rec.get('reason')}")
        else:
            print(f"DIVERGED at step {rec.get('step')} after "
                  f"{rec.get('attempts')} attempt(s), "
                  f"{_num(rec.get('wall_s'), '.2f', '?')} s wall")

    if run_end is not None:
        from ..core.kernels import SpatialOperator

        # the rates count the FLOPs of the path that executes today,
        # so the log of a retired path (or one that names none) gets none
        ran = manifests[0].get("kernel_variant") if manifests else None
        order = (manifests[0].get("order")
                 if ran == SpatialOperator.kernel_variant else None)
        snapshot = run_end.get("metrics")
        print(f"run end: {run_end.get('steps')} steps in "
              f"{_num(run_end.get('wall_s'), '.2f', '?')} s wall")
        for line in profile_lines(snapshot if isinstance(snapshot, dict)
                                  else {}, order=order,
                                  wall_s=run_end.get("wall_s")):
            print(line)
    else:
        print("no run_end record (run still in progress or killed)")
    return 0
