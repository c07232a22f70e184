"""Measured-vs-modeled performance accounting and run-log summaries.

Converts the telemetry collected during a profiled run (phase times +
element-update counters) into the paper's Sec. 5 currency — achieved
GFLOP/s per kernel against the analytical roofline of
:mod:`repro.hpc.perfmodel` — and renders human-readable summaries of
structured run logs (``python -m repro obs-report RUN.jsonl``).

Accounting conventions:

* the **predictor** row uses the wall time of the backend-level
  ``predict`` phase (the Cauchy-Kowalewski sweep is the only thing inside
  it);
* the **corrector** row uses the accumulated busy time of the
  volume/surface kernel phases only (``kernels/volume`` +
  ``kernels/surface_*``), excluding the gravity/fault/source modules the
  FLOP model does not count — under the partitioned backend this is
  summed across worker threads, so the reported rate is the aggregate
  compute rate;
* FLOPs are the *executed* ``kernel_counts(order, variant="fused")`` x the
  ``elem_updates/*`` counters maintained by the execution backends, so
  LTS runs are credited for the updates they actually performed, not
  for GTS-equivalent sweeps.

The modeled roofline needs a node: by default the paper's Sec. 5.1 AMD
Rome test system (so "efficiency" reads as *fraction of what the paper's
calibrated machine model attains*, which for a NumPy reproduction is
honestly tiny), or ``--node local`` for a nominal model of the executing
host.
"""

from __future__ import annotations

import json
import os
import re

__all__ = [
    "KNOWN_NODES",
    "node_spec",
    "phase_total",
    "worker_split",
    "lts_cluster_updates",
    "roofline_rows",
    "profile_lines",
    "summarize_runlog",
]

#: leaf phases whose sum is the corrector-kernel busy time
_CORRECTOR_PHASES = ("kernels/volume", "kernels/surface_interior",
                     "kernels/surface_boundary")

_WORKER_RE = re.compile(r"(?:^|/)worker/p(\d+)/(halo_gather|compute)$")
_LTS_RE = re.compile(r"^lts/(updates|elem_updates)/c(\d+)$")


def _node_specs() -> dict:
    from ..hpc.machine import AMD_ROME_7H12, MAHTI, SHAHEEN2, SUPERMUC_NG, NodeSpec

    local = NodeSpec(
        name="local (nominal)",
        sockets=1,
        numa_per_socket=1,
        cores_per_numa=max(os.cpu_count() or 1, 1),
        freq_ghz=2.5,
        flops_per_cycle=16,
        mem_bw_gbs=40.0,
    )
    return {
        "rome": AMD_ROME_7H12,
        "mahti": MAHTI.node,
        "supermuc-ng": SUPERMUC_NG.node,
        "shaheen2": SHAHEEN2.node,
        "local": local,
    }


#: node names accepted by ``obs-report --node`` (resolved lazily)
KNOWN_NODES = ("rome", "mahti", "supermuc-ng", "shaheen2", "local")


def node_spec(node):
    """Resolve a :data:`KNOWN_NODES` name to its
    :class:`~repro.hpc.machine.NodeSpec` (instances pass through)."""
    return _node_specs()[node] if isinstance(node, str) else node


# ----------------------------------------------------------------------
def phase_total(phases: dict, key: str) -> float:
    """Total seconds of every phase path ending in ``key``.

    Nested instrumentation records full paths (``step/predict``); this
    aggregates them regardless of the parent chain, so GTS, LTS and
    worker-thread call sites all contribute to the same kernel bucket.
    """
    total = 0.0
    suffix = "/" + key
    for path, cell in phases.items():
        if path == key or path.endswith(suffix):
            total += cell["seconds"] if isinstance(cell, dict) else cell[0]
    return total


def worker_split(phases: dict) -> dict:
    """Per-worker compute vs halo-gather split of a partitioned run.

    Returns ``{part_id: {"halo_s", "compute_s", "halo_fraction"}}``.
    """
    out: dict[int, dict] = {}
    for path, cell in phases.items():
        m = _WORKER_RE.search(path)
        if not m:
            continue
        part = int(m.group(1))
        seconds = cell["seconds"] if isinstance(cell, dict) else cell[0]
        slot = out.setdefault(part, {"halo_s": 0.0, "compute_s": 0.0})
        slot["halo_s" if m.group(2) == "halo_gather" else "compute_s"] += seconds
    for slot in out.values():
        busy = slot["halo_s"] + slot["compute_s"]
        slot["halo_fraction"] = slot["halo_s"] / busy if busy > 0 else 0.0
    return out


def lts_cluster_updates(counters: dict) -> dict:
    """``{cluster: {"updates", "elem_updates"}}`` from telemetry counters."""
    out: dict[int, dict] = {}
    for name, value in counters.items():
        m = _LTS_RE.match(name)
        if not m:
            continue
        slot = out.setdefault(int(m.group(2)), {"updates": 0, "elem_updates": 0})
        slot[m.group(1)] += int(value)
    return out


# ----------------------------------------------------------------------
def roofline_rows(phases: dict, counters: dict, order: int,
                  node: str | object = "rome") -> list[dict]:
    """Measured-vs-modeled roofline rows for the predictor and corrector.

    ``node`` is a name from :data:`KNOWN_NODES` or a
    :class:`~repro.hpc.machine.NodeSpec`.  FLOPs are those of the kernel
    path the operator executes (crediting it with the dense SeisSol-shaped
    counts would overstate measured GFLOP/s).  Rows contain ``kernel``,
    ``seconds``, ``elem_updates``, ``gflop``, ``measured_gflops``,
    ``model_gflops`` and ``efficiency`` (measured/model); kernels with no
    recorded time or updates are omitted.
    """
    from ..core.kernels import SpatialOperator
    from ..hpc.perfmodel import NodePerformanceModel

    spec = node_spec(node)
    model = NodePerformanceModel(spec, order=order,
                                 variant=SpatialOperator.kernel_variant)
    kc = model.counts

    rows = []
    for kernel, seconds, updates, flops_per_update, model_gflops in (
        ("predictor", phase_total(phases, "predict"),
         counters.get("elem_updates/predictor", 0),
         kc.flops_predictor, model.predictor_gflops()),
        ("corrector", sum(phase_total(phases, k) for k in _CORRECTOR_PHASES),
         counters.get("elem_updates/corrector", 0),
         kc.flops_corrector, model.corrector_gflops()),
    ):
        if seconds <= 0.0 or updates <= 0:
            continue
        gflop = flops_per_update * updates / 1e9
        measured = gflop / seconds
        rows.append({
            "kernel": kernel,
            "seconds": seconds,
            "elem_updates": int(updates),
            "gflop": gflop,
            "measured_gflops": measured,
            "model_gflops": model_gflops,
            "efficiency": measured / model_gflops if model_gflops > 0 else 0.0,
        })
    return rows


# ----------------------------------------------------------------------
def profile_lines(snapshot: dict, order: int | None = None,
                  wall_s: float | None = None, node: str | object = "rome",
                  top: int = 20) -> list[str]:
    """Render a telemetry snapshot as the per-phase + roofline report."""
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
        rows = roofline_rows(phases, counters, order, node)
        if rows:
            spec = node_spec(node)
            lines.append("")
            lines.append(f"roofline (measured vs modeled, node: {spec.name}):")
            lines.append(
                f"  {'kernel':12} {'elem-updates':>12} {'GFLOP':>10} "
                f"{'meas GFLOP/s':>13} {'model GFLOP/s':>14} {'efficiency':>11}"
            )
            for r in rows:
                lines.append(
                    f"  {r['kernel']:12} {r['elem_updates']:>12} "
                    f"{r['gflop']:>10.3f} {r['measured_gflops']:>13.3f} "
                    f"{r['model_gflops']:>14.1f} {r['efficiency']:>10.2e}"
                )

    split = worker_split(phases)
    if split:
        lines.append("")
        lines.append("partitioned workers (compute vs halo-gather):")
        lines.append(f"  {'worker':>8} {'compute s':>11} {'halo s':>9} {'halo wait':>10}")
        for part in sorted(split):
            s = split[part]
            lines.append(
                f"  {f'p{part}':>8} {s['compute_s']:>11.4f} "
                f"{s['halo_s']:>9.4f} {100.0 * s['halo_fraction']:>9.2f}%"
            )

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


def summarize_runlog(path: str, node: str = "rome", check: bool = False) -> int:
    """Print a summary of a JSONL run log; returns a process exit code.

    With ``check=True`` the log is validated against the schema first and
    a non-zero code is returned when any record is malformed.
    """
    from .runlog import validate_jsonl

    result = validate_jsonl(path)
    if check:
        for lineno, msg in result["errors"]:
            print(f"{path}:{lineno}: {msg}")
        status = "OK" if not result["errors"] else "INVALID"
        print(f"{path}: {result['records']} records, "
              f"{len(result['errors'])} schema error(s) -> {status}")
        if result["errors"]:
            return 1

    manifests, heartbeats, recoveries = [], [], []
    run_end = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            event = rec.get("event")
            if event == "manifest":
                manifests.append(rec)
            elif event == "heartbeat":
                heartbeats.append(rec)
            elif event in ("recovery", "diverged"):
                recoveries.append(rec)
            elif event == "run_end":
                run_end = rec

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

        # the roofline counts the FLOPs of the path that executes today,
        # so the log of a retired path (or one that names none) gets none
        ran = manifests[0].get("kernel_variant") if manifests else None
        order = (manifests[0].get("order")
                 if ran == SpatialOperator.kernel_variant else None)
        snapshot = {"phases": run_end.get("phases", {}),
                    "counters": run_end.get("counters", {})}
        print(f"run end: {run_end.get('steps')} steps in "
              f"{_num(run_end.get('wall_s'), '.2f', '?')} s wall")
        for line in profile_lines(snapshot, order=order,
                                  wall_s=run_end.get("wall_s"), node=node):
            print(line)
    else:
        print("no run_end record (run still in progress or killed)")
    return 0
