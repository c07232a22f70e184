"""Fleet-level metric aggregation, exporters, and the live status view.

The supervisor of :mod:`repro.ensemble` sees every member's compact
metric snapshot ride in on its heartbeats; this module is where
those per-member views become *fleet* facts:

* :class:`FleetAggregator` — folds member snapshots (associatively, via
  :func:`repro.obs.metrics.merge_snapshots`) into one fleet snapshot,
  keeps per-member last-seen wall times (staleness — the first thing an
  operator checks when a lane goes quiet), and computes cross-member
  min/max/median/q90 statistics for every gauge (the fleet-spread view:
  is one member's energy drifting while the rest hold steady?).
* **Exporters** — :meth:`FleetAggregator.export` writes two artifacts
  into the ensemble out-dir, both through
  :func:`repro.io.atomic.atomic_open` (a scrape or a tail never sees a
  torn file):
  ``fleet.prom`` in the Prometheus textfile-collector format (validated
  by :func:`repro.obs.metrics.validate_prometheus` in CI) and
  ``fleet.jsonl`` with the full JSON aggregate history (bounded).
* **Status view** — :func:`status_rows` / :func:`status_lines` read an
  ensemble run directory *from its artifacts alone* (supervisor log,
  member run logs, result files — no live process required) and render
  the table behind ``python -m repro obs-status RUN_DIR``: one row per
  member with state, step, simulated time, wall rate, energy drift,
  retries and heartbeat staleness.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

from ..io.atomic import atomic_open
from .metrics import (
    METRICS_SCHEMA_VERSION,
    merge_snapshots,
    to_prometheus,
)
from .runlog import read_records

__all__ = [
    "FLEET_PROM",
    "FLEET_JSONL",
    "FleetAggregator",
    "status_rows",
    "status_lines",
    "watch_status",
]

FLEET_PROM = "fleet.prom"
FLEET_JSONL = "fleet.jsonl"

#: aggregate-history records kept in ``fleet.jsonl``
_HISTORY_MAX = 512


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted list."""
    if not sorted_vals:
        return math.nan
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


class FleetAggregator:
    """Fold per-member metric snapshots into fleet-level series.

    The supervisor calls :meth:`update` from its heartbeat drain loop and
    :meth:`export` periodically plus once at the end; everything else is
    derived.  Thread-safety is not needed — the supervisor's event loop
    is single-threaded — but updates are cheap enough to call per
    message.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        #: member -> {"snapshot", "wall", "state"} (last view of each member)
        self.members: dict[str, dict] = {}
        self._history: list[dict] = []

    # -- folding -------------------------------------------------------
    def update(self, member_id: str, snapshot: dict | None,
               wall: float | None = None, state: str | None = None) -> None:
        """Record the latest view of ``member_id``.

        ``snapshot`` may be ``None`` (a heartbeat without a metrics
        payload still refreshes last-seen); ``state`` tracks the
        supervisor's view (``running``/``retrying``/``ok``/...).
        """
        cell = self.members.setdefault(
            member_id, {"snapshot": None, "wall": 0.0, "state": "unknown"})
        if snapshot is not None:
            if snapshot.get("schema", METRICS_SCHEMA_VERSION) \
                    != METRICS_SCHEMA_VERSION:
                return  # future wire format: ignore rather than misfold
            cell["snapshot"] = snapshot
        cell["wall"] = float(wall) if wall is not None else time.time()
        if state is not None:
            cell["state"] = state

    def member_snapshot(self, member_id: str) -> dict | None:
        cell = self.members.get(member_id)
        return None if cell is None else cell["snapshot"]

    def member_brief(self, member_id: str) -> dict:
        """Small ``{step, sim_t, energy_drift_ratio}`` digest of a member's
        last snapshot — what supervisor run-log events embed so quarantine
        diagnoses are self-contained."""
        snap = self.member_snapshot(member_id)
        if not snap:
            return {}
        gauges = snap.get("gauges", {})
        brief = {}
        for name, key in (("sched/steps_total", "step"),
                          ("sched/sim_time", "sim_t"),
                          ("health/energy_drift_ratio", "energy_drift")):
            g = gauges.get(name)
            if g is not None:
                brief[key] = g.get("value")
        if "step" not in brief:
            steps = snap.get("counters", {}).get("sched/steps_total")
            if steps is not None:
                brief["step"] = steps
        return brief

    def fleet_snapshot(self) -> dict:
        """The associative fold of every member's last snapshot."""
        out = None
        for member_id in sorted(self.members):
            snap = self.members[member_id]["snapshot"]
            if snap is not None:
                out = merge_snapshots(out, snap)
        return out if out is not None else merge_snapshots(None, None)

    def staleness(self, now: float | None = None) -> dict[str, float]:
        """Seconds since each member was last seen."""
        now = time.time() if now is None else now
        return {mid: max(0.0, now - cell["wall"])
                for mid, cell in self.members.items()}

    def gauge_stats(self) -> dict[str, dict]:
        """Cross-member min/max/median/q90 for every gauge name."""
        by_name: dict[str, list[float]] = {}
        for cell in self.members.values():
            snap = cell["snapshot"]
            if not snap:
                continue
            for name, g in snap.get("gauges", {}).items():
                by_name.setdefault(name, []).append(float(g["value"]))
        stats = {}
        for name, vals in by_name.items():
            vals.sort()
            stats[name] = {
                "min": vals[0],
                "max": vals[-1],
                "q50": _quantile(vals, 0.5),
                "q90": _quantile(vals, 0.9),
                "n": len(vals),
            }
        return stats

    def aggregate(self, now: float | None = None) -> dict:
        """One JSON-able fleet aggregate record."""
        now = time.time() if now is None else now
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "wall": now,
            "members": {
                mid: {
                    "state": cell["state"],
                    "last_seen_wall": cell["wall"],
                    "staleness_s": max(0.0, now - cell["wall"]),
                    "brief": self.member_brief(mid),
                }
                for mid, cell in sorted(self.members.items())
            },
            "fleet": self.fleet_snapshot(),
            "gauge_stats": self.gauge_stats(),
        }

    # -- exporters -----------------------------------------------------
    def to_prometheus(self, now: float | None = None) -> str:
        """The fleet snapshot in Prometheus text exposition format.

        The fold of member snapshots is rendered unlabelled (counters
        summed across the fleet, gauges last-write-wins); fleet spread
        and per-member liveness ride along as extra gauge families:
        ``repro_fleet_gauge_{min,max,q50,q90}`` labelled by metric name
        and ``repro_fleet_member_staleness_seconds`` labelled by member.
        """
        now = time.time() if now is None else now
        extra = {
            "fleet/members": [({}, float(len(self.members)))],
        }
        stats = self.gauge_stats()
        for stat in ("min", "max", "q50", "q90"):
            samples = [({"metric": name}, cells[stat])
                       for name, cells in sorted(stats.items())
                       if not math.isnan(cells[stat])]
            if samples:
                extra[f"fleet/gauge_{stat}"] = samples
        stale = self.staleness(now)
        if stale:
            extra["fleet/member_staleness_seconds"] = [
                ({"member": mid}, s) for mid, s in sorted(stale.items())]
        states = {}
        for cell in self.members.values():
            states[cell["state"]] = states.get(cell["state"], 0) + 1
        if states:
            extra["fleet/members_by_state"] = [
                ({"state": st}, float(n)) for st, n in sorted(states.items())]
        return to_prometheus(self.fleet_snapshot(), extra=extra)

    def export(self, now: float | None = None) -> dict:
        """Write ``fleet.prom`` + ``fleet.jsonl`` atomically under
        ``out_dir``; returns the aggregate.

        The JSONL file carries the full (bounded) aggregate history so a
        consumer can see trends; both files are replaced atomically so a
        concurrent scrape/tail never reads a torn document.
        """
        agg = self.aggregate(now)
        self._history.append(agg)
        del self._history[:-_HISTORY_MAX]
        os.makedirs(self.out_dir, exist_ok=True)
        with atomic_open(os.path.join(self.out_dir, FLEET_PROM)) as fh:
            fh.write(self.to_prometheus(now))
        with atomic_open(os.path.join(self.out_dir, FLEET_JSONL)) as fh:
            fh.write("".join(json.dumps(rec) + "\n" for rec in self._history))
        return agg


# ----------------------------------------------------------------------
# offline status view: everything below reads artifacts, not processes
def _member_dirs(run_dir: str) -> list[str]:
    """Member ids under an ensemble out-dir (subdirs holding a run log)."""
    try:
        entries = sorted(os.listdir(run_dir))
    except OSError:
        return []
    return [e for e in entries
            if os.path.isfile(os.path.join(run_dir, e, "run.jsonl"))]


def _last(records: list[dict], event: str) -> dict | None:
    for rec in reversed(records):
        if rec.get("event") == event:
            return rec
    return None


def status_rows(run_dir: str, now: float | None = None) -> list[dict]:
    """One status dict per member of the ensemble under ``run_dir``.

    Sources, in increasing authority: the member's own ``run.jsonl``
    (heartbeats + metrics records), the supervisor's ``ensemble.jsonl``
    (starts/retries/quarantines), and the final ``ensemble.json`` result
    (terminal states).  Works mid-run and post-mortem alike.
    """
    now = time.time() if now is None else now
    sup, _ = read_records(os.path.join(run_dir, "ensemble.jsonl"))
    final: dict[str, str] = {}
    try:
        with open(os.path.join(run_dir, "ensemble.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        for mem in doc.get("members", []):
            if isinstance(mem, dict) and mem.get("member_id"):
                final[mem["member_id"]] = mem.get("status", "unknown")
    except (OSError, ValueError):
        pass

    member_ids = _member_dirs(run_dir)
    for rec in sup:  # members that never produced a run log still show up
        mid = rec.get("member")
        if isinstance(mid, str) and mid not in member_ids:
            member_ids.append(mid)

    rows = []
    for mid in member_ids:
        records, _ = read_records(os.path.join(run_dir, mid, "run.jsonl"))
        beats = [r for r in records if r.get("event") == "heartbeat"]
        metrics = [r for r in records if r.get("event") == "metrics"]
        sup_mine = [r for r in sup if r.get("member") == mid]
        retries = sum(1 for r in sup_mine if r.get("event") == "member_retry")

        state = final.get(mid)
        if state is None:
            ended = _last(sup_mine, "member_end")
            if ended is not None:
                state = ended.get("status", "unknown")
            elif _last(sup_mine, "member_quarantined") is not None:
                state = "quarantined"
            elif _last(sup_mine, "member_start") is not None:
                state = "retrying" if (sup_mine and sup_mine[-1].get("event")
                                       == "member_retry") else "running"
            else:
                state = "running" if beats else "unknown"

        last_beat = beats[-1] if beats else None
        last_met = metrics[-1] if metrics else None
        gauges = ((last_met or {}).get("metrics") or {}).get("gauges", {})

        def gauge(name, default=None):
            cell = gauges.get(name)
            return cell.get("value") if isinstance(cell, dict) else default

        step = gauge("sched/steps_total")
        if step is None and last_beat is not None:
            step = last_beat.get("step")
        sim_t = gauge("sched/sim_time")
        if sim_t is None and last_beat is not None:
            sim_t = last_beat.get("sim_t")
        rate = gauge("sched/wall_rate")
        if rate is None and last_beat is not None:
            rate = last_beat.get("wall_rate")
        drift = gauge("health/energy_drift_ratio")

        walls = [r.get("wall") for r in (records + sup_mine)
                 if isinstance(r.get("wall"), (int, float))]
        stale = (now - max(walls)) if walls else None
        rows.append({
            "member": mid,
            "state": state,
            "step": step,
            "sim_t": sim_t,
            "wall_rate": rate,
            "energy_drift": drift,
            "retries": retries,
            "stale_s": stale,
            "heartbeats": len(beats),
            "metrics_records": len(metrics),
            "verdict": _member_verdict(run_dir, mid, sup_mine),
        })
    return rows


def _member_verdict(run_dir: str, mid: str, sup_mine: list) -> str | None:
    """Black-box classifier verdict of the member's newest bundle.

    The supervisor's quarantine event carries the authoritative verdict;
    otherwise (mid-run, or a supervisor log that predates schema v3) the
    newest ``*.blackbox.json`` in the member dir is classified directly.
    ``None`` when the member never dumped a bundle.
    """
    quarantined = _last(sup_mine, "member_quarantined")
    if quarantined is not None and isinstance(quarantined.get("verdict"),
                                              str):
        return quarantined["verdict"]
    from .blackbox import classify_bundle, load_bundle, newest_bundle

    path = newest_bundle(os.path.join(run_dir, mid))
    if path is None:
        return None
    try:
        return classify_bundle(load_bundle(path))["verdict"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cell(value, fmt: str, missing: str = "-") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return missing
    try:
        return format(value, fmt)
    except (TypeError, ValueError):
        return str(value)


def status_lines(run_dir: str, now: float | None = None) -> list[str]:
    """Render the ``obs-status`` table for one ensemble run directory."""
    now = time.time() if now is None else now
    rows = status_rows(run_dir, now=now)
    header = (f"  {'member':16} {'state':12} {'step':>8} {'sim_t':>10} "
              f"{'steps/s':>8} {'e-drift':>9} {'retries':>7} {'stale':>7} "
              f"{'verdict':13}")
    lines = [f"== fleet status: {run_dir} ==", header,
             "  " + "-" * (len(header) - 2)]
    if not rows:
        lines.append("  (no members found — is this an ensemble out-dir?)")
        return lines
    for row in rows:
        lines.append(
            f"  {row['member'][:16]:16} {row['state'][:12]:12} "
            f"{_cell(row['step'], '>8.0f'):>8} "
            f"{_cell(row['sim_t'], '>10.4g'):>10} "
            f"{_cell(row['wall_rate'], '>8.2f'):>8} "
            f"{_cell(row['energy_drift'], '>9.2e'):>9} "
            f"{row['retries']:>7} "
            f"{_cell(row['stale_s'], '>6.1f') + 's' if row['stale_s'] is not None else '-':>7} "
            f"{(row.get('verdict') or '-')[:13]:13}"
        )
    states: dict[str, int] = {}
    for row in rows:
        states[row["state"]] = states.get(row["state"], 0) + 1
    summary = ", ".join(f"{n} {st}" for st, n in sorted(states.items()))
    lines.append(f"  {len(rows)} member(s): {summary}")
    prom = os.path.join(run_dir, FLEET_PROM)
    try:
        has_prom = os.path.isfile(prom)
    except OSError:
        has_prom = False
    if has_prom:
        lines.append(f"  exporters: {prom} "
                     f"+ {os.path.join(run_dir, FLEET_JSONL)}")
    return lines


def watch_status(run_dir: str, interval: float | None = None,
                 iterations: int | None = None, stream=None) -> int:
    """``obs-status`` driver: render once, or every ``interval`` seconds.

    Watch mode must behave like ``tail -f`` on a live run: Ctrl-C at any
    point (mid-render included) exits cleanly with status 0, and a run
    dir or exporter file disappearing between renders — members being
    cleaned up, an NFS blip — shows up as a placeholder row on the next
    render instead of a traceback.  ``iterations`` bounds the number of
    renders (for tests).
    """
    out = stream if stream is not None else sys.stdout
    n = 0
    try:
        while True:
            try:
                lines = status_lines(run_dir)
            except OSError as exc:  # defense in depth: stay watching
                lines = [f"== fleet status: {run_dir} ==",
                         f"  (status unavailable: {exc})"]
            for line in lines:
                print(line, file=out)
            n += 1
            if interval is None or (iterations is not None
                                    and n >= iterations):
                return 0
            time.sleep(max(interval, 0.1))
            print(file=out)
    except KeyboardInterrupt:
        print(file=out)
        return 0
