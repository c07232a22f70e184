"""Fleet-level metric aggregation, the exporter, and the status view.

The supervisor of :mod:`repro.ensemble` sees every member's compact
metric snapshot ride in on its heartbeats; this module is where
those per-member views become *fleet* facts:

* :class:`FleetAggregator` — the one fold of member state: each
  member's state, retries, runner step, simulated time, step rate
  (derived from the steps and wall times it folds) and last-seen wall
  time (staleness — the first thing an operator checks when a lane goes
  quiet), and its snapshots folded (associatively, via
  :func:`repro.obs.metrics.merge_snapshots`) into one fleet snapshot
  with cross-member min/max/median/q90 statistics for every gauge (the
  fleet-spread view: is one member's energy drifting while the rest
  hold steady?).
* **Exporter** — :meth:`FleetAggregator.export` writes ``fleet.prom``
  (the Prometheus textfile-collector format) into the ensemble out-dir
  through :func:`repro.io.atomic.atomic_open`, so a scrape never sees a
  torn file.
* **Status view** — :func:`fold_run_dir` rebuilds the supervisor's
  aggregator from an ensemble run directory's artifacts alone
  (supervisor log, member run logs, ``ensemble.json`` — no live process
  required); :func:`status_rows` / :func:`status_lines` render it as the
  table behind ``python -m repro obs-status RUN_DIR`` and
  :func:`check_run_dir` is its ``--check``: one checker for everything
  an ensemble run leaves on disk.
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
    validate_prometheus,
)
from .runlog import read_records, validate_jsonl

__all__ = [
    "FLEET_PROM",
    "FleetAggregator",
    "fold_run_dir",
    "status_rows",
    "status_lines",
    "check_run_dir",
    "watch_status",
]

FLEET_PROM = "fleet.prom"

#: the state the supervisor gives a member when it logs each event
#: (``member_end`` carries the terminal status itself)
_EVENT_STATES = {"member_start": "running", "member_retry": "retrying",
                 "member_quarantined": "quarantined"}


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
        #: member -> {"snapshot", "wall", "state", "retries", "step",
        #: "sim_t", "step_wall", "wall_rate"} (last view of each member)
        self.members: dict[str, dict] = {}

    # -- folding -------------------------------------------------------
    def update(self, member_id: str, snapshot: dict | None = None,
               wall: float | None = None, state: str | None = None,
               step: int | None = None, sim_t: float | None = None) -> None:
        """Record the latest view of ``member_id``.

        ``snapshot`` may be ``None`` (a heartbeat without a metrics
        payload still refreshes last-seen) and one of a newer wire format
        is ignored rather than misfolded; ``wall`` (default: now) only
        ever moves last-seen forward.  ``step`` / ``sim_t`` are the
        runner's step and simulated time the message carries (the step a
        heartbeat reports, which a rollback or a resume does not inflate);
        the wall rate is the steps gained over the wall time between the
        two latest steps seen (a step that does not advance keeps it; a
        resume, which goes back, restarts it).  ``state`` tracks the
        supervisor's view (``running`` / ``retrying`` / ``ok`` / ...),
        and every move to ``retrying`` is a retry.
        """
        cell = self.members.setdefault(member_id, {
            "snapshot": None, "wall": 0.0, "state": "unknown", "retries": 0,
            "step": None, "sim_t": None, "step_wall": None,
            "wall_rate": None})
        if isinstance(snapshot, dict) and snapshot.get(
                "schema", METRICS_SCHEMA_VERSION) == METRICS_SCHEMA_VERSION:
            cell["snapshot"] = snapshot
        wall = time.time() if wall is None else float(wall)
        cell["wall"] = max(cell["wall"], wall)
        if state is not None:
            cell["retries"] += state == "retrying"
            cell["state"] = state
        if step is not None:
            prev, prev_wall = cell["step"], cell["step_wall"]
            if prev is not None and step > prev and wall > prev_wall:
                cell["wall_rate"] = (step - prev) / (wall - prev_wall)
            if step != prev:
                cell["step_wall"] = wall
            cell["step"] = step
        if sim_t is not None:
            cell["sim_t"] = sim_t

    def member_snapshot(self, member_id: str) -> dict | None:
        cell = self.members.get(member_id)
        return None if cell is None else cell["snapshot"]

    def member_brief(self, member_id: str) -> dict:
        """Small ``{step, sim_t, wall_rate, energy_drift}`` digest of a
        member — the runner step, simulated time and step rate it last
        reported, the drift from its last snapshot's gauge — what
        supervisor run-log events embed so quarantine diagnoses are
        self-contained, and what ``obs-status`` shows.  Unknown fields
        are left out."""
        cell = self.members.get(member_id)
        if cell is None:
            return {}
        gauges = (cell["snapshot"] or {}).get("gauges", {})
        brief = {"step": cell["step"], "sim_t": cell["sim_t"],
                 "wall_rate": cell["wall_rate"],
                 "energy_drift": (gauges.get("health/energy_drift_ratio")
                                  or {}).get("value")}
        return {k: v for k, v in brief.items() if v is not None}

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

    # -- exporter ------------------------------------------------------
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

    def export(self, now: float | None = None) -> None:
        """Replace ``fleet.prom`` under ``out_dir`` atomically, so a
        concurrent scrape never reads a torn document."""
        os.makedirs(self.out_dir, exist_ok=True)
        with atomic_open(os.path.join(self.out_dir, FLEET_PROM)) as fh:
            fh.write(self.to_prometheus(now))


# ----------------------------------------------------------------------
# offline status view: everything below reads artifacts, not processes
def _wall(rec: dict) -> float:
    wall = rec.get("wall")
    return float(wall) if isinstance(wall, (int, float)) else 0.0


def fold_run_dir(run_dir: str) -> tuple[FleetAggregator, list, dict]:
    """The supervisor's :class:`FleetAggregator`, rebuilt from an
    ensemble run directory, plus the records it was folded from.

    The supervisor log's member events set each member's state as they
    did live (and so count its retries); each member's heartbeat and
    ``metrics`` records feed its runner step (and so its rate),
    simulated time and snapshot, as the worker's pipe messages did;
    ``ensemble.json`` has the last word on terminal states.  Returns ``(aggregator,
    supervisor_records, {member: run_log_records})``; works mid-run and
    post-mortem alike.
    """
    agg = FleetAggregator(run_dir)
    sup, _ = read_records(os.path.join(run_dir, "ensemble.jsonl"))
    for rec in sup:
        if isinstance(rec.get("member"), str):
            state = (rec.get("status") if rec.get("event") == "member_end"
                     else _EVENT_STATES.get(rec.get("event")))
            agg.update(rec["member"], wall=_wall(rec), state=state)
    logs = {}
    for mid in sorted(os.listdir(run_dir)) if os.path.isdir(run_dir) else []:
        path = os.path.join(run_dir, mid, "run.jsonl")
        if not os.path.isfile(path):
            continue
        logs[mid], _ = read_records(path)
        agg.update(mid, wall=0.0)  # listed even before its first beat
        for rec in logs[mid]:
            if rec.get("event") in ("heartbeat", "metrics"):
                agg.update(mid, rec.get("metrics"), wall=_wall(rec),
                           step=rec.get("step"), sim_t=rec.get("sim_t"))
    try:
        with open(os.path.join(run_dir, "ensemble.json"),
                  encoding="utf-8") as fh:
            for mem in json.load(fh)["members"]:
                agg.update(mem["member_id"], wall=0.0, state=mem["status"])
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return agg, sup, logs


def status_rows(run_dir: str, now: float | None = None) -> list[dict]:
    """One status dict per member of the ensemble under ``run_dir``: the
    :func:`fold_run_dir` aggregator's view of it (state, retries,
    :meth:`~FleetAggregator.member_brief`, staleness) plus its count of
    ``metrics`` records and its black-box verdict."""
    now = time.time() if now is None else now
    agg, sup, logs = fold_run_dir(run_dir)
    stale = agg.staleness(now)
    rows = []
    for mid, cell in sorted(agg.members.items()):
        brief = agg.member_brief(mid)
        rows.append({
            "member": mid,
            "state": cell["state"],
            "step": brief.get("step"),
            "sim_t": brief.get("sim_t"),
            "wall_rate": brief.get("wall_rate"),
            "energy_drift": brief.get("energy_drift"),
            "retries": cell["retries"],
            "stale_s": stale[mid] if cell["wall"] else None,
            "metrics_records": sum(r.get("event") == "metrics"
                                   for r in logs.get(mid, [])),
            "verdict": _member_verdict(run_dir, mid, sup),
        })
    return rows


def _member_verdict(run_dir: str, mid: str, sup: list) -> str | None:
    """Black-box classifier verdict of the member's newest bundle.

    The supervisor's quarantine event carries the authoritative verdict;
    otherwise (mid-run, or a supervisor log that predates schema v3) the
    newest ``*.blackbox.json`` in the member dir is classified directly.
    ``None`` when the member never dumped a bundle.
    """
    for rec in reversed(sup):
        if (rec.get("member") == mid
                and rec.get("event") == "member_quarantined"
                and isinstance(rec.get("verdict"), str)):
            return rec["verdict"]
    from .blackbox import classify_bundle, load_bundle, newest_bundle

    path = newest_bundle(os.path.join(run_dir, mid))
    if path is None:
        return None
    try:
        return classify_bundle(load_bundle(path))["verdict"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_run_dir(run_dir: str) -> list[str]:
    """Every problem of an ensemble run directory, each naming its file.

    ``ensemble.jsonl`` and every member ``run.jsonl`` must pass
    :func:`~repro.obs.runlog.validate_jsonl`, ``fleet.prom`` (when
    written) :func:`~repro.obs.metrics.validate_prometheus`, and every
    bundle a log references must exist and pass
    :func:`~repro.obs.blackbox.validate_bundle`.  Every finished member
    must have a final ``metrics`` record, equal to the ``metrics`` of its
    ``result.json``.
    """
    from .blackbox import load_bundle, validate_bundle

    agg, sup, logs = fold_run_dir(run_dir)
    # a member whose worker never started has no run log of its own
    problems = [] if agg.members else [f"{run_dir}: no ensemble members"]
    logged = {os.path.join(run_dir, "ensemble.jsonl"): sup}
    logged.update((os.path.join(run_dir, mid, "run.jsonl"), records)
                  for mid, records in sorted(logs.items()))
    for log, records in logged.items():
        try:
            problems += [f"{log}:{n}: {msg}"
                         for n, msg in validate_jsonl(log)["errors"]]
        except OSError as exc:
            problems.append(f"{log}: {exc.strerror or exc}")
        for bundle in [r["bundle"] for r in records
                       if isinstance(r.get("bundle"), str)]:
            # a fleet's bundles live in <run_dir>/<member>/, wherever the
            # run dir was when the path was logged
            member_dir, name = os.path.split(bundle)
            path = os.path.join(run_dir, os.path.basename(member_dir), name)
            try:
                errors = validate_bundle(load_bundle(path))
            except (OSError, ValueError) as exc:
                errors = [str(exc)]
            problems += [f"{log}: bundle {bundle}: {e}" for e in errors]
    prom = os.path.join(run_dir, FLEET_PROM)
    if os.path.isfile(prom):
        with open(prom, encoding="utf-8") as fh:
            problems += [f"{prom}: {e}" for e in validate_prometheus(fh.read())]
    for mid, cell in sorted(agg.members.items()):
        if cell["state"] not in ("ok", "recovered"):
            continue
        log = os.path.join(run_dir, mid, "run.jsonl")
        result = os.path.join(run_dir, mid, "result.json")
        final = [r.get("metrics") for r in logs.get(mid, [])
                 if r.get("event") == "metrics"]
        try:
            with open(result, encoding="utf-8") as fh:
                published = json.load(fh)["metrics"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{result}: unreadable ({exc!r})")
            continue
        if not final:
            problems.append(f"{log}: no metrics record")
        elif final[-1] != published:
            problems.append(f"{log}: final metrics record differs from "
                            f"{result}")
    return problems


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
    return lines


def watch_status(run_dir: str, interval: float | None = None,
                 iterations: int | None = None, stream=None,
                 check: bool = False) -> int:
    """``obs-status`` driver: render once, or every ``interval`` seconds.

    Watch mode must behave like ``tail -f`` on a live run: Ctrl-C at any
    point (mid-render included) exits cleanly with status 0, and a run
    dir or exporter file disappearing between renders — members being
    cleaned up, an NFS blip — shows up as a placeholder row on the next
    render instead of a traceback.  ``iterations`` bounds the number of
    renders (for tests).  ``check`` renders once, then lists every
    :func:`check_run_dir` problem and exits 1 when there is one.
    """
    out = stream if stream is not None else sys.stdout
    if check:
        problems = check_run_dir(run_dir)
        verdict = "INVALID" if problems else "OK"
        for line in (status_lines(run_dir) + problems
                     + [f"{run_dir}: {len(problems)} problem(s) -> {verdict}"]):
            print(line, file=out)
        return 1 if problems else 0
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
