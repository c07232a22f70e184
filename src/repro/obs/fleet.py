"""Fleet-level metric aggregation, the exporter, and the status view.

Every fact about an ensemble member is in the logs — its own run log and
the supervisor's ``ensemble.jsonl`` (its states); this module folds them
into *fleet* facts:

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
  (the Prometheus textfile-collector format, rendered by
  :meth:`FleetAggregator.to_prometheus`) into the ensemble out-dir
  through :func:`repro.io.atomic.atomic_open`, so a scrape never sees a
  torn file; :func:`validate_prometheus` is the strict line-format
  checker run against it (metric names are free-form paths, sanitized to
  the Prometheus grammar by :func:`prom_name`).
* **Status view** — :func:`fold_run_dir` folds an ensemble run
  directory's logs alone (supervisor log, member run logs — no live
  process required), one member log at a time through
  :func:`fold_member_log`: the supervisor exports that fold as
  ``fleet.prom`` (folding on from the last export, so it reads each log
  byte once) and embeds one member's brief in its events;
  :func:`status_rows` / :func:`status_lines` render it as the table
  behind ``python -m repro obs-status RUN_DIR`` and
  :func:`check_run_dir` is its ``--check``: one checker for everything
  an ensemble run leaves on disk.
"""

from __future__ import annotations

import math
import os
import re
import sys
import time
from collections import Counter

from ..io.atomic import atomic_open
from .metrics import METRICS_SCHEMA_VERSION, merge_snapshots
from .runlog import read_new_records, validate_jsonl

__all__ = [
    "FLEET_PROM",
    "FleetAggregator",
    "fold_member_log",
    "fold_run_dir",
    "status_rows",
    "status_lines",
    "check_run_dir",
    "watch_status",
    "prom_name",
    "validate_prometheus",
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

    :func:`fold_run_dir` calls :meth:`update` once per log record that
    carries member state; everything else is derived.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        #: member -> {"snapshot", "wall", "state", "retries", "step",
        #: "sim_t", "step_wall", "wall_rate", "verdict"} (last view of each)
        self.members: dict[str, dict] = {}
        #: log path -> bytes of it folded so far (:func:`fold_member_log`)
        self.offsets: dict[str, int] = {}

    # -- folding -------------------------------------------------------
    def update(self, member_id: str, snapshot: dict | None = None,
               wall: float = 0.0, state: str | None = None,
               step: int | None = None, sim_t: float | None = None) -> None:
        """Record the latest view of ``member_id`` from one record.

        ``snapshot`` may be ``None`` (a heartbeat without a metrics
        payload still refreshes last-seen) and one of a newer wire format
        is ignored rather than misfolded; ``wall``, the record's wall
        time, only ever moves last-seen forward.  ``step`` / ``sim_t`` are the
        runner's step and simulated time the record carries (the step a
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
            "wall_rate": None, "verdict": None})
        if isinstance(snapshot, dict) and snapshot.get(
                "schema", METRICS_SCHEMA_VERSION) == METRICS_SCHEMA_VERSION:
            cell["snapshot"] = snapshot
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

    def member_brief(self, member_id: str) -> dict:
        """Small ``{step, sim_t, wall_rate, energy_drift}`` digest of a
        member — the runner step, simulated time and step rate its log
        last reported, the drift from its last snapshot's gauge — what
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

        The fold of member snapshots is rendered unlabelled: counters as
        ``counter`` families (``_total``-suffixed, summed across the
        fleet), gauges as ``gauge`` families (last-write-wins).  Fleet
        spread and per-member liveness ride along as labelled gauge
        families: ``repro_fleet_gauge_{min,max,q50,q90}`` by metric name,
        ``repro_fleet_member_staleness_seconds`` by member and
        ``repro_fleet_members_by_state`` by state.  Ends with a newline,
        as the textfile collector requires.
        """
        now = time.time() if now is None else now
        lines: list[str] = []

        def family(name, kind, samples):
            lines.append(f"# TYPE {prom_name(name)} {kind}")
            lines.extend(f"{prom_name(name)}{_labels(labels)} {_fmt(value)}"
                         for labels, value in samples)

        snap = self.fleet_snapshot()
        for name, value in snap["counters"].items():
            if not prom_name(name).endswith("_total"):
                name += "_total"
            family(name, "counter", [(None, value)])
        for name, g in snap["gauges"].items():
            family(name, "gauge", [(None, g["value"])])
        family("fleet/members", "gauge", [(None, float(len(self.members)))])
        stats = self.gauge_stats()
        for stat in ("min", "max", "q50", "q90"):
            samples = [({"metric": name}, cells[stat])
                       for name, cells in sorted(stats.items())
                       if not math.isnan(cells[stat])]
            if samples:
                family(f"fleet/gauge_{stat}", "gauge", samples)
        if self.members:
            stale = self.staleness(now)
            states = Counter(cell["state"] for cell in self.members.values())
            family("fleet/member_staleness_seconds", "gauge",
                   [({"member": mid}, s) for mid, s in sorted(stale.items())])
            family("fleet/members_by_state", "gauge",
                   [({"state": st}, float(n))
                    for st, n in sorted(states.items())])
        return "\n".join(lines) + "\n"

    def export(self, now: float | None = None) -> None:
        """Replace ``fleet.prom`` under ``out_dir`` atomically, so a
        concurrent scrape never reads a torn document."""
        os.makedirs(self.out_dir, exist_ok=True)
        with atomic_open(os.path.join(self.out_dir, FLEET_PROM)) as fh:
            fh.write(self.to_prometheus(now))


# ----------------------------------------------------------------------
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str) -> str:
    """Sanitize a free-form metric path to the Prometheus name grammar
    (``repro_``-prefixed, so it always starts with a letter)."""
    return "repro_" + _NAME_SANITIZE.sub("_", name)


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    return repr(float(v)) if isinstance(v, float) else str(int(v))


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="' + str(v).replace("\\", r"\\").replace('"', r"\"")
        .replace("\n", r"\n") + '"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


# -- strict text-format checker ----------------------------------------
_METRIC_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_RE = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME_RE})"
    rf"(?:\{{({_LABEL_RE}(?:,{_LABEL_RE})*)?,?\}})?"
    r" (-?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)"
    r"( [0-9]+)?$"
)
_TYPE_RE = re.compile(rf"^# TYPE ({_METRIC_NAME_RE}) (\w+)$")
_HELP_RE = re.compile(rf"^# HELP ({_METRIC_NAME_RE}) .*$")

#: the metric types :meth:`FleetAggregator.to_prometheus` emits, and all a
#: document may hold
_KINDS = ("counter", "gauge")


def validate_prometheus(text: str) -> list[str]:
    """Schema errors of a Prometheus text-format document (empty = valid).

    Strict about everything a textfile collector is strict about — line
    grammar, label syntax, one ``# TYPE`` per family declared before its
    samples, non-negative counters, a trailing newline — and about what
    this exporter writes: ``counter`` and ``gauge`` families only.
    """
    errors: list[str] = []
    if text and not text.endswith("\n"):
        errors.append("document does not end with a newline")
    types: dict[str, str] = {}
    seen_samples: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = _TYPE_RE.match(line)
            if m:
                name, kind = m.groups()
                if kind not in _KINDS:
                    errors.append(f"line {lineno}: {name} has type {kind}; "
                                  f"only {' / '.join(_KINDS)} are exported")
                if name in types:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                if name in seen_samples:
                    errors.append(
                        f"line {lineno}: TYPE for {name} after its samples")
                types[name] = kind
                continue
            if _HELP_RE.match(line) or line.startswith("# "):
                continue
            errors.append(f"line {lineno}: malformed comment {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: malformed sample line {line!r}")
            continue
        name, _labelstr, value_s, _ts = m.groups()
        seen_samples.add(name)
        if name not in types:
            errors.append(
                f"line {lineno}: sample {name} has no preceding # TYPE")
        elif types[name] == "counter" and float(value_s) < 0 \
                and value_s != "-Inf":
            errors.append(f"line {lineno}: counter {name} is negative")
    return errors


# ----------------------------------------------------------------------
# offline status view: everything below reads artifacts, not processes
def _wall(rec: dict) -> float:
    wall = rec.get("wall")
    return float(wall) if isinstance(wall, (int, float)) else 0.0


def _read_on(agg: FleetAggregator, path: str) -> list:
    """The records of ``path`` that ``agg`` has not folded yet."""
    records, agg.offsets[path] = read_new_records(
        path, agg.offsets.get(path, 0))
    return records


def fold_member_log(agg: FleetAggregator, member_id: str,
                    path: str) -> list:
    """Fold one member's run log into ``agg``; returns the records folded.

    Each heartbeat feeds the member's runner step (and so its rate),
    simulated time and snapshot, ``run_end`` the final step and snapshot.
    Only the records appended since ``agg`` last folded the log are read
    (all of them, for a fresh aggregator).  A missing log folds to no
    records, but the member is listed even before its first beat.
    """
    records = _read_on(agg, path)
    agg.update(member_id)
    for rec in records:
        if rec.get("event") in ("heartbeat", "run_end"):
            # a beat's runner step is ``step``, the final one ``steps``
            agg.update(member_id, rec.get("metrics"), wall=_wall(rec),
                       step=rec.get("step", rec.get("steps")),
                       sim_t=rec.get("sim_t"))
    return records


def fold_run_dir(run_dir: str, agg: FleetAggregator | None = None
                 ) -> tuple[FleetAggregator, list, dict]:
    """The fleet fold of an ensemble run directory, plus the records it
    was folded from.

    The supervisor log's member events set each member's state (and so
    count its retries; every terminal state is a ``member_end``) and a
    ``member_quarantined`` its verdict, and each member's run log is
    folded by :func:`fold_member_log`.  Returns
    ``(aggregator, supervisor_records, {member: run_log_records})``;
    works mid-run and post-mortem alike.  Given ``agg``, an earlier fold
    of the same directory, it folds on from where that one stopped and
    returns the records appended since: the supervisor, which exports the
    fold as ``fleet.prom`` every few seconds while it runs, parses each
    log byte once, and its fold equals a fresh one of the same bytes
    (either way each record is folded once, in log order).
    """
    agg = FleetAggregator(run_dir) if agg is None else agg
    sup = _read_on(agg, os.path.join(run_dir, "ensemble.jsonl"))
    for rec in sup:
        mid, event = rec.get("member"), rec.get("event")
        if isinstance(mid, str):
            state = (rec.get("status") if event == "member_end"
                     else _EVENT_STATES.get(event))
            agg.update(mid, wall=_wall(rec), state=state)
            if event == "member_quarantined" and isinstance(
                    rec.get("verdict"), str):
                agg.members[mid]["verdict"] = rec["verdict"]
    logs = {}
    for mid in sorted(os.listdir(run_dir)) if os.path.isdir(run_dir) else []:
        path = os.path.join(run_dir, mid, "run.jsonl")
        if os.path.isfile(path):
            logs[mid] = fold_member_log(agg, mid, path)
    return agg, sup, logs


def status_rows(run_dir: str, now: float | None = None,
                agg: FleetAggregator | None = None) -> list[dict]:
    """One status dict per member of the ensemble under ``run_dir``: the
    :func:`fold_run_dir` fold's view of it (state, retries,
    :meth:`~FleetAggregator.member_brief`, staleness) plus its black-box
    verdict; ``agg`` is a fold of ``run_dir`` already made."""
    now = time.time() if now is None else now
    agg = fold_run_dir(run_dir)[0] if agg is None else agg
    stale = agg.staleness(now)
    rows = []
    for mid, cell in sorted(agg.members.items()):
        brief = agg.member_brief(mid)
        rows.append({
            "member": mid,
            "state": cell["state"],
            **{k: brief.get(k)
               for k in ("step", "sim_t", "wall_rate", "energy_drift")},
            "retries": cell["retries"],
            "stale_s": stale[mid] if cell["wall"] else None,
            "verdict": _member_verdict(run_dir, mid, cell),
        })
    return rows


def _member_verdict(run_dir: str, mid: str, cell: dict) -> str | None:
    """Black-box verdict of a member whose fold is ``cell``.

    A finished ``ok`` or ``recovered`` member has none: the bundles of
    its failed attempts are stale, and stale diagnostics on a healthy
    member are worse than none.  A quarantined member takes its
    quarantine event's verdict.  Only a member still ``running`` or
    ``retrying`` falls back to classifying the newest
    ``*.blackbox.json`` in its dir (``None`` when it dumped none).
    """
    state = cell["state"]
    if state == "quarantined":
        return cell["verdict"]
    if state not in ("running", "retrying"):
        return None
    from .blackbox import classify_bundle, load_bundle, newest_bundle

    path = newest_bundle(os.path.join(run_dir, mid))
    if path is None:
        return None
    try:
        return classify_bundle(load_bundle(path))["verdict"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_run_dir(run_dir: str, fold: tuple | None = None) -> list[str]:
    """Every problem of an ensemble run directory, each naming its file.

    ``ensemble.jsonl`` and every member ``run.jsonl`` must pass
    :func:`~repro.obs.runlog.validate_jsonl`, ``fleet.prom`` (when
    written) :func:`validate_prometheus`, and every
    bundle a log references must exist and pass
    :func:`~repro.obs.blackbox.validate_bundle`.  Every finished member's
    log must hold a ``run_end``, and its ``result.json`` (the digest and
    summary the ensemble result reads) must pass
    :func:`~repro.io.result.load_result`.  ``fold`` is a fresh
    :func:`fold_run_dir` of ``run_dir`` already made.
    """
    from ..io.result import RESULT_NAME, load_result
    from .blackbox import load_bundle, validate_bundle

    agg, sup, logs = fold_run_dir(run_dir) if fold is None else fold
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
        if not any(r.get("event") == "run_end" for r in logs.get(mid, [])):
            log = os.path.join(run_dir, mid, "run.jsonl")
            problems.append(f"{log}: no run_end record")
        result = os.path.join(run_dir, mid, RESULT_NAME)
        if load_result(result) is None:
            problems.append(f"{result}: unreadable (missing, torn, or "
                            "without a required key)")
    return problems


def _cell(value, fmt: str, missing: str = "-") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return missing
    try:
        return format(value, fmt)
    except (TypeError, ValueError):
        return str(value)


def status_lines(run_dir: str, now: float | None = None,
                 agg: FleetAggregator | None = None) -> list[str]:
    """Render the ``obs-status`` table for one ensemble run directory
    (``agg`` as in :func:`status_rows`)."""
    now = time.time() if now is None else now
    rows = status_rows(run_dir, now=now, agg=agg)
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
    states = Counter(row["state"] for row in rows)
    summary = ", ".join(f"{n} {st}" for st, n in sorted(states.items()))
    lines.append(f"  {len(rows)} member(s): {summary}")
    return lines


def _logs_shrank(agg: FleetAggregator) -> bool:
    """Whether a log ``agg`` folded is gone or shorter than it read."""
    return any((os.path.getsize(path) if os.path.isfile(path) else 0) < end
               for path, end in agg.offsets.items())


def watch_status(run_dir: str, interval: float | None = None,
                 iterations: int | None = None, stream=None,
                 check: bool = False) -> int:
    """``obs-status`` driver: render once, or every ``interval`` seconds.

    Watch mode must behave like ``tail -f`` on a live run: each render
    folds on from the previous one, as the supervisor's export does, so
    each log byte is parsed once; Ctrl-C at any point (mid-render
    included) exits cleanly with status 0; and a run dir or log
    disappearing or shrinking between renders — members being cleaned
    up, an NFS blip — is folded afresh, and shows up as a placeholder row
    instead of a traceback.  ``iterations`` bounds the number of renders
    (for tests).  ``check`` folds once, renders, then lists every
    :func:`check_run_dir` problem and exits 1 when there is one.  A single
    render or check of a path that is not a directory prints one line to
    stderr and returns 2.
    """
    out = stream if stream is not None else sys.stdout
    if (check or interval is None) and not os.path.isdir(run_dir):
        print(f"obs-status: {run_dir}: not a directory", file=sys.stderr)
        return 2
    if check:
        fold = fold_run_dir(run_dir)
        problems = check_run_dir(run_dir, fold)
        verdict = "INVALID" if problems else "OK"
        for line in (status_lines(run_dir, agg=fold[0]) + problems
                     + [f"{run_dir}: {len(problems)} problem(s) -> {verdict}"]):
            print(line, file=out)
        return 1 if problems else 0
    agg = None
    n = 0
    try:
        while True:
            try:
                if agg is None or _logs_shrank(agg):
                    agg = FleetAggregator(run_dir)
                fold_run_dir(run_dir, agg)
                lines = status_lines(run_dir, agg=agg)
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
