"""The ensemble supervisor: assign, watch, retry, quarantine — never crash.

:class:`Supervisor` shards :class:`~repro.ensemble.spec.MemberSpec`\\ s
across persistent OS worker processes (at most ``workers`` of them,
started inside :meth:`Supervisor.run` as members come due) and keeps the
fleet healthy under real failures.  On Linux a worker is a ``fork`` of
the supervising process: it starts with ``repro`` imported and the
parent's plan cache warm.  ``spawn`` — a fresh interpreter that pays the
start and ``import repro`` once — is the fallback where ``fork`` is
unsafe: another OS, or a parent running more than one thread, whose
locks a child could inherit held.  A worker keeps its plan cache warm
from one member to the next; every attempt is sent down the worker's own
pipe, pickled, so it starts from a fresh spec and injector:

* **heartbeats** — a worker reports per-sync-point liveness up its pipe;
  a member that stops beating for ``member_timeout`` seconds is declared
  hung, its worker SIGKILLed, and the member retried;
* **deaths** — a worker that dies while holding a member (kill -9, OOM,
  segfault, an unhandled exception's exit status 3) is a strike; the
  member retries under the :class:`~repro.ensemble.retry.RetryPolicy`
  escalation ladder (backoff-with-jitter → checkpoint-resume → dt-scale
  reduction).  A worker that dies idle costs nothing: the next member
  gets a new one;
* **corrupt results** — an attempt that reports ``done`` without a valid
  result file of its own (torn write, stale attempt) is treated exactly
  like a death;
* **start failures** — a worker that cannot be started (``fork`` or
  ``spawn`` raising: no memory, a process limit) is a strike too, booked
  as ``spawn failed: …`` against the member it was started for;
* **clean retries** — the worker of any struck attempt is retired, alive
  or not, so a retry never runs in the interpreter that failed it; only
  a worker whose every attempt succeeded is reused;
* **quarantine** — a member that exhausts its strikes is retired with its
  full attempt history as a diagnosis; the rest of the fleet keeps
  running and the driver still terminates with a complete
  :class:`~repro.ensemble.result.EnsembleResult`.

The supervisor sleeps in ``multiprocessing.connection.wait`` on the busy
workers' pipes and every worker's sentinel, so a finished member or a
dead worker wakes it at once; :data:`POLL_INTERVAL_S` is only how often
it looks for heartbeat silence.  Every worker is joined before ``run()``
returns.

Supervisor-level events (``member_start`` / ``member_retry`` /
``member_quarantined`` / ``member_end`` / ``ensemble_summary``) stream
into ``<out_dir>/ensemble.jsonl`` (a :class:`~repro.obs.runlog.RunLog`)
alongside each member's own run log.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

from ..obs.blackbox import (
    BUNDLE_SUFFIX,
    build_bundle,
    classify_bundle,
    find_bundles,
    load_bundle,
    write_bundle,
)
from ..obs.fleet import FleetAggregator
from ..obs.runlog import RunLog, read_records
from .result import EnsembleResult, MemberResult
from .retry import RetryPolicy
from .spec import MemberSpec
from .worker import load_result, member_paths, worker_main

__all__ = ["Supervisor"]

ENSEMBLE_LOG = "ensemble.jsonl"
ENSEMBLE_RESULT = "ensemble.json"

#: seconds between periodic fleet.prom exports mid-run
METRICS_EXPORT_EVERY = 2.0
#: seconds a worker told to exit gets before it is killed
REAP_GRACE_S = 5.0
#: longest the supervisor sleeps before looking for heartbeat silence;
#: worker messages and deaths wake it at once
POLL_INTERVAL_S = 0.05


class _Member:
    """Supervision bookkeeping for one member (parent-side only)."""

    __slots__ = (
        "spec", "paths", "attempts", "strikes", "history",
        "next_start", "resume", "dt_scale", "last_beat", "first_wall",
        "last_error", "result",
    )

    def __init__(self, spec: MemberSpec, out_dir: str):
        self.spec = spec
        self.paths = member_paths(out_dir, spec.member_id)
        self.attempts = 0
        self.strikes = 0
        self.history: list[dict] = []
        self.next_start = 0.0  # monotonic gate for backoff delays
        self.resume = False
        self.dt_scale = 1.0
        self.last_beat = 0.0
        self.first_wall = None
        self.last_error = None
        self.result: MemberResult | None = None

    @property
    def done(self) -> bool:
        return self.result is not None


class _Worker:
    """One persistent worker process, seen from the parent: its pipe and
    the member whose attempt it is running (``None``: idle)."""

    __slots__ = ("proc", "conn", "member")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.member: _Member | None = None


def _reap(workers) -> None:
    """Tell ``workers`` to exit (one already dead or killed cannot hear
    it) and join them — killing any that outlives the grace period — so
    their CPU time and peak memory are on the parent's books."""
    for w in workers:
        try:
            w.conn.send(None)
        except OSError:
            pass
    deadline = time.monotonic() + REAP_GRACE_S
    for w in workers:
        w.proc.join(max(0.0, deadline - time.monotonic()))
        if w.proc.exitcode is None:
            w.proc.kill()
            w.proc.join()
        w.proc.close()
        w.conn.close()


class Supervisor:
    """Fault-tolerant multi-process driver for an ensemble of members.

    Parameters
    ----------
    specs:
        The ensemble members.  Member ids must be unique.
    workers:
        Most worker processes alive at once (at least 1), each running
        one member at a time.
    retry:
        The process-level :class:`RetryPolicy` (strikes, backoff,
        escalation).
    member_timeout:
        Seconds without a heartbeat before a running member is declared
        hung and its worker killed.
    out_dir:
        Root for all artifacts: ``<out_dir>/<member_id>/`` per member,
        plus the ensemble run log and result JSON.
    """

    def __init__(
        self,
        specs,
        workers: int = 2,
        retry: RetryPolicy | None = None,
        member_timeout: float = 120.0,
        out_dir: str = "out/ensemble",
        verbose: bool = False,
    ):
        specs = list(specs)
        ids = [s.member_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("member ids must be unique")
        if workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {workers}: every member attempt "
                "runs in a worker process")
        if member_timeout <= 0:
            raise ValueError("member_timeout must be positive (seconds)")
        self.specs = specs
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy()
        self.member_timeout = member_timeout
        self.out_dir = out_dir
        self.verbose = verbose
        #: fleet-level metric aggregation (fed by heartbeat snapshots and
        #: result files; exports fleet.prom under out_dir)
        self.aggregator = FleetAggregator(out_dir=out_dir)
        self._last_export = 0.0

    # ------------------------------------------------------------------
    def run(self) -> EnsembleResult:
        """Run the whole ensemble to a terminal state; never raises for
        member failures (only for driver-level misconfiguration)."""
        os.makedirs(self.out_dir, exist_ok=True)
        log = RunLog(os.path.join(self.out_dir, ENSEMBLE_LOG))
        wall0 = time.perf_counter()
        members = [_Member(s, self.out_dir) for s in self.specs]
        try:
            self._supervise(members, log)
        finally:
            # over the members that reached a terminal state — all of them,
            # unless a driver-level error is on its way up
            wall_s = time.perf_counter() - wall0
            result = EnsembleResult(
                members=[m.result for m in members if m.done],
                wall_s=wall_s,
                workers=self.workers,
                runlog_path=log.path,
            )
            c = result.counts
            log.emit("ensemble_summary", members=len(members), ok=c["ok"],
                     recovered=c["recovered"], quarantined=c["quarantined"],
                     wall_s=wall_s)
            self._export_metrics(force=True)
            log.close()
        result.save(os.path.join(self.out_dir, ENSEMBLE_RESULT))
        if self.verbose:
            for line in result.lines():
                print(f"[ensemble] {line}")
        return result

    # ------------------------------------------------------------------
    def _supervise(self, members, log) -> None:
        # sockets + selectors, 3 ms: paid here, not by `import repro`
        from multiprocessing.connection import wait

        pool: list[_Worker] = []
        pending = list(members)
        try:
            while True:
                now = time.monotonic()
                # hand each free worker the next member whose backoff gate
                # has passed
                while pending:
                    m = next((m for m in pending if m.next_start <= now), None)
                    if m is None:
                        break
                    w = next((w for w in pool if w.member is None), None)
                    if w is None and len(pool) >= self.workers:
                        break
                    if m.first_wall is None:
                        # there is room for m: its clock starts here, so a
                        # worker started for it is on its bill
                        m.first_wall = time.perf_counter()
                    if w is None:
                        try:
                            w = self._start_worker(pool)
                        except (OSError, ValueError) as exc:
                            # the attempt never ran: a strike like a death
                            m.attempts += 1
                            m.last_error = None
                            self._strike(m, log, f"spawn failed: {exc}")
                            if m.done:
                                pending.remove(m)
                            continue
                        pool.append(w)
                    if self._assign(m, w, log):
                        pending.remove(m)
                    else:  # it died idle and nobody had noticed
                        pool.remove(w)
                        _reap([w])
                busy = [w for w in pool if w.member is not None]
                if not busy and not pending:
                    break
                timeout = POLL_INTERVAL_S if busy else 0.5
                if pending and len(busy) < self.workers:
                    # room, but everyone pending is backing off: sleep no
                    # longer than until the next gate
                    gate = min(m.next_start for m in pending)
                    timeout = max(0.0, min(timeout, gate - time.monotonic()))
                wait([w.conn for w in busy]
                     + [w.proc.sentinel for w in pool], timeout)
                for w in busy:
                    m = w.member
                    # read before draining: whatever a worker found dead
                    # here had to say is in the pipe by now
                    code = w.proc.exitcode
                    # no retry runs where an attempt failed: only a worker
                    # whose attempt succeeded stays in the pool
                    keep = False
                    if self._drain(w):
                        # `done`: the attempt ran to its end, which is what
                        # exit code 0 used to say
                        w.member = None
                        keep = self._classify_exit(m, log, 0)
                    elif code is not None:
                        self._classify_exit(m, log, code)
                    elif time.monotonic() - m.last_beat > self.member_timeout:
                        w.proc.kill()
                        w.proc.join()
                        self._strike(
                            m, log,
                            f"heartbeat_timeout after {self.member_timeout:g}s",
                        )
                    else:
                        continue
                    if not keep:
                        pool.remove(w)
                        _reap([w])
                    if not m.done:  # retry scheduled: back into the pool
                        pending.append(m)
                # a worker that died idle cost nobody an attempt
                for w in [w for w in pool if w.member is None
                          and w.proc.exitcode is not None]:
                    pool.remove(w)
                    _reap([w])
                self._export_metrics()
        finally:
            # every child is reaped before run() returns; one still holding
            # a member (only when an error is on its way up) is killed
            for w in pool:
                if w.member is not None:
                    w.proc.kill()
            _reap(pool)

    def _start_worker(self, pool) -> _Worker:
        """Start one persistent worker beside ``pool``; raises what the
        start raised when no process can be started."""
        method = "fork" if _can_fork() else "spawn"
        ctx = multiprocessing.get_context(method)
        conn, child_conn = ctx.Pipe()
        # a forked child holds a copy of every supervisor-side pipe end
        # open now; it closes them, or a hung sibling would keep the
        # others from reading EOF when the supervisor dies
        inherited = ((conn, *(w.conn for w in pool)) if method == "fork"
                     else ())
        try:
            proc = ctx.Process(target=worker_main,
                               args=(child_conn, inherited), daemon=True)
            proc.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child_conn.close()  # the child holds its own copy
        return _Worker(proc, conn)

    def _assign(self, m: _Member, w: _Worker, log) -> bool:
        """Send ``m``'s next attempt to the idle worker ``w``; ``False``
        when the worker turns out to be dead (nothing is charged to ``m``).
        """
        try:
            w.conn.send((m.spec, m.paths["dir"], m.attempts + 1, m.resume,
                         m.dt_scale))
        except OSError:
            return False
        w.member = m
        m.attempts += 1
        m.last_beat = time.monotonic()
        m.last_error = None
        self.aggregator.update(m.spec.member_id, state="running")
        log.emit("member_start", member=m.spec.member_id, attempt=m.attempts,
                 scenario=m.spec.builder, pid=w.proc.pid,
                 metrics=self._brief(m))
        if self.verbose:
            print(f"[ensemble] {m.spec.member_id}: attempt {m.attempts} "
                  f"(pid {w.proc.pid}, resume={m.resume}, "
                  f"dt_scale={m.dt_scale:g})")
        return True

    def _drain(self, w: _Worker) -> bool:
        """Take in what ``w`` has sent about the member it holds; ``True``
        once its ``done`` message is in."""
        m = w.member
        while True:
            try:
                if not w.conn.poll():
                    return False
                msg = w.conn.recv()
            except (EOFError, OSError):
                return False  # it died; its sentinel says how
            m.last_beat = time.monotonic()
            self._heard(m, msg)
            if msg.get("kind") == "error":
                m.last_error = msg.get("error")
            elif msg.get("kind") == "done":
                return True

    def _classify_exit(self, m: _Member, log, code: int) -> bool:
        """Book the end of ``m``'s attempt; ``True`` when it succeeded."""
        if code == 0:
            result = load_result(m.paths["result"])
            if result is None or result.get("attempt") != m.attempts:
                # ran to its end but no usable result for THIS attempt: a
                # torn or stale publish — strike it like a death
                self._strike(m, log, "corrupt_result")
            elif result.get("status") == "diverged":
                self._strike(m, log, f"diverged: {result.get('diverged')}")
            else:
                self._succeed(m, log, result)
                return True
        elif code < 0:
            self._strike(m, log, f"killed by signal {-code}")
        else:
            reason = f"exited with status {code}"
            if m.last_error:
                reason += f" ({m.last_error})"
            self._strike(m, log, reason)
        return False

    # -- fleet metrics -------------------------------------------------
    def _heard(self, m: _Member, msg: dict) -> None:
        """Fold a worker message — runner step, simulated time, metric
        snapshot — into the aggregator: supervisor events carry its briefs
        and ``fleet.prom`` stays live off it."""
        self.aggregator.update(m.spec.member_id, msg.get("metrics"),
                               wall=msg.get("wall"), step=msg.get("step"),
                               sim_t=msg.get("sim_t"))

    def _brief(self, m: _Member) -> dict:
        """The member's digest (runner step, sim_t, rate, energy drift)
        for embedding in supervisor run-log events — a quarantine record
        must be diagnosable from the JSONL log alone."""
        return self.aggregator.member_brief(m.spec.member_id)

    def _export_metrics(self, force: bool = False) -> None:
        """Write fleet.prom (rate-limited unless forced)."""
        if not self.aggregator.members:
            return
        now = time.monotonic()
        if not force and now - self._last_export < METRICS_EXPORT_EVERY:
            return
        self._last_export = now
        try:
            self.aggregator.export()
        except OSError:
            pass  # an unwritable exporter must never take down the fleet

    # -- black-box forensics -------------------------------------------
    def _collect_bundle(self, m: _Member, reason: str):
        """Bundle path + document diagnosing this attempt's failure.

        Prefers a bundle the worker itself dumped *for this attempt*
        (divergence / unhandled exception); a process-level death leaves
        none, so the supervisor synthesizes one from what it can still
        see: the strike reason, the last heartbeat metrics and the tail
        of the member's run log as the ring.  Returns
        ``(path, doc)`` with ``path`` possibly ``None`` when even the
        synthesized dump cannot be written.
        """
        mdir = m.paths["dir"]
        for path in reversed(find_bundles(mdir)):
            try:
                doc = load_bundle(path)
            except (OSError, ValueError):
                continue
            if (doc.get("context") or {}).get("attempt") == m.attempts:
                return path, doc
        # no worker-side bundle for this attempt: synthesize one
        ring = [dict(rec, kind=rec.get("event", "record"))
                for rec in read_records(m.paths["runlog"])[0][-40:]]
        doc = build_bundle(
            kind="supervisor",
            reason=reason,
            ring=ring,
            context={"member": m.spec.member_id, "attempt": m.attempts},
            metrics=self.aggregator.member_snapshot(m.spec.member_id),
            extra={"exit": reason, "last_error": m.last_error},
        )
        path = os.path.join(
            mdir, f"supervisor-a{m.attempts:02d}{BUNDLE_SUFFIX}")
        try:
            os.makedirs(mdir, exist_ok=True)
            write_bundle(path, doc)
        except OSError:
            path = None  # classification still works off the document
        return path, doc

    # -- strike / succeed / quarantine ----------------------------------
    def _strike(self, m: _Member, log, reason: str) -> None:
        m.strikes += 1
        bundle, bundle_doc = self._collect_bundle(m, reason)
        verdict = classify_bundle(bundle_doc)
        decision = self.retry.decide(m.strikes, seed=m.spec.seed)
        entry = {
            "attempt": m.attempts,
            "reason": reason,
            "delay_s": decision.delay_s,
            "resume": decision.resume,
            "dt_scale": decision.dt_scale,
            "bundle": bundle,
            "verdict": verdict["verdict"],
        }
        m.history.append(entry)
        if decision.retry:
            m.resume = decision.resume
            m.dt_scale = decision.dt_scale
            m.next_start = time.monotonic() + decision.delay_s
            self.aggregator.update(m.spec.member_id, state="retrying")
            log.emit("member_retry", member=m.spec.member_id,
                     attempt=m.attempts, reason=reason,
                     delay_s=decision.delay_s, resume=decision.resume,
                     dt_scale=decision.dt_scale, bundle=bundle,
                     verdict=verdict["verdict"], metrics=self._brief(m))
            if self.verbose:
                print(f"[ensemble] {m.spec.member_id}: {reason} — retry "
                      f"{m.strikes}/{self.retry.max_retries} in "
                      f"{decision.delay_s:.2f}s")
        else:
            # the classifier verdict replaces the free-text diagnosis:
            # a quarantine record must answer *what class of fault* this
            # was, not just replay the last strike string
            evidence = verdict["evidence"][0] if verdict["evidence"] else reason
            diagnosis = (
                f"{verdict['verdict']} after {m.attempts} attempt(s): "
                f"{evidence}"
            )
            wall = time.perf_counter() - m.first_wall
            m.result = MemberResult(
                member_id=m.spec.member_id, status="quarantined",
                attempts=m.attempts, wall_s=wall, dt_scale=m.dt_scale,
                history=m.history, diagnosis=diagnosis,
                verdict=verdict["verdict"], bundle=bundle, paths=m.paths,
            )
            self.aggregator.update(m.spec.member_id, state="quarantined")
            log.emit("member_quarantined", member=m.spec.member_id,
                     attempts=m.attempts, diagnosis=diagnosis,
                     verdict=verdict["verdict"], bundle=bundle,
                     history=m.history, metrics=self._brief(m))
            log.emit("member_end", member=m.spec.member_id,
                     status="quarantined", attempts=m.attempts, wall_s=wall,
                     metrics=self._brief(m))
            if self.verbose:
                print(f"[ensemble] {m.spec.member_id}: {diagnosis}")

    def _succeed(self, m: _Member, log, result: dict) -> None:
        wall = time.perf_counter() - m.first_wall
        status = "ok" if m.strikes == 0 else "recovered"
        # verdict/bundle stay None even after earlier failed attempts: a
        # member that recovered on retry must not carry a stale bundle
        # path (the per-attempt dumps remain in its history entries)
        m.result = MemberResult(
            member_id=m.spec.member_id, status=status, attempts=m.attempts,
            wall_s=wall, dt_scale=float(result.get("dt_scale", m.dt_scale)),
            digest=result.get("digest"), summary=result.get("summary", {}),
            history=m.history, verdict=None, bundle=None, paths=m.paths,
        )
        # the result file carries the member's final snapshot and runner
        # step — authoritative over whatever heartbeat arrived last
        self.aggregator.update(m.spec.member_id, result.get("metrics"),
                               state=status, step=result.get("steps"),
                               sim_t=result.get("sim_t"))
        log.emit("member_end", member=m.spec.member_id, status=status,
                 attempts=m.attempts, wall_s=wall, metrics=self._brief(m))
        if self.verbose:
            print(f"[ensemble] {m.spec.member_id}: {status} after "
                  f"{m.attempts} attempt(s) in {wall:.2f}s")


def _can_fork() -> bool:
    """Whether a worker may be a ``fork`` of this process: on Linux, with
    no thread but this one (another thread could hold a lock the child
    inherits held).  Everywhere else a worker is spawned."""
    return sys.platform == "linux" and threading.active_count() == 1
