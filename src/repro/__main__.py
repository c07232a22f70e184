"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print version and a summary of the available subsystems.
``quickstart``
    Run the coupled Earth-ocean quickstart simulation.
``scenario-a [--t-end T]``
    Scaled Scenario-A benchmark: fully coupled vs one-way linked (Fig. 3).
``palu [--t-end T]``
    Scaled Palu supershear earthquake-tsunami scenario (Fig. 1).
``scaling``
    Strong-scaling study on the simulated machines (Fig. 6).
``acoustics``
    Acoustic + gravity wave dispersion demonstration.

The simulation commands (``quickstart``, ``scenario-a``, ``palu``) accept
the resilience options ``--checkpoint-every S`` (simulated seconds between
atomic on-disk checkpoints), ``--checkpoint-dir DIR``, and ``--resume
[PATH]`` (restart from a checkpoint file, or the newest checkpoint in a
directory).  Checkpointed runs are supervised: a NaN/energy/CFL watchdog
triggers rollback to the last snapshot with timestep backoff instead of
silently corrupting the run.

They also accept the execution-backend options ``--backend
serial|partitioned`` and ``--workers N`` (thread-pool size for the
partitioned backend; see README "Parallel execution"), and the
observability options ``--profile`` (phase telemetry + roofline report at
exit), ``--trace PATH`` (span timeline exported as Chrome-trace/Perfetto
JSON), ``--log-json PATH`` (structured JSONL run records) and
``--heartbeat-every N`` (heartbeat period in steps; see README
"Observability").

``obs-report RUN.jsonl [--node NAME] [--check]``
    Summarize a structured run log: manifest, heartbeats, resilience
    events, and — for profiled runs — the per-phase breakdown with
    measured-vs-modeled GFLOP/s.  ``--check`` validates every record
    against the schema first and exits non-zero on errors.
``obs-trace RUN.trace.json [--check]``
    Summarize a ``--trace`` export: wall span, per-lane busy/idle,
    hottest span names, critical-path estimate and halo-gather vs
    compute overlap.  ``--check`` validates the Chrome-trace schema
    first and exits non-zero on errors.  With ``--merge ENSEMBLE_DIR``
    the per-member worker traces of an ensemble run are stitched into
    one wall-clock-aligned Perfetto timeline (one process lane per
    member, supervisor events as instant markers) written to ``--out``.
``obs-status RUN_DIR [--watch N]``
    Render the fleet status table of an ensemble run directory (member,
    state, step, simulated time, wall rate, energy drift, retries,
    heartbeat staleness, classifier verdict) from its on-disk artifacts;
    ``--watch N`` re-renders every N seconds until Ctrl-C (clean exit,
    tolerant of the run dir disappearing mid-watch).
``obs-diagnose BUNDLE [--check]``
    Classify a ``*.blackbox.json`` diagnostic bundle dumped by the
    flight recorder on a terminal fault: validates the bundle schema and
    fingerprint, then prints a structured verdict (``nan_origin`` |
    ``energy_blowup`` | ``cfl_collapse`` | ``worker_death`` |
    ``unknown``) with its evidence lines.  ``--check`` exits non-zero on
    a schema-invalid bundle (see README "Postmortem debugging").
``sched-plan N [--rate R] [--n-macro M] [--full]``
    Compile the clustered step plan for ``N`` LTS clusters (chain
    adjacency) and print its cadence — micro-step counts per cluster,
    sync points and, with ``--full``, every window with its
    consume/publish actions (see README "Scheduler").
``ensemble --members N [--workers W] [--scenario S] ...``
    Run a supervised multi-process ensemble of perturbed scenario
    members (see README "Ensemble runs").  Worker processes heartbeat to
    the supervisor; hangs (``--member-timeout``), deaths, and corrupt
    results are retried with backoff, checkpoint-resume, and timestep
    backoff (``--max-retries`` strikes) before a member is quarantined.
    The driver always terminates with a complete per-member summary and
    an ``ensemble.json``/``ensemble.jsonl`` artifact pair in ``--out``.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro", description="3D acoustic-elastic coupling with gravity (SC'21 reproduction)"
    )
    sub = ap.add_subparsers(dest="command")

    def add_resilience_args(p):
        p.add_argument(
            "--checkpoint-every", type=float, default=None, metavar="S",
            help="write an atomic checkpoint every S simulated seconds",
        )
        p.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="directory for rotating checkpoints (enables the watchdog)",
        )
        p.add_argument(
            "--resume", default=None, metavar="PATH",
            help="resume from a checkpoint file or the newest one in a directory",
        )

    def add_backend_args(p):
        from repro.exec import available_backends

        p.add_argument(
            "--backend", default="serial", choices=available_backends(),
            help="execution backend (default: serial)",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="thread-pool size for the partitioned backend",
        )

    from repro.obs import add_obs_args

    sub.add_parser("info", help="version and subsystem summary")
    p_q = sub.add_parser("quickstart", help="coupled Earth-ocean quickstart")
    p_q.add_argument("--t-end", type=float, default=2.5)
    add_resilience_args(p_q)
    add_backend_args(p_q)
    add_obs_args(p_q)
    p_a = sub.add_parser("scenario-a", help="Scenario-A coupled vs linked (Fig. 3)")
    p_a.add_argument("--t-end", type=float, default=6.0)
    add_resilience_args(p_a)
    add_backend_args(p_a)
    add_obs_args(p_a)
    p_p = sub.add_parser("palu", help="Palu supershear scenario (Fig. 1)")
    p_p.add_argument("--t-end", type=float, default=4.0)
    add_resilience_args(p_p)
    add_backend_args(p_p)
    add_obs_args(p_p)
    sub.add_parser("scaling", help="strong scaling on simulated machines (Fig. 6)")
    sub.add_parser("acoustics", help="acoustic/gravity dispersion demo")
    p_r = sub.add_parser("obs-report", help="summarize a JSONL run log")
    p_r.add_argument("runlog", help="path to a --log-json run log")
    p_r.add_argument("--node", default="rome",
                     help="roofline node model (default: rome)")
    p_r.add_argument("--check", action="store_true",
                     help="validate every record against the schema first")
    p_t = sub.add_parser("obs-trace", help="summarize a Chrome-trace/Perfetto export")
    p_t.add_argument("trace", help="path to a --trace JSON export, or an "
                     "ensemble run dir with --merge")
    p_t.add_argument("--check", action="store_true",
                     help="validate the Chrome-trace schema first")
    p_t.add_argument("--merge", action="store_true",
                     help="treat the positional as an ensemble run dir and "
                     "merge per-member traces into one timeline")
    p_t.add_argument("--out", default=None, metavar="PATH",
                     help="merged trace output path "
                     "(default: <dir>/ensemble.trace.json)")
    p_st = sub.add_parser("obs-status",
                          help="fleet status table of an ensemble run dir")
    p_st.add_argument("run_dir", help="ensemble out-dir "
                      "(holds ensemble.jsonl and per-member dirs)")
    p_st.add_argument("--watch", type=float, default=None, metavar="N",
                      help="re-render every N seconds until interrupted")
    p_d = sub.add_parser("obs-diagnose",
                         help="classify a *.blackbox.json diagnostic bundle")
    p_d.add_argument("bundle", help="path to a diagnostic bundle, or a "
                     "directory (classifies the newest bundle in it)")
    p_d.add_argument("--check", action="store_true",
                     help="exit non-zero when the bundle fails schema or "
                     "fingerprint validation")
    p_e = sub.add_parser("ensemble",
                         help="supervised multi-process scenario ensemble")
    p_e.add_argument("--members", type=int, default=4, metavar="N",
                     help="number of perturbed ensemble members (default 4)")
    p_e.add_argument("--workers", type=int, default=2, metavar="W",
                     help="concurrent worker processes; 0 = degraded "
                     "in-process mode (default 2)")
    p_e.add_argument("--scenario", default="quickstart",
                     help="registered scenario builder "
                     "(quickstart | scenario_a | palu; default quickstart)")
    p_e.add_argument("--t-end", type=float, default=0.5,
                     help="simulated seconds per member (default 0.5)")
    p_e.add_argument("--seed", type=int, default=0,
                     help="base seed; member k runs with seed+k (default 0)")
    p_e.add_argument("--max-retries", type=int, default=3, metavar="R",
                     help="process-level strikes before quarantine (default 3)")
    p_e.add_argument("--member-timeout", type=float, default=120.0,
                     metavar="S",
                     help="seconds without a heartbeat before a member is "
                     "declared hung and killed (default 120)")
    p_e.add_argument("--checkpoint-every", type=float, default=None,
                     metavar="S",
                     help="per-member checkpoint cadence in simulated "
                     "seconds (enables mid-run resume after a death)")
    p_e.add_argument("--out", default="out/ensemble", metavar="DIR",
                     help="artifact root (default out/ensemble)")
    p_e.add_argument("--backend", default="serial",
                     help="execution backend inside each member "
                     "(default serial)")
    p_e.add_argument("--no-metrics", action="store_true",
                     help="disable the per-member metric registry (on by "
                     "default: heartbeats carry snapshots, the supervisor "
                     "exports fleet.prom/fleet.jsonl)")
    p_e.add_argument("--trace", action="store_true",
                     help="record a span timeline per member "
                     "(<member>/trace.json; merge with "
                     "`obs-trace --merge DIR`)")
    p_s = sub.add_parser("sched-plan",
                         help="compile and print a clustered step plan")
    p_s.add_argument("n_clusters", type=int, help="number of LTS clusters")
    p_s.add_argument("--rate", type=int, default=2,
                     help="timestep ratio between clusters (default: 2)")
    p_s.add_argument("--n-macro", type=int, default=1,
                     help="macro steps to compile (default: 1)")
    p_s.add_argument("--full", action="store_true",
                     help="print every micro-step with its actions")
    args = ap.parse_args(argv)

    if args.command is None:
        ap.print_help()
        return 1
    if args.command == "info":
        import repro

        print(f"repro {repro.__version__} — SC'21 Palu earthquake-tsunami reproduction")
        print(__doc__)
        return 0
    if args.command == "obs-report":
        from repro.obs.report import KNOWN_NODES, summarize_runlog

        if args.node not in KNOWN_NODES:
            print(f"unknown node {args.node!r} (known: {', '.join(KNOWN_NODES)})")
            return 2
        return summarize_runlog(args.runlog, node=args.node, check=args.check)
    if args.command == "obs-trace":
        from repro.obs.trace import merge_chrome_traces, summarize_trace_file

        path = args.trace
        if args.merge:
            import os

            out = args.out or os.path.join(path, "ensemble.trace.json")
            try:
                doc = merge_chrome_traces(path, out_path=out)
            except FileNotFoundError as exc:
                print(f"obs-trace: {exc}")
                return 2
            meta = doc["otherData"]
            print(f"merged {len(meta['members'])} member trace(s), "
                  f"{meta['spans']} span(s), "
                  f"{meta['supervisor_events']} supervisor event(s) "
                  f"-> {out}")
            path = out
        return summarize_trace_file(path, check=args.check)
    if args.command == "obs-status":
        from repro.obs.fleet import watch_status

        return watch_status(args.run_dir, interval=args.watch)
    if args.command == "obs-diagnose":
        from repro.obs.blackbox import diagnose_bundle_file

        return diagnose_bundle_file(args.bundle, check=args.check)
    if args.command == "ensemble":
        from repro.ensemble import (
            MemberSpec,
            RetryPolicy,
            Supervisor,
            available_builders,
        )

        if args.scenario not in available_builders():
            print(f"unknown scenario {args.scenario!r} "
                  f"(registered: {', '.join(available_builders())})")
            return 2
        if args.members < 1:
            print("--members must be >= 1")
            return 2
        specs = [
            MemberSpec(
                member_id=f"member_{k:04d}",
                builder=args.scenario,
                seed=args.seed + k,
                t_end=args.t_end,
                checkpoint_every=args.checkpoint_every,
                backend=args.backend,
                metrics=not args.no_metrics,
                trace=args.trace,
            )
            for k in range(args.members)
        ]
        supervisor = Supervisor(
            specs,
            workers=args.workers,
            retry=RetryPolicy(max_retries=args.max_retries),
            member_timeout=args.member_timeout,
            out_dir=args.out,
            verbose=True,
        )
        result = supervisor.run()
        for line in result.lines():
            print(line)
        print(f"artifacts: {args.out}/ensemble.json, "
              f"{args.out}/ensemble.jsonl, per-member dirs")
        if not args.no_metrics:
            print(f"fleet metrics: {args.out}/fleet.prom, "
                  f"{args.out}/fleet.jsonl "
                  f"(live view: python -m repro obs-status {args.out})")
        # graceful degradation is still a degraded run: signal it
        return 3 if result.degraded else 0
    if args.command == "sched-plan":
        from repro.sched import CONSUME_TAYLOR, compile_step_plan, step_plan_key

        nc = args.n_clusters
        # the normalized clustering guarantees neighbor levels differ by at
        # most one, so the chain is the canonical adjacency to preview
        adjacency = [
            [n for n in (c - 1, c + 1) if 0 <= n < nc] for c in range(nc)
        ]
        plan = compile_step_plan(nc, args.rate, args.n_macro, adjacency)
        key = step_plan_key(nc, args.rate, args.n_macro, adjacency)
        print(f"step plan: {nc} cluster(s), rate {plan.rate}, "
              f"{plan.n_macro} macro step(s)  [key {key[:12]}]")
        print(f"  micro-steps: {plan.n_micro}  syncs: {plan.n_sync}  "
              f"span: {plan.end_int} x dt_min")
        counts = [int((plan.cluster == c).sum()) for c in range(nc)]
        for c in range(nc):
            print(f"  cluster {c}: window {int(plan.steps[c])} x dt_min, "
                  f"{counts[c]} update(s)")
        if args.full:
            for i in range(plan.n_micro):
                acts = ", ".join(
                    f"{'taylor' if m == CONSUME_TAYLOR else 'buffer'}(c{int(cn)}"
                    + (f"@+{int(off)}" if m == CONSUME_TAYLOR else "") + ")"
                    for cn, m, off in plan.consumes(i)
                )
                sync = int(plan.sync_after[i])
                print(f"  [{i:3d}] c{int(plan.cluster[i])} "
                      f"t=[{int(plan.t_int[i])},"
                      f"{int(plan.t_int[i] + plan.steps[plan.cluster[i]])})"
                      + (f"  consume: {acts}" if acts else "")
                      + (f"  sync@{sync}" if sync >= 0 else ""))
        return 0

    # the runnable demos live in <repo>/examples (editable install layout)
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    examples_dir = os.path.join(repo_root, "examples")
    if not os.path.isdir(examples_dir):
        print("examples/ directory not found (CLI demos need the source checkout)")
        return 2
    sys.path.insert(0, examples_dir)

    from repro.obs import obs_kwargs

    if args.command == "quickstart":
        from quickstart import main as run

        run(args.t_end, args.checkpoint_every, args.checkpoint_dir, args.resume,
            backend=args.backend, workers=args.workers, **obs_kwargs(args))
    elif args.command == "scenario-a":
        from scenario_a_benchmark import main as run

        run(args.t_end, checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            backend=args.backend, workers=args.workers, **obs_kwargs(args))
    elif args.command == "palu":
        from palu_bay import main as run

        run(args.t_end, args.checkpoint_every, args.checkpoint_dir, args.resume,
            backend=args.backend, workers=args.workers, **obs_kwargs(args))
    elif args.command == "scaling":
        from scaling_study import main as run

        run()
    elif args.command == "acoustics":
        from ocean_acoustics import main as run

        run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
