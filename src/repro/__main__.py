"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print version and a summary of the available subsystems.
``quickstart`` / ``scenario-a`` / ``palu [--t-end T]``
    Build the registered scenario (:func:`repro.scenarios.build`, seed
    0), run it with :func:`repro.scenarios.run` (clustered LTS for
    Scenario A, Fig. 3, and Palu, Fig. 1) and print its summary.  The
    figure narratives are the scripts in ``examples/``.

The simulation commands accept the resilience options
``--checkpoint-every S``, ``--checkpoint-dir DIR`` and ``--resume
[PATH]`` (a checkpoint file, or the newest readable one in a directory);
checkpointed runs are supervised: a NaN/energy/CFL watchdog triggers
rollback to the last snapshot with timestep backoff.  They also accept
``--backend serial|partitioned`` and ``--workers N`` (see README
"Parallel execution") and the observability options ``--profile``,
``--trace PATH``, ``--log-json PATH``, ``--heartbeat-every N`` and
``--metrics`` (see README "Observability").

``obs-report RUN.jsonl [--check]``
    Summarize a structured run log: manifest, heartbeats, resilience
    events, and — for profiled runs — the per-phase breakdown with
    measured-vs-modeled GFLOP/s on the paper's AMD Rome node.
    ``--check`` validates every record against the schema first and
    exits non-zero on errors.
``obs-trace RUN.trace.json``
    Check a ``--trace`` export (open it at https://ui.perfetto.dev):
    validates the Chrome-trace schema, prints its event, span and
    dropped counts, and exits non-zero on errors.  With ``--merge
    ENSEMBLE_DIR`` the per-member worker traces of an ensemble run are
    stitched into one wall-clock-aligned Perfetto timeline (one process
    lane per member, supervisor events as instant markers), written to
    ``--out`` and checked the same way.
``obs-status RUN_DIR [--watch N] [--check]``
    Render the fleet status table of an ensemble run directory (member,
    state, runner step, simulated time, wall rate, energy drift, retries,
    heartbeat staleness, classifier verdict) from its on-disk artifacts;
    ``--watch N`` re-renders every N seconds until Ctrl-C (clean exit,
    tolerant of the run dir disappearing mid-watch).  ``--check``
    validates the whole directory — every run log, ``fleet.prom``, every
    referenced bundle, each finished member's ``run_end`` metrics against
    its ``result.json`` — and exits non-zero naming each broken file.
    Without ``--watch``, a path that is not a directory prints one line
    to stderr and exits 2.
``obs-diagnose BUNDLE [--check]``
    Classify a ``*.blackbox.json`` diagnostic bundle dumped from the
    run log's ring on a terminal fault: validates the bundle schema and
    fingerprint, then prints a structured verdict (``nan_origin`` |
    ``energy_blowup`` | ``cfl_collapse`` | ``worker_death`` |
    ``unknown``) with its evidence lines.  ``--check`` exits non-zero on
    a schema-invalid bundle (see README "Postmortem debugging").
``sched-plan N [--rate R] [--full]``
    Compile the clustered step plan of one macro step for ``N`` LTS
    clusters (chain adjacency) and print its cadence — micro-step counts
    per cluster and, with ``--full``, every window with its
    consume/publish actions (see README "Scheduler").
``ensemble --members N [--workers W] [--scenario S] ...``
    Run a supervised multi-process ensemble of perturbed scenario
    members (see README "Ensemble runs").  Worker processes heartbeat to
    the supervisor; hangs (``--member-timeout``), deaths, workers that
    cannot start and corrupt results are retried with backoff,
    checkpoint-resume, and timestep backoff (``--max-retries`` strikes)
    before a member is quarantined.
    The driver always terminates with a complete per-member summary and
    an ``ensemble.json``/``ensemble.jsonl`` artifact pair in ``--out``.
"""

from __future__ import annotations

import argparse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro", description="3D acoustic-elastic coupling with gravity (SC'21 reproduction)"
    )
    sub = ap.add_subparsers(dest="command")

    from repro.scenarios import add_run_args

    sub.add_parser("info", help="version and subsystem summary")
    for verb, t_end, text in (
        ("quickstart", 2.5, "coupled Earth-ocean quickstart"),
        ("scenario-a", 6.0, "Scenario-A megathrust rupture (Fig. 3)"),
        ("palu", 4.0, "Palu supershear scenario (Fig. 1)"),
    ):
        add_run_args(sub.add_parser(verb, help=text), t_end)
    p_r = sub.add_parser("obs-report", help="summarize a JSONL run log")
    p_r.add_argument("runlog", help="path to a --log-json run log")
    p_r.add_argument("--check", action="store_true",
                     help="validate every record against the schema first")
    p_t = sub.add_parser("obs-trace", help="check a Chrome-trace/Perfetto export")
    p_t.add_argument("trace", help="path to a --trace JSON export, or an "
                     "ensemble run dir with --merge")
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
    p_st.add_argument("--check", action="store_true",
                      help="validate every artifact of the run dir; exit "
                      "non-zero on a problem")
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
                     help="worker processes alive at once, at least 1; a "
                     "worker that cannot start is a strike (default 2)")
    p_e.add_argument("--scenario", default="quickstart",
                     help="registered scenario "
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
    p_e.add_argument("--trace", action="store_true",
                     help="record a span timeline per member "
                     "(<member>/trace.json; merge with "
                     "`obs-trace --merge DIR`)")
    p_s = sub.add_parser("sched-plan",
                         help="compile and print a clustered step plan")
    p_s.add_argument("n_clusters", type=int, help="number of LTS clusters")
    p_s.add_argument("--rate", type=int, default=2,
                     help="timestep ratio between clusters (default: 2)")
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
        from repro.obs.report import summarize_runlog

        return summarize_runlog(args.runlog, check=args.check)
    if args.command == "obs-trace":
        from repro.obs.trace import check_trace_file, merge_chrome_traces

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
        return check_trace_file(path)
    if args.command == "obs-status":
        from repro.obs.fleet import watch_status

        return watch_status(args.run_dir, interval=args.watch,
                            check=args.check)
    if args.command == "obs-diagnose":
        from repro.obs.blackbox import diagnose_bundle_file

        return diagnose_bundle_file(args.bundle, check=args.check)
    if args.command == "ensemble":
        from repro.ensemble import MemberSpec, RetryPolicy, Supervisor
        from repro.scenarios import SCENARIOS

        try:
            SCENARIOS[args.scenario]  # noqa: B018
        except KeyError as exc:
            print(exc.args[0])
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
                trace=args.trace,
            )
            for k in range(args.members)
        ]
        try:
            supervisor = Supervisor(
                specs,
                workers=args.workers,
                retry=RetryPolicy(max_retries=args.max_retries),
                member_timeout=args.member_timeout,
                out_dir=args.out,
                verbose=True,
            )
        except ValueError as exc:
            print(f"ensemble: {exc}")
            return 2
        result = supervisor.run()
        for line in result.lines():
            print(line)
        print(f"artifacts: {args.out}/ensemble.json, "
              f"{args.out}/ensemble.jsonl, per-member dirs")
        print(f"fleet metrics: {args.out}/fleet.prom "
              f"(live view: python -m repro obs-status {args.out})")
        # graceful degradation is still a degraded run: signal it
        return 3 if result.degraded else 0
    if args.command == "sched-plan":
        from repro.sched import CONSUME_TAYLOR, compile_step_plan

        nc = args.n_clusters
        # the normalized clustering guarantees neighbor levels differ by at
        # most one, so the chain is the canonical adjacency to preview
        adjacency = [
            [n for n in (c - 1, c + 1) if 0 <= n < nc] for c in range(nc)
        ]
        try:
            plan = compile_step_plan(nc, args.rate, adjacency)
        except ValueError as exc:
            print(f"sched-plan: {exc}")
            return 2
        print(f"step plan: {nc} cluster(s), rate {plan.rate}, one macro step")
        print(f"  micro-steps: {plan.n_micro}  "
              f"span: {plan.macro} x dt_min, then sync")
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
                print(f"  [{i:3d}] c{int(plan.cluster[i])} "
                      f"t=[{int(plan.t_int[i])},"
                      f"{int(plan.t_int[i] + plan.steps[plan.cluster[i]])})"
                      + (f"  consume: {acts}" if acts else ""))
        return 0

    from repro.core.lts import LocalTimeStepping
    from repro.scenarios import SCENARIOS, build, run, run_options

    name = args.command.replace("-", "_")
    handle = build(name, backend=args.backend, workers=args.workers)
    solver = handle.solver
    lts = LocalTimeStepping(solver) if SCENARIOS[name].lts else None
    print(f"{args.command}: {solver.mesh.n_elements} elements, "
          f"{solver.n_dof} DOF, backend {solver.backend.describe()}"
          + (f", {lts.n_clusters} LTS clusters" if lts is not None else ""))
    run(solver, args.t_end, lts=lts, command=args.command, **run_options(args))
    print(f"t = {solver.t:.4g} s, energy {solver.energy():.4e} J")
    for key, value in handle.summarize(solver).items():
        print(f"{key}: {value:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
