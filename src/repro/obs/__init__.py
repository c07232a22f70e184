"""Observability: one instrument registry, run logs, reports, traces.

The measurement layer behind the paper's Sec. 5-6 performance story:

* :mod:`repro.obs.metrics` — the instrument registry of one run
  (counters, gauges, phase timers under the perf ledger's names and an
  optional bounded span buffer), with associative snapshot merging;
* :mod:`repro.obs.runlog` — the run record: :class:`RunLog`, the run's
  one event stream (manifest, heartbeats and ``run_end`` carrying their
  own registry snapshot, resilience events) in a bounded in-memory ring,
  the flight recorder, and, given a path, a JSONL file (every write
  ``fsync``'d); its one tolerant reader (:func:`read_records`) and its
  one schema (:func:`validate_record` / :func:`validate_jsonl`, behind
  ``obs-report --check``, ``obs-status --check`` and the perf ledger);
* :mod:`repro.obs.report` — the one answer to "where did the time go":
  the phase breakdown and the measured GFLOP/s of the kernels;
* :mod:`repro.obs.trace` — the registry's span buffer exported as
  Chrome-trace/Perfetto JSON timelines (one lane per partitioned worker,
  LTS cluster slices colored by cluster id), checked by ``obs-trace``;
* :mod:`repro.obs.fleet` — :class:`FleetAggregator`, the one fold of
  member state and snapshots from an ensemble's logs (progress is the
  heartbeat's runner step, its rate derived from the steps folded) and
  the one Prometheus renderer: the supervisor exports the fold as
  ``fleet.prom``, ``obs-status`` renders it and, with ``--check``,
  validates the run dir;
* :mod:`repro.obs.blackbox` — the postmortem: on any terminal fault the
  run log's ring is dumped as an atomic fingerprinted
  ``*.blackbox.json`` diagnostic bundle (NaN-origin localization,
  per-field statistics, thread stacks, run manifest) classified by the
  ``obs-diagnose`` CLI;
* :mod:`repro.obs.session` — :class:`ObsSession`, the one lifecycle of
  a run record: the run's registry and the instruments it attaches to
  the solver from outside (and takes off again), manifest, heartbeats
  (counters + gauges per beat), ``run_end`` (the final snapshot, phases
  included) and trace export, for the CLI's ``--profile`` /
  ``--trace`` / ``--log-json`` / ``--heartbeat-every`` / ``--metrics``
  flags and for every ensemble member alike.

Nothing below this package imports it but
:mod:`repro.core.resilience` (the run log and the black box), which the
layering test names with the change that removes it.  The namespace is
lazy (:mod:`repro._lazy`): ``from repro.obs import ObsSession`` and
``import repro.obs.blackbox`` resolve on first use, so a run that
observes nothing loads no ``repro.obs`` module.
"""

from .._lazy import lazy_namespace

__all__, __getattr__ = lazy_namespace(__name__, {
    "trace": ("TRACE_SCHEMA_VERSION", "chrome_trace", "export_chrome_trace",
              "load_trace", "merge_chrome_traces", "check_trace_file",
              "validate_chrome_trace"),
    "runlog": ("RunLog", "run_manifest", "read_records", "validate_record",
               "validate_jsonl", "EVENT_FIELDS", "SCHEMA_VERSION"),
    "metrics": ("METRICS_SCHEMA_VERSION", "MetricRegistry", "TraceBuffer",
                "merge_snapshots"),
    "fleet": ("FleetAggregator", "fold_run_dir", "status_rows",
              "status_lines", "check_run_dir", "watch_status",
              "validate_prometheus"),
    "blackbox": ("BUNDLE_SCHEMA_VERSION", "build_bundle",
                 "write_bundle", "dump_bundle", "load_bundle",
                 "validate_bundle", "classify_bundle", "find_bundles",
                 "newest_bundle", "diagnose_bundle_file"),
    "session": ("ObsSession",),
})
