"""Observability: one instrument registry, run logs, reports, traces.

The measurement layer behind the paper's Sec. 5-6 performance story:

* :mod:`repro.obs.metrics` — the one default-off, process-global
  instrument registry (counters, gauges, hierarchical phase timers and
  an optional bounded span buffer) pulsed from the solver's hot paths,
  with associative snapshot merging;
* :mod:`repro.obs.runlog` — the run record: :class:`RunLog`, the run's
  one event stream (manifest, heartbeats and ``run_end`` carrying their
  own registry snapshot, resilience events) in a bounded in-memory ring,
  the flight recorder, and, given a path, a JSONL file (every write
  ``fsync``'d); its one tolerant reader (:func:`read_records`) and its
  one schema (:func:`validate_record` / :func:`validate_jsonl`, behind
  ``obs-report --check``, ``obs-status --check`` and the perf ledger);
* :mod:`repro.obs.report` — the one answer to "where did the time go":
  the phase breakdown and measured-vs-modeled GFLOP/s against
  :mod:`repro.hpc.perfmodel`'s Rome node (imported lazily: it pulls in
  the HPC models);
* :mod:`repro.obs.trace` — the registry's span buffer exported as
  Chrome-trace/Perfetto JSON timelines (one lane per partitioned worker,
  LTS cluster slices colored by cluster id), checked by ``obs-trace``;
* :mod:`repro.obs.fleet` — :class:`FleetAggregator`, the supervisor's
  one fold of member state and snapshots (progress is the heartbeat's
  runner step, its rate derived from the steps folded) and the one
  Prometheus renderer (``fleet.prom``), which ``obs-status`` rebuilds
  offline from a run dir to render it and, with ``--check``, validate it;
* :mod:`repro.obs.blackbox` — the postmortem: on any terminal fault the
  run log's ring is dumped as an atomic fingerprinted
  ``*.blackbox.json`` diagnostic bundle (NaN-origin localization,
  per-field statistics, thread stacks, run manifest) classified by the
  ``obs-diagnose`` CLI;
* :mod:`repro.obs.session` — :class:`ObsSession`, the one lifecycle of
  a run record: registry reset / enable / disable, manifest, heartbeats
  (counters + gauges per beat), ``run_end`` (the final snapshot, phases
  included) and trace export, for the CLI's ``--profile`` /
  ``--trace`` / ``--log-json`` / ``--heartbeat-every`` / ``--metrics``
  flags and for every ensemble member alike.

The package namespace is lazy (:mod:`repro._lazy`): ``from repro.obs
import ObsSession`` and ``import repro.obs.blackbox`` resolve on first
use, so the solver core's ``from ..obs.metrics import get_metrics`` does
not load the run log, bundle writer, fleet aggregator and trace exporter
into every cold start and every fleet worker.
"""

from .._lazy import lazy_namespace

__all__, __getattr__ = lazy_namespace(__name__, {
    "trace": ("TRACE_SCHEMA_VERSION", "chrome_trace", "export_chrome_trace",
              "load_trace", "merge_chrome_traces", "check_trace_file",
              "validate_chrome_trace"),
    "runlog": ("RunLog", "run_manifest", "read_records", "validate_record",
               "validate_jsonl", "EVENT_FIELDS", "SCHEMA_VERSION"),
    "metrics": ("METRICS_SCHEMA_VERSION", "MetricRegistry", "TraceBuffer",
                "get_metrics", "merge_snapshots"),
    "fleet": ("FleetAggregator", "fold_run_dir", "status_rows",
              "status_lines", "check_run_dir", "watch_status",
              "validate_prometheus"),
    "blackbox": ("BUNDLE_SCHEMA_VERSION", "build_bundle",
                 "write_bundle", "dump_bundle", "load_bundle",
                 "validate_bundle", "classify_bundle", "find_bundles",
                 "newest_bundle", "diagnose_bundle_file"),
    "session": ("ObsSession",),
})
