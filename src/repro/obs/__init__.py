"""Observability: phase telemetry, structured run logs, roofline reports.

The measurement layer behind the paper's Sec. 5-6 performance story:

* :mod:`repro.obs.telemetry` — default-off hierarchical phase timers and
  monotonic counters instrumenting the solver's hot paths;
* :mod:`repro.obs.runlog` — JSONL event sink (manifest, heartbeats,
  resilience events) with an offline validator;
* :mod:`repro.obs.report` — measured-vs-modeled GFLOP/s accounting
  against :mod:`repro.hpc.perfmodel` (imported lazily: it pulls in the
  HPC models);
* :mod:`repro.obs.trace` — bounded span recording exported as
  Chrome-trace/Perfetto JSON timelines (one lane per partitioned worker,
  LTS cluster slices colored by cluster id) plus the ``obs-trace``
  summarizer;
* :mod:`repro.obs.metrics` — default-off typed metric registry
  (counters, gauges) with associative snapshot merging and a
  Prometheus text exporter — the fleet-observability substrate;
* :mod:`repro.obs.fleet` — supervisor-side :class:`FleetAggregator`
  folding member snapshots into fleet series (``fleet.prom`` /
  ``fleet.jsonl`` exporters) plus the offline ``obs-status`` view;
* :mod:`repro.obs.blackbox` — always-on bounded flight recorder
  (:class:`FlightRecorder`) whose ring of recent micro-step events is
  dumped, on any terminal fault, as an atomic fingerprinted
  ``*.blackbox.json`` diagnostic bundle (NaN-origin localization,
  per-field statistics, thread stacks, run manifest) classified by the
  ``obs-diagnose`` CLI;
* :mod:`repro.obs.session` — :class:`ObsSession` wiring for the CLI's
  ``--profile`` / ``--trace`` / ``--log-json`` / ``--heartbeat-every`` /
  ``--metrics`` flags.

The package namespace is lazy (:mod:`repro._lazy`): ``from repro.obs
import ObsSession`` and ``import repro.obs.blackbox`` resolve on first
use, so the solver core's ``from ..obs.metrics import get_metrics`` does
not load the flight recorder, fleet aggregator, trace exporter and run
log into every cold start and every fleet worker.
"""

from .._lazy import lazy_namespace

__all__, __getattr__ = lazy_namespace(__name__, {
    "telemetry": ("Telemetry", "TraceBuffer", "get_telemetry"),
    "trace": ("TRACE_SCHEMA_VERSION", "chrome_trace", "export_chrome_trace",
              "load_trace", "merge_chrome_traces", "summarize_trace",
              "validate_chrome_trace"),
    "runlog": ("RunLog", "run_manifest", "validate_record", "validate_jsonl",
               "EVENT_FIELDS", "SCHEMA_VERSION"),
    "metrics": ("METRICS_SCHEMA_VERSION", "MetricRegistry", "get_metrics",
                "merge_snapshots", "to_prometheus", "validate_prometheus"),
    "fleet": ("FleetAggregator", "status_rows", "status_lines", "watch_status"),
    "blackbox": ("BUNDLE_SCHEMA_VERSION", "FlightRecorder", "build_bundle",
                 "write_bundle", "dump_bundle", "load_bundle",
                 "validate_bundle", "classify_bundle", "find_bundles",
                 "newest_bundle", "diagnose_bundle_file"),
    "session": ("ObsSession", "add_obs_args", "obs_kwargs"),
})
