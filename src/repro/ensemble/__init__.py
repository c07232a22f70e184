"""Fault-tolerant multi-process ensemble execution.

The paper's Palu use case becomes an early-warning capability only when
thousands of perturbed scenarios (source location, slip, friction,
bathymetry) run unattended and survive worker failures.  This package is
that driver:

* :mod:`repro.ensemble.spec` — picklable :class:`MemberSpec` (the name
  of a scenario in the :mod:`repro.scenarios` registry + config
  overrides + seed);
* :mod:`repro.ensemble.worker` — the worker process body: a persistent
  worker, forked from the supervisor (spawned where fork is unsafe), that
  runs the attempts sent down its pipe with the plan cache warm, each
  under an :class:`~repro.obs.session.ObsSession` (the member's run log),
  heartbeats up the same pipe, atomic digested result files;
* :mod:`repro.ensemble.retry` — the escalation ladder (exponential
  backoff with deterministic jitter → checkpoint-resume → dt-scale
  reduction → quarantine);
* :mod:`repro.ensemble.supervisor` — the parent-side supervision tree:
  a pool of persistent workers woken by events, heartbeat-timeout hang
  detection, death detection, result validation, a retired worker per
  strike — a worker that cannot be started is a strike too;
* :mod:`repro.ensemble.result` — per-member status records and the
  always-complete :class:`EnsembleResult`.

See README "Ensemble runs" and ``python -m repro ensemble --help``.

Only the member spec loads with the package; the supervision tree
(``multiprocessing``, the fleet aggregator, the run log) and the
worker resolve on first use (:mod:`repro._lazy`), so a run that only
builds a member's scenario does not pay for them.
"""

from .._lazy import lazy_namespace
from .spec import MemberSpec, get_builder

_lazy_all, __getattr__ = lazy_namespace(__name__, {
    "result": ("STATUSES", "EnsembleResult", "MemberResult"),
    "retry": ("RetryDecision", "RetryPolicy"),
    "supervisor": ("Supervisor",),
    "worker": ("load_result", "member_paths", "run_member", "state_digest"),
})

__all__ = [
    "MemberSpec",
    "get_builder",
    *_lazy_all,
]
