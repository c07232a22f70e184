"""Ensemble member specifications and the scenario-builder registry.

A :class:`MemberSpec` is the *complete, picklable* description of one
ensemble member: which registered scenario builder to instantiate, the
perturbation applied to it (source location, slip, friction, bathymetry —
the axes of the paper's Palu hazard ensembles), the member's seed, and the
run/supervision knobs.  Specs cross the process boundary by value — one
pickle per attempt, down the worker's pipe — so they reference builders
*by name* through a module-level registry rather than carrying closures;
a worker resolves the name in the registry it inherited from the
supervisor (fork) or populated when it imported :mod:`repro.ensemble`
(spawn).

Builders follow Devito's memoized build-once/replay-per-member operator
idiom (SNIPPETS.md §1): the expensive, member-invariant machinery (basis
tables, operator plan compilation) is shared through the existing
fingerprint-keyed plan cache, so instantiating member ``k+1`` of the same
mesh family is much cheaper than member ``0``.  The cache is per process,
ensemble workers are persistent and a forked worker starts with its
supervisor's cache, so that holds for the members a worker runs one
after another — and for its first one when the supervisor already built
the plan — as it does for ``workers=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "MemberSpec",
    "ScenarioHandle",
    "register_builder",
    "get_builder",
    "available_builders",
]


@dataclass
class ScenarioHandle:
    """What a scenario builder returns: the solver plus an optional
    ``summarize``, a ``solver -> dict`` of scenario-level result metrics
    (peak sea-surface height, receiver extrema, ...) stored in the member
    result file.  Members march with global time-stepping under
    :class:`~repro.core.resilience.ResilientRunner`.
    """

    solver: object
    summarize: object | None = None


#: name -> builder(perturb, seed, backend=..., workers=...) -> ScenarioHandle
_BUILDERS: dict = {}


def register_builder(name: str, fn=None):
    """Register ``fn`` as a scenario builder (also usable as a decorator).

    A forked worker inherits the registry as it stands, so a builder
    registered anywhere before :meth:`Supervisor.run` works.  Under the
    spawn fallback the registry is re-populated by importing the modules
    that register, not by pickling the callable: there a builder must be
    registered at import time of an importable module.
    """
    if fn is None:
        def deco(f):
            _BUILDERS[name] = f
            return f
        return deco
    _BUILDERS[name] = fn
    return fn


def get_builder(name: str):
    if name not in _BUILDERS:
        # safety net for direct `repro.ensemble.spec` imports: the
        # built-ins register on package import
        from . import builders  # noqa: F401
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown scenario builder {name!r} "
            f"(registered: {', '.join(sorted(_BUILDERS)) or 'none'})"
        )
    return _BUILDERS[name]


def available_builders() -> list[str]:
    return sorted(_BUILDERS)


@dataclass
class MemberSpec:
    """One ensemble member: scenario builder name + perturbation + seed.

    Everything a worker process needs to execute the member is in here
    (the spec is pickled to the worker with every attempt, so a retry
    starts from the spec — and the injector — as written); everything the
    *supervisor* needs to retry it deterministically is here too —
    re-running the same spec produces a bitwise-identical trajectory,
    which is what lets the chaos tests compare recovered members against
    their uninterrupted twins.
    """

    member_id: str
    builder: str = "quickstart"
    #: builder-specific perturbation (config-field overrides)
    perturb: dict = field(default_factory=dict)
    seed: int = 0
    t_end: float = 0.5
    #: simulated seconds between on-disk checkpoints (enables mid-run
    #: resume after a worker death); ``None`` checkpoints only at the end
    checkpoint_every: float | None = None
    backend: str = "serial"
    workers: int | None = None
    #: in-process watchdog retries (rollback + dt backoff) per segment;
    #: distinct from the *supervisor's* process-level RetryPolicy
    max_retries: int = 2
    #: record a span timeline and export ``trace.json`` into the member
    #: dir — the per-member lane ``obs-trace --merge`` stitches together
    trace: bool = False
    #: optional FaultInjector (state/dt/io faults run through the
    #: in-process ResilientRunner; kill/hang/corrupt-result faults are
    #: process-level and handled by the worker/supervisor pair)
    injector: object | None = None

    def __post_init__(self):
        if not self.member_id:
            raise ValueError("member_id must be a non-empty string")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")

    def build(self) -> ScenarioHandle:
        """Instantiate the member's scenario (resolves the builder name)."""
        handle = get_builder(self.builder)(
            dict(self.perturb), int(self.seed),
            backend=self.backend, workers=self.workers,
        )
        if not isinstance(handle, ScenarioHandle):
            raise TypeError(
                f"builder {self.builder!r} returned {type(handle).__name__}, "
                "expected ScenarioHandle"
            )
        return handle

    def without_injector(self) -> "MemberSpec":
        """A copy of this spec with fault injection disabled — the
        uninterrupted twin a recovered member is compared against."""
        return replace(self, injector=None)
