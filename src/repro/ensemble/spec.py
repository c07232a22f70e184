"""Ensemble member specifications.

A :class:`MemberSpec` is the *complete, picklable* description of one
ensemble member: the name of a scenario in the :mod:`repro.scenarios`
registry, its config overrides (source location, slip, friction,
bathymetry — the axes of the paper's Palu hazard ensembles), the seed,
and the run/supervision knobs.  Specs cross the process boundary by
value, one pickle per attempt down the worker's pipe, and the worker
builds the scenario from the same registry as the supervisor.

Builds follow Devito's build-once/replay-per-member operator idiom
(SNIPPETS.md §1): the member-invariant machinery (basis tables, operator
plans) is shared through the fingerprint-keyed plan cache.  The cache is
per process; workers are persistent and a forked worker starts with its
supervisor's cache, so member ``k+1`` of a mesh family on a worker — and
its first member when the supervisor already built the plan — builds
much faster than member ``0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from ..scenarios import SCENARIOS, ScenarioHandle, build

__all__ = ["MemberSpec", "get_builder"]


def get_builder(name: str):
    """:func:`repro.scenarios.build` bound to scenario ``name``: a
    ``(overrides, seed, backend=..., workers=...) -> ScenarioHandle``."""
    SCENARIOS[name]  # noqa: B018  (an unknown name: KeyError listing them)
    return partial(build, name)


@dataclass
class MemberSpec:
    """One ensemble member: scenario name + config overrides + seed.

    Everything a worker process needs to execute the member is in here
    (the spec is pickled to the worker with every attempt, so a retry
    starts from the spec — and the injector — as written); everything the
    *supervisor* needs to retry it deterministically is here too —
    re-running the same spec produces a bitwise-identical trajectory,
    which is what lets the chaos tests compare recovered members against
    their uninterrupted twins.  The worker's watchdog retries are the
    constant :data:`~repro.ensemble.worker.RUNNER_RETRIES`.
    """

    member_id: str
    #: registered scenario name (:data:`repro.scenarios.SCENARIOS`)
    builder: str = "quickstart"
    #: config-field overrides of the scenario
    perturb: dict = field(default_factory=dict)
    seed: int = 0
    t_end: float = 0.5
    #: simulated seconds between on-disk checkpoints (enables mid-run
    #: resume after a worker death); ``None`` checkpoints only at the end
    checkpoint_every: float | None = None
    backend: str = "serial"
    #: record a span timeline and export ``trace.json`` into the member
    #: dir — the per-member lane ``obs-trace --merge`` stitches together
    trace: bool = False
    #: optional FaultInjector (state/dt/io faults run through the
    #: worker's ResilientRunner; kill/hang/corrupt-result faults act on
    #: the worker process and are handled by the supervisor)
    injector: object | None = None

    def __post_init__(self):
        if not self.member_id:
            raise ValueError("member_id must be a non-empty string")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")

    def build(self) -> ScenarioHandle:
        """Build the member's scenario from the registry."""
        return build(self.builder, self.perturb, self.seed,
                     backend=self.backend)

    def without_injector(self) -> "MemberSpec":
        """A copy of this spec with fault injection disabled — the
        uninterrupted twin a recovered member is compared against."""
        return replace(self, injector=None)
