"""The five pinned workloads of the perf ledger, and why each is here.

Sizes are pinned for one *pass* — one cold child process that sets up,
warms up for ``t_warm`` simulated seconds, runs the timed window of
``t_end`` simulated seconds and checks its output.  A contract invocation
(``run.py --workload W``) makes :data:`PASSES` such passes and takes
about :data:`RUN_SECONDS` seconds on the 2-vCPU host the benchmark was
sized on; ``--seconds S`` scales every ``t_end`` and ``t_warm`` by
``S / RUN_SECONDS`` (``--quick`` by 1/10), which changes step counts
deterministically and nothing else.  The seed never changes a size: it
only drives the scenario builders' own jitter (Palu hypocentre +-200 m,
Scenario A nucleation +-5 %, quickstart source position, fleet member
``seed + k``).

ISSUE 11 sized the workloads at 16-22 s each for a driver that runs every
workload once per pass; the contract's total cap (114 invocations in
3420 s, i.e. under 30 s per invocation *including* three cold set-ups,
three warm-ups and the host-speed samples) leaves about 2.5 s of timed
window per pass, so the three Palu ``t_end``\\ s were shortened together
from 0.2 to 0.0585 (6 LTS macro steps / 24 GTS steps instead of 21 / 82),
Scenario A from 2.0 to 0.429 with 3 checkpoints of 19 steps instead of 8
of 33, and the fleet from 6 x 428-step members to 4 x 72-step members
(two rounds on two workers).  The pass count was kept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: nominal seconds of one contract invocation (BENCHMARK.json
#: ``run_seconds``); the pinned ``t_end``\ s below are sized for it
RUN_SECONDS = 12
#: cold passes per untraced contract invocation (timings are reported over
#: them); the ledger mode makes at least this many timed passes as well
PASSES = 3
#: ``--quick`` divides every ``t_end`` by this
QUICK_DIVISOR = 10


def nproc() -> int:
    """Cpus this process may run on: caps partition and fleet workers."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: scenario builder name in ``repro.ensemble.spec``'s registry
    builder: str
    #: simulated seconds of the timed window
    t_end: float
    #: simulated seconds run before the window, untimed (scaled with t_end)
    t_warm: float = 0.0
    perturb: dict = field(default_factory=dict)
    lts: bool = False
    backend: str = "serial"
    #: run under ResilientRunner + ObsSession + receivers
    supervised: bool = False
    #: checkpoints per run (supervised only); segment = t_end / checkpoints
    checkpoints: int = 0
    #: fleet size (0 = a single solver run)
    members: int = 0
    #: cpus the workload needs to be measured rather than oversubscribed
    min_cpus: int = 1

    @property
    def tags(self) -> frozenset:
        """What the workload exercises; per-layer metrics name the tags
        they need, everything else reads not-applicable."""
        if self.members:
            return frozenset({"fleet"})
        tags = {"solver", "lts" if self.lts else "gts"}
        if self.backend == "partitioned":
            tags.add("partitioned")
        if self.supervised:
            tags.add("supervised")
        return frozenset(tags)


_PALU_T_END = 0.0585
#: one LTS macro step / four GTS steps
_PALU_T_WARM = _PALU_T_END / 6

WORKLOADS = {w.name: w for w in (
    Workload(
        "palu_lts",
        "flagship config: clustered LTS on the Palu mesh, where scheduler "
        "dispatch, window assembly and masked kernels do the most work",
        builder="palu", t_end=_PALU_T_END, t_warm=_PALU_T_WARM, lts=True,
    ),
    Workload(
        "palu_gts",
        "same mesh and kernels as full-mesh GTS sweeps: a step-loop or LTS "
        "optimisation must not move it; the wall ratio is the LTS speedup",
        builder="palu", t_end=_PALU_T_END, t_warm=_PALU_T_WARM,
    ),
    Workload(
        "palu_lts_partitioned",
        "only place PartitionedBackend threads, halo gathers and barriers "
        "work; decides ROADMAP's keep-or-cut question; serial runs bypass it",
        builder="palu", t_end=_PALU_T_END, t_warm=_PALU_T_WARM, lts=True,
        backend="partitioned", min_cpus=2,
    ),
    Workload(
        "scenario_a_supervised",
        "production wrapper: ResilientRunner checkpoints, watchdog, flight "
        "recorder, ObsSession sinks and receivers do work here and none in "
        "the bare Palu runs",
        builder="scenario_a", t_end=0.429, t_warm=0.143, supervised=True,
        checkpoints=3,
    ),
    Workload(
        "fleet_quickstart",
        "Supervisor spawn-per-attempt, per-process import and cold plan "
        "cache, per-step heartbeats on a small mesh where Python overhead "
        "dominates; persistent workers would show here and nowhere else",
        builder="quickstart", t_end=0.2, perturb={"n_x": 8}, members=4,
        min_cpus=2,
    ),
)}
