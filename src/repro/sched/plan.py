"""Compiled step plans: the clustered-LTS update cadence as static data.

The paper's rate-2 clustered LTS (Sec. 4.4) turns the ocean/solid timestep
contrast into a *predictable* update cadence: cluster ``c`` advances with
``rate**c * dt_min`` and every cluster synchronizes at the end of each
macro step, so the cadence of one macro step repeats exactly.  Breuer &
Heinecke's next-generation LTS work (PAPERS.md) makes the observation this
module is built on: because the cadence is static, it can be **compiled
once** into a schedule and replayed, instead of being re-derived at
runtime by scanning cluster clocks before every micro-step.

:func:`compile_step_plan` produces a :class:`StepPlan` — flat arrays with
one entry per cluster micro-step of one macro step:

* which cluster steps and over which exact integer time window (in units
  of ``dt_min``, so termination is an integer comparison, immune to the
  float drift that forced per-driver epsilons before);
* which neighbor windows the corrector consumes — a *Taylor* consume
  reads a coarser neighbor's longer predictor over a sub-window at a
  precompiled integer offset, a *buffer* consume reads the accumulated
  window integrals a finer neighbor published (SeisSol's buffer
  mechanism) — which finer buffers to clear after publishing, and which
  neighbors overwrote the cluster's window rows since it last stepped.

The micro-step *order* is canonical: repeatedly advancing the eligible
cluster with the smallest ``(window end, window length, cluster id)``
reproduces the event-driven scheduler's order exactly (the eligibility
constraints never block the lexicographic minimum; the compiler asserts
this while simulating the plan, and a hypothesis test checks the plan,
replayed ``n_macro`` times, against an independent implementation of the
dynamic ``eligible()`` scan).

A plan depends only on ``(n_clusters, rate, adjacency)``, not on the mesh
or the run's length: the :class:`~repro.sched.Scheduler` compiles it once
at construction and replays it once per macro step.  Global
time-stepping is the trivial single-cluster plan: one micro-step, no
consume actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepPlan",
    "compile_step_plan",
    "CONSUME_TAYLOR",
    "CONSUME_BUFFER",
]

#: consume modes baked into :attr:`StepPlan.consume_mode`
CONSUME_TAYLOR = 0  # integrate a coarser neighbor's predictor over a sub-window
CONSUME_BUFFER = 1  # read the window integrals a finer neighbor accumulated


@dataclass(frozen=True)
class StepPlan:
    """The compiled micro-step sequence of one macro step.

    All time quantities are exact integers in units of ``dt_min`` (the
    finest cluster step), counted from the start of the macro step; the
    executing scheduler adds ``k * macro`` for the ``k``-th macro step and
    multiplies by the run's ``dt_min`` to recover physical windows.
    Arrays with one entry per micro-step are indexed ``0 .. n_micro-1`` in
    execution order; the ragged consume/clear action lists use CSR-style
    ``*_ptr`` index arrays.  Every cluster ends its last window at
    ``macro``, after the last micro-step.
    """

    n_clusters: int
    rate: int
    #: (n_clusters,) window length of each cluster, ``rate**c``
    steps: np.ndarray
    #: (n_micro,) cluster id of each micro-step
    cluster: np.ndarray
    #: (n_micro,) integer window start of each micro-step
    t_int: np.ndarray
    #: (n_micro+1,) CSR pointer into the consume action arrays
    consume_ptr: np.ndarray
    #: neighbor cluster id of each consume action
    consume_cluster: np.ndarray
    #: CONSUME_TAYLOR or CONSUME_BUFFER
    consume_mode: np.ndarray
    #: integer offset of the sub-window into the coarser neighbor's
    #: predictor (CONSUME_TAYLOR only; 0 for buffer consumes)
    consume_off: np.ndarray
    #: (n_micro+1,) CSR pointer into the buffer-clear array
    clear_ptr: np.ndarray
    #: finer neighbor cluster ids whose buffers this micro-step consumed
    clear_cluster: np.ndarray
    #: (n_micro+1,) CSR pointer into the restore array
    restore_ptr: np.ndarray
    #: neighbors whose consumes overwrote the stepping cluster's window rows
    restore_cluster: np.ndarray

    @property
    def macro(self) -> int:
        """Length of the macro step, ``rate**cmax``."""
        return int(self.steps[-1])

    @property
    def n_micro(self) -> int:
        return len(self.cluster)

    def consumes(self, i: int):
        """The consume actions of micro-step ``i`` as ``(cluster, mode, off)``."""
        sl = slice(self.consume_ptr[i], self.consume_ptr[i + 1])
        return zip(self.consume_cluster[sl], self.consume_mode[sl],
                   self.consume_off[sl])

    def clears(self, i: int):
        """Finer neighbor clusters whose buffers micro-step ``i`` resets."""
        return self.clear_cluster[self.clear_ptr[i]:self.clear_ptr[i + 1]]

    def restores(self, i: int):
        """Neighbors ``cn`` that overwrote ``halo[cn][cluster[i]]``."""
        return self.restore_cluster[self.restore_ptr[i]:self.restore_ptr[i + 1]]


def _canonical_adjacency(n_clusters: int, adjacency) -> tuple:
    """Validate adjacency; return one sorted neighbor tuple per cluster."""
    if adjacency is None:
        return tuple(() for _ in range(n_clusters))
    if len(adjacency) != n_clusters:
        raise ValueError(
            f"adjacency has {len(adjacency)} entries for {n_clusters} clusters"
        )
    out = []
    for c, neigh in enumerate(adjacency):
        ns = tuple(sorted(int(n) for n in neigh))
        for n in ns:
            if not 0 <= n < n_clusters:
                raise ValueError(f"cluster {c} adjacent to out-of-range {n}")
            if n == c:
                raise ValueError(f"cluster {c} listed as its own neighbor")
        out.append(ns)
    # adjacency must be symmetric: the flux exchange is mutual
    for c, ns in enumerate(out):
        for n in ns:
            if c not in out[n]:
                raise ValueError(f"adjacency is not symmetric ({c} -> {n})")
    return tuple(out)


def compile_step_plan(n_clusters: int, rate: int, adjacency=None) -> StepPlan:
    """Compile the micro-step sequence of one macro step.

    Parameters
    ----------
    n_clusters:
        Number of LTS clusters (1 = global time-stepping).
    rate:
        Timestep ratio between consecutive clusters (paper: 2).
    adjacency:
        Optional per-cluster neighbor sets (``adjacency[c]`` iterates the
        cluster ids that share a face with cluster ``c``); determines the
        consume/publish actions.  ``None`` compiles an action-free plan
        (sufficient for GTS or fully disconnected clusters).
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if rate < 2 and n_clusters > 1:
        raise ValueError("rate must be >= 2 for a multi-cluster plan")
    adjacency = _canonical_adjacency(n_clusters, adjacency)

    rate = int(rate)
    steps = np.array([rate**c for c in range(n_clusters)], dtype=np.int64)
    macro = int(steps[-1])

    # every micro-step of every cluster, sorted by the canonical key
    # (window end, window length, cluster id) — the event-driven order
    counts = macro // steps
    clus = np.repeat(np.arange(n_clusters, dtype=np.int64), counts)
    t_end = np.concatenate(
        [np.arange(1, counts[c] + 1, dtype=np.int64) * steps[c]
         for c in range(n_clusters)]
    )
    order = np.lexsort((clus, steps[clus], t_end))
    cluster = clus[order]
    t_int = t_end[order] - steps[cluster]
    n_micro = len(cluster)

    # simulate the integer clocks over the compiled order: derive the
    # consume offsets and assert the event-driven eligibility invariants
    # hold at every micro-step
    t_cur = np.zeros(n_clusters, dtype=np.int64)
    pred = np.zeros(n_clusters, dtype=np.int64)
    consume_ptr = np.zeros(n_micro + 1, dtype=np.int64)
    clear_ptr = np.zeros(n_micro + 1, dtype=np.int64)
    c_clusters: list[int] = []
    c_modes: list[int] = []
    c_offs: list[int] = []
    x_clusters: list[int] = []

    for i in range(n_micro):
        c = int(cluster[i])
        t_a = int(t_int[i])
        t_b = t_a + int(steps[c])
        if t_cur[c] != t_a:  # pragma: no cover - canonical-order invariant
            raise AssertionError(
                f"plan compilation out of order: cluster {c} at {t_cur[c]}, "
                f"scheduled window starts at {t_a}"
            )
        for cn in adjacency[c]:
            if steps[cn] > steps[c]:
                # coarser neighbor: its longer predictor must cover the
                # window; consume it at a precompiled offset
                off = t_a - int(pred[cn])
                if off < 0 or int(pred[cn]) + int(steps[cn]) < t_b:
                    raise AssertionError(  # pragma: no cover - invariant
                        f"cluster {cn} predictor does not cover window "
                        f"[{t_a}, {t_b}] of cluster {c}"
                    )
                c_clusters.append(int(cn))
                c_modes.append(CONSUME_TAYLOR)
                c_offs.append(off)
            else:
                # finer neighbor: it must have completed (and published)
                # the whole window into its buffer
                if t_cur[cn] < t_b:  # pragma: no cover - invariant
                    raise AssertionError(
                        f"cluster {cn} buffer incomplete for window "
                        f"[{t_a}, {t_b}] of cluster {c}"
                    )
                c_clusters.append(int(cn))
                c_modes.append(CONSUME_BUFFER)
                c_offs.append(0)
                x_clusters.append(int(cn))
        consume_ptr[i + 1] = len(c_clusters)
        clear_ptr[i + 1] = len(x_clusters)
        t_cur[c] = pred[c] = t_b

    # the neighbors that consumed a cluster since its previous micro-step
    # (walking back cyclically: the cadence repeats every macro step)
    restores: list[list[int]] = []
    for i in range(n_micro):
        c, j, readers = int(cluster[i]), (i - 1) % n_micro, set()
        while int(cluster[j]) != c:
            if c in c_clusters[consume_ptr[j]:consume_ptr[j + 1]]:
                readers.add(int(cluster[j]))
            j = (j - 1) % n_micro
        restores.append(sorted(readers))

    return StepPlan(
        n_clusters=n_clusters,
        rate=rate,
        steps=steps,
        cluster=cluster,
        t_int=t_int,
        consume_ptr=consume_ptr,
        consume_cluster=np.array(c_clusters, dtype=np.int64),
        consume_mode=np.array(c_modes, dtype=np.int64),
        consume_off=np.array(c_offs, dtype=np.int64),
        clear_ptr=clear_ptr,
        clear_cluster=np.array(x_clusters, dtype=np.int64),
        restore_ptr=np.cumsum([0, *map(len, restores)], dtype=np.int64),
        restore_cluster=np.array(sum(restores, []), dtype=np.int64),
    )
