"""Host-speed reference: a fixed piece of work timed around and inside
every timed window.

The shared 2-vCPU guests this benchmark runs on slow down by 1.3-1.7x for
minutes at a time and wobble by 10 % from one second to the next (README
"Steadiness"): raw seconds of one program then differ by 30-40 % between
two sets of runs, more than any bound the contract allows.  The slowdown
hits this kernel and the solver alike (in one process their 12 s medians
stay within 4 % of each other while both move by 15 %), so every pass times
it in its own process — one sample of :data:`UNITS` units before the
window, about :data:`SAMPLES_INSIDE` at synchronisation points inside it
(``seams.py``; their time is taken out of the window) and one after — and
the ledger reports the pass's times multiplied by ``speed`` =
:data:`NOMINAL_UNIT_S` / mean unit time: seconds as they would read on the
calm host.  The mean, because the window is a sum too: what slows every
twentieth unit slows every twentieth kernel call.  Raw seconds stay in
every pass record.

The work does not import ``repro`` and must not change when ``repro``
does: it is the yardstick.  One unit resembles a solver step in what it
asks of the machine — batched 10x10 GEMMs streaming over a Palu-sized
state (15 360 x 10 x 9 float64, 11 MB), a neighbour gather through a
permutation, elementwise accumulation, and a stretch of interpreter glue.
It allocates nothing, so it takes no page faults (nor does the window, see
``run.CHILD_MALLOC``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: unit time on the calm host the workloads were sized on; the unit of
#: every calibrated second
NOMINAL_UNIT_S = 0.0120
#: units in one sample (0.13 s): one sample before and one after a solver
#: window and :data:`SAMPLES_INSIDE` inside it, four before and four after
#: a fleet window (which has no synchronisation point to sample at)
UNITS = 12
SAMPLES_INSIDE = 6
SAMPLES_EDGE_FLEET = 4

_state: tuple | None = None


def _arrays() -> tuple:
    global _state
    if _state is None:
        rng = np.random.default_rng(0)
        q = rng.random((15360, 10, 9))
        _state = (q, np.empty_like(q), np.zeros_like(q),
                  rng.random((3, 10, 10)), rng.permutation(len(q)),
                  np.empty_like(q))
        _unit()  # the first, cold unit is not a sample
    return _state


def _unit() -> float:
    q, out, acc, k, nb, g = _arrays()
    t0 = time.perf_counter()
    for d in range(3):
        np.matmul(k[d], q, out=out)
        np.add(acc, out, out=acc)
    np.take(q, nb, axis=0, out=g, mode="clip")
    np.multiply(g, 0.5, out=g)
    np.add(acc, g, out=acc)
    x = 0
    for i in range(20000):
        x += i * i
    return time.perf_counter() - t0


def sample(n: int = 1) -> list:
    """The unit times of ``n`` samples."""
    _arrays()
    return [_unit() for _ in range(n * UNITS)]


def sync_stride(n_sync: int) -> int:
    """Sample at every so-many-th of a window's ``n_sync`` synchronisation
    points so that about :data:`SAMPLES_INSIDE` samples are taken."""
    return max(1, round(n_sync / SAMPLES_INSIDE))


def speed(unit_times: list) -> dict:
    """The host block of a pass record from the unit times of the pass."""
    unit_s = statistics.fmean(unit_times)
    return {"ref_unit_s": unit_s, "ref_units": len(unit_times),
            "speed": NOMINAL_UNIT_S / unit_s}
