"""V2 (paper Sec. 4.4): LTS correctness and measured update reduction.

The paper reports that LTS "has an even stronger influence on
time-to-solution than reported previously", attributing it to the
acoustic/elastic wave-speed and mesh-size discrepancy, and that running
mesh L with global time-stepping "is therefore not feasible".  This bench
measures, on a coupled ocean-over-crust mesh: (i) the LTS vs GTS element
-update reduction, (ii) actual wall-time speedup of this implementation,
(iii) the solution difference (correctness).
"""

import time

import numpy as np

from _cache import report
from repro.core.lts import LocalTimeStepping
from repro.core.materials import acoustic, elastic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.sched import Scheduler


def build():
    """Bay-like coupled mesh: shallow coastal cells set dt_min, the earth
    bulk carries the largest timesteps (the Sec. 4.4 situation)."""
    from repro.mesh.generators import bathymetry_mesh
    from repro.mesh.refine import geometric_spacing

    water = acoustic(1000.0, 1500.0)
    rock = elastic(2700.0, 6000.0, 3464.0)

    def bathy(x, y):
        return -(15.0 + 285.0 * np.exp(-(((x - 4000.0) / 1500.0) ** 2)))

    xs = np.linspace(0, 8000.0, 11)
    ys = np.linspace(0, 6000.0, 8)
    zs_e = -np.flip(geometric_spacing(400.0, 8000.0, 800.0, 1.7))
    m = bathymetry_mesh(xs, ys, bathy, 2, zs_e, rock, water, min_depth=15.0)

    def tagger(cent, nrm):
        tags = np.full(len(cent), FaceKind.ABSORBING.value)
        tags[nrm[:, 2] > 0.99] = FaceKind.GRAVITY_FREE_SURFACE.value
        return tags

    m.tag_boundary(tagger)
    s = CoupledSolver(m, order=2)

    def ic(x):
        out = np.zeros((len(x), 9))
        out[:, 8] = 0.3 * np.exp(-((x[:, 0] - 4000) ** 2 + (x[:, 1] - 3000) ** 2
                                   + (x[:, 2] + 2000) ** 2) / (2 * 700.0**2))
        return out

    s.set_initial_condition(ic)
    return s


def test_v2_lts_speedup(benchmark):
    s_gts = build()
    T = 48 * s_gts.dt

    t0 = time.perf_counter()
    n = int(np.ceil(T / s_gts.dt))
    for _ in range(n):
        s_gts.step(T / n)
    t_gts = time.perf_counter() - t0

    s_lts = build()
    lts = LocalTimeStepping(s_lts)

    def run_lts():
        Scheduler(s_lts, lts).run(T)

    benchmark.pedantic(run_lts, rounds=1, iterations=1)
    t_lts = benchmark.stats["mean"]

    st = lts.statistics()
    rel = np.abs(s_gts.Q - s_lts.Q).max() / np.abs(s_gts.Q).max()
    updates_done = int((lts.updates * lts.elem_count).sum())
    updates_gts = n * s_gts.mesh.n_elements

    rows = [
        "V2 (Sec. 4.4): local time-stepping on a coupled ocean-crust mesh",
        f"mesh: {s_gts.mesh.n_elements} elements, clusters {[int(c) for c in st['counts']]}",
        "",
        f"{'metric':44} {'value':>12}",
        f"{'theoretical update reduction (this mesh)':44} {st['speedup']:>11.2f}x",
        f"{'actual element updates LTS / GTS':44} "
        f"{f'{updates_done} / {updates_gts}':>12}",
        f"{'wall-time speedup (this implementation)':44} {t_gts / t_lts:>11.2f}x",
        f"{'max solution difference LTS vs GTS':44} {rel:>12.2e}",
        "",
        "paper (mesh L): chosen clustering reduces element updates ~30x;",
        "GTS 'not feasible'.  The reduction scales with the resolution span",
        "(octaves of element size x wave speed), which is far wider in the",
        "518M-element production mesh than in this test mesh.",
    ]
    assert st["speedup"] > 2.0
    assert rel < 2e-2
    assert updates_done < updates_gts
    report("v2_lts_speedup", rows)
