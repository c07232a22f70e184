"""T1 (paper Sec. 5.1): node-level NUMA study on the AMD Rome 7H12 node.

The paper measures five numbers with a wave-propagation performance
reproducer; here the calibrated roofline+NUMA model regenerates the same
table, plus the extrapolated single-NUMA limits the paper derives from
them.  Also times this library's *actual* Python kernels on a small mesh
to report the honest pure-Python throughput for context.
"""

import time

import numpy as np

from _cache import report
from repro.core.materials import elastic
from repro.core.solver import CoupledSolver
from repro.hpc.machine import AMD_ROME_7H12
from repro.hpc.perfmodel import NodePerformanceModel, kernel_counts
from repro.mesh.generators import box_mesh


def test_t1_numa_node_level():
    m = NodePerformanceModel(AMD_ROME_7H12, order=5)
    peak = AMD_ROME_7H12.peak_gflops

    entries = [
        ("peak GFLOPS/node", 5325.0, peak),
        ("predictor, full node", 3360.0, m.predictor_gflops()),
        ("predictor, 1 NUMA domain", 428.0, m.predictor_gflops(1)),
        ("predictor, extrapolated limit", 3424.0, m.numa_extrapolated_limit()),
        ("pred+corr, full node", 2053.0, m.full_gflops()),
        ("pred+corr, 1 NUMA domain", 376.0, m.full_gflops(1)),
        ("pred+corr, extrapolated limit", 3008.0, m.numa_extrapolated_limit(full=True)),
        ("pred+corr, one socket", 1390.0, m.full_gflops(4)),
    ]
    rows = [
        "T1 (Sec. 5.1): node-level performance, dual AMD Rome 7H12 [GFLOPS]",
        f"{'kernel / placement':34} {'paper':>9} {'model':>9} {'dev':>7}",
    ]
    for name, paper, model in entries:
        rows.append(f"{name:34} {paper:9.0f} {model:9.0f} {abs(model - paper) / paper * 100:6.1f}%")
        assert abs(model - paper) / paper < 0.16

    # NUMA effect statement of the paper: corrector suffers, predictor not
    rows.append("")
    rows.append(f"predictor efficiency  paper 63% | model {m.predictor_gflops() / peak * 100:.0f}%")
    rows.append(f"pred+corr efficiency  paper 38% | model {m.full_gflops() / peak * 100:.0f}%")
    rows.append(f"8 ranks/node (predicted, drives Sec. 6.3): {m.full_gflops(ranks_per_node=8):.0f} GFLOPS")

    # honest pure-Python kernel throughput of this reproduction, measured
    rock = elastic(2700.0, 6000.0, 3464.0)
    mesh = box_mesh(*(np.linspace(0, 1000.0, 9),) * 3, [rock])
    solver = CoupledSolver(mesh, order=3)
    solver.set_initial_condition(
        lambda x: np.exp(-((x - 500) ** 2).sum(1) / 1e5)[:, None] * np.ones((len(x), 9))
    )
    # the FLOPs of the kernels that execute, not the dense calibration chain
    flops = kernel_counts(3, variant=solver.op.kernel_variant).flops_total * mesh.n_elements
    solver.step()  # warm-up
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        solver.step()
        times.append(time.perf_counter() - t0)
    rows.append("")
    rows.append(
        f"this reproduction (pure NumPy, 1 core, order 3, {mesh.n_elements} elems): "
        f"{flops / np.median(times) / 1e9:.2f} GFLOPS/step (median of 5 steps)"
    )
    report("t1_numa_nodelevel", rows)
