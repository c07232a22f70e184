"""T4 (paper Sec. 6.3, closing numbers): efficiency table + node-weight
ablation.

Covers: the L-mesh scaling series (1298 -> 996 GFLOPS/node from 768 to
3072 nodes, 76.8% efficiency), and the node-weight ablation (without
heterogeneity-aware tpwgts, Mahti at 700 nodes reaches only 84% of the
weighted performance).
"""

from _cache import report, scaling_mesh
from repro.hpc.machine import MAHTI, SUPERMUC_NG
from repro.hpc.scaling import StrongScalingModel


def test_t4_efficiency_and_node_weights():
    mesh, cluster, _ = scaling_mesh()
    # L-mesh-like series on SuperMUC-NG: 4x node span (768 -> 3072)
    model_ng = StrongScalingModel(mesh, cluster, order=5, machine=SUPERMUC_NG, seed=5)
    series = model_ng.sweep([8, 16, 32], ranks_per_node=2)
    # node-weight ablation on Mahti with a guaranteed straggler
    model_m = StrongScalingModel(mesh, cluster, order=5, machine=MAHTI, seed=5)
    r_on = model_m.simulate(24, 8, use_node_weights=True, force_straggler=True)
    r_off = model_m.simulate(24, 8, use_node_weights=False, force_straggler=True)
    eff = series[-1].parallel_efficiency
    ratio = r_off.gflops_per_node / r_on.gflops_per_node
    rows = [
        "T4 (Sec. 6.3): efficiency table and node-weight ablation",
        "",
        "L-mesh strong scaling (SuperMUC-NG, 2 ranks/node, 4x node span):",
        f"{'nodes':>8} {'GFLOPS/node':>12} {'efficiency':>11}",
    ]
    for r in series:
        rows.append(f"{r.n_nodes:>8} {r.gflops_per_node:>12.0f} {r.parallel_efficiency:>10.2f}")
    rows += [
        "",
        f"{'metric':46} {'paper':>8} {'model':>8}",
        f"{'L-mesh efficiency over 4x node increase':46} {'76.8%':>8} {eff * 100:>7.0f}%",
        f"{'no node weights / with node weights (Mahti)':46} {'84%':>8} {ratio * 100:>7.0f}%",
    ]
    assert 0.5 < eff <= 1.0
    assert 0.7 < ratio < 0.97
    report("t4_efficiency", rows)
