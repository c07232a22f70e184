"""Fig. 6 (paper Sec. 6.3): strong scaling on Mahti and SuperMUC-NG.

The paper scales the Palu mesh M from 50 to 700 nodes on Mahti (1, 2, 8
ranks/node) and from 50 to 1600 nodes on SuperMUC-NG (1, 2 ranks/node),
reaching ~73% parallel efficiency at 14x / ~72% at 32x node increase, with
more ranks per node winning throughout on the NUMA-rich AMD nodes.

Here the same experiment runs on the simulated machines with a real
partition of the real (scaled) mesh with the real LTS clustering; node
counts are scaled so that the *relative* node-increase factor matches the
paper (the absolute element-per-node count is ~50x smaller, see DESIGN.md).
"""

from _cache import report, scaling_mesh
from repro.hpc.machine import MAHTI, SUPERMUC_NG
from repro.hpc.perfmodel import NodePerformanceModel, kernel_counts
from repro.hpc.scaling import StrongScalingModel

NODES = [2, 4, 8, 16, 28]  # 14x span = paper's Mahti 50 -> 700
NODES_NG = [2, 4, 8, 16, 32, 64]  # 32x span = paper's NG 50 -> 1600

ORDER = 5


def run_machine(mesh, cluster, machine, nodes, rpns):
    model = StrongScalingModel(mesh, cluster, order=ORDER, machine=machine)
    return {r: model.sweep(nodes, ranks_per_node=r) for r in rpns}


def _kernel_metrics(machine, nodes, series, rpns):
    """Per-kernel metrics side-channel: roofline splits per placement.

    Makes the ``fig6*.json`` reports per-kernel (predictor vs corrector
    roofline rates at each ranks-per-node placement) instead of only
    end-to-end GFLOPS/node numbers.
    """
    model = NodePerformanceModel(machine.node, order=ORDER)
    kc = kernel_counts(ORDER)
    return {
        "machine": machine.name,
        "order": ORDER,
        "flops_per_elem_update": {
            "predictor": kc.flops_predictor,
            "volume": kc.flops_volume,
            "surface": kc.flops_surface,
            "corrector": kc.flops_corrector,
        },
        "node_kernel_gflops": {
            str(r): {
                "predictor": model.predictor_gflops(),
                "corrector": model.corrector_gflops(ranks_per_node=r),
                "full": model.full_gflops(ranks_per_node=r),
            }
            for r in rpns
        },
        "series": {
            str(r): {
                "nodes": list(nodes),
                "gflops_per_node": [p.gflops_per_node for p in series[r]],
                "parallel_efficiency": [p.parallel_efficiency for p in series[r]],
            }
            for r in rpns
        },
    }


def test_fig6a_mahti(benchmark):
    mesh, cluster, _ = scaling_mesh()
    series = benchmark.pedantic(
        run_machine, args=(mesh, cluster, MAHTI, NODES, (1, 2, 8)),
        rounds=1, iterations=1,
    )
    rows = [
        "Fig. 6a: strong scaling, mesh M on Mahti [GFLOPS/node (efficiency)]",
        f"{'nodes':>6} {'1 rank/node':>18} {'2 ranks/node':>18} {'8 ranks/node':>18}",
    ]
    for i, n in enumerate(NODES):
        rows.append(
            f"{n:>6} "
            + " ".join(
                f"{series[r][i].gflops_per_node:10.0f} ({series[r][i].parallel_efficiency:4.2f})"
                for r in (1, 2, 8)
            )
        )
    eff_8 = series[8][-1].parallel_efficiency
    rows += [
        "",
        f"{'metric':42} {'paper':>10} {'model':>10}",
        f"{'best placement':42} {'8 rpn':>10} "
        f"{max((1, 2, 8), key=lambda r: series[r][0].gflops_per_node):>7} rpn",
        f"{'GFLOPS/node at smallest count (8rpn)':42} {2322:>10} {series[8][0].gflops_per_node:>10.0f}",
        f"{'GFLOPS/node at largest count (8rpn)':42} {1689:>10} {series[8][-1].gflops_per_node:>10.0f}",
        f"{'parallel efficiency at 14x nodes':42} {'~73%':>10} {eff_8 * 100:>9.0f}%",
    ]
    # shape assertions: 8 rpn wins, efficiency decays into the paper's range
    assert series[8][0].gflops_per_node > series[1][0].gflops_per_node
    assert 0.45 < eff_8 < 1.0
    report("fig6a_mahti", rows,
           metrics=_kernel_metrics(MAHTI, NODES, series, (1, 2, 8)))


def test_fig6b_supermuc_ng(benchmark):
    mesh, cluster, _ = scaling_mesh()
    series = benchmark.pedantic(
        run_machine, args=(mesh, cluster, SUPERMUC_NG, NODES_NG, (1, 2)),
        rounds=1, iterations=1,
    )
    rows = [
        "Fig. 6b: strong scaling, mesh M on SuperMUC-NG [GFLOPS/node (efficiency)]",
        f"{'nodes':>6} {'1 rank/node':>18} {'2 ranks/node':>18}",
    ]
    for i, n in enumerate(NODES_NG):
        rows.append(
            f"{n:>6} "
            + " ".join(
                f"{series[r][i].gflops_per_node:10.0f} ({series[r][i].parallel_efficiency:4.2f})"
                for r in (1, 2)
            )
        )
    eff = series[2][-1].parallel_efficiency
    rows += [
        "",
        f"{'metric':42} {'paper':>10} {'model':>10}",
        f"{'GFLOPS/node at smallest count':42} {1359:>10} {series[2][0].gflops_per_node:>10.0f}",
        f"{'GFLOPS/node at largest count':42} {981:>10} {series[2][-1].gflops_per_node:>10.0f}",
        f"{'parallel efficiency at 32x nodes':42} {'~72%':>10} {eff * 100:>9.0f}%",
        f"{'total PFLOPS at largest count':42} {'~1.57 (x1600)':>10} "
        f"{series[2][-1].total_pflops:>10.3f}",
        "",
        "(node counts are scaled with the mesh; the comparison axis is the",
        " relative node-increase factor — see DESIGN.md substitutions)",
    ]
    assert series[2][0].gflops_per_node > series[1][0].gflops_per_node * 0.98
    assert 0.4 < eff < 1.0
    report("fig6b_supermuc_ng", rows,
           metrics=_kernel_metrics(SUPERMUC_NG, NODES_NG, series, (1, 2)))
