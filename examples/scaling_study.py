#!/usr/bin/env python3
"""Strong-scaling study on the simulated machines (paper Fig. 6).

Builds a Palu-like coupled mesh, clusters it for LTS, partitions it with
Eq. 28 weights, and sweeps node counts on the Mahti and SuperMUC-NG machine
models with different ranks-per-node — the full Sec. 6.3 experiment on the
simulated-machine substrate.

Run:  python examples/scaling_study.py
"""

import numpy as np

from repro.core.lts import cluster_elements
from repro.core.materials import acoustic, elastic
from repro.hpc.machine import MAHTI, SUPERMUC_NG
from repro.hpc.scaling import StrongScalingModel
from repro.mesh.generators import bathymetry_mesh
from repro.mesh.refine import refined_spacing


def build_mesh():
    earth = elastic(2700.0, 6000.0, 3464.0)
    ocean = acoustic(1000.0, 1500.0)

    def bathy(x, y):
        return -100 - 600 * np.exp(-(((x - 30e3) / 8e3) ** 2)) * (
            0.5 + 0.5 * np.tanh((y - 20e3) / 10e3)
        )

    xs = refined_spacing(0, 60e3, 4000, 1200, 15e3, 45e3)
    ys = refined_spacing(0, 120e3, 4000, 1200, 20e3, 100e3)
    zs = np.concatenate(
        [np.linspace(-30e3, -10e3, 4), refined_spacing(-10e3, -700, 3000, 1200, -10e3, -700)[1:]]
    )
    return bathymetry_mesh(xs, ys, bathy, 2, zs, earth, ocean)


def main():
    print("building Palu-like mesh ...")
    mesh = build_mesh()
    cluster, dt_min = cluster_elements(mesh, 5)
    print(f"  {mesh.n_elements} elements, LTS clusters {np.bincount(cluster)}")

    nodes = [2, 4, 8, 16, 28]
    for machine, rpns in ((MAHTI, (1, 2, 8)), (SUPERMUC_NG, (1, 2))):
        print(f"\n== {machine.name} (node peak {machine.node.peak_gflops:.0f} GFLOPS) ==")
        model = StrongScalingModel(mesh, cluster, order=5, machine=machine)
        header = f"{'nodes':>6} | " + " | ".join(f"{r} rpn GF/node (eff)" for r in rpns)
        print(header)
        series = {r: model.sweep(nodes, ranks_per_node=r) for r in rpns}
        for i, n in enumerate(nodes):
            row = f"{n:6d} | " + " | ".join(
                f"{series[r][i].gflops_per_node:8.0f} ({series[r][i].parallel_efficiency:4.2f})"
                for r in rpns
            )
            print(row)

    # node-weight ablation (Sec. 6.3 last paragraph)
    model = StrongScalingModel(mesh, cluster, order=5, machine=MAHTI)
    r_on = model.simulate(24, 8, use_node_weights=True, force_straggler=True)
    r_off = model.simulate(24, 8, use_node_weights=False, force_straggler=True)
    print(f"\nnode weights off/on: {r_off.gflops_per_node / r_on.gflops_per_node * 100:.0f}% "
          f"(paper: 84%)")


if __name__ == "__main__":
    main()
