"""Tests for the HPC substrate: partitioning, machines, perf model and
the strong-scaling simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lts import cluster_elements
from repro.core.materials import elastic
from repro.core.riemann import FaceKind
from repro.hpc.machine import AMD_ROME_7H12, MAHTI, SHAHEEN2, SUPERMUC_NG
from repro.hpc.partition import (
    edge_cut,
    eq28_vertex_weights,
    imbalance,
    partition_geometric,
)
from repro.hpc.perfmodel import NodePerformanceModel, dof_count, kernel_counts
from repro.hpc.scaling import StrongScalingModel
from repro.mesh.generators import box_mesh

from .conftest import ocean_box_mesh

ROCK = elastic(2700.0, 6000.0, 3464.0)


def ocean_mesh(n=4):
    m = ocean_box_mesh(np.linspace(0, 4000.0, n + 1), -3000.0, -1000.0, layers=(2, 2))

    def tagger(cent, nrm):
        tags = np.full(len(cent), FaceKind.ABSORBING.value)
        top = (nrm[:, 2] > 0.99) & (np.abs(cent[:, 2]) < 1.0)
        tags[top] = FaceKind.GRAVITY_FREE_SURFACE.value
        return tags

    m.tag_boundary(tagger)
    return m


class TestEq28Weights:
    def test_plain_element_weight(self):
        m = box_mesh(*(np.linspace(0, 1, 3),) * 3, [ROCK])
        cl = np.zeros(m.n_elements, dtype=int)
        w = eq28_vertex_weights(m, cl)
        assert (w == 100).all()

    def test_lts_rate_factor(self):
        m = box_mesh(*(np.linspace(0, 1, 3),) * 3, [ROCK])
        cl = np.zeros(m.n_elements, dtype=int)
        cl[0] = 0
        cl[1:] = 1
        w = eq28_vertex_weights(m, cl)
        assert w[0] == 200  # updates twice as often
        assert (w[1:] == 100).all()

    def test_gravity_surcharge(self):
        m = ocean_mesh()
        cl = np.zeros(m.n_elements, dtype=int)
        w = eq28_vertex_weights(m, cl, w_g=300)
        bnd = m.boundary
        grav_elems = np.unique(bnd.elem[bnd.kind == FaceKind.GRAVITY_FREE_SURFACE.value])
        assert (w[grav_elems] >= 400).all()
        others = np.setdiff1d(np.arange(m.n_elements), grav_elems)
        assert (w[others] == 100).all()

    def test_fault_surcharge(self):
        m = box_mesh(*(np.linspace(0, 1, 3),) * 3, [ROCK])
        m.mark_fault(lambda c, n: (np.abs(n[:, 0]) > 0.99) & (np.abs(c[:, 0] - 0.5) < 1e-9))
        cl = np.zeros(m.n_elements, dtype=int)
        w = eq28_vertex_weights(m, cl, w_dr=200)
        assert w.max() >= 300


class TestPartitioner:
    def test_balance_uniform(self):
        rng = np.random.default_rng(0)
        pts = rng.random((2000, 3))
        w = np.ones(2000)
        parts = partition_geometric(pts, w, 8)
        assert imbalance(parts, w) < 1.05

    def test_honors_tpwgts(self):
        rng = np.random.default_rng(1)
        pts = rng.random((4000, 3))
        w = np.ones(4000)
        tpw = np.array([0.5, 0.25, 0.125, 0.125])
        parts = partition_geometric(pts, w, 4, tpw)
        loads = np.bincount(parts, weights=w) / w.sum()
        assert np.allclose(loads, tpw, atol=0.02)

    def test_weighted_elements(self):
        rng = np.random.default_rng(2)
        pts = rng.random((3000, 3))
        w = rng.integers(1, 10, size=3000).astype(float)
        parts = partition_geometric(pts, w, 6)
        assert imbalance(parts, w) < 1.1

    def test_spatial_locality_bounds_cut(self):
        """Geometric partitions of a mesh must cut far fewer faces than a
        random assignment."""
        m = box_mesh(*(np.linspace(0, 1, 9),) * 3, [ROCK])
        parts = partition_geometric(m.centroids, np.ones(m.n_elements), 8)
        edges = m.dual_graph_edges()
        rng = np.random.default_rng(3)
        random_parts = rng.integers(0, 8, m.n_elements)
        assert edge_cut(parts, edges) < 0.4 * edge_cut(random_parts, edges)

    def test_validation(self):
        pts = np.zeros((10, 3))
        with pytest.raises(ValueError):
            partition_geometric(pts, np.ones(10), 0)
        with pytest.raises(ValueError):
            partition_geometric(pts, np.ones(10), 2, np.array([0.9, 0.3]))

    @given(st.integers(min_value=1, max_value=13))
    @settings(max_examples=8, deadline=None)
    def test_every_part_nonempty(self, n_parts):
        rng = np.random.default_rng(42)
        pts = rng.random((200, 3))
        parts = partition_geometric(pts, np.ones(200), n_parts)
        assert len(np.unique(parts)) == n_parts


class TestMachines:
    def test_rome_peak_matches_paper(self):
        """Sec. 5.1: 'peak performance of 5325 GFLOPS per node'."""
        assert abs(AMD_ROME_7H12.peak_gflops - 5325.0) < 1.0
        assert AMD_ROME_7H12.n_numa == 8
        assert AMD_ROME_7H12.cores == 128

    def test_machine_inventory(self):
        assert SHAHEEN2.n_nodes == 6174
        assert SUPERMUC_NG.n_nodes == 6336
        assert MAHTI.n_nodes == 1404
        assert MAHTI.node.cores == 128
        assert SUPERMUC_NG.node.cores == 48

    def test_ng_heterogeneity_matches_sec62(self):
        """Slowest node at 60.4% of average."""
        assert np.isclose(SUPERMUC_NG.perf_min, 0.604, atol=0.01)

    def test_speed_sampling(self):
        speeds = MAHTI.sample_node_speeds(500, np.random.default_rng(0))
        assert speeds.shape == (500,)
        assert 0.95 < speeds.mean() < 1.05
        assert speeds.min() >= MAHTI.perf_min - 1e-12

    def test_force_straggler(self):
        speeds = MAHTI.sample_node_speeds(10, np.random.default_rng(0), force_straggler=True)
        assert np.isclose(speeds.min(), MAHTI.perf_min)

    def test_topology_penalty_monotone(self):
        net = SUPERMUC_NG.network
        assert net.penalty(1) <= net.penalty(100) <= net.penalty(6000)


class TestPerfModel:
    def test_dof_counts_match_paper(self):
        """Sec. 6.2: M mesh 89M elements ~ 46 GDOF; L mesh 518M ~ 261 GDOF
        at order 5 (B_5 = 56, x9 quantities)."""
        assert abs(dof_count(518_000_000, 5) - 261e9) < 3e9
        assert abs(dof_count(89_000_000, 5) - 46e9) < 2e9

    def test_flops_grow_with_order(self):
        f = [kernel_counts(o).flops_total for o in range(1, 6)]
        assert all(a < b for a, b in zip(f, f[1:]))

    def test_sec51_numa_study(self):
        """All five measured Rome numbers within 15% of the model."""
        m = NodePerformanceModel(AMD_ROME_7H12, order=5)
        checks = [
            (m.predictor_gflops(), 3360.0),
            (m.predictor_gflops(1), 428.0),
            (m.full_gflops(), 2053.0),
            (m.full_gflops(1), 376.0),
            (m.full_gflops(4), 1390.0),
        ]
        for got, want in checks:
            assert abs(got - want) / want < 0.15, (got, want)

    def test_numa_effect_direction(self):
        """More ranks per node must improve the corrector-inclusive rate but
        leave the predictor untouched (Sec. 5.1 hypothesis)."""
        m = NodePerformanceModel(AMD_ROME_7H12, order=5)
        assert m.full_gflops(ranks_per_node=8) > m.full_gflops(ranks_per_node=1)
        assert m.predictor_gflops() == pytest.approx(m.predictor_gflops())

    def test_extrapolation_matches_paper_structure(self):
        """Sec. 5.1: single-NUMA x 8 extrapolation must exceed the measured
        full-node rate for the corrector (the NUMA penalty) but not for the
        predictor."""
        m = NodePerformanceModel(AMD_ROME_7H12, order=5)
        assert m.numa_extrapolated_limit(full=True) > m.full_gflops()
        assert m.numa_extrapolated_limit(full=False) == pytest.approx(
            m.predictor_gflops(), rel=0.02
        )


class TestScalingModel:
    @pytest.fixture(scope="class")
    def model(self):
        m = ocean_mesh(n=10)
        cl, _ = cluster_elements(m, 3)
        return StrongScalingModel(m, cl, order=3, machine=MAHTI)

    def test_efficiency_decays(self, model):
        res = model.sweep([1, 2, 8, 24])
        effs = [r.parallel_efficiency for r in res]
        assert effs[0] == 1.0
        assert effs[-1] < 0.95
        assert effs[-1] > 0.2

    def test_more_ranks_per_node_helps_at_fixed_nodes(self, model):
        r1 = model.simulate(4, ranks_per_node=1)
        r8 = model.simulate(4, ranks_per_node=8)
        assert r8.gflops_per_node > r1.gflops_per_node

    def test_node_weights_help_with_straggler(self, model):
        r_w = model.simulate(8, 2, use_node_weights=True, force_straggler=True)
        r_n = model.simulate(8, 2, use_node_weights=False, force_straggler=True)
        assert r_n.gflops_per_node < r_w.gflops_per_node

    def test_total_flops_invariant(self, model):
        r1 = model.simulate(2)
        r2 = model.simulate(4)
        assert np.isclose(
            r1.gflops_per_node * r1.n_nodes * r1.time_per_macro_step,
            r2.gflops_per_node * r2.n_nodes * r2.time_per_macro_step,
        )

    def test_rejects_overdecomposition(self, model):
        with pytest.raises(ValueError):
            model.simulate(model.mesh.n_elements + 1)
