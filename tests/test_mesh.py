"""Tests for the tetrahedral mesh substrate and generators."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import FACE_PERMUTATIONS, face_points_to_tet
from repro.core.materials import acoustic, elastic
from repro.core.quadrature import triangle_rule
from repro.core.riemann import FaceKind
from repro.exec.plan_cache import mesh_fingerprint
from repro.mesh.generators import bathymetry_mesh, box_mesh, layered_ocean_mesh
from repro.mesh.refine import geometric_spacing, refined_spacing, uniform_spacing
from repro.mesh.tetmesh import TetMesh

ROCK = elastic(2700.0, 6000.0, 3464.0)
WATER = acoustic(1000.0, 1500.0)


def small_box(nc=3, L=1.0):
    xs = np.linspace(0, L, nc + 1)
    return box_mesh(xs, xs, xs, [ROCK])


class TestBoxMesh:
    def test_element_count_and_volume(self):
        m = small_box(3)
        assert m.n_elements == 27 * 6
        assert np.isclose(m.volumes.sum(), 1.0)
        assert (m.volumes > 0).all()

    def test_face_count_identity(self):
        m = small_box(3)
        assert 4 * m.n_elements == 2 * len(m.interior) + len(m.boundary)

    def test_normals_orientation(self):
        m = small_box(2)
        d = m.centroids[m.interior.plus_elem] - m.centroids[m.interior.minus_elem]
        assert (np.einsum("ij,ij->i", d, m.interior.normal) > 0).all()
        db = m.boundary.centroid - m.centroids[m.boundary.elem]
        assert (np.einsum("ij,ij->i", db, m.boundary.normal) > 0).all()

    def test_face_point_matching(self):
        """Minus/plus trace quadrature points must coincide physically for
        every orientation class present in the mesh."""
        m = bathymetry_mesh(
            np.linspace(0, 10, 4),
            np.linspace(0, 10, 4),
            lambda x, y: -2 - 0.4 * np.sin(x / 2) - 0.3 * np.cos(y / 2),
            2,
            np.linspace(-8, -2, 3),
            ROCK,
            WATER,
        )
        rs, _ = triangle_rule(3)
        itf = m.interior
        for f in range(len(itf)):
            pm = face_points_to_tet(itf.minus_face[f], rs)
            pp = face_points_to_tet(itf.plus_face[f], rs, FACE_PERMUTATIONS[itf.perm[f]])
            xm = m.map_points(np.array([itf.minus_elem[f]]), pm)[0]
            xp = m.map_points(np.array([itf.plus_elem[f]]), pp)[0]
            assert np.abs(xm - xp).max() < 1e-9

    def test_insphere_diameter(self):
        m = small_box(2)
        # regular Kuhn tet of a cube with edge h: d_in = known positive value < h
        h = 0.5
        assert (m.insphere_diameter < h).all()
        assert (m.insphere_diameter > 0.1 * h).all()

    def test_orientation_fix(self):
        """Deliberately inverted tets are repaired."""
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        tets = np.array([[0, 1, 3, 2]])  # negative orientation
        m = TetMesh(verts, tets, [ROCK])
        assert m.volumes[0] > 0

    def test_rejects_degenerate(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]])
        with pytest.raises(ValueError):
            TetMesh(verts, np.array([[0, 1, 2, 3]]), [ROCK])

    def test_rejects_bad_material_ids(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            TetMesh(verts, np.array([[0, 1, 2, 3]]), [ROCK], material_ids=np.array([5]))

    def test_locate_and_reference_coords(self):
        m = small_box(2)
        pts = np.array([[0.1, 0.2, 0.3], [0.9, 0.9, 0.1]])
        elems = m.locate(pts)
        assert (elems >= 0).all()
        for e, x in zip(elems, pts):
            xi = m.reference_coords(int(e), x[None])[0]
            assert (xi > -1e-9).all() and xi.sum() < 1 + 1e-9

    def test_locate_outside(self):
        m = small_box(2)
        assert m.locate(np.array([[5.0, 5.0, 5.0]]))[0] == -1


class TestPeriodic:
    def test_glue_all_axes(self):
        m = small_box(3)
        n_glued = 0
        for vec in np.eye(3):
            n_glued += m.glue_periodic(vec * 1.0)
        assert len(m.boundary) == 0
        assert n_glued * 2 == 6 * 9 * 2  # 2 triangles per cell face, 9 cells per side

    def test_glued_points_match_modulo_translation(self):
        m = small_box(2)
        m.glue_periodic(np.array([1.0, 0, 0]))
        rs, _ = triangle_rule(2)
        itf = m.interior
        # glued faces are the ones whose centroid x == 1.0
        glued = np.flatnonzero(np.abs(itf.centroid[:, 0] - 1.0) < 1e-12)
        assert glued.size > 0
        for f in glued:
            pm = face_points_to_tet(itf.minus_face[f], rs)
            pp = face_points_to_tet(itf.plus_face[f], rs, FACE_PERMUTATIONS[itf.perm[f]])
            xm = m.map_points(np.array([itf.minus_elem[f]]), pm)[0]
            xp = m.map_points(np.array([itf.plus_elem[f]]), pp)[0]
            assert np.abs(xm - np.array([1.0, 0, 0]) - xp).max() < 1e-9


class TestLayeredAndBathymetry:
    def test_layered_material_split(self):
        m = layered_ocean_mesh(
            np.linspace(0, 4, 3),
            np.linspace(0, 4, 3),
            np.linspace(-4, -1, 4),
            np.linspace(-1, 0, 2),
            ROCK,
            WATER,
        )
        z = m.centroids[:, 2]
        assert (m.is_acoustic_elem == (z > -1)).all()

    def test_layered_requires_matching_seafloor(self):
        with pytest.raises(ValueError):
            layered_ocean_mesh(
                np.linspace(0, 4, 3),
                np.linspace(0, 4, 3),
                np.linspace(-4, -1.5, 4),
                np.linspace(-1, 0, 2),
                ROCK,
                WATER,
            )

    def test_bathymetry_interface_follows_floor(self):
        def bathy(x, y):
            return -2.0 - 0.5 * np.sin(x)

        m = bathymetry_mesh(
            np.linspace(0, 6, 7),
            np.linspace(0, 2, 3),
            bathy,
            2,
            np.linspace(-6, -2, 3),
            ROCK,
            WATER,
        )
        # every acoustic element must lie above the local seafloor
        ac = m.is_acoustic_elem
        c = m.centroids
        assert (c[ac, 2] >= bathy(c[ac, 0], c[ac, 1]) - 1e-9).all()
        assert (c[~ac, 2] <= bathy(c[~ac, 0], c[~ac, 1]) + 1e-9).all()
        assert (m.volumes > 0).all()

    def test_tag_boundary(self):
        m = small_box(2)

        def tagger(cent, nrm):
            tags = np.full(len(cent), FaceKind.ABSORBING.value)
            tags[nrm[:, 2] > 0.99] = FaceKind.FREE_SURFACE.value
            return tags

        m.tag_boundary(tagger)
        top = m.boundary.normal[:, 2] > 0.99
        assert (m.boundary.kind[top] == FaceKind.FREE_SURFACE.value).all()
        assert (m.boundary.kind[~top] == FaceKind.ABSORBING.value).all()

    def test_mark_fault(self):
        m = small_box(2)
        n = m.mark_fault(lambda c, nrm: (np.abs(c[:, 0] - 0.5) < 1e-9) & (np.abs(nrm[:, 0]) > 0.99))
        assert n > 0
        assert m.interior.is_fault.sum() == n

    def test_dual_graph(self):
        m = small_box(2)
        edges = m.dual_graph_edges()
        assert edges.shape == (len(m.interior), 2)
        assert (edges[:, 0] != edges[:, 1]).all()


class TestRenumberElements:
    @staticmethod
    def tagged_faulted_mesh():
        m = layered_ocean_mesh(
            np.linspace(0, 4, 4), np.linspace(0, 4, 3),
            np.linspace(-4, -1, 4), np.linspace(-1, 0, 2), ROCK, WATER)
        assert m.mark_fault(lambda c, n: (np.abs(n[:, 2]) > 0.99)
                            & (np.abs(c[:, 2] + 2.0) < 1e-9)) > 0
        m.tag_boundary(lambda c, n: np.where(
            n[:, 2] > 0.99, FaceKind.GRAVITY_FREE_SURFACE.value,
            FaceKind.ABSORBING.value))
        return m

    @staticmethod
    def face_set(m):
        """Interior faces as unordered pairs of (element, local face) with
        their fault mark, boundary faces as (element, local face, kind)."""
        itf, bnd = m.interior, m.boundary
        inner = {(frozenset([(int(a), int(b)), (int(c), int(d))]), bool(f))
                 for a, b, c, d, f in zip(itf.minus_elem, itf.minus_face,
                                          itf.plus_elem, itf.plus_face,
                                          itf.is_fault)}
        outer = {(int(e), int(f), int(k))
                 for e, f, k in zip(bnd.elem, bnd.face, bnd.kind)}
        return inner, outer

    def test_equals_a_mesh_built_in_the_new_order(self):
        """Every per-element array and both face tables are those of a
        mesh constructed from scratch with the tets already permuted."""
        m = self.tagged_faulted_mesh()
        order = np.random.default_rng(3).permutation(m.n_elements)
        inv = np.argsort(order)
        fresh = TetMesh(m.vertices, m.tets[order], m.materials,
                        m.material_ids[order])
        before = {name: getattr(m.interior, name).copy() for name in
                  ("minus_face", "plus_face", "perm", "normal", "area",
                   "centroid", "is_fault")}
        old_inner, old_outer = self.face_set(m)
        m.renumber_elements(order)
        for name in ("tets", "material_ids", "jac", "inv_jac", "det_jac",
                     "volumes", "centroids", "insphere_diameter"):
            assert np.array_equal(getattr(m, name), getattr(fresh, name)), name
        # faces keep their order, sides, geometry and marks
        for name, arr in before.items():
            assert np.array_equal(getattr(m.interior, name), arr), name
        inner, outer = self.face_set(m)
        assert inner == {(frozenset((int(inv[e]), f) for e, f in pair), flt)
                         for pair, flt in old_inner}
        assert outer == {(int(inv[e]), f, k) for e, f, k in old_outer}
        assert {pair for pair, _ in inner} == \
            {pair for pair, _ in self.face_set(fresh)[0]}

    def test_identity_and_round_trip(self):
        m = self.tagged_faulted_mesh()
        fp0 = mesh_fingerprint(m)
        tets0 = m.tets.copy()
        m.renumber_elements(np.arange(m.n_elements))
        assert mesh_fingerprint(m) == fp0
        order = np.random.default_rng(4).permutation(m.n_elements)
        m.renumber_elements(order)
        # plan cache and checkpoints key on the final numbering
        assert mesh_fingerprint(m) != fp0
        m.renumber_elements(np.argsort(order))
        assert np.array_equal(m.tets, tets0)
        assert mesh_fingerprint(m) == fp0

    @pytest.mark.parametrize("bad,match", [
        (lambda n: np.arange(n - 1), "length"),
        (lambda n: np.arange(n + 1), "length"),
        (lambda n: np.arange(n, dtype=float), "length"),
        (lambda n: np.arange(n) + 1, "range"),
        (lambda n: np.arange(n) - 1, "range"),
        (lambda n: np.r_[0, np.arange(n - 1)], "duplicated"),
    ])
    def test_rejects_non_permutations(self, bad, match):
        m = small_box(2)
        tets = m.tets.copy()
        with pytest.raises(ValueError, match=match):
            m.renumber_elements(bad(m.n_elements))
        assert np.array_equal(m.tets, tets)  # nothing was relabelled


class TestFlipAndReorderFaces:
    """The face half of ``core.lts.cluster_major``: a flipped face is the
    same face seen from its other side, a reorder moves whole rows."""

    def test_flipped_faces_match_pointwise(self):
        m = TestRenumberElements.tagged_faulted_mesh()
        itf = m.interior
        before = {f.name: np.copy(getattr(itf, f.name)) for f in fields(itf)}
        flip = ~itf.is_fault
        m.flip_faces(flip)
        assert np.array_equal(itf.minus_elem[flip], before["plus_elem"][flip])
        assert np.array_equal(itf.normal, np.where(flip[:, None], -1.0, 1.0)
                              * before["normal"])
        # the inverse permutation keeps both sides' quadrature points on
        # one another, and the normal still points from minus to plus
        rs, _ = triangle_rule(3)
        for f in range(len(itf)):
            pm = face_points_to_tet(itf.minus_face[f], rs)
            pp = face_points_to_tet(itf.plus_face[f], rs,
                                    FACE_PERMUTATIONS[itf.perm[f]])
            xm = m.map_points(np.array([itf.minus_elem[f]]), pm)[0]
            xp = m.map_points(np.array([itf.plus_elem[f]]), pp)[0]
            assert np.abs(xm - xp).max() < 1e-9
        d = m.centroids[itf.plus_elem] - m.centroids[itf.minus_elem]
        assert (np.einsum("ij,ij->i", d, itf.normal) > 0).all()
        # flipping twice is the identity, bitwise
        m.flip_faces(flip)
        for name, arr in before.items():
            assert np.array_equal(getattr(itf, name), arr), name

    def test_fault_faces_are_never_flipped(self):
        m = TestRenumberElements.tagged_faulted_mesh()
        minus = m.interior.minus_elem.copy()
        with pytest.raises(ValueError, match="fault"):
            m.flip_faces(np.ones(len(m.interior), dtype=bool))
        with pytest.raises(ValueError, match="bool mask"):
            m.flip_faces(np.arange(len(m.interior)))
        assert np.array_equal(m.interior.minus_elem, minus)

    def test_reorder_moves_whole_rows(self):
        m = TestRenumberElements.tagged_faulted_mesh()
        inner, outer = TestRenumberElements.face_set(m)
        rng = np.random.default_rng(5)
        pi = rng.permutation(len(m.interior))
        pb = rng.permutation(len(m.boundary))
        centroid = m.interior.centroid.copy()
        kind = m.boundary.kind.copy()
        fp0 = mesh_fingerprint(m)
        m.reorder_faces(pi, pb)
        assert np.array_equal(m.interior.centroid, centroid[pi])
        assert np.array_equal(m.boundary.kind, kind[pb])
        assert TestRenumberElements.face_set(m) == (inner, outer)
        assert mesh_fingerprint(m) != fp0
        m.reorder_faces(np.argsort(pi), np.argsort(pb))
        assert mesh_fingerprint(m) == fp0
        with pytest.raises(ValueError, match="duplicated"):
            m.reorder_faces(np.r_[0, np.arange(len(pi) - 1)], pb)
        with pytest.raises(ValueError, match="length"):
            m.reorder_faces(pi, pb[:-1])


class TestSpacings:
    def test_uniform(self):
        xs = uniform_spacing(0, 10, 5)
        assert len(xs) == 6
        assert np.allclose(np.diff(xs), 2.0)

    def test_geometric_monotone(self):
        xs = geometric_spacing(0, 100, 1.0, 1.3)
        d = np.diff(xs)
        assert (d > 0).all()
        assert xs[0] == 0 and xs[-1] == 100

    def test_refined_window(self):
        xs = refined_spacing(0, 100, 10.0, 1.0, 40, 60)
        d = np.diff(xs)
        inside = (xs[:-1] >= 40) & (xs[1:] <= 60)
        assert d[inside].max() < 1.5
        assert d.max() > 3.0
        assert xs[0] == 0 and xs[-1] == 100
        assert (d > 0).all()

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_uniform_props(self, n):
        xs = uniform_spacing(-1, 1, n)
        assert len(xs) == n + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_spacing(1, 0, 3)
        with pytest.raises(ValueError):
            geometric_spacing(0, 1, -1.0, 1.2)
        with pytest.raises(ValueError):
            refined_spacing(0, 10, 1.0, 2.0, 2, 4)
