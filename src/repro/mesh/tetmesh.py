"""Conforming unstructured tetrahedral meshes.

The mesh owns everything geometric the ADER-DG solver needs:

* affine reference maps (Jacobians, inverses, determinants),
* insphere diameters for the CFL condition (paper Eq. 27),
* a face table built by vectorized vertex-triple matching, with each
  interior face classified into one of the 4 x 4 x 6 (minus local face,
  plus local face, vertex permutation) orientation classes used to pick the
  precomputed neighbor trace operators,
* boundary faces with user-assigned :class:`~repro.core.riemann.FaceKind`
  tags, and interior faces optionally promoted to dynamic-rupture faults,
* per-element material assignment,
* the dual graph (element adjacency) consumed by the partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..core.basis import FACE_PERMUTATIONS, TET_FACES
from ..core.materials import Material
from ..core.riemann import FaceKind

__all__ = ["TetMesh", "InteriorFaces", "BoundaryFaces"]

#: ``_INVERSE_PERM[p]`` indexes the inverse of ``FACE_PERMUTATIONS[p]``:
#: the permutation of a face seen from its other side
_INVERSE_PERM = np.array([
    FACE_PERMUTATIONS.index(tuple(int(i) for i in np.argsort(pi)))
    for pi in FACE_PERMUTATIONS])


def _inverse_permutation(order, n: int, what: str) -> np.ndarray:
    """``inv`` with ``inv[order[i]] == i``; raises unless ``order`` is a
    permutation of ``range(n)`` (``what`` names the items)."""
    order = np.asarray(order)
    if order.shape != (n,) or order.dtype.kind not in "iu":
        raise ValueError(
            f"order must have length {n} (one integer id per {what}), "
            f"got shape {order.shape}, dtype {order.dtype}")
    if n and (order.min() < 0 or order.max() >= n):
        raise ValueError(
            f"order holds ids outside range(0, {n}): "
            f"min {order.min()}, max {order.max()}")
    inv = np.full(n, -1, dtype=np.int64)
    inv[order] = np.arange(n)
    if (inv < 0).any():
        raise ValueError(
            f"order is not a permutation: {int((inv < 0).sum())} "
            f"{what} id(s) are duplicated, as many are missing")
    return inv


@dataclass
class InteriorFaces:
    """Struct-of-arrays description of interior (two-sided) faces."""

    minus_elem: np.ndarray  # (nf,) element index on the minus side
    plus_elem: np.ndarray  # (nf,)
    minus_face: np.ndarray  # (nf,) local face id in the minus element
    plus_face: np.ndarray  # (nf,) local face id in the plus element
    perm: np.ndarray  # (nf,) index into FACE_PERMUTATIONS
    normal: np.ndarray  # (nf, 3) unit normal pointing from minus to plus
    area: np.ndarray  # (nf,)
    centroid: np.ndarray  # (nf, 3)
    is_fault: np.ndarray = None  # (nf,) bool

    def __post_init__(self):
        if self.is_fault is None:
            self.is_fault = np.zeros(len(self.minus_elem), dtype=bool)

    def __len__(self) -> int:
        return len(self.minus_elem)


@dataclass
class BoundaryFaces:
    """Struct-of-arrays description of boundary (one-sided) faces."""

    elem: np.ndarray  # (nf,)
    face: np.ndarray  # (nf,) local face id
    kind: np.ndarray  # (nf,) int-coded FaceKind
    normal: np.ndarray  # (nf, 3) outward unit normal
    area: np.ndarray  # (nf,)
    centroid: np.ndarray  # (nf, 3)

    def __len__(self) -> int:
        return len(self.elem)


@dataclass
class TetMesh:
    """An unstructured conforming tetrahedral mesh with materials.

    Parameters
    ----------
    vertices:
        ``(nv, 3)`` vertex coordinates.
    tets:
        ``(ne, 4)`` vertex indices.  Negative-orientation tets are repaired
        by swapping two vertices.
    materials:
        Material table.
    material_ids:
        ``(ne,)`` index into ``materials`` (default all 0).
    """

    vertices: np.ndarray
    tets: np.ndarray
    materials: list[Material] = field(default_factory=list)
    material_ids: np.ndarray = None

    # filled by __post_init__
    jac: np.ndarray = field(init=False, repr=False, default=None)
    inv_jac: np.ndarray = field(init=False, repr=False, default=None)
    det_jac: np.ndarray = field(init=False, repr=False, default=None)
    volumes: np.ndarray = field(init=False, repr=False, default=None)
    centroids: np.ndarray = field(init=False, repr=False, default=None)
    insphere_diameter: np.ndarray = field(init=False, repr=False, default=None)
    interior: InteriorFaces = field(init=False, repr=False, default=None)
    boundary: BoundaryFaces = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.tets = np.asarray(self.tets, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (nv, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise ValueError("tets must be (ne, 4)")
        if self.tets.size and (self.tets.min() < 0 or self.tets.max() >= len(self.vertices)):
            raise ValueError("tet vertex index out of range")
        if not self.materials:
            raise ValueError("at least one material is required")
        if self.material_ids is None:
            self.material_ids = np.zeros(len(self.tets), dtype=np.int64)
        else:
            self.material_ids = np.asarray(self.material_ids, dtype=np.int64)
            if self.material_ids.shape != (len(self.tets),):
                raise ValueError("material_ids must have one entry per tet")
            if self.material_ids.size and (
                self.material_ids.min() < 0 or self.material_ids.max() >= len(self.materials)
            ):
                raise ValueError("material id out of range")
        self._fix_orientation()
        self._compute_geometry()
        self._build_faces()

    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        return len(self.tets)

    def element_material(self, e: int) -> Material:
        return self.materials[self.material_ids[e]]

    @property
    def is_acoustic_elem(self) -> np.ndarray:
        """Boolean mask of acoustic (ocean) elements."""
        acoustic = np.array([m.is_acoustic for m in self.materials])
        return acoustic[self.material_ids]

    # ------------------------------------------------------------------
    def _fix_orientation(self) -> None:
        v = self.vertices[self.tets]
        d = np.linalg.det(v[:, 1:] - v[:, :1])
        flipped = d < 0
        if flipped.any():
            self.tets[flipped, 2], self.tets[flipped, 3] = (
                self.tets[flipped, 3].copy(),
                self.tets[flipped, 2].copy(),
            )
        v = self.vertices[self.tets]
        d = np.linalg.det(v[:, 1:] - v[:, :1])
        if (np.abs(d) < 1e-300).any():
            raise ValueError("mesh contains degenerate (zero-volume) tetrahedra")

    def _compute_geometry(self) -> None:
        v = self.vertices[self.tets]  # (ne, 4, 3)
        # affine map x = v0 + J xi, J columns are edge vectors
        self.jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=2)
        self.det_jac = np.linalg.det(self.jac)
        self.inv_jac = np.linalg.inv(self.jac)
        self.volumes = self.det_jac / 6.0
        self.centroids = v.mean(axis=1)
        # insphere radius r = 3V / (total face area)
        areas = np.zeros(len(self.tets))
        for a, b, c in TET_FACES:
            e1 = v[:, b] - v[:, a]
            e2 = v[:, c] - v[:, a]
            areas += 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
        self.insphere_diameter = 6.0 * self.volumes / areas

    def _build_faces(self) -> None:
        ne = self.n_elements
        # all (elem, local_face) pairs with their (ordered) global vertices
        elems = np.repeat(np.arange(ne), 4)
        local = np.tile(np.arange(4), ne)
        face_verts = np.empty((ne * 4, 3), dtype=np.int64)
        for f, idx in enumerate(TET_FACES):
            face_verts[f::4] = self.tets[:, list(idx)]
        key = np.sort(face_verts, axis=1)
        order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
        key_sorted = key[order]
        same = np.all(key_sorted[:-1] == key_sorted[1:], axis=1)
        # sanity: no vertex triple may appear more than twice
        if same.size >= 2 and np.any(same[:-1] & same[1:]):
            raise ValueError("non-manifold mesh: a face is shared by >2 tets")

        pair_first = np.flatnonzero(same)
        is_paired = np.zeros(ne * 4, dtype=bool)
        is_paired[pair_first] = True
        is_paired[pair_first + 1] = True

        i_minus = order[pair_first]
        i_plus = order[pair_first + 1]
        self.interior = self._make_interior(elems, local, face_verts, i_minus, i_plus)

        i_bnd = order[np.flatnonzero(~is_paired)]
        self.boundary = self._make_boundary(elems, local, i_bnd)

    def _face_geometry(self, elem_idx, local_idx):
        """Outward normal, area and centroid of faces given by flat indices."""
        v = self.vertices[self.tets[elem_idx]]
        faces = np.array(TET_FACES)
        tri = faces[local_idx]  # (nf, 3) local vertex ids
        a = np.take_along_axis(v, tri[:, 0][:, None, None].repeat(3, 2), axis=1)[:, 0]
        b = np.take_along_axis(v, tri[:, 1][:, None, None].repeat(3, 2), axis=1)[:, 0]
        c = np.take_along_axis(v, tri[:, 2][:, None, None].repeat(3, 2), axis=1)[:, 0]
        cr = np.cross(b - a, c - a)
        nrm = np.linalg.norm(cr, axis=1)
        normal = cr / nrm[:, None]
        area = 0.5 * nrm
        centroid = (a + b + c) / 3.0
        return normal, area, centroid

    def _make_interior(self, elems, local, face_verts, i_minus, i_plus) -> InteriorFaces:
        minus_elem = elems[i_minus]
        plus_elem = elems[i_plus]
        minus_face = local[i_minus]
        plus_face = local[i_plus]
        g = face_verts[i_minus]  # minus canonical ordering
        h = face_verts[i_plus]  # plus canonical ordering
        # permutation p with h[perm[k]] == g[k]
        perm = np.full(len(i_minus), -1, dtype=np.int64)
        for p, pi in enumerate(FACE_PERMUTATIONS):
            match = (
                (h[:, pi[0]] == g[:, 0]) & (h[:, pi[1]] == g[:, 1]) & (h[:, pi[2]] == g[:, 2])
            )
            perm[match] = p
        if (perm < 0).any():
            raise ValueError("face matching failed (inconsistent mesh)")
        normal, area, centroid = self._face_geometry(minus_elem, minus_face)
        return InteriorFaces(
            minus_elem=minus_elem,
            plus_elem=plus_elem,
            minus_face=minus_face,
            plus_face=plus_face,
            perm=perm,
            normal=normal,
            area=area,
            centroid=centroid,
        )

    def _make_boundary(self, elems, local, i_bnd) -> BoundaryFaces:
        elem = elems[i_bnd]
        face = local[i_bnd]
        normal, area, centroid = self._face_geometry(elem, face)
        kind = np.full(len(i_bnd), FaceKind.FREE_SURFACE.value, dtype=np.int64)
        return BoundaryFaces(
            elem=elem, face=face, kind=kind, normal=normal, area=area, centroid=centroid
        )

    # ------------------------------------------------------------------
    def tag_boundary(self, tagger) -> None:
        """Assign boundary conditions.

        ``tagger(centroids, normals) -> array of FaceKind (or int codes)``
        evaluated on all boundary faces at once.
        """
        tags = tagger(self.boundary.centroid, self.boundary.normal)
        tags = np.asarray(
            [t.value if isinstance(t, FaceKind) else int(t) for t in np.atleast_1d(tags)]
        )
        if tags.shape != (len(self.boundary),):
            raise ValueError("tagger must return one tag per boundary face")
        self.boundary.kind = tags

    def mark_fault(self, predicate) -> int:
        """Promote interior faces to dynamic-rupture fault faces.

        ``predicate(centroids, normals) -> bool mask`` over interior faces.
        Returns the number of fault faces marked.
        """
        mask = np.asarray(predicate(self.interior.centroid, self.interior.normal), dtype=bool)
        if mask.shape != (len(self.interior),):
            raise ValueError("predicate must return one flag per interior face")
        self.interior.is_fault = self.interior.is_fault | mask
        return int(mask.sum())

    def renumber_elements(self, order: np.ndarray) -> None:
        """Relabel the elements in place: new element ``i`` is old ``order[i]``.

        Permutes the per-element arrays and rewrites the element ids of
        the face tables; here faces keep their order, sides, normals, tags
        and fault marks, so every per-face and per-element value keeps its
        bits and only the row an element lives in changes.  The scenario
        builders do not call it alone: :func:`~repro.core.lts.cluster_major`
        renumbers, then re-orients and re-orders the faces
        (:meth:`flip_faces`, :meth:`reorder_faces`).  Call any of them
        after fault marking and boundary tagging and before building a
        solver: operators, plans and checkpoints key on the final
        numbering and face tables (:func:`~repro.exec.plan_cache.mesh_fingerprint`).
        """
        new_id = _inverse_permutation(order, self.n_elements, "element")
        for name in ("tets", "material_ids", "jac", "inv_jac", "det_jac",
                     "volumes", "centroids", "insphere_diameter"):
            setattr(self, name, getattr(self, name)[order])
        itf, bnd = self.interior, self.boundary
        itf.minus_elem = new_id[itf.minus_elem]
        itf.plus_elem = new_id[itf.plus_elem]
        bnd.elem = new_id[bnd.elem]

    def flip_faces(self, flip: np.ndarray) -> None:
        """Swap the minus and plus side of the interior faces ``flip``
        (a bool mask over interior faces) in place.

        Elements and local faces trade places, ``perm`` becomes its inverse
        in ``FACE_PERMUTATIONS`` and the normal is negated exactly; area
        and centroid are properties of the face and stay.  The discrete
        problem is the same up to rounding (the two sides' flux matrices
        are rebuilt from ``-n``).  A fault face's orientation defines the
        sign of its slip, so flipping one raises."""
        itf = self.interior
        flip = np.asarray(flip)
        if flip.shape != (len(itf),) or flip.dtype != bool:
            raise ValueError(
                f"flip must be a bool mask over the {len(itf)} interior "
                f"faces, got shape {flip.shape}, dtype {flip.dtype}")
        if (flip & itf.is_fault).any():
            raise ValueError("fault faces cannot be flipped: their "
                             "orientation defines the sign of the slip")
        for a, b in (("minus_elem", "plus_elem"), ("minus_face", "plus_face")):
            u, v = getattr(itf, a), getattr(itf, b)
            setattr(itf, a, np.where(flip, v, u))
            setattr(itf, b, np.where(flip, u, v))
        itf.perm = np.where(flip, _INVERSE_PERM[itf.perm], itf.perm)
        itf.normal = np.where(flip[:, None], -itf.normal, itf.normal)

    def reorder_faces(self, interior: np.ndarray, boundary: np.ndarray) -> None:
        """Permute both face tables in place: new interior face ``i`` is
        old interior face ``interior[i]``, likewise for ``boundary``.
        Every per-face array moves with its face (per-face solver state —
        fault slip, sea-surface height — follows the new order)."""
        tables = ((self.interior, interior), (self.boundary, boundary))
        for (table, order), what in zip(tables, ("interior face", "boundary face")):
            _inverse_permutation(order, len(table), what)
        for table, order in tables:
            for f in fields(table):
                setattr(table, f.name, getattr(table, f.name)[order])

    # ------------------------------------------------------------------
    def glue_periodic(self, translation: np.ndarray, tol: float = 1e-8) -> int:
        """Glue boundary faces across a periodic translation vector.

        Every boundary face whose translate by ``translation`` coincides with
        another boundary face is converted into an interior face (the pair is
        removed from the boundary table).  Used by verification setups that
        need exact plane-wave solutions.  Returns the number of glued pairs.
        """
        t = np.asarray(translation, dtype=float)
        bnd = self.boundary
        scale = max(np.abs(self.vertices).max(), 1.0)
        key_of = {}
        faces = np.array(TET_FACES)

        def face_positions(e, f):
            tri = faces[f]
            return self.vertices[self.tets[e][tri]]

        # minus side: outward normal along +t
        tn = t / np.linalg.norm(t)
        along = bnd.normal @ tn
        minus_ids = np.flatnonzero(along > 0.99)
        plus_ids = np.flatnonzero(along < -0.99)
        for bi in plus_ids:
            pos = face_positions(bnd.elem[bi], bnd.face[bi])
            key = tuple(sorted(tuple(np.round(p / (tol * scale)).astype(np.int64)) for p in pos))
            key_of[key] = bi

        pairs = []
        for bi in minus_ids:
            pos = face_positions(bnd.elem[bi], bnd.face[bi]) - t
            key = tuple(sorted(tuple(np.round(p / (tol * scale)).astype(np.int64)) for p in pos))
            bj = key_of.get(key)
            if bj is not None:
                pairs.append((bi, bj))

        if not pairs:
            return 0

        new_rows = {k: [] for k in ("minus_elem", "plus_elem", "minus_face", "plus_face", "perm")}
        drop = np.zeros(len(bnd), dtype=bool)
        geom_n, geom_a, geom_c = [], [], []
        for bi, bj in pairs:
            em, fm = int(bnd.elem[bi]), int(bnd.face[bi])
            ep, fp = int(bnd.elem[bj]), int(bnd.face[bj])
            g = face_positions(em, fm) - t  # minus canonical positions, shifted
            h = face_positions(ep, fp)
            perm = -1
            for p, pi in enumerate(FACE_PERMUTATIONS):
                if all(np.allclose(h[pi[k]], g[k], atol=tol * scale) for k in range(3)):
                    perm = p
                    break
            if perm < 0:
                raise ValueError("periodic face matching failed (non-matching grids)")
            new_rows["minus_elem"].append(em)
            new_rows["plus_elem"].append(ep)
            new_rows["minus_face"].append(fm)
            new_rows["plus_face"].append(fp)
            new_rows["perm"].append(perm)
            geom_n.append(bnd.normal[bi])
            geom_a.append(bnd.area[bi])
            geom_c.append(bnd.centroid[bi])
            drop[bi] = True
            drop[bj] = True

        itf = self.interior
        self.interior = InteriorFaces(
            minus_elem=np.concatenate([itf.minus_elem, new_rows["minus_elem"]]).astype(np.int64),
            plus_elem=np.concatenate([itf.plus_elem, new_rows["plus_elem"]]).astype(np.int64),
            minus_face=np.concatenate([itf.minus_face, new_rows["minus_face"]]).astype(np.int64),
            plus_face=np.concatenate([itf.plus_face, new_rows["plus_face"]]).astype(np.int64),
            perm=np.concatenate([itf.perm, new_rows["perm"]]).astype(np.int64),
            normal=np.vstack([itf.normal, geom_n]),
            area=np.concatenate([itf.area, geom_a]),
            centroid=np.vstack([itf.centroid, geom_c]),
            is_fault=np.concatenate([itf.is_fault, np.zeros(len(pairs), dtype=bool)]),
        )
        keep = ~drop
        self.boundary = BoundaryFaces(
            elem=bnd.elem[keep],
            face=bnd.face[keep],
            kind=bnd.kind[keep],
            normal=bnd.normal[keep],
            area=bnd.area[keep],
            centroid=bnd.centroid[keep],
        )
        return len(pairs)

    # ------------------------------------------------------------------
    def dual_graph_edges(self) -> np.ndarray:
        """``(nf, 2)`` element index pairs sharing a face (the dual graph)."""
        return np.column_stack([self.interior.minus_elem, self.interior.plus_elem])

    def map_points(self, elem: np.ndarray, ref_points: np.ndarray) -> np.ndarray:
        """Map reference-tet points to physical space for elements ``elem``.

        Returns ``(len(elem), npts, 3)``.
        """
        v0 = self.vertices[self.tets[elem, 0]]
        return v0[:, None, :] + np.einsum("eij,pj->epi", self.jac[elem], ref_points)

    def locate(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Find the element containing each point (brute force; small meshes).

        Returns element indices, ``-1`` where a point is outside the mesh.
        """
        points = np.atleast_2d(points)
        out = np.full(len(points), -1, dtype=np.int64)
        for i, x in enumerate(points):
            xi = np.einsum("eij,ej->ei", self.inv_jac, x[None] - self.vertices[self.tets[:, 0]])
            inside = (
                (xi[:, 0] >= -tol)
                & (xi[:, 1] >= -tol)
                & (xi[:, 2] >= -tol)
                & (xi.sum(axis=1) <= 1 + tol)
            )
            hits = np.flatnonzero(inside)
            if hits.size:
                out[i] = hits[0]
        return out

    def reference_coords(self, elem: int, x: np.ndarray) -> np.ndarray:
        """Reference coordinates of physical point(s) ``x`` in element ``elem``."""
        x = np.atleast_2d(x)
        return (self.inv_jac[elem] @ (x - self.vertices[self.tets[elem, 0]]).T).T
