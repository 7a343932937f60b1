"""Tetrahedral meshes of the unit cube and unit ball.

Provides the connectivity needed by vertex- and edge-based finite elements:
a deterministic global edge numbering (sorted vertex pairs, lexicographic
order), signed per-tetrahedron edge references, and an oriented boundary
surface with per-triangle areas and outward normals.

Conventions
-----------
* Every tetrahedron is stored with positive signed volume.
* A global edge is the sorted pair (lo, hi); its intrinsic direction is
  lo -> hi.  ``tet_edge_signs`` records whether the local traversal of a
  tetrahedron agrees with that direction.
* Boundary triangles are oriented so that (b-a) x (c-a) points out of the
  domain.
* Every vertex belongs to at least one tetrahedron.
* The boundary is a closed surface: each boundary edge borders exactly two
  boundary faces, and the faces at each boundary vertex form one fan (the
  surface is not pinched at a vertex).  ``Mesh`` construction decides every
  such rule, so a file, a generator and a refinement are refused or accepted
  alike.

Arrays only some callers read (centroids, tet gradients, boundary vertex ids
and interior ids) are ``functools.cached_property`` values, built on first
use and kept.

Connectivity is deduplicated on 1-D int64 keys, never on rows.  A vertex
pair lo < hi has the key ``lo * V + hi`` (V vertices), whose sort order is
the lexicographic order of the pairs.  A triangle a < b < c has the key
``e * V + c``, where e is the global id of its edge (a, b); it sorts like
(a, b, c).  The keys stay below E * V (E edges, about 7 V on these meshes),
inside int64 up to about 10**9 vertices; the raw ``a * V**2 + b * V + c``
would overflow above V = 2**21 = 2 097 152, which ball level 6 exceeds.
"""

from __future__ import annotations

import json
import numbers
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, MalformedMeshError

# Local edge k connects local vertices LOCAL_EDGES[k]; local face k is
# opposite local vertex k and is oriented outward for a positive tet.
LOCAL_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64)
LOCAL_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]], dtype=np.int64)
# Edge k of a triangle connects its local vertices TRIANGLE_EDGES[k].
TRIANGLE_EDGES = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)

MESH_FORMAT_VERSION = 1

# Bounds on the largest side of a mesh's bounding box.  The assembled forms
# carry up to the third power of the length and the solvers square them, so
# a run over- or underflows well inside the float range (2.2e-308 to
# 1.8e308): a cube n=2 scaled by 1e-35 draws numpy warnings from the
# diagnostic's Lanczos, and one scaled by 1e60 from the residual
# certificate.  The bounds keep the tenth power of the side and of its
# inverse inside that range.  The config reader bounds omega, the shift,
# tensor entries and the centers and sizes of perturbations by MAX_EXTENT too.
MIN_EXTENT = 1e-30
MAX_EXTENT = 1e30


def _signed_volumes(vertices, tets):
    """Signed tet volumes; inf or nan where finite coordinates overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = vertices[tets[:, 1:]] - vertices[tets[:, :1]]
        return np.linalg.det(e) / 6.0


class Mesh:
    """Immutable tetrahedral mesh with derived connectivity.

    Parameters
    ----------
    vertices : (V, 3) float array
    tets : (T, 4) int array, positively oriented
    region : (T,) int array, material region tag per element (default 1)
    kind : "cube" | "ball" | "generic"; ball meshes re-project boundary
        vertices to the unit sphere on refinement.
    """

    def __init__(self, vertices, tets, region=None, kind="generic"):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MalformedMeshError(f"vertices must be (V, 3), got {vertices.shape}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MalformedMeshError(f"tets must be (T, 4), got {tets.shape}")
        if len(tets) == 0:
            raise MalformedMeshError("mesh has no tets")
        if tets.min() < 0 or tets.max() >= len(vertices):
            raise MalformedMeshError("tet vertex index out of range")
        if not np.all(np.bincount(tets.ravel(), minlength=len(vertices))):
            raise MalformedMeshError("a vertex belongs to no tet")
        if region is None:
            region = np.ones(len(tets), dtype=np.int64)
        else:
            region = np.ascontiguousarray(region, dtype=np.int64)
            if region.shape != (len(tets),):
                raise MalformedMeshError("region tag array must have one entry per tet")

        vols = _signed_volumes(vertices, tets)
        if not np.all(np.isfinite(vols)):
            bad = int(np.argmin(np.isfinite(vols)))
            raise MalformedMeshError(f"tet {bad} has non-finite volume {float(vols[bad])!r}")
        if np.any(vols <= 0.0):
            bad = int(np.argmin(vols))
            raise MalformedMeshError(f"tet {bad} has non-positive volume {vols[bad]:.3e}")
        with np.errstate(over="ignore"):
            extent = float(np.ptp(vertices, axis=0).max())
        if not MIN_EXTENT <= extent <= MAX_EXTENT:
            raise MalformedMeshError(
                f"mesh scale {extent:.3e} (largest bounding-box side) outside "
                f"[{MIN_EXTENT:g}, {MAX_EXTENT:g}]")

        self.vertices = vertices
        self.tets = tets
        self.region = region
        self.kind = kind
        self.volumes = vols

        self._build_edges()
        self._build_faces()
        for arr in (self.vertices, self.tets, self.region, self.edges, self._edge_keys,
                    self.tet_edges, self.tet_edge_signs, self.boundary_faces,
                    self.boundary_face_edges, self.boundary_edge_ids):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ #
    def _build_edges(self):
        pairs = self.tets[:, LOCAL_EDGES]                      # (T, 6, 2)
        lo = pairs.min(axis=2)
        hi = pairs.max(axis=2)
        self._edge_keys, first, inverse = np.unique(
            (lo * self.n_vertices + hi).ravel(), return_index=True, return_inverse=True)
        self.edges = np.stack([lo.ravel()[first], hi.ravel()[first]], axis=1)  # lexicographic
        self.tet_edges = inverse.reshape(len(self.tets), 6)
        self.tet_edge_signs = np.where(pairs[..., 0] == lo, 1, -1)

    def _build_faces(self):
        faces = self.tets[:, LOCAL_FACES].reshape(-1, 3)       # oriented outward per tet
        abc = np.sort(faces, axis=1)
        keys = self.find_edges(abc[:, :2]) * self.n_vertices + abc[:, 2]
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        if np.any(counts > 2):
            raise MalformedMeshError("a face is shared by more than two tets (non-manifold)")
        self.boundary_faces = faces[first[counts == 1]]
        # global ids of the edges TRIANGLE_EDGES of each boundary face, (F, 3)
        ends = self.boundary_faces[:, TRIANGLE_EDGES]
        lo_hi = np.argsort(ends, axis=2)                       # local corners of (lo, hi)
        pairs = np.take_along_axis(ends, lo_hi, axis=2)
        self.boundary_face_edges = self.find_edges(pairs.reshape(-1, 2)).reshape(-1, 3)
        self.boundary_edge_ids, uses = np.unique(self.boundary_face_edges, return_counts=True)
        if np.any(uses != 2):
            raise MalformedMeshError("boundary surface is not closed")
        # a corner (3 f + j) is vertex j of boundary face f; the two faces of a
        # boundary edge link their corners at each end, and the corners at a
        # vertex are connected exactly when its faces form one fan
        n = 3 * len(ends)
        corners = np.arange(0, n, 3)[:, None, None] + TRIANGLE_EDGES[np.arange(3)[:, None], lo_hi]
        linked = corners.reshape(-1, 2)[np.argsort(self.boundary_face_edges, axis=None)]
        graph = sp.coo_matrix((np.ones(n), (linked[0::2].ravel(), linked[1::2].ravel())),
                              shape=(n, n))
        if connected_components(graph, directed=False)[0] != len(self.boundary_vertex_ids):
            raise MalformedMeshError("boundary surface is pinched at a vertex")

    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def n_edges(self):
        return len(self.edges)

    def summary(self) -> dict:
        """The mesh block of every report: element counts and kind."""
        return {
            "vertices": self.n_vertices,
            "tets": self.n_tets,
            "edges": self.n_edges,
            "boundary_faces": int(len(self.boundary_faces)),
            "kind": self.kind,
        }

    @cached_property
    def centroids(self):
        return self.vertices[self.tets].mean(axis=1)

    @cached_property
    def tet_gradients(self):
        """Gradients of the four barycentric coordinates per tet, shape (T, 4, 3)."""
        e = self.vertices[self.tets[:, 1:]] - self.vertices[self.tets[:, :1]]
        gi = np.linalg.inv(e).transpose(0, 2, 1)               # rows: grad(lambda_1..3)
        g0 = -gi.sum(axis=1, keepdims=True)
        return np.concatenate([g0, gi], axis=1)

    @cached_property
    def boundary_vertex_ids(self):
        return np.unique(self.boundary_faces)

    @cached_property
    def interior_vertex_ids(self):
        return np.setdiff1d(np.arange(self.n_vertices), self.boundary_vertex_ids)

    @cached_property
    def interior_edge_ids(self):
        return np.setdiff1d(np.arange(self.n_edges), self.boundary_edge_ids)

    def find_edges(self, pairs):
        """Global edge ids for sorted vertex pairs; raises if a pair is not an edge."""
        pairs = np.asarray(pairs, dtype=np.int64)
        key = self._edge_keys
        want = pairs[:, 0] * self.n_vertices + pairs[:, 1]
        idx = np.searchsorted(key, want)
        if np.any(idx >= len(key)) or np.any(key[np.minimum(idx, len(key) - 1)] != want):
            raise MalformedMeshError("vertex pair is not a mesh edge")
        return idx


class SurfaceMesh:
    """Closed oriented triangulation of the domain boundary.

    ``triangles`` index into the surface vertex numbering; ``tri_vol`` keeps
    the original volume vertex ids (outward orientation preserved).  Each
    triangle carries its area and outward unit normal.

    ``Mesh`` has checked that the surface is closed.  Its normals point
    outward because the tet volumes are positive: for a tet and its local
    face (a, b, c), (b - a) x (c - a) . (face centroid - tet centroid) is
    1.5 times the tet volume.
    """

    def __init__(self, mesh: Mesh):
        tri_vol = mesh.boundary_faces
        vertex_ids = mesh.boundary_vertex_ids
        vol_to_surf = -np.ones(mesh.n_vertices, dtype=np.int64)
        vol_to_surf[vertex_ids] = np.arange(len(vertex_ids))

        self.mesh = mesh
        self.vertex_ids = vertex_ids
        self.tri_vol = tri_vol
        self.triangles = vol_to_surf[tri_vol]

        p = mesh.vertices[tri_vol]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        nrm = np.cross(e1, e2)
        dbl = np.linalg.norm(nrm, axis=1)
        if np.any(dbl <= 0.0):
            raise MalformedMeshError("degenerate boundary triangle")
        self.areas = 0.5 * dbl
        self.normals = nrm / dbl[:, None]

        # Per-triangle surface gradients of the three vertex hat functions.
        g0 = np.cross(self.normals, p[:, 2] - p[:, 1]) / dbl[:, None]
        g1 = np.cross(self.normals, p[:, 0] - p[:, 2]) / dbl[:, None]
        g2 = np.cross(self.normals, p[:, 1] - p[:, 0]) / dbl[:, None]
        self.hat_gradients = np.stack([g0, g1, g2], axis=1)

    @property
    def n_vertices(self):
        return len(self.vertex_ids)


# ---------------------------------------------------------------------- #
# generators
# ---------------------------------------------------------------------- #

_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def generate_cube_mesh(n):
    """Mesh [0,1]^3 with n subdivisions per axis, six tets per subcube.

    The subcube triangulation follows the path-based pattern whose induced
    face diagonals are translation invariant, so neighbouring cells match.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    n = int(n)
    axis = np.arange(n + 1) / n
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def vid(ix, iy, iz):
        return (ix * (n + 1) + iy) * (n + 1) + iz

    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    base = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)   # (C, 3)
    tets = []
    unit = np.eye(3, dtype=np.int64)
    for perm in _PERMS:
        corners = (base, base + unit[perm[0]], base + unit[perm[0]] + unit[perm[1]], base + 1)
        tets.append(np.stack([vid(*p.T) for p in corners], axis=1))
    tets = np.concatenate(tets)
    tets = _orient_positive(vertices, tets)
    return Mesh(vertices, tets, kind="cube")


def generate_ball_mesh(level):
    """Mesh the unit ball: subdivided octahedron seed, `level` uniform refinements.

    Boundary vertices are projected to the unit sphere after every
    refinement, so all boundary vertices sit on the sphere exactly.
    """
    if level < 0:
        raise ValueError(f"refinement level must be >= 0, got {level}")
    vertices = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
    ])
    xs = {1: 1, -1: 2}
    ys = {1: 3, -1: 4}
    zs = {1: 5, -1: 6}
    tets = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                a, b, c = xs[sx], ys[sy], zs[sz]
                if sx * sy * sz < 0:
                    b, c = c, b
                tets.append([0, a, b, c])
    mesh = Mesh(vertices, np.array(tets, dtype=np.int64), kind="ball")
    for _ in range(level + 1):   # seed itself is refined once
        mesh = refine_uniform(mesh)
    return mesh


def _orient_positive(vertices, tets):
    vols = _signed_volumes(vertices, tets)
    flip = vols < 0
    tets = tets.copy()
    tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2].copy()
    return tets


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split each tet 1:8 (red refinement); region tags are inherited.

    Ball meshes re-project boundary vertices to the unit sphere: the
    parent's boundary vertices and the midpoints of its boundary edges.
    Each child's vertex order is positive for a positive parent, so no child
    needs re-orienting.
    """
    nv = mesh.n_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.concatenate([mesh.vertices, mids])

    v = mesh.tets
    m = nv + mesh.tet_edges                       # columns: m01 m02 m03 m12 m13 m23
    m01, m02, m03, m12, m13, m23 = (m[:, k] for k in range(6))
    v0, v1, v2, v3 = (v[:, k] for k in range(4))
    children = np.stack([
        np.stack([v0, m01, m02, m03], axis=1),
        np.stack([v1, m01, m13, m12], axis=1),
        np.stack([v2, m02, m12, m23], axis=1),
        np.stack([v3, m03, m23, m13], axis=1),
        np.stack([m02, m13, m03, m01], axis=1),
        np.stack([m02, m13, m23, m03], axis=1),
        np.stack([m02, m13, m12, m23], axis=1),
        np.stack([m02, m13, m01, m12], axis=1),
    ], axis=1)                                    # (T, 8, 4)
    tets = children.reshape(-1, 4)
    region = np.repeat(mesh.region, 8)
    if mesh.kind == "ball":
        b = np.concatenate([mesh.boundary_vertex_ids, nv + mesh.boundary_edge_ids])
        vertices[b] /= np.linalg.norm(vertices[b], axis=1)[:, None]
    return Mesh(vertices, tets, region, kind=mesh.kind)


def extract_boundary(mesh: Mesh) -> SurfaceMesh:
    """Oriented closed boundary triangulation of a valid mesh."""
    return SurfaceMesh(mesh)


# ---------------------------------------------------------------------- #
# serialization
# ---------------------------------------------------------------------- #

def save_mesh(mesh: Mesh, path):
    """Write the versioned mesh JSON; edges/boundary are never serialized."""
    doc = {
        "version": MESH_FORMAT_VERSION,
        "vertices": mesh.vertices.tolist(),
        "tets": mesh.tets.tolist(),
        "region": mesh.region.tolist(),
    }
    if mesh.kind != "generic":
        doc["kind"] = mesh.kind
    with open(path, "w") as fh:
        json.dump(doc, fh)


def is_number(x):
    """Whether ``x`` is a real number; true and false, which count as 1 and 0, are not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def read_json(path, error):
    """The JSON document at ``path``: the one reader of the config and mesh
    files.  Text that is not UTF-8 JSON and a key given twice in one object
    raise ``error``; an unreadable file raises ConfigError (the config names it)."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise error(f"{path} repeats key {key!r} in one object")
            doc[key] = value
        return doc

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:     # ValueError: also an integer too long for int()
        raise error(f"{path} is not valid JSON: {exc}") from exc


def _numbers(doc, key):
    """``doc[key]`` as an int64 or float64 array.  Null, objects, strings,
    booleans, ragged lists, non-finite values (1e400 reads as inf) and
    integers outside int64 are refused."""
    try:
        values = np.asarray(doc[key])
    except ValueError:                                  # ragged nesting
        raise MalformedMeshError(f"mesh file '{key}' is not a rectangular array") from None
    rows = doc[key]
    if values.ndim == 2 and values.dtype.kind in "if":
        # numpy reads a boolean as 0 or 1, so only a row holding a 0 or a 1 can hide one
        rows = [rows[i] for i in np.flatnonzero(((values == 0) | (values == 1)).any(axis=1))]
    leaves = [rows]
    for _ in range(values.ndim):
        leaves = chain.from_iterable(leaves)
    # is_number depends on the type alone, and each JSON type has a no-argument instance
    if not all(is_number(leaf_type()) for leaf_type in set(map(type, leaves))):
        raise MalformedMeshError(f"mesh file '{key}' is not an array of numbers")
    if values.dtype.kind in "uO":       # all numbers, so one is an integer beyond int64
        raise MalformedMeshError(f"mesh file '{key}' holds an integer outside int64")
    if not np.all(np.isfinite(values)):
        bad = values[~np.isfinite(values)]
        raise MalformedMeshError(f"mesh file '{key}' holds a non-finite value {float(bad[0])!r}")
    return values


def _integers(doc, key):
    """``doc[key]`` as int64; a value with a fractional part is refused, not
    truncated, and so is one outside int64."""
    values = _numbers(doc, key)
    if values.dtype.kind == "f":
        bad = values[np.mod(values, 1.0) != 0.0]
        if bad.size:
            raise MalformedMeshError(
                f"mesh file '{key}' holds a non-integer value {float(bad[0])!r}")
        if np.any((values < -2.0**63) | (values >= 2.0**63)):
            raise MalformedMeshError(f"mesh file '{key}' holds an integer outside int64")
    return values.astype(np.int64)


def load_mesh(path) -> Mesh:
    doc = read_json(path, MalformedMeshError)
    if not isinstance(doc, dict):
        raise MalformedMeshError(f"mesh file {path} is not a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != MESH_FORMAT_VERSION:     # true and 1.0 equal 1
        raise MalformedMeshError(f"mesh file 'version' must be the integer 1, got {version!r}")
    unknown = sorted(set(doc) - {"version", "vertices", "tets", "region", "kind"})
    if unknown:
        raise MalformedMeshError(f"mesh file has unknown key {unknown[0]!r}")
    for key in ("vertices", "tets", "region"):
        if key not in doc:
            raise MalformedMeshError(f"mesh file missing '{key}'")
    kind = doc.get("kind", "generic")
    if kind not in ("cube", "ball", "generic"):
        raise MalformedMeshError(f"mesh file 'kind' must be cube, ball or generic, got {kind!r}")
    return Mesh(_numbers(doc, "vertices"), _integers(doc, "tets"), _integers(doc, "region"),
                kind=kind)
