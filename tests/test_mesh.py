import json

import numpy as np
import pytest

from fem_helpers import euler_characteristic
from steklovlab import mesh as mesh_module
from steklovlab.errors import ConfigError, MalformedMeshError
from steklovlab.mesh import (
    LOCAL_EDGES,
    LOCAL_FACES,
    Mesh,
    extract_boundary,
    generate_ball_mesh,
    generate_cube_mesh,
    load_mesh,
    refine_uniform,
    save_mesh,
)


def check_invariants(mesh):
    """Face incidence, orientation, volume positivity, boundary topology."""
    assert np.all(mesh.volumes > 0)
    faces = mesh.tets[:, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]].reshape(-1, 3)
    _, counts = np.unique(np.sort(faces, axis=1), axis=0, return_counts=True)
    assert set(counts) <= {1, 2}
    surf = extract_boundary(mesh)
    assert euler_characteristic(surf) == 2
    # outward orientation (also asserted inside SurfaceMesh)
    face_c = mesh.vertices[surf.tri_vol].mean(axis=1)
    tet_c = mesh.centroids[mesh.boundary_face_tets]
    assert np.all(np.einsum("ij,ij->i", surf.normals, face_c - tet_c) > 0)


def test_cube_n1_counts():
    mesh = generate_cube_mesh(1)
    assert mesh.n_vertices == 8
    assert mesh.n_tets == 6
    assert len(mesh.boundary_faces) == 12


def test_cube_n2_counts():
    mesh = generate_cube_mesh(2)
    assert mesh.n_tets == 48
    assert len(mesh.boundary_faces) == 48  # 12 n^2


def test_cube_n3_volume_partition():
    mesh = generate_cube_mesh(3)
    assert abs(mesh.volumes.sum() - 1.0) <= 1e-12


def test_cube_n2_interior_vertex_is_the_center():
    mesh = generate_cube_mesh(2)
    (c,) = mesh.interior_vertex_ids
    assert np.array_equal(mesh.vertices[c], [0.5, 0.5, 0.5])
    assert len(mesh.boundary_vertex_ids) == mesh.n_vertices - 1


def test_cube_n0_rejected():
    with pytest.raises(ValueError):
        generate_cube_mesh(0)


def test_ball_level0_boundary_on_sphere():
    mesh = generate_ball_mesh(0)
    r = np.linalg.norm(mesh.vertices[mesh.boundary_vertex_ids], axis=1)
    assert np.max(np.abs(r - 1.0)) <= 1e-12


def test_ball_level2_volume():
    # Tolerance calibrated once against level 3 (deficit 0.587%, one refinement
    # away at O(h^2), so level 2 sits near 4x that): observed 2.32%.
    mesh = generate_ball_mesh(2)
    exact = 4.0 * np.pi / 3.0
    assert abs(mesh.volumes.sum() - exact) / exact <= 0.03


def test_ball_euler_characteristic():
    for level in (0, 1, 2):
        surf = extract_boundary(generate_ball_mesh(level))
        assert euler_characteristic(surf) == 2


def test_ball_negative_level_rejected():
    with pytest.raises(ValueError):
        generate_ball_mesh(-1)


def test_extract_boundary_cube1_triangles():
    surf = extract_boundary(generate_cube_mesh(1))
    assert len(surf.triangles) == 12


def test_extract_boundary_closed_cube2():
    surf = extract_boundary(generate_cube_mesh(2))
    tri = surf.triangles
    pairs = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [0, 2]], tri[:, [1, 2]]]), axis=1)
    _, counts = np.unique(pairs, axis=0, return_counts=True)
    assert np.all(counts == 2)


def test_extract_boundary_ball1_area():
    # Calibrated against level 2 (deficit 1.26%): observed level-1 deficit 4.87%.
    surf = extract_boundary(generate_ball_mesh(1))
    assert abs(surf.areas.sum() - 4.0 * np.pi) / (4.0 * np.pi) <= 0.05


def test_nonmanifold_rejected():
    verts = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0],
    ])
    # three tets sharing face (0,1,2)
    tets = np.array([[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]])
    with pytest.raises(MalformedMeshError):
        Mesh(verts, tets)


def test_refine_cube1_counts_and_volume():
    mesh = refine_uniform(generate_cube_mesh(1))
    assert mesh.n_tets == 48
    assert abs(mesh.volumes.sum() - 1.0) <= 1e-12


def test_refine_inherits_region():
    base = generate_cube_mesh(2)
    tagged = Mesh(base.vertices, base.tets, np.arange(base.n_tets) % 3 + 1, kind="cube")
    fine = refine_uniform(tagged)
    assert np.array_equal(fine.region, np.repeat(tagged.region, 8))


def test_double_refinement_keeps_invariants():
    for mesh in (generate_cube_mesh(1), generate_ball_mesh(0)):
        for _ in range(2):
            mesh = refine_uniform(mesh)
            check_invariants(mesh)


def test_ball_refine_reprojects_boundary():
    fine = refine_uniform(generate_ball_mesh(0))
    r = np.linalg.norm(fine.vertices[fine.boundary_vertex_ids], axis=1)
    assert np.max(np.abs(r - 1.0)) <= 1e-12


def test_edge_numbering_deterministic():
    a = generate_cube_mesh(2)
    b = generate_cube_mesh(2)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.tet_edges, b.tet_edges)
    assert np.array_equal(a.tet_edge_signs, b.tet_edge_signs)
    assert np.all(a.edges[:, 0] < a.edges[:, 1])


def test_edge_signs_match_global_orientation():
    mesh = generate_ball_mesh(0)
    pairs = mesh.tets[:, LOCAL_EDGES]
    lo = mesh.edges[mesh.tet_edges][..., 0]
    expect = np.where(pairs[..., 0] == lo, 1, -1)
    assert np.array_equal(mesh.tet_edge_signs, expect)


def test_json_roundtrip(tmp_path):
    mesh = generate_ball_mesh(0)
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert set(doc) >= {"version", "vertices", "tets", "region"}
    back = load_mesh(path)
    assert np.array_equal(back.tets, mesh.tets)
    assert np.allclose(back.vertices, mesh.vertices)
    assert back.kind == "ball"
    # edges/boundary are recomputed, not serialized
    assert np.array_equal(back.edges, mesh.edges)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"version": 99, "vertices": [], "tets": [], "region": []}))
    with pytest.raises(ConfigError):
        load_mesh(path)


def test_orphan_vertex_rejected():
    cube = generate_cube_mesh(2)
    with pytest.raises(MalformedMeshError, match="belongs to no tet"):
        Mesh(np.concatenate([cube.vertices, [[5.0, 5.0, 5.0]]]), cube.tets)


def _rowwise_connectivity(mesh):
    """The connectivity of ``mesh`` built by deduplicating rows with
    ``np.unique(..., axis=0)``: the reference for the 1-D-key construction."""
    pairs = mesh.tets[:, LOCAL_EDGES]
    lo = pairs.min(axis=2)
    hi = pairs.max(axis=2)
    edges, inverse = np.unique(np.stack([lo.ravel(), hi.ravel()], axis=1), axis=0,
                               return_inverse=True)
    faces = mesh.tets[:, LOCAL_FACES].reshape(-1, 3)
    _, face_inverse, counts = np.unique(np.sort(faces, axis=1), axis=0,
                                        return_inverse=True, return_counts=True)
    order = np.argsort(face_inverse, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    single = order[starts[counts == 1]]
    boundary_faces = faces[single]
    tri_pairs = np.sort(boundary_faces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2), axis=1)
    edge_id = {tuple(e): i for i, e in enumerate(edges.tolist())}
    return {
        "edges": edges,
        "tet_edges": inverse.reshape(-1, 6),
        "tet_edge_signs": np.where(pairs[..., 0] == lo, 1, -1),
        "boundary_faces": boundary_faces,
        "boundary_face_tets": single // 4,
        "boundary_edge_ids": np.array(
            [edge_id[tuple(e)] for e in np.unique(tri_pairs, axis=0).tolist()]),
    }


def _permuted_cube3():
    cube = generate_cube_mesh(3)
    perm = np.random.default_rng(0).permutation(cube.n_vertices)   # old id -> new id
    vertices = np.empty_like(cube.vertices)
    vertices[perm] = cube.vertices
    return Mesh(vertices, perm[cube.tets], kind="cube")


@pytest.mark.parametrize("make", [
    lambda: generate_cube_mesh(1), lambda: generate_cube_mesh(2), lambda: generate_cube_mesh(3),
    lambda: generate_ball_mesh(0), lambda: generate_ball_mesh(1), lambda: generate_ball_mesh(2),
    _permuted_cube3,
], ids=["cube1", "cube2", "cube3", "ball0", "ball1", "ball2", "cube3-permuted"])
def test_connectivity_matches_rowwise_reference(make):
    mesh = make()
    for name, expect in _rowwise_connectivity(mesh).items():
        got = getattr(mesh, name)
        assert got.shape == expect.shape and np.array_equal(got, expect), name


def test_ball_refinement_projects_in_one_pass(monkeypatch):
    builds = []

    class CountedMesh(Mesh):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    parent = generate_ball_mesh(0)
    for _ in range(2):                                   # L0 -> L1 -> L2
        with monkeypatch.context() as m:
            m.setattr(mesh_module, "Mesh", CountedMesh)
            builds.clear()
            fine = refine_uniform(parent)
        assert len(builds) == 1

        new_boundary = np.concatenate([parent.boundary_vertex_ids,
                                       parent.n_vertices + parent.boundary_edge_ids])
        assert np.array_equal(np.unique(fine.boundary_faces), new_boundary)
        r = np.linalg.norm(fine.vertices[fine.boundary_vertex_ids], axis=1)
        assert np.max(np.abs(r - 1.0)) <= 1e-15

        # two passes: refine without projection, extract the boundary, project, rebuild
        flat = refine_uniform(Mesh(parent.vertices, parent.tets, parent.region))
        coords = flat.vertices.copy()
        b = extract_boundary(flat).vertex_ids
        coords[b] /= np.linalg.norm(coords[b], axis=1)[:, None]
        two_pass = Mesh(coords, flat.tets, flat.region, kind="ball")
        assert np.array_equal(fine.tets, two_pass.tets)
        assert np.array_equal(fine.vertices, two_pass.vertices)    # interior and boundary
        parent = fine


def _reference_children(mesh):
    """The red-refinement children of ``mesh`` in stencil order, each flipped
    by ``_orient_positive`` on the unprojected midpoints where negative."""
    nv = mesh.n_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    v0, v1, v2, v3 = mesh.tets.T
    m01, m02, m03, m12, m13, m23 = (nv + mesh.tet_edges).T
    children = np.stack([
        [v0, m01, m02, m03], [v1, m01, m12, m13], [v2, m02, m12, m23], [v3, m03, m13, m23],
        [m02, m13, m01, m03], [m02, m13, m03, m23], [m02, m13, m23, m12], [m02, m13, m12, m01],
    ])                                                      # (8, 4, T)
    tets = children.transpose(2, 0, 1).reshape(-1, 4)
    return mesh_module._orient_positive(np.concatenate([mesh.vertices, mids]), tets)


@pytest.mark.parametrize("make", [
    lambda request: generate_cube_mesh(1), lambda request: generate_cube_mesh(3),
    lambda request: generate_ball_mesh(0), lambda request: generate_ball_mesh(1),
    lambda request: generate_ball_mesh(2), lambda request: request.getfixturevalue("two_cubes"),
], ids=["cube1", "cube3", "ball0", "ball1", "ball2", "two-cubes"])
def test_refined_children_match_orient_positive_reference(make, request, monkeypatch):
    parent = make(request)
    calls = []
    signed_volumes = mesh_module._signed_volumes
    monkeypatch.setattr(mesh_module, "_signed_volumes",
                        lambda *args: calls.append(1) or signed_volumes(*args))
    fine = refine_uniform(parent)
    assert len(calls) == 1                      # the Mesh check only: no re-orientation
    assert np.array_equal(fine.tets, _reference_children(parent))
