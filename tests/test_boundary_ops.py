import numpy as np
import pytest

from fem_helpers import apply_S, surface_l2_product
from steklovlab.boundary_ops import assemble_surface_operators
from steklovlab.errors import SolverFailure
from steklovlab.fem_maxwell import discrete_gradient
from steklovlab.mesh import extract_boundary, generate_ball_mesh, generate_cube_mesh


@pytest.fixture(scope="module", params=["cube2", "ball1"])
def ops(request):
    mesh = generate_cube_mesh(2) if request.param == "cube2" else generate_ball_mesh(1)
    return assemble_surface_operators(extract_boundary(mesh), mesh)


def random_edge_vector(mesh, seed=0, complex_=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mesh.n_edges)
    if complex_:
        v = v + 1j * rng.standard_normal(mesh.n_edges)
    return v


def test_L_kills_constants(ops):
    one = np.ones(ops.L.shape[0])
    assert np.abs(ops.L @ one).max() <= 1e-12


def test_L_rank_deficiency_exactly_one(ops):
    evals = np.linalg.eigvalsh(ops.L.toarray())
    assert evals[0] <= 1e-12 * evals[-1]
    assert evals[1] > 1e-8 * evals[-1]


def test_D_transpose_kills_constant_surface_function(ops):
    one = np.ones(ops.L.shape[0])
    assert np.abs(ops.D.T @ one).max() <= 1e-13


def test_D_kills_discrete_gradients(ops):
    mesh = ops.mesh
    G = discrete_gradient(mesh)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.standard_normal(mesh.n_vertices)
        gz = G @ z
        assert np.abs(ops.D @ gz).max() <= 1e-10 * max(1.0, np.abs(gz).max())


def test_D_row_locality_structural(ops):
    # vertices not on a triangle touching edge e never see edge e: structural zero
    D = ops.D.tocsc()
    mesh = ops.mesh
    surf = ops.surface
    touching = {}
    for f, tri in enumerate(surf.triangles):
        for v in tri:
            touching.setdefault(int(v), set()).add(f)
    # edge columns present in D
    col = D.indptr
    tri_edges = {}
    from steklovlab.boundary_ops import _TRI_PAIRS

    pairs = surf.tri_vol[:, _TRI_PAIRS]
    lo = pairs.min(axis=2)
    hi = pairs.max(axis=2)
    eids = mesh.find_edges(np.stack([lo.ravel(), hi.ravel()], axis=1)).reshape(-1, 3)
    for f in range(len(surf.triangles)):
        for e in eids[f]:
            tri_edges.setdefault(int(e), set()).add(f)
    for e, faces in list(tri_edges.items())[:50]:
        rows = D.indices[col[e]:col[e + 1]]
        allowed = set()
        for f in faces:
            allowed.update(int(v) for v in surf.triangles[f])
        assert set(rows.tolist()) <= allowed


def test_apply_S_gradient_is_zero(ops):
    mesh = ops.mesh
    G = discrete_gradient(mesh)
    z = np.cos(3.0 * mesh.vertices[:, 0]) + mesh.vertices[:, 1] ** 2
    fld, p = apply_S(ops, G @ z)
    assert np.abs(fld).max() <= 1e-10
    assert np.abs(p).max() <= 1e-10


def test_apply_S_interior_field_is_exactly_zero(ops):
    mesh = ops.mesh
    u = np.zeros(mesh.n_edges)
    u[mesh.interior_edge_ids] = 1.7
    fld, p = apply_S(ops, u)
    assert np.abs(fld).max() == 0.0
    assert np.abs(p).max() == 0.0


def test_apply_S_quadratic_form_matches_gram(ops):
    B = ops
    mesh = ops.mesh
    for seed in range(3):
        u = random_edge_vector(mesh, seed)
        v = random_edge_vector(mesh, seed + 10)
        su, _ = apply_S(ops, u)
        sv, pv = apply_S(ops, v)
        lhs = surface_l2_product(ops, su, sv)
        rhs = complex(u @ (B @ v))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) / scale <= 1e-10
        # integration by parts: u^T B v = (D u)^T p_v
        assert abs((ops.D @ u) @ pv - rhs) / scale <= 1e-10


def test_gram_symmetric_psd_kills_gradients(ops):
    B = ops
    mesh = ops.mesh
    Bd = B @ np.eye(mesh.n_edges)
    assert np.abs(Bd - Bd.T).max() <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(mesh.n_edges)
        assert x @ (B @ x) >= -1e-12 * (x @ x)
    G = discrete_gradient(mesh)
    z = rng.standard_normal(mesh.n_vertices)
    gz = G @ z
    assert np.abs(B @ gz).max() <= 1e-10 * max(1.0, np.abs(gz).max())
    # a block of columns is applied as each of its columns is
    U = np.stack([random_edge_vector(mesh, s) for s in (3, 4, 5)], axis=1)
    BU = B @ U
    for j in range(U.shape[1]):
        assert np.abs(BU[:, j] - B @ U[:, j]).max() <= 1e-12 * np.abs(BU[:, j]).max()


def test_gram_complex_matvec(ops):
    B = ops
    u = random_edge_vector(ops.mesh, 2, complex_=True)
    out = B @ u
    assert np.iscomplexobj(out)
    assert np.abs((B @ u.real) + 1j * (B @ u.imag) - out).max() <= 1e-12 * np.abs(out).max()


def test_apply_S_potential_mean_zero_per_component(two_cubes):
    ops = assemble_surface_operators(extract_boundary(two_cubes), two_cubes)
    w = ops.surface.lumped_mass()
    points = two_cubes.vertices[ops.surface.vertex_ids]
    for seed in range(3):
        _, p = apply_S(ops, random_edge_vector(two_cubes, seed, complex_=seed == 2))
        for part in (points[:, 0] < 1.5, points[:, 0] > 1.5):
            assert abs(w[part] @ p[part]) / w[part].sum() <= 1e-12 * np.abs(p).max()


def test_gram_of_two_cubes_is_block_diagonal(two_cubes):
    # the second cube's edges follow the first cube's in the same order
    cube = generate_cube_mesh(2)
    assert np.array_equal(two_cubes.edges,
                          np.concatenate([cube.edges, cube.edges + cube.n_vertices]))
    B1 = assemble_surface_operators(extract_boundary(cube), cube)
    B2 = assemble_surface_operators(extract_boundary(two_cubes), two_cubes)
    ne = cube.n_edges
    for seed in range(3):
        u = random_edge_vector(two_cubes, seed)
        ref = np.concatenate([B1 @ u[:ne], B1 @ u[ne:]])
        assert np.abs(B2 @ u - ref).max() <= 1e-13 * np.abs(ref).max()


def test_grounded_solve_accepts_data_with_a_large_gradient_part():
    # D kills gradients, so for u = 1e8 G phi + w the data b = D u is O(1)
    # while its component sum, the grounded row's residual, is the O(1e-8)
    # roundoff of the large terms; the solve is judged on the free rows
    mesh = generate_cube_mesh(2)
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    rng = np.random.default_rng(0)
    u = 1e8 * (discrete_gradient(mesh) @ rng.standard_normal(mesh.n_vertices))
    u += rng.standard_normal(mesh.n_edges)
    b = ops.D @ u
    assert abs(b.sum()) > 1e-10 * np.linalg.norm(b)
    p = ops.laplacian.solve(b)
    free = ops.laplacian.free
    assert np.linalg.norm((ops.L @ p - b)[free]) <= 1e-12 * np.linalg.norm(b)


def test_grounded_solve_refuses_a_wrong_factor_solve(monkeypatch):
    mesh = generate_cube_mesh(2)
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    lap = ops.laplacian

    class _Zeros:
        def solve(self, r):
            return np.zeros_like(r)

    monkeypatch.setattr(lap, "_lu", _Zeros())
    with pytest.raises(SolverFailure, match="grounded Laplacian solve residual"):
        lap.solve(ops.D @ random_edge_vector(mesh, 4))


def test_grounded_solve_checks_each_column(monkeypatch):
    # a wrong second column 1e12 times smaller than the right first one: its
    # residual is far inside a tolerance taken over the whole block, but not
    # inside its own
    mesh = generate_cube_mesh(2)
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    lap = ops.laplacian
    b = np.stack([1e3 * (ops.D @ random_edge_vector(mesh, 4)),
                  1e-9 * (ops.D @ random_edge_vector(mesh, 5))], axis=1)
    lap.solve(b)
    lu = lap._lu

    class _FirstColumnOnly:
        def solve(self, r):
            x = lu.solve(r)
            x[:, 1:] = 0.0
            return x

    monkeypatch.setattr(lap, "_lu", _FirstColumnOnly())
    with pytest.raises(SolverFailure, match="grounded Laplacian solve residual"):
        lap.solve(b)
