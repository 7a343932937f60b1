import numpy as np
import pytest

from fem_helpers import project_Vh
from kernel_basis_oracle import dense_inf_sup, dense_kernel_basis
from steklovlab.boundary_ops import assemble_surface_operators
from steklovlab.errors import ConfigError
from steklovlab.fem_maxwell import (
    assemble_maxwell,
    discrete_gradient,
    edge_mass_matrix,
    hcurl_gram,
    kernelS_diagnostic,
    kernel_subspace_basis,
)
from steklovlab.fem_scalar import assemble_scalar
from steklovlab.materials import build_field, lp_diff_norm
from steklovlab.mesh import Mesh, extract_boundary, generate_ball_mesh, generate_cube_mesh


def make_pencil(mesh, eps_entry=1.0, omega=1.0):
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: eps_entry})
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    return assemble_maxwell(mesh, mu, eps, omega, ops)


@pytest.fixture(scope="module")
def cube2_pencil():
    return make_pencil(generate_cube_mesh(2), eps_entry={"re": 4.0, "im": 1.0})


def test_omega_zero_rejected():
    mesh = generate_cube_mesh(1)
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: 1.0})
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    with pytest.raises(ValueError):
        assemble_maxwell(mesh, mu, eps, 0.0, ops)


def test_field_roles_enforced():
    mesh = generate_cube_mesh(1)
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: 1.0})
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    with pytest.raises(ConfigError):
        assemble_maxwell(mesh, eps, mu, 1.0, ops)


def test_field_on_other_mesh_with_same_tets_rejected():
    # same tets, different vertices: a field of the copy does not live on mesh
    mesh = generate_cube_mesh(2)
    copy = Mesh(2.0 * mesh.vertices, mesh.tets)
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: 1.0})
    eps_copy = build_field(copy, "eps", {1: 1.0})
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    with pytest.raises(ConfigError):
        lp_diff_norm(eps, eps_copy, 2.0)
    with pytest.raises(ConfigError):
        assemble_scalar(mesh, mu, eps_copy, 1.0)
    with pytest.raises(ConfigError):
        assemble_maxwell(mesh, mu, eps_copy, 1.0, ops)


def test_discrete_complex_identity(cube2_pencil):
    KG = cube2_pencil.K @ discrete_gradient(cube2_pencil.mesh)
    assert np.abs(KG.toarray()).max() <= 1e-13


def test_single_tet_curl_rank():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = Mesh(verts, np.array([[0, 1, 2, 3]]))
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    K = np.zeros((6, 6))
    from steklovlab.fem_maxwell import curl_curl_matrix

    K = curl_curl_matrix(mesh, mu.tensors.real).toarray()
    assert np.linalg.matrix_rank(K, tol=1e-12) == 3


def test_identity_mass_positive_definite():
    mesh = generate_cube_mesh(2)
    M = edge_mass_matrix(mesh).toarray()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(mesh.n_edges)
        assert x @ (M @ x) > 0
    assert np.abs(M - M.T).max() == 0.0


def test_edge_mass_matches_gradient_stiffness():
    # gradients of P1 functions lie in the edge space: z^T (G^T M_eps G) z
    # must equal the eps-weighted P1 stiffness quadratic form
    from steklovlab._assembly import p1_stiffness

    mesh = generate_cube_mesh(2)
    eps = build_field(mesh, "eps", {1: {"re": 2.5, "im": 0.5}})
    M = edge_mass_matrix(mesh, eps.tensors)
    G = discrete_gradient(mesh)
    A = (G.T @ (M @ G)).toarray()
    A_ref = p1_stiffness(mesh, eps.tensors).toarray()
    assert np.abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref).max()


def test_mass_complex_symmetric(cube2_pencil):
    M = cube2_pencil.M.toarray()
    assert np.abs(M - M.T).max() == 0.0
    assert np.abs(M.imag).max() > 0


def test_project_gradient_to_zero(cube2_pencil):
    mesh = cube2_pencil.mesh
    z = np.sin(2.0 * mesh.vertices[:, 0]) * mesh.vertices[:, 2]
    u = discrete_gradient(cube2_pencil.mesh) @ z
    res = project_Vh(cube2_pencil, u)
    assert np.abs(res.projected).max() <= 1e-10 * max(1.0, np.abs(u).max())


def test_project_idempotent(cube2_pencil):
    rng = np.random.default_rng(4)
    n = cube2_pencil.K.shape[0]
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    once = project_Vh(cube2_pencil, u).projected
    twice = project_Vh(cube2_pencil, once).projected
    assert np.abs(twice - once).max() <= 1e-10 * np.abs(once).max()


def test_project_preserves_curl_dofs(cube2_pencil):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(cube2_pencil.K.shape[0])
    res = project_Vh(cube2_pencil, u)
    diff = cube2_pencil.K @ (res.projected - u)
    assert np.abs(diff).max() <= 1e-12 * max(1.0, np.abs(cube2_pencil.K @ u).max())
    # projected field is discretely eps-divergence-free
    div = discrete_gradient(cube2_pencil.mesh).T @ (cube2_pencil.M @ res.projected)
    assert np.abs(div).max() <= 1e-10


def test_project_block_matches_columns(cube2_pencil):
    # a block of vectors is projected in one call, column by column to roundoff
    rng = np.random.default_rng(8)
    shape = (cube2_pencil.K.shape[0], 3)
    U = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    block = project_Vh(cube2_pencil, U)
    for j in range(U.shape[1]):
        col = project_Vh(cube2_pencil, U[:, j])
        for got, want in ((block.projected[:, j], col.projected),
                          (block.potential[:, j], col.potential)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_project_with_explicit_eps(cube2_pencil):
    eps2 = build_field(cube2_pencil.mesh, "eps", {1: 2.0})
    rng = np.random.default_rng(6)
    u = rng.standard_normal(cube2_pencil.K.shape[0])
    res = project_Vh(cube2_pencil, u, eps=eps2)
    M2 = edge_mass_matrix(cube2_pencil.mesh, eps2.tensors)
    div = discrete_gradient(cube2_pencil.mesh).T @ (M2 @ res.projected)
    assert np.abs(div).max() <= 1e-10


def test_project_grounds_each_component(two_cubes):
    # each cube carries its own constant mode: the potential is grounded at
    # the first vertex of each cube, and the projection is eps-divergence-free
    # on both of them
    pencil = make_pencil(two_cubes, eps_entry={"re": 4.0, "im": 1.0})
    rng = np.random.default_rng(7)
    n = pencil.K.shape[0]
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    res = project_Vh(pencil, u)
    assert np.all(res.potential[[0, two_cubes.n_vertices // 2]] == 0.0)
    assert np.abs(res.potential).max() > 0.0
    div = discrete_gradient(pencil.mesh).T @ (pencil.M @ res.projected)
    assert np.abs(div).max() <= 1e-10


def test_two_cubes_solve_doubles_single_cube_eigenvalues(two_cubes):
    # the pencil of two disjoint cubes is block diagonal, so each eigenvalue
    # of one cube comes back with twice its multiplicity
    from steklovlab.eigensolver import cluster, solve_shift_invert

    single = make_pencil(generate_cube_mesh(2), eps_entry={"re": 4.0, "im": 1.0})
    double = make_pencil(two_cubes, eps_entry={"re": 4.0, "im": 1.0})
    one = solve_shift_invert(single.a0, single.B, 2.3 + 0j, 3, tol=1e-10).eigenvalues
    two = solve_shift_invert(double.a0, double.B, 2.3 + 0j, 6, tol=1e-10).eigenvalues
    assert len(two) == 6
    labels1, means1 = cluster(one)
    labels2, means2 = cluster(two)
    assert len(means2) == len(means1)
    for mean, size in zip(means1, np.bincount(labels1)):
        j = np.argmin(np.abs(means2 - mean))
        assert abs(means2[j] - mean) <= 1e-8 * abs(mean)
        assert np.sum(labels2 == j) == 2 * size


def test_kernel_diagnostic_gradient_block(cube2_pencil):
    # on the gradient block the curl part vanishes, so the compression
    # reduces to -omega^2 G^T M_eps G, invertible for coercive eps
    G = discrete_gradient(cube2_pencil.mesh).toarray()
    A = (G.T @ cube2_pencil.K.toarray() @ G)
    assert np.abs(A).max() <= 1e-12
    Aeps = G.T @ cube2_pencil.M.toarray() @ G
    interior = np.linalg.svd(Aeps[1:, 1:], compute_uv=False)
    assert interior[-1] > 0


def test_kernel_diagnostic_absorbing_sweep():
    mesh = generate_cube_mesh(2)
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: {"re": 4.0, "im": 1.0}})
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    basis = kernel_subspace_basis(ops, hcurl_gram(mesh))
    values = [
        kernelS_diagnostic(assemble_maxwell(mesh, mu, eps, float(om), ops), basis=basis)
        for om in np.linspace(0.5, 4.0, 10)
    ]
    assert min(values) > 1e-6


def test_kernel_diagnostic_drops_at_projected_eigenvalue():
    # oracle: dense generalized eigensolve of the compressed pencil gives the
    # omega^2 values at which the compression is singular (real eps)
    import scipy.linalg

    mesh = generate_cube_mesh(2)
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: 4.0})
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    basis = kernel_subspace_basis(ops, hcurl_gram(mesh))
    Q = dense_kernel_basis(basis)
    base = assemble_maxwell(mesh, mu, eps, 1.0, ops)
    Kq = Q.T @ (base.K @ Q)
    Mq = Q.T @ (base.M.real @ Q)
    lam = scipy.linalg.eigh(Kq, Mq, eigvals_only=True)
    lam = lam[lam > 1e-8]
    omega_hit = float(np.sqrt(lam[0]))
    s_base = kernelS_diagnostic(base, basis=basis)
    s_hit = kernelS_diagnostic(assemble_maxwell(mesh, mu, eps, omega_hit, ops), basis=basis)
    assert s_hit <= 1e-8 * s_base


BLOCK_BASIS_MESHES = {
    "cube2": (lambda request: generate_cube_mesh(2), 1),
    "ball1": (lambda request: generate_ball_mesh(1), 1),
    "two-cubes": (lambda request: request.getfixturevalue("two_cubes"), 2),
}


@pytest.mark.parametrize("name", list(BLOCK_BASIS_MESHES))
def test_block_kernel_basis_matches_pivoted_qr(name, request):
    # reference: the span of all gradients plus all interior-edge unit
    # fields, orthonormalized by a pivoted QR with a rank tolerance
    import scipy.linalg

    build, components = BLOCK_BASIS_MESHES[name]
    mesh = build(request)
    basis = kernel_subspace_basis(assemble_surface_operators(extract_boundary(mesh), mesh),
                                  hcurl_gram(mesh))
    Q = dense_kernel_basis(basis)
    interior = mesh.interior_edge_ids
    n_bv = len(mesh.boundary_vertex_ids)
    assert Q.shape == (mesh.n_edges, len(interior) + n_bv - components)
    assert basis.info["subspace_dim"] == Q.shape[1]
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-12

    Z = np.zeros((mesh.n_edges, mesh.n_vertices + len(interior)))
    Z[:, :mesh.n_vertices] = discrete_gradient(mesh).toarray()
    Z[interior, mesh.n_vertices + np.arange(len(interior))] = 1.0
    Qr, R, _ = scipy.linalg.qr(Z, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    Qr = Qr[:, : int(np.sum(diag > 1e-12 * diag[0]))]
    assert Qr.shape[1] == Q.shape[1]
    assert np.abs(Q @ Q.T - Qr @ Qr.T).max() <= 1e-10

    # the energy-norm value does not depend on the basis of the span: the
    # H(curl) Gram in Qr coordinates, and the continuity bound omega^2 |eps|
    pencil = make_pencil(mesh, eps_entry={"re": 4.0, "im": 1.0})
    W = Qr.T @ ((pencil.K + edge_mass_matrix(mesh)) @ Qr)
    expected = dense_inf_sup(Qr.T @ (pencil.a0 @ Qr), W) / abs(4.0 + 1.0j)
    assert kernelS_diagnostic(pencil, basis=basis) == pytest.approx(expected, rel=1e-12)


def test_kernel_diagnostic_ball2_matches_dense_value_in_small_memory():
    # reference: the energy-norm sigma_min of the explicit 4673 x 4673
    # compression C = Z^T A0 Z, by the dense SVD of L^-1 C L^-H with
    # W = Z^T (K_curl + M) Z = L L^T (tests/kernel_basis_oracle.py), over the
    # continuity bound |4 + i|; C alone is 4673^2 complex doubles, 349 MB
    import tracemalloc

    mesh = generate_ball_mesh(2)
    pencil = make_pencil(mesh, eps_entry={"re": 4.0, "im": 1.0})
    basis = kernel_subspace_basis(pencil.B, hcurl_gram(mesh))
    pencil.a0
    tracemalloc.start()
    try:
        sigma = kernelS_diagnostic(pencil, basis=basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sigma == pytest.approx(0.18319271103129192, rel=1e-12)
    assert peak < 50e6


def test_kernel_diagnostic_details(cube2_pencil):
    basis = kernel_subspace_basis(cube2_pencil.B, hcurl_gram(cube2_pencil.mesh))
    sigma = kernelS_diagnostic(cube2_pencil, basis)
    details = basis.info
    assert sigma > 0
    assert details["subspace_dim"] <= details["kernel_dim_from_rank"]
    assert details["unspanned_kernel_dim"] >= 0
    ne = cube2_pencil.K.shape[0]
    assert details["n_edges"] == ne


def test_eigenvectors_discretely_divergence_free():
    # testing the variational form with gradients annihilates the curl and
    # boundary terms, so eigenpair residuals bound the eps-divergence defect;
    # projection changes certified eigenvectors only at solver-noise level
    from steklovlab.eigensolver import _a0_norm, solve_shift_invert

    mesh = generate_cube_mesh(3)
    pencil = make_pencil(mesh, eps_entry={"re": 4.0, "im": 1.0})
    A0 = pencil.a0
    res = solve_shift_invert(A0, pencil.B, 2.3 + 0j, 6, tol=1e-10)
    assert len(res) == 6
    a0n = _a0_norm(A0)
    G = discrete_gradient(mesh)
    projected = project_Vh(pencil, res.eigenvectors).projected
    for j in range(len(res)):
        lam = res.eigenvalues[j]
        u = res.eigenvectors[:, j]
        den = a0n * np.linalg.norm(u) + abs(lam) * np.linalg.norm(pencil.B @ u)
        div_defect = pencil.omega**2 * np.linalg.norm(G.T @ (pencil.M @ u)) / den
        ref = max(res.residuals[j], 1e-12)   # noise floor of the scalar solve
        assert div_defect <= 10.0 * ref
        change = np.linalg.norm(projected[:, j] - u) / np.linalg.norm(u)
        assert change <= 10.0 * ref
        # the boundary form does not annihilate eigenvectors with lam != 0
        assert np.linalg.norm(pencil.B @ u) > 1e-8 * np.linalg.norm(u)


def test_gram_spectrum_decays_under_refinement():
    # compactness footprint: relative to the H(curl) edge Gram, the smallest
    # nonzero boundary-form eigenvalue falls while the largest stays put
    import scipy.linalg

    def spectrum(mesh):
        pencil = make_pencil(mesh, eps_entry=1.0)
        Bd = pencil.B @ np.eye(mesh.n_edges)
        gram = (pencil.K + edge_mass_matrix(mesh)).toarray()
        mu = scipy.linalg.eigh(Bd, gram, eigvals_only=True)
        mu = mu[mu > 1e-10 * mu[-1]]
        return np.sort(mu)[::-1]

    coarse = generate_cube_mesh(2)
    fine = generate_cube_mesh(4)
    sc = spectrum(coarse)
    sf = spectrum(fine)
    assert sf[0] <= 2.0 * sc[0]
    assert sf.min() < sc.min()
