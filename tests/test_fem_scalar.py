import numpy as np
import pytest
import scipy.linalg

from fem_helpers import dump_matrix_market
from kernel_basis_oracle import dense_inf_sup
from steklovlab._assembly import h1_gram, p1_mass, p1_stiffness
from steklovlab.fem_scalar import assemble_scalar, scalar_dirichlet_diagnostic
from steklovlab.materials import build_field
from steklovlab.mesh import Mesh, generate_ball_mesh, generate_cube_mesh


def fields(mesh, eps_entry=1.0, mu_entry=1.0):
    return (
        build_field(mesh, "mu_inv", {1: mu_entry}),
        build_field(mesh, "eps", {1: eps_entry}),
    )


@pytest.fixture(scope="module")
def ball1_pencil():
    mesh = generate_ball_mesh(1)
    mu, eps = fields(mesh)
    return assemble_scalar(mesh, mu, eps, omega=0.0)


def test_stiffness_kills_constants(ball1_pencil):
    one = np.ones(ball1_pencil.K.shape[0])
    assert np.abs(ball1_pencil.K @ one).max() <= 1e-12


def test_reference_tet_stiffness_matches_hand_integration():
    # Unit right tet, mu_inv = I: gradients of the barycentric coordinates are
    # (-1,-1,-1), e_x, e_y, e_z and the volume is 1/6, so
    # K = (1/6) * [[3,-1,-1,-1], [-1,1,0,0], [-1,0,1,0], [-1,0,0,1]].
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = Mesh(verts, np.array([[0, 1, 2, 3]]))
    mu, eps = fields(mesh)
    pencil = assemble_scalar(mesh, mu, eps, omega=1.0)
    expected = np.array([
        [3, -1, -1, -1],
        [-1, 1, 0, 0],
        [-1, 0, 1, 0],
        [-1, 0, 0, 1],
    ]) / 6.0
    assert np.abs(pencil.K.toarray() - expected).max() <= 1e-14
    # mass of the whole tet is its volume
    assert pencil.M.toarray().sum().real == pytest.approx(1 / 6, rel=1e-13)


def test_stiffness_linear_in_mu_inv():
    mesh = generate_cube_mesh(2)
    mu1, eps = fields(mesh)
    mu2 = build_field(mesh, "mu_inv", {1: 2.0})
    k1 = assemble_scalar(mesh, mu1, eps, 0.0).K
    k2 = assemble_scalar(mesh, mu2, eps, 0.0).K
    assert np.abs((k2 - 2.0 * k1).toarray()).max() <= 1e-14


def test_matrix_symmetry_and_realness(ball1_pencil):
    K, M, B = ball1_pencil.K, ball1_pencil.M, ball1_pencil.B
    assert np.abs((K - K.T).toarray()).max() == 0.0
    assert np.abs((M - M.T).toarray()).max() == 0.0
    assert np.abs((B - B.T).toarray()).max() == 0.0
    assert np.iscomplexobj(K.toarray()) is False


def test_boundary_mass_kernel_is_interior(ball1_pencil):
    B = ball1_pencil.B
    interior = ball1_pencil.mesh.interior_vertex_ids
    boundary = ball1_pencil.mesh.boundary_vertex_ids
    dense = B.toarray()
    assert np.abs(dense[interior]).max() == 0.0
    assert np.abs(dense[:, interior]).max() == 0.0
    # PSD with kernel exactly the interior vertices
    sub = dense[np.ix_(boundary, boundary)]
    evals = np.linalg.eigvalsh(sub)
    assert evals.min() > 0
    x = np.random.default_rng(0).standard_normal(B.shape[0])
    assert x @ (B @ x) >= 0


def test_complex_eps_gives_complex_symmetric_mass():
    mesh = generate_cube_mesh(2)
    mu, eps = fields(mesh, eps_entry={"re": 4.0, "im": 1.0})
    pencil = assemble_scalar(mesh, mu, eps, omega=1.0)
    M = pencil.M.toarray()
    assert np.abs(M - M.T).max() == 0.0
    assert np.abs(M.imag).max() > 0


def test_dirichlet_diagnostic_positive_at_omega_zero(ball1_pencil):
    sigma = scalar_dirichlet_diagnostic(ball1_pencil, h1_gram(ball1_pencil.mesh))
    assert sigma > 1e-6


def test_dirichlet_diagnostic_drops_at_dirichlet_eigenvalue():
    # Oracle: dense generalized eigensolve of the interior block gives the
    # discrete Dirichlet eigenvalues; at omega^2 equal to one of them the
    # interior pencil block is singular.
    mesh = generate_ball_mesh(1)
    mu, eps = fields(mesh)
    base = assemble_scalar(mesh, mu, eps, omega=0.0)
    interior = base.mesh.interior_vertex_ids
    K = base.K.toarray()[np.ix_(interior, interior)]
    M = base.M.toarray().real[np.ix_(interior, interior)]
    lam = scipy.linalg.eigh(K, M, eigvals_only=True)[0]
    hit = assemble_scalar(mesh, mu, eps, omega=float(np.sqrt(lam)))
    gram = h1_gram(mesh)
    s_hit = scalar_dirichlet_diagnostic(hit, gram)
    s_base = scalar_dirichlet_diagnostic(base, gram)
    assert s_hit <= 1e-8 * s_base


def test_dirichlet_diagnostic_absorbing_sweep():
    # strictly positive Im(eps) keeps the interior problem injective for any
    # real omega: sweep stays bounded away from zero
    mesh = generate_ball_mesh(1)
    mu, eps = fields(mesh, eps_entry={"re": 2.0, "im": 1.0})
    gram = h1_gram(mesh)
    values = []
    for omega in np.linspace(0.5, 6.0, 10):
        pencil = assemble_scalar(mesh, mu, eps, omega=float(omega))
        values.append(scalar_dirichlet_diagnostic(pencil, gram))
    assert min(values) > 1e-6


def test_matrix_market_dump(tmp_path):
    import scipy.io

    mesh = generate_cube_mesh(2)
    mu, eps = fields(mesh, eps_entry={"re": 4.0, "im": 1.0})
    pencil = assemble_scalar(mesh, mu, eps, omega=1.0)
    paths = dump_matrix_market(pencil, tmp_path)
    assert set(paths) == {"K", "M", "B"}
    back = scipy.io.mmread(paths["M"]).tocsr()
    assert np.abs((back - pencil.M).toarray()).max() <= 1e-15


def h1_gram_dense(mesh):
    ident = np.broadcast_to(np.eye(3), (mesh.n_tets, 3, 3))
    return (p1_stiffness(mesh, ident) + p1_mass(mesh, np.ones(mesh.n_tets))).toarray()


def test_sparse_sigma_path_matches_dense():
    # oracle: the SVD of L^-1 A L^-H, W = L L^T the interior block of the
    # H^1 Gram; unit coefficients at omega = 1 give the continuity bound 1
    mesh = generate_ball_mesh(1)
    mu, eps = fields(mesh)
    pencil = assemble_scalar(mesh, mu, eps, omega=1.0)
    interior = pencil.mesh.interior_vertex_ids
    A = pencil.a0.toarray()[np.ix_(interior, interior)]
    W = h1_gram_dense(mesh)[np.ix_(interior, interior)]
    assert pencil.beta == 1.0
    sigma = scalar_dirichlet_diagnostic(pencil, h1_gram(mesh))
    assert sigma == pytest.approx(dense_inf_sup(A, W), rel=1e-10)


def test_dirichlet_diagnostic_tiny_interior(two_cubes):
    # cube n=1 has no interior vertex, cube n=2 exactly one and two disjoint
    # cubes n=2 two (one per cube, decoupled and equal): at omega = 0 the
    # value is K_cc / (K_cc + M_cc) in the H^1 norm, zero at omega^2 = K_cc / M_cc
    mu, eps = fields(generate_cube_mesh(1))
    pencil = assemble_scalar(mu.mesh, mu, eps, omega=1.0)
    assert scalar_dirichlet_diagnostic(pencil, h1_gram(mu.mesh)) == np.inf
    for mesh, n_interior in ((generate_cube_mesh(2), 1), (two_cubes, 2)):
        mu, eps = fields(mesh)
        base = assemble_scalar(mesh, mu, eps, omega=0.0)
        gram = h1_gram(mesh)
        c = base.mesh.interior_vertex_ids
        assert len(c) == n_interior
        k_cc, m_cc = base.K[c[0], c[0]], base.M[c[0], c[0]].real
        sigma = scalar_dirichlet_diagnostic(base, gram)
        assert sigma == pytest.approx(k_cc / (k_cc + m_cc), rel=1e-14)
        omega = float(np.sqrt(base.K[c[0], c[0]] / base.M[c[0], c[0]].real))
        hit = assemble_scalar(mesh, mu, eps, omega=omega)
        assert hit.a0[c[0], c[0]] == 0.0
        assert scalar_dirichlet_diagnostic(hit, gram) == 0.0
