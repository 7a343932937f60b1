import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import fem_helpers
from fem_helpers import solve_dense_oracle
from steklovlab import eigensolver
from steklovlab.boundary_ops import assemble_surface_operators
from steklovlab.errors import AssumptionViolation, ShiftAtEigenvalue
from steklovlab.eigensolver import (
    cluster,
    pencil_residual,
    sector_census,
    solve_shift_invert,
)
from steklovlab.fem_maxwell import assemble_maxwell
from steklovlab.fem_scalar import assemble_scalar
from steklovlab.materials import build_field
from steklovlab.mesh import extract_boundary, generate_ball_mesh, generate_cube_mesh


def random_pencil(n, rank, seed):
    """Complex symmetric invertible A0 and real PSD singular B of given rank."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A0 = A + A.T
    s = np.linalg.svd(A0, compute_uv=False)
    if s[-1] < 0.05 * s[0]:
        A0 = A0 + (0.3 + 0.2j) * s[0] * np.eye(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.zeros(n)
    d[:rank] = rng.uniform(0.5, 2.0, rank)
    B = (Q * d) @ Q.T
    return A0, 0.5 * (B + B.T)


def pencil_with_spectrum(lam, n_infinite, seed):
    """Non-normal complex symmetric A0 and real PSD singular B whose finite
    eigenvalues are exactly ``lam``, repeats included, next to ``n_infinite``
    infinite ones.

    With B = diag(I, 0), the finite eigenvalues of [[A11, C], [C^T, D]] are
    those of the Schur complement A11 - C D^-1 C^T, here Q diag(lam) Q^T with
    complex orthogonal (Q^T Q = I) but far from unitary eigenvectors Q; a
    random real rotation then mixes the two blocks.
    """
    rng = np.random.default_rng(seed)
    r, n = len(lam), len(lam) + n_infinite
    S = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    Q = scipy.linalg.expm(0.1 * (S - S.T))
    C = rng.standard_normal((r, n_infinite)) + 1j * rng.standard_normal((r, n_infinite))
    D = rng.standard_normal((n_infinite, n_infinite)) + 1j * rng.standard_normal((n_infinite, n_infinite))
    D = D + D.T + 2.0 * n_infinite * np.eye(n_infinite)
    A0 = np.block([[(Q * np.asarray(lam)) @ Q.T + C @ np.linalg.solve(D, C.T), C], [C.T, D]])
    B = np.diag(np.r_[np.ones(r), np.zeros(n_infinite)])
    P = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A0, B = P @ A0 @ P.T, P @ B @ P.T
    return 0.5 * (A0 + A0.T), 0.5 * (B + B.T)


# a triple eigenvalue 2 + 0.05i at the 3rd to 5th distance from SIGMA_TRIPLE
TRIPLE_SPECTRUM = np.r_[[1.0 + 0.1j, 1.3 - 0.2j], 3 * [2.0 + 0.05j],
                        np.linspace(3.0, 12.0, 25) - 0.1j]
SIGMA_TRIPLE = 0.8


# ------------------------------------------------------------------ dense oracle

def test_oracle_diagonal_full_rank():
    res = solve_dense_oracle(np.diag([2.0, 3.0]).astype(complex), np.eye(2))
    assert sorted(np.round(res.eigenvalues.real, 10)) == [2.0, 3.0]
    assert np.abs(res.eigenvalues.imag).max() <= 1e-12


def test_oracle_singular_B_discards_infinite():
    res = solve_dense_oracle(np.diag([2.0, 3.0]).astype(complex), np.diag([1.0, 0.0]))
    assert len(res) == 1
    assert res.eigenvalues[0] == pytest.approx(2.0)
    assert res.meta["discarded_infinite"] == 1


def test_oracle_random_pencils_self_certify():
    for seed in range(5):
        A0, B = random_pencil(6, 4, seed)
        res = solve_dense_oracle(A0, B)
        assert len(res) == 4
        assert res.residuals.max() <= 1e-10


def test_oracle_rejects_singular_A0():
    A0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(AssumptionViolation):
        solve_dense_oracle(A0, np.eye(2))


def test_oracle_size_guard(monkeypatch):
    monkeypatch.setattr(fem_helpers, "DENSE_LIMIT", 5)
    with pytest.raises(ValueError):
        solve_dense_oracle(np.eye(10, dtype=complex), np.eye(10))


# ------------------------------------------------------------- shift-invert

def test_shift_invert_simple_sigma_zero():
    A0 = sp.csr_matrix(np.diag([2.0, 3.0]).astype(complex))
    B = sp.eye(2, format="csr")
    res = solve_shift_invert(A0, B, sigma=0.0, k=2, tol=1e-10)
    assert sorted(np.round(res.eigenvalues.real, 9)) == [2.0, 3.0]
    assert res.residuals.max() <= 1e-10


def test_shift_invert_exhaustion_flag():
    A0 = sp.csr_matrix(np.diag([2.0, 3.0]).astype(complex))
    B = sp.csr_matrix(np.diag([1.0, 0.0]))
    res = solve_shift_invert(A0, B, sigma=0.0, k=5, tol=1e-10)
    assert len(res) == 1
    assert res.eigenvalues[0] == pytest.approx(2.0)
    assert res.meta["exhausted"]
    assert res.meta["partial"]


def test_shift_invert_matches_oracle_random():
    for seed in (0, 1, 2):
        A0, B = random_pencil(60, 40, seed)
        oracle = solve_dense_oracle(A0, B)
        sigma = 0.7 + 0.3j
        k = 6
        res = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), sigma, k, tol=1e-10,
                                 seed=seed)
        assert len(res) == k
        want = oracle.eigenvalues[np.argsort(np.abs(oracle.eigenvalues - sigma), kind="stable")][:k]
        for lam in res.eigenvalues:
            assert np.abs(want - lam).min() <= 1e-8 * max(1.0, abs(lam))


def test_shift_invert_finds_multiple_copies():
    # exact degeneracy is invisible to a single Krylov vector; locking
    # restarts must recover all copies
    d = np.array([1.0, 1.0, 1.0, 4.0, 7.0])
    A0 = sp.csr_matrix(np.diag(d).astype(complex))
    B = sp.eye(5, format="csr")
    res = solve_shift_invert(A0, B, sigma=1.2, k=3, tol=1e-10)
    assert len(res) == 3
    assert np.abs(res.eigenvalues - 1.0).max() <= 1e-9
    # eigenvectors span the full eigenspace
    V = res.eigenvectors[:3]
    s = np.linalg.svd(V, compute_uv=False)
    assert s[-1] > 0.5


def test_shift_invert_deterministic():
    A0, B = random_pencil(40, 25, 3)
    a = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), 0.5, 4, seed=7)
    b = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), 0.5, 4, seed=7)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def _scalar_ball_pencil():
    # ball level 1, omega^2 = -1 keeps A0 invertible
    mesh = generate_ball_mesh(1)
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: 1.0})
    pencil = assemble_scalar(mesh, mu, eps, omega=0.0)
    A0 = (pencil.K + pencil.M).tocsr().astype(complex)   # K + M = K - (i)^2 M
    return A0, pencil.B.tocsr()


def test_growth_resumes_instead_of_reapplying(monkeypatch):
    # checkpoints 2 applies apart give a first checkpoint of 8 that certifies
    # too little, so a sweep grows; growing must continue the factorization,
    # not restart it from v0
    seen = []
    apply = eigensolver._ShiftedSolver.apply

    def recording_apply(self, v):
        seen.append(np.array(v).tobytes())
        return apply(self, v)

    monkeypatch.setattr(eigensolver._ShiftedSolver, "apply", recording_apply)
    monkeypatch.setattr(eigensolver, "MAX_SWEEPS", 4)
    monkeypatch.setattr(eigensolver, "CHECKPOINT", 2)
    A0, B = _scalar_ball_pencil()
    res = solve_shift_invert(A0, B, 1.5, 6, tol=1e-10, seed=5)
    assert len(res) == 6 and res.residuals.max() <= 1e-10
    # some sweep ran past its first checkpoint, max(6, 2) + 2 applies
    assert max(s["applies"] for s in res.meta["sweeps"]) > 8
    assert len(seen) == res.meta["iterations"]
    assert len(set(seen)) == len(seen)


def _nearest(oracle, sigma, k):
    return oracle.eigenvalues[np.argsort(np.abs(oracle.eigenvalues - sigma), kind="stable")][:k]


def _assert_k_nearest(res, want):
    """``res`` reports the values ``want``, each as often as the oracle does."""
    assert len(res) == len(want) and not res.meta["partial"]
    got = res.eigenvalues
    for lam in want:
        tol = 1e-8 * max(1.0, abs(lam))
        assert np.sum(np.abs(got - lam) <= tol) == np.sum(np.abs(want - lam) <= tol)


@pytest.mark.parametrize("checkpoint", [1, 2, 4, 8, 16])
def test_small_krylov_dim_nonnormal_pencil(checkpoint, monkeypatch):
    # eigenvectors of this pencil are far from orthogonal: deflated sweeps
    # must lift their Ritz vectors to eigenvectors to certify anything, also
    # when every sweep grows in short steps (a first checkpoint of max(6, c) + c)
    monkeypatch.setattr(eigensolver, "CHECKPOINT", checkpoint)
    A0, B = random_pencil(60, 40, 0)
    sigma = 0.7 + 0.3j
    want = _nearest(solve_dense_oracle(A0, B), sigma, 6)
    res = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), sigma, 6, tol=1e-10, seed=5)
    _assert_k_nearest(res, want)
    assert res.residuals.max() <= 1e-10


@pytest.mark.parametrize("checkpoint", [2, 4, 8])
def test_small_krylov_dim_scalar_ball(checkpoint, monkeypatch):
    # the first sweeps lock values far from sigma; the solve must not stop
    # before the closer ones are found
    monkeypatch.setattr(eigensolver, "CHECKPOINT", checkpoint)
    A0, B = _scalar_ball_pencil()
    sigma = 1.5
    want = _nearest(solve_dense_oracle(A0.toarray(), B.toarray()), sigma, 6)
    res = solve_shift_invert(A0, B, sigma, 6, tol=1e-10, seed=5)
    _assert_k_nearest(res, want)
    assert res.residuals.max() <= 1e-10


def test_sweeps_count_discarded_infinite_modes(monkeypatch):
    # B has rank 40, so the pencil has 40 finite eigenvalues and T has a
    # zero eigenvalue of multiplicity 20 (the infinite modes).  The first
    # sweep's space becomes invariant: its Ritz values are the 40 finite
    # theta plus the zero ones reached from the start vector.  A first
    # checkpoint at max(6, 30) + 30 = n = 60 applies lets the space get there
    monkeypatch.setattr(eigensolver, "CHECKPOINT", 30)
    A0, B = (sp.csr_matrix(m) for m in random_pencil(60, 40, 0))
    res = solve_shift_invert(A0, B, 0.7 + 0.3j, 6, seed=5)
    first = res.meta["sweeps"][0]
    assert first["applies"] > 40
    assert first["applies"] - first["discarded_infinite"] == 40
    again = solve_shift_invert(A0, B, 0.7 + 0.3j, 6, seed=5)
    assert again.meta["sweeps"] == res.meta["sweeps"]


def test_locked_pairs_form_a_partial_schur_form(monkeypatch):
    forms = []
    init = eigensolver._PartialSchur.__init__

    def recording_init(self, n):
        init(self, n)
        forms.append(self)

    monkeypatch.setattr(eigensolver._PartialSchur, "__init__", recording_init)
    # six exact copies of sigma + 0.1 beside a non-normal pencil: after the
    # first sweep, each short sweep sees about one further copy, so at least
    # three sweeps lock pairs
    A0r, Br = random_pencil(60, 40, 0)
    sigma = 0.7 + 0.3j
    A0 = scipy.linalg.block_diag(A0r, (sigma + 0.1) * np.eye(6))
    B = scipy.linalg.block_diag(Br, np.eye(6))
    res = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), sigma, 6, tol=1e-10, seed=5)
    assert len(res) == 6
    assert sum(s["locked"] > 0 for s in res.meta["sweeps"]) >= 3
    (schur,) = forms
    Q, R = schur.Q, schur.R
    assert Q.shape[1] == sum(s["locked"] for s in res.meta["sweeps"])
    assert np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() <= 1e-12
    assert res.meta["schur_defect"] == schur.defect() <= 1e-12
    assert np.array_equal(R, np.triu(R))
    T = np.linalg.solve(A0 - sigma * B, B)
    assert np.linalg.norm(T @ Q - Q @ R) <= 1e-8 * np.linalg.norm(R)


def test_double_at_kth_distance_stops_at_first_checkpoint():
    # lambda = 3 is a double and the k-th nearest value; the first sweep locks
    # one copy, so the second one is the dominant Ritz value of the
    # confirmation sweep.  It sits at the k-th locked distance up to roundoff
    # and changes no answer: the sweep must end at its first checkpoint
    # (without the tie margin it goes on to certify and lock the copy)
    rng = np.random.default_rng(0)
    d = np.concatenate([[1.0, 2.0, 3.0, 3.0], np.linspace(10.0, 60.0, 116)])
    Q = np.linalg.qr(rng.standard_normal((120, 120)))[0]
    A0 = sp.csr_matrix((Q * d) @ Q.T)
    B = sp.eye(120, format="csr")
    res = solve_shift_invert(A0, B, 0.0, 3, tol=1e-10, seed=1)
    assert np.allclose(np.sort(res.eigenvalues.real), [1.0, 2.0, 3.0])
    first, confirm = res.meta["sweeps"]
    assert first["stop"] == "certified" and first["locked"] == 3
    # a later sweep's first checkpoint: min(m0, max(2 (k - locked) + 10, 15)),
    # with m0 = max(k, 10) + 10 = 20
    assert confirm == {"applies": 15, "locked": 0, "stop": "spectral", "discarded_infinite": 0}


def test_first_sweep_ends_once_it_certifies_k_pairs():
    # the first sweep grows by checkpoints (at 20, 30, ... applies for k = 6)
    # only until k pairs certify; a sweep of 60 applies certifies far more
    A0, B = _scalar_ball_pencil()
    k = 6
    res = solve_shift_invert(A0, B, 1.5, k, tol=1e-10, seed=5)
    first = res.meta["sweeps"][0]
    assert first["stop"] == "certified" and first["locked"] >= k
    assert first["applies"] <= 30
    assert res.meta["confirmed"]


def test_certifies_only_gate_candidates(monkeypatch):
    # a checkpoint certifies exactly the Ritz values its gate counted, whose
    # Arnoldi residual is already near tol, so no certificate is wasted on a
    # candidate that cannot pass
    passed = []
    residual = eigensolver.pencil_residual

    def counting_residual(A0, B, lam, x, a0_norm=None):
        res = residual(A0, B, lam, x, a0_norm)
        passed.append(res <= 1e-10)
        return res

    monkeypatch.setattr(eigensolver, "pencil_residual", counting_residual)
    A0, B = random_pencil(60, 40, 0)
    sigma, k = 0.7 + 0.3j, 6
    res = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), sigma, k, tol=1e-10, seed=5)
    assert passed and all(passed)
    _assert_k_nearest(res, _nearest(solve_dense_oracle(A0, B), sigma, k))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triple_eigenvalue_at_kth_distance(seed):
    # the k-th nearest value is the last copy of a triple on a non-normal
    # pencil: a sweep that calls the answer settled before deflation has
    # exposed every copy would report a farther value instead
    A0, B = pencil_with_spectrum(TRIPLE_SPECTRUM, 20, seed)
    want = _nearest(solve_dense_oracle(A0, B), SIGMA_TRIPLE, 5)
    assert np.sum(np.abs(want - TRIPLE_SPECTRUM[2]) <= 1e-8) == 3
    res = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), SIGMA_TRIPLE, 5,
                             tol=1e-10, seed=seed)
    _assert_k_nearest(res, want)
    assert res.meta["confirmed"]
    assert res.residuals.max() <= 1e-10


def test_extended_factorization_equals_single_run():
    rng = np.random.default_rng(4)
    n, m = 50, 12
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    locked = np.linalg.qr(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))[0]
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    resumed = eigensolver._Arnoldi(lambda v: M @ v, v0, locked, 3 * m)
    resumed.extend(m)
    assert resumed.steps == m
    resumed.extend(2 * m)
    single = eigensolver._Arnoldi(lambda v: M @ v, v0, locked, 2 * m)
    single.extend(2 * m)
    assert resumed.steps == single.steps == 2 * m
    assert not resumed.breakdown and not single.breakdown
    assert np.abs(resumed.V[:, : 2 * m + 1] - single.V).max() <= 1e-13
    assert np.abs(resumed.H[: 2 * m + 1, : 2 * m] - single.H).max() <= 1e-13
    assert resumed.beta == pytest.approx(single.beta, rel=1e-13)
    # the factorization is an Arnoldi relation in the complement of locked,
    # and G holds the locked components of the applied vectors
    V, H, G = single.V, single.H, single.G
    P = np.eye(n) - locked @ locked.conj().T
    assert np.abs(P @ M @ V[:, : 2 * m] - V @ H).max() <= 1e-10 * np.abs(M).max()
    assert np.abs(M @ V[:, : 2 * m] - locked @ G - V @ H).max() <= 1e-10 * np.abs(M).max()
    assert np.abs(V.conj().T @ V - np.eye(2 * m + 1)).max() <= 1e-12


def test_basis_holds_the_columns_extend_reached():
    # V grows to m + 1 columns per checkpoint, not to the cap up front, and
    # the deflated Arnoldi relation still holds on the shift-invert operator
    A0, B = random_pencil(60, 40, seed=8)
    solver = eigensolver._ShiftedSolver(sp.csr_matrix(A0), sp.csr_matrix(B), 0.3 + 0.1j)
    rng = np.random.default_rng(8)
    locked = np.linalg.qr(rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3)))[0]
    krylov = eigensolver._Arnoldi(solver.apply, rng.standard_normal(60) + 0j, locked, 150)
    assert krylov.V.shape == (60, 1)
    for m in (10, 20, 30):
        krylov.extend(m)
        s = krylov.steps
        assert s == m and not krylov.breakdown
        assert krylov.V.shape == (60, m + 1) and krylov.V.flags.c_contiguous
        V, H, G = krylov.V, krylov.H, krylov.G
        TV = np.stack([solver.apply(V[:, j]) for j in range(s)], axis=1)
        assert np.abs(TV - locked @ G[:, :s] - V[:, : s + 1] @ H[: s + 1, :s]).max() \
            <= 1e-12 * np.abs(TV).max()


def test_shift_at_eigenvalue_detected():
    A0 = sp.csr_matrix(np.diag([2.0, 3.0]).astype(complex))
    B = sp.eye(2, format="csr")
    with pytest.raises(ShiftAtEigenvalue):
        solve_shift_invert(A0, B, sigma=2.0, k=1)


def test_left_eigenvector_is_unconjugated_right():
    # complex-symmetric pencils: x^T A0 - lambda x^T B small when the right
    # residual is small
    A0, B = random_pencil(30, 20, 11)
    res = solve_dense_oracle(A0, B)
    for j in range(min(5, len(res))):
        lam = res.eigenvalues[j]
        x = res.eigenvectors[:, j]
        left = np.linalg.norm(x @ A0 - lam * (x @ B))
        den = np.linalg.norm(x @ A0) + abs(lam) * np.linalg.norm(x @ B)
        assert left / den <= 1e-8


def test_scalar_pencil_oracle_equivalence():
    # 6 eigenvalues nearest 1.5
    A0, B = _scalar_ball_pencil()
    oracle = solve_dense_oracle(A0.toarray(), B.toarray())
    sigma = 1.5
    res = solve_shift_invert(A0, B, sigma, k=6, tol=1e-10)
    want = oracle.eigenvalues[np.argsort(np.abs(oracle.eigenvalues - sigma), kind="stable")][:6]
    got = res.eigenvalues[np.argsort(np.abs(res.eigenvalues - sigma), kind="stable")]
    for lam in got:
        assert np.abs(want - lam).min() <= 1e-8 * abs(lam)


def _maxwell_pencil(mesh):
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: {"re": 4.0, "im": 1.0}})
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    return assemble_maxwell(mesh, mu, eps, 1.0, ops)


def test_maxwell_augmented_path_matches_oracle():
    pencil = _maxwell_pencil(generate_cube_mesh(2))
    A0 = pencil.a0
    oracle = solve_dense_oracle(A0, pencil.B)
    # sigma = 0 leaves the sigma-scaled coupling block of the augmented system empty
    for sigma in (1.0 + 0.0j, 0.0j):
        res = solve_shift_invert(A0, pencil.B, sigma, k=4, tol=1e-9)
        assert len(res) == 4 and not res.meta["partial"]
        want = oracle.eigenvalues[np.argsort(np.abs(oracle.eigenvalues - sigma),
                                             kind="stable")][:4]
        for lam in res.eigenvalues:
            assert np.abs(want - lam).min() <= 1e-7 * abs(lam)


@pytest.mark.parametrize("sigma", [0.0, 2.3, 3.0 - 2.0j])
@pytest.mark.parametrize("mesh_name", ["cube2", "two-cubes"])
def test_folded_apply_equals_gram_product_then_solve(request, mesh_name, sigma):
    # the apply solves the augmented system for B v without forming B v; the
    # pencil with the matrix-free B checks it independently of the factor
    mesh = generate_cube_mesh(2) if mesh_name == "cube2" else request.getfixturevalue("two_cubes")
    pencil = _maxwell_pencil(mesh)
    solver = eigensolver._ShiftedSolver(pencil.a0, pencil.B, sigma)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(mesh.n_edges) + 1j * rng.standard_normal(mesh.n_edges)
    x = solver.apply(v)
    bv = pencil.B @ v
    assert np.linalg.norm(pencil.a0 @ x - sigma * (pencil.B @ x) - bv) <= 1e-12 * np.linalg.norm(bv)


def _shift_near_eigenvalue_detected(A0, B, lam):
    """A shift 1e-12 relative from the eigenvalue lam is refused by the
    singularity probe, and one 1e-8 away is factored; returns that solver."""
    with pytest.raises(ShiftAtEigenvalue, match="numerically singular"):
        eigensolver._ShiftedSolver(A0, B, lam * (1 + 1e-12))
    return eigensolver._ShiftedSolver(A0, B, lam * (1 + 1e-8))


@pytest.mark.parametrize("kind", ["maxwell-cube3", "scalar-ball1"])
def test_shift_near_a_certified_eigenvalue_detected(kind):
    # the augmented (Maxwell) and explicit (scalar) shifted forms
    if kind == "maxwell-cube3":
        pencil = _maxwell_pencil(generate_cube_mesh(3))
        A0, B, sigma = pencil.a0, pencil.B, 2.3
    else:
        (A0, B), sigma = _scalar_ball_pencil(), 1.5
    res = solve_shift_invert(A0, B, sigma, k=1, tol=1e-10)
    assert len(res) == 1
    _shift_near_eigenvalue_detected(A0, B, res.eigenvalues[0])


def test_shift_near_an_eigenvalue_detected_on_the_pivoting_path(monkeypatch):
    # the pivot-free attempt raises, as SuperLU does on an exactly zero pivot,
    # so the partial-pivoting factor alone decides
    real = spla.splu

    def raising(A, **kwargs):
        if kwargs.get("diag_pivot_thresh") == 0.0:
            raise RuntimeError("Factor is exactly singular")
        return real(A, **kwargs)

    monkeypatch.setattr(spla, "splu", raising)
    A0, B = random_pencil(40, 40, seed=4)
    lam = solve_dense_oracle(A0, B).eigenvalues[0]
    solver = _shift_near_eigenvalue_detected(sp.csr_matrix(A0), sp.csr_matrix(B), lam)
    assert solver._lu.path == "pivoting"


# ------------------------------------------------------------------- cluster

def test_cluster_pair_and_singleton():
    labels, means = cluster([1.0, 1.0 + 1e-9, 5.0], reltol=1e-6)
    assert labels.tolist() == [0, 0, 1]
    assert len(means) == 2


def test_cluster_empty():
    labels, means = cluster([])
    assert len(labels) == 0
    assert len(means) == 0


def test_cluster_single_linkage_chain():
    vals = [1.0, 1.0 + 4e-6, 1.0 + 8e-6]   # pairwise neighbors within tol only
    labels, means = cluster(vals, reltol=5e-6)
    assert labels.tolist() == [0, 0, 0]
    assert len(means) == 1


def test_cluster_scrambled_chain_labelled_by_first_member():
    # a 5-value chain with neighbours 4e-6 apart and a 5e-6 gap, given out of
    # order: label 0 must travel four links from index 0 to index 2
    vals = [1.0 + 16e-6, 0.5, 1.0, 1.0 + 8e-6, 1.0 + 4e-6, 1.0 + 12e-6]
    labels, means = cluster(vals, reltol=5e-6)
    assert labels.tolist() == [0, 1, 0, 0, 0, 0]
    assert means[1] == 0.5
    assert abs(means[0] - (1.0 + 8e-6)) <= 1e-15


def _single_linkage_reference(vals, thr):
    """Labels by a depth-first search over all pairs, numbered by first member."""
    labels = [-1] * len(vals)
    count = 0
    for i in range(len(vals)):
        if labels[i] < 0:
            labels[i], stack = count, [i]
            while stack:
                a = stack.pop()
                for b, v in enumerate(vals):
                    if labels[b] < 0 and abs(vals[a] - v) <= thr:
                        labels[b] = count
                        stack.append(b)
            count += 1
    return np.array(labels)


@pytest.mark.parametrize("seed", range(5))
def test_cluster_matches_pairwise_reference(seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    vals = centers[rng.integers(0, 6, 30)] + 1e-7 * rng.standard_normal(30)
    got, means = cluster(vals, reltol=1e-6)
    labels = _single_linkage_reference(vals, 1e-6 * np.abs(vals).max())
    assert got.tolist() == labels.tolist()
    assert means.tolist() == [vals[labels == c].mean() for c in range(labels.max() + 1)]


# -------------------------------------------------------------------- census

def test_census_mixed():
    c = sector_census([1.0, 2.0, 1j], delta=np.pi / 4, radius=10.0)
    assert (c.inside, c.outside) == (2, 1)


def test_census_real_positive():
    c = sector_census(np.linspace(0.5, 9.0, 7), delta=0.01, radius=100.0)
    assert c.outside == 0


def test_census_negative_real():
    c = sector_census([-1.0], delta=np.pi / 2, radius=5.0)
    assert c.outside == 1


def test_census_zero_counts_inside():
    c = sector_census([0.0], delta=0.1, radius=1.0)
    assert c.inside == 1


def test_census_roundoff_zero_counts_inside():
    # a computed zero eigenvalue of a real spectrum, off zero by roundoff only
    c = sector_census([-1.6e-15 - 6e-17j, 1.0, 3.8], delta=0.1, radius=10.0)
    assert (c.inside, c.outside) == (3, 0)
    c = sector_census([-1e-3, 1.0], delta=0.1, radius=10.0)
    assert (c.inside, c.outside) == (1, 1)


def test_census_delta_range():
    with pytest.raises(ValueError):
        sector_census([1.0], delta=0.0, radius=1.0)


def test_pencil_residual_matches_definition():
    A0, B = random_pencil(8, 6, 2)
    res = solve_dense_oracle(A0, B)
    # a shifted lambda keeps the residual far above roundoff, so the relative
    # comparison (no absolute slack) can tell the two denominators apart
    lam, x = res.eigenvalues[0] + 0.1, res.eigenvectors[:, 0]
    num = np.linalg.norm(A0 @ x - lam * (B @ x))
    den = np.abs(A0).sum(axis=1).max() * np.linalg.norm(x) + abs(lam) * np.linalg.norm(B @ x)
    assert num / den > 1e-3
    assert pencil_residual(A0, B, lam, x) == pytest.approx(num / den, rel=1e-12, abs=0)
