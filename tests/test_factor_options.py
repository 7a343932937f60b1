"""Every run-path SuperLU factor is a ``boundary_ops.LUFactor``: a
pivot-free factor under a minimum-degree ordering of A + A^T in symmetric
mode, kept only when a probe solve is backward stable, and otherwise a
refactor with ``SPLU_OPTIONS``, SuperLU's partial pivoting, so a zero or tiny
diagonal never ruins the factor.  A real matrix is factored in real
arithmetic."""

import json
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from fem_helpers import solve_dense_oracle
from kernel_basis_oracle import dense_inf_sup
from steklovlab.boundary_ops import PROBE_BOUND, SPLU_OPTIONS, LUFactor
from steklovlab.cli import run
from steklovlab.eigensolver import _ShiftedSolver, solve_shift_invert
from steklovlab.fem_scalar import assemble_scalar, inf_sup
from steklovlab.materials import build_field
from steklovlab.mesh import generate_cube_mesh
from steklovlab.stability import Problem

SOLVES = {
    "maxwell": {"problem": "maxwell", "mesh": {"kind": "cube", "n": 2}, "omega": 1.0,
                "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
                "solver": {"sigma_re": 2.3, "k": 4}},
    "scalar": {"problem": "scalar", "mesh": {"kind": "ball", "level": 0}, "omega": 0.0,
               "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": 1.0}},
               "solver": {"sigma_re": 1.5, "k": 4}},
}


@pytest.fixture
def factors(monkeypatch):
    """Every LUFactor made while the test runs, with the function that made it."""
    made = []
    real = LUFactor.__init__

    def recorded(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append((sys._getframe(1).f_code.co_qualname, self))

    monkeypatch.setattr(LUFactor, "__init__", recorded)
    return made


def _cli_solves(tmp_path):
    for kind, doc in SOLVES.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        yield kind, ["solve", "--config", str(path), "--output", str(tmp_path / kind)]


def test_every_run_path_site_calls_the_factor_routine(tmp_path, monkeypatch):
    real = scipy.sparse.linalg.splu
    calls = []

    def recorded(A, **kwargs):
        # the function that called splu, and the one that called that
        calls.append((sys._getframe(1).f_code.co_qualname, sys._getframe(2).f_code.co_qualname,
                      A.shape[0]))
        return real(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    sites = {}
    for kind, argv in _cli_solves(tmp_path):
        calls.clear()
        assert run(argv) == 0
        assert {routine for routine, _, _ in calls} == {"LUFactor.__init__"}
        sites[kind] = {site for _, site, _ in calls}
        if kind == "maxwell":
            # the shifted factor is the augmented system, larger than the edge count
            n_edges = generate_cube_mesh(2).n_edges
            assert any(site == "_ShiftedSolver.__init__" and n > n_edges for _, site, n in calls)
    assert sites == {"maxwell": {"GroundedLaplacian.__init__", "inf_sup", "_ShiftedSolver.__init__"},
                     "scalar": {"inf_sup", "_ShiftedSolver.__init__"}}


def test_cli_solves_keep_the_pivot_free_factor(tmp_path, factors):
    for kind, argv in _cli_solves(tmp_path):
        factors.clear()
        assert run(argv) == 0
        assert factors
        assert [(site, f.path) for site, f in factors if f.path != "pivot-free"] == []
        assert all(f.probe_error <= PROBE_BOUND for _, f in factors)
        # the scalar pencil at omega = 0 and sigma = 1.5 is real; the absorbing
        # Maxwell pencil is not, but its grounded surface Laplacian is
        assert {site: f.real for site, f in factors} == (
            {"inf_sup": True, "_ShiftedSolver.__init__": True} if kind == "scalar" else
            {"inf_sup": False, "_ShiftedSolver.__init__": False,
             "GroundedLaplacian.__init__": True})


def test_fallback_options_are_the_partial_pivoting_ones():
    assert SPLU_OPTIONS == {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}


def near_zero_diagonal(n, sigma, seed):
    """sigma I + P with P complex symmetric: 2 x 2 blocks [[0, 1], [1, 0]],
    every other one with 1e-10 in place of the zeros, and random couplings
    off the blocks.  P has a zero or tiny diagonal in natural order, and so
    in any symmetric ordering; taking those as pivots ruins the factor."""
    rng = np.random.default_rng(seed)
    P = np.zeros((n, n), dtype=np.complex128)
    for i in range(0, n, 2):
        P[i, i + 1] = P[i + 1, i] = 1.0
        if i % 4 == 2:
            P[i, i] = P[i + 1, i + 1] = 1e-10
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if abs(i - j) > 1:
            v = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
            P[i, j] += v
            P[j, i] += v
    return sigma * np.eye(n) + P


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shift_at_the_diagonal_matches_oracle(seed):
    sigma, k, n = 0.7 + 0.3j, 6, 40
    A0 = near_zero_diagonal(n, sigma, seed)
    oracle = solve_dense_oracle(A0, np.eye(n))
    res = solve_shift_invert(sp.csr_matrix(A0), sp.eye(n, format="csr"), sigma, k,
                             tol=1e-10, seed=seed)
    assert len(res) == k
    want = oracle.eigenvalues[np.argsort(np.abs(oracle.eigenvalues - sigma), kind="stable")][:k]
    for lam in res.eigenvalues:
        assert np.abs(want - lam).min() <= 1e-12 * abs(lam)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inf_sup_of_near_zero_diagonal_matches_dense(seed):
    n = 40
    A = near_zero_diagonal(n, 0.0, seed)
    W = np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    assert inf_sup(sp.csr_matrix(A), sp.csr_matrix(W)) == pytest.approx(
        dense_inf_sup(A, W), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_zero_diagonal_pencils_take_the_fallback(seed, factors):
    # the six pencils of the two oracle tests above
    n, sigma = 40, 0.7 + 0.3j
    A0 = near_zero_diagonal(n, sigma, seed)
    solve_shift_invert(sp.csr_matrix(A0), sp.eye(n, format="csr"), sigma, 6, tol=1e-10, seed=seed)
    W = np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    inf_sup(sp.csr_matrix(near_zero_diagonal(n, 0.0, seed)), sp.csr_matrix(W))
    assert [(site, f.path) for site, f in factors] == [
        ("_ShiftedSolver.__init__", "pivoting"), ("inf_sup", "pivoting")]
    assert all(f.probe_error > PROBE_BOUND for _, f in factors)


def zero_diagonal(n, seed):
    """A nonsingular complex symmetric matrix whose diagonal is exactly zero:
    the 2 x 2 blocks [[0, 1], [1, 0]] with random couplings off the blocks."""
    rng = np.random.default_rng(seed)
    P = np.kron(np.eye(n // 2), [[0.0, 1.0], [1.0, 0.0]]).astype(np.complex128)
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if abs(i - j) > 1:
            v = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
            P[i, j] += v
            P[j, i] += v
    return P


@pytest.mark.parametrize("pivot_free_raises", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_zero_diagonal_is_not_read_as_singular(seed, pivot_free_raises, monkeypatch):
    # whatever the pivot-free attempt does with a zero diagonal, even raise as
    # SuperLU does on an exactly zero pivot, a nonsingular matrix gives its
    # true inf-sup value and spectrum, never 0.0 or a refusal
    if pivot_free_raises:
        real = scipy.sparse.linalg.splu

        def raising(A, **kwargs):
            if kwargs.get("diag_pivot_thresh") == 0.0:
                raise RuntimeError("Factor is exactly singular")
            return real(A, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", raising)
    n, sigma, k = 40, 0.7 + 0.3j, 6
    P = zero_diagonal(n, seed)
    assert np.all(np.diag(P) == 0.0)
    W = np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    value = inf_sup(sp.csr_matrix(P), sp.csr_matrix(W))
    assert value > 0.0
    assert value == pytest.approx(dense_inf_sup(P, W), rel=1e-12)

    A0 = sigma * np.eye(n) + P          # A0 - sigma I has the exactly zero diagonal of P
    oracle = solve_dense_oracle(A0, np.eye(n))
    res = solve_shift_invert(sp.csr_matrix(A0), sp.eye(n, format="csr"), sigma, k,
                             tol=1e-10, seed=seed)
    assert len(res) == k
    want = oracle.eigenvalues[np.argsort(np.abs(oracle.eigenvalues - sigma), kind="stable")][:k]
    for lam in res.eigenvalues:
        assert np.abs(want - lam).min() <= 1e-12 * abs(lam)


def test_real_factor_solves_complex_right_hand_sides():
    mesh = generate_cube_mesh(3)
    mu, eps = (build_field(mesh, name, {1: 1.0}) for name in ("mu_inv", "eps"))
    pencil = assemble_scalar(mesh, mu, eps, 0.0)
    A = (pencil.a0 + pencil.M).tocsc()                  # complex dtype, real entries, SPD
    real = LUFactor(A)
    assert real.real and real.path == "pivot-free"
    assert real.lu.L.dtype == np.float64
    cplx = scipy.sparse.linalg.splu(A, diag_pivot_thresh=0.0, **SPLU_OPTIONS)
    rng = np.random.default_rng(0)
    n = A.shape[0]
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for rhs in (b[:, 0], b, b[:, 0].real + 0j, b.real):
        for trans in ("N", "T", "H"):
            x = real.solve(rhs, trans=trans)
            want = cplx.solve(rhs.astype(np.complex128), trans=trans)
            assert x.shape == rhs.shape and x.dtype == rhs.dtype
            assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)


def test_complex_matrix_never_takes_the_real_path():
    n = 30
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)], [-1, 0, 1],
                 format="csc", dtype=np.complex128)
    assert LUFactor(A).real
    A[3, 3] += 1e-300j                  # one entry with a nonzero imaginary part
    assert not LUFactor(A).real
    # the absorbing shifted pencil: complex A0, augmented with the Gram form
    mesh = generate_cube_mesh(2)
    pencil = Problem("maxwell", mesh, 1.0).assemble(
        build_field(mesh, "mu_inv", {1: 1.0}), build_field(mesh, "eps", {1: {"re": 4.0, "im": 1.0}}))
    assert not _ShiftedSolver(pencil.a0, pencil.B, 2.3)._lu.real
