"""Every run-path SuperLU factor uses ``boundary_ops.SPLU_OPTIONS``: a
minimum-degree ordering of A + A^T in symmetric mode, with SuperLU's default
partial pivoting kept, so a zero or tiny diagonal is never taken as a pivot."""

import json
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from kernel_basis_oracle import dense_inf_sup
from steklovlab.boundary_ops import SPLU_OPTIONS
from steklovlab.cli import run
from steklovlab.eigensolver import solve_dense_oracle, solve_shift_invert
from steklovlab.fem_scalar import inf_sup
from steklovlab.mesh import generate_cube_mesh

SOLVES = {
    "maxwell": {"problem": "maxwell", "mesh": {"kind": "cube", "n": 2}, "omega": 1.0,
                "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
                "solver": {"sigma_re": 2.3, "k": 4}},
    "scalar": {"problem": "scalar", "mesh": {"kind": "ball", "level": 0}, "omega": 0.0,
               "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": 1.0}},
               "solver": {"sigma_re": 1.5, "k": 4}},
}


def test_every_run_path_factor_passes_the_shared_options(tmp_path, monkeypatch):
    real = scipy.sparse.linalg.splu
    calls = []

    def recorded(A, **kwargs):
        calls.append((sys._getframe(1).f_code.co_qualname, A.shape[0], kwargs))
        return real(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    sites = {}
    for kind, doc in SOLVES.items():
        calls.clear()
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", "--config", str(path), "--output", str(tmp_path / kind)]) == 0
        assert [site for site, _, kwargs in calls if kwargs != SPLU_OPTIONS] == []
        sites[kind] = {site for site, _, _ in calls}
        if kind == "maxwell":
            # the shifted factor is the augmented system, larger than the edge count
            n_edges = generate_cube_mesh(2).n_edges
            assert any(site == "_ShiftedSolver.__init__" and n > n_edges for site, n, _ in calls)
    assert sites == {"maxwell": {"GroundedLaplacian.__init__", "inf_sup", "_ShiftedSolver.__init__"},
                     "scalar": {"inf_sup", "_ShiftedSolver.__init__"}}
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
