"""P1 Galerkin discretization of the scalar Steklov problem.

The eigenvalue parameter sits in the boundary condition: the flux of the
solution through the boundary is proportional to its trace,

    -div(mu_inv grad u) - omega^2 eps u = 0   in the domain,
    n . mu_inv grad u = lambda u              on the boundary,

which discretizes to the linear pencil (K - omega^2 M) u = lambda B_bd u.
K is the mu_inv-weighted stiffness, M the eps-weighted mass, and B_bd the
boundary mass; B_bd is kept genuinely singular (its kernel is exactly the
interior vertices), so the pencil has infinite eigenvalues that the solver
discards.

Coefficients are piecewise constant per element, so all element integrals
are exact.  The scalar permittivity per element is taken as trace(eps)/3,
which is exact for the isotropic tensors used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._assembly import boundary_p1_mass, p1_mass, p1_stiffness
from .errors import ConfigError
from .materials import MaterialField
from .mesh import Mesh


@dataclass
class ScalarPencil:
    """Sparse pencil (K - omega^2 M) u = lambda B_bd u on vertex dofs."""

    K: sp.csr_matrix
    M: sp.csr_matrix
    B_bd: sp.csr_matrix
    omega: float
    mesh: Mesh = field(repr=False)
    boundary_vertices: np.ndarray = field(repr=False)
    _a0: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def n_dofs(self):
        return self.K.shape[0]

    def a0(self) -> sp.csr_matrix:
        """Left-hand matrix K - omega^2 M (complex CSR)."""
        if self._a0 is None:
            self._a0 = (self.K.astype(np.complex128) - (self.omega**2) * self.M).tocsr()
        return self._a0

    @property
    def B(self):
        """Right-hand matrix of the pencil (alias for the boundary mass)."""
        return self.B_bd

    @property
    def interior_vertices(self):
        return np.setdiff1d(np.arange(self.n_dofs), self.boundary_vertices)


def assemble_scalar(mesh: Mesh, mu_inv: MaterialField, eps: MaterialField, omega: float) -> ScalarPencil:
    """Assemble the scalar pencil with exact per-element integration."""
    _check_fields(mesh, mu_inv, eps)
    K = p1_stiffness(mesh, np.ascontiguousarray(mu_inv.tensors.real))
    M = p1_mass(mesh, eps.scalar_values())
    B = boundary_p1_mass(mesh)
    return ScalarPencil(K, M, B, float(omega), mesh, mesh.boundary_vertex_ids)


def _check_fields(mesh, mu_inv, eps):
    if mu_inv.name != "mu_inv" or eps.name != "eps":
        raise ConfigError("fields must be passed as (mu_inv, eps)")
    for fld in (mu_inv, eps):
        if fld.mesh is not mesh and not np.array_equal(fld.mesh.tets, mesh.tets):
            raise ConfigError(f"field {fld.name!r} was built on a different mesh")


def dump_matrix_market(pencil, directory):
    """Write the pencil matrices as Matrix Market coordinate files for
    external cross-checks.

    Works for scalar and Maxwell pencils; a matrix-free boundary form is
    materialized through its explicit sparse representation.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if hasattr(pencil, "K_curl"):
        mats = {"K": pencil.K_curl, "M": pencil.M_eps, "B": pencil.B.to_sparse()}
    else:
        mats = {"K": pencil.K, "M": pencil.M, "B": pencil.B_bd}
    paths = {}
    for name, mat in mats.items():
        path = directory / f"{name}.mtx"
        scipy.io.mmwrite(path, sp.coo_matrix(mat))
        paths[name] = path
    return paths


def scalar_dirichlet_diagnostic(pencil: ScalarPencil) -> float:
    """Smallest singular value of the interior block of K - omega^2 M,
    normalized by the largest one.

    A value near zero signals that omega^2 is (numerically) an interior
    Dirichlet eigenvalue, i.e. the well-posedness assumption behind the
    Steklov pencil fails on this mesh.  Returns inf when the mesh has no
    interior vertices.
    """
    interior = pencil.interior_vertices
    if len(interior) == 0:
        return np.inf
    A = pencil.a0()[interior][:, interior]
    if A.shape[0] <= 2:
        # svds needs k < n - 1, so a block this small takes a dense SVD
        s = np.linalg.svd(A.toarray(), compute_uv=False)
        return float(s[-1] / s[0]) if s[0] > 0 else 0.0
    return _sparse_sigma_ratio(A.tocsc())


def _sparse_sigma_ratio(A):
    """sigma_min/sigma_max via Lanczos on A and on the factorized inverse."""
    n = A.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    smax = float(spla.svds(A, k=1, which="LM", v0=v0, tol=1e-9,
                           return_singular_vectors=False)[0])
    try:
        lu = spla.splu(A)
    except RuntimeError:
        return 0.0
    op = spla.LinearOperator(
        A.shape,
        matvec=lu.solve,
        rmatvec=lambda b: lu.solve(b, trans="H"),
        dtype=np.complex128,
    )
    inv_max = float(spla.svds(op, k=1, which="LM", v0=v0, tol=1e-9,
                              return_singular_vectors=False)[0])
    if not np.isfinite(inv_max) or inv_max == 0.0:
        return 0.0
    return float(1.0 / (inv_max * smax))
