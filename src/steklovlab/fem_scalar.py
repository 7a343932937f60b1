"""P1 Galerkin discretization of the scalar Steklov problem.

The eigenvalue parameter sits in the boundary condition: the flux of the
solution through the boundary is proportional to its trace,

    -div(mu_inv grad u) - omega^2 eps u = 0   in the domain,
    n . mu_inv grad u = lambda u              on the boundary,

which discretizes to the linear pencil (K - omega^2 M) u = lambda B u.
K is the mu_inv-weighted stiffness, M the eps-weighted mass, and B the
boundary mass; B is kept genuinely singular (its kernel is exactly the
interior vertices), so the pencil has infinite eigenvalues that the solver
discards.  The ``Pencil`` type (its left-hand matrix ``a0`` = K - omega^2 M
is a ``cached_property``, built on first use), the continuity bound and the
inf-sup routine defined here serve the Maxwell pencil (fem_maxwell) as well.

Coefficients are piecewise constant per element, so all element integrals
are exact.  The scalar permittivity per element is taken as trace(eps)/3,
which is exact for the isotropic tensors used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._assembly import boundary_p1_mass, p1_mass, p1_stiffness
from .boundary_ops import SPLU_OPTIONS
from .errors import ConfigError, SolverFailure
from .materials import MaterialField
from .mesh import Mesh

# Lanczos steps allowed for the smallest singular value of inf_sup
LANCZOS_MAX_STEPS = 500

# inf_sup's Lanczos stops once its top Ritz pair's residual is at most this
# fraction of the Ritz value
LANCZOS_TOL = 1e-10


@dataclass
class Pencil:
    """Sparse pencil (K - omega^2 M) u = lambda B u of either problem.

    Scalar: vertex dofs, K the stiffness, M the mass and B the boundary mass.
    Maxwell (fem_maxwell): edge dofs, K the curl-curl form, M the edge mass
    and B the matrix-free boundary Gram form (boundary_ops.BoundaryGram).
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    B: object                             # sparse matrix or BoundaryGram
    omega: float
    beta: float                           # continuity bound, see continuity_bound
    mesh: Mesh = field(repr=False)

    @cached_property
    def a0(self) -> sp.csr_matrix:
        """Left-hand matrix K - omega^2 M (complex CSR)."""
        return (self.K.astype(np.complex128) - (self.omega**2) * self.M).tocsr()


def assemble_scalar(mesh: Mesh, mu_inv: MaterialField, eps: MaterialField, omega: float,
                    K=None, M=None) -> Pencil:
    """Assemble the scalar pencil with exact per-element integration; a
    given ``K`` or ``M`` is taken as that field's matrix on ``mesh``."""
    beta = continuity_bound(mesh, mu_inv, eps, omega)
    if K is None:
        K = p1_stiffness(mesh, np.ascontiguousarray(mu_inv.tensors.real))
    if M is None:
        M = p1_mass(mesh, eps.scalar_values())
    B = boundary_p1_mass(mesh)
    return Pencil(K, M, B, float(omega), beta, mesh)


def continuity_bound(mesh, mu_inv, eps, omega) -> float:
    """beta = max(||mu_inv||_inf, omega^2 ||eps||_inf), the pointwise spectral
    norm maximized over elements: it bounds the volume form
    <mu_inv curl u, curl v> - omega^2 <eps u, v> (grad for the scalar pencil)
    in the energy norm, so sigma_min / beta lies in [0, 1].

    Checks first that the fields come in the roles (mu_inv, eps) and live on
    ``mesh``; both assemblers call it.
    """
    if mu_inv.name != "mu_inv" or eps.name != "eps":
        raise ConfigError("fields must be passed as (mu_inv, eps)")
    for fld in (mu_inv, eps):
        if not fld.lives_on(mesh):
            raise ConfigError(f"field {fld.name!r} was built on a different mesh")
    mu_sup, eps_sup = (np.linalg.norm(f.distinct_tensors(), 2, axis=(1, 2)).max()
                       for f in (mu_inv, eps))
    return float(max(mu_sup, omega**2 * eps_sup))


def scalar_dirichlet_diagnostic(pencil: Pencil, gram) -> float:
    """Inf-sup constant of the interior block of K - omega^2 M in the H^1
    norm, normalized by the continuity bound ``pencil.beta``: a value in
    [0, 1] that does not shrink under refinement.

    ``gram`` is the H^1 Gram on all vertices (_assembly.h1_gram); its
    interior block is the norm.  A value near zero signals that omega^2
    is (numerically) an interior Dirichlet eigenvalue, i.e. the
    well-posedness assumption behind the Steklov pencil fails on this mesh.
    Returns inf when the mesh has no interior vertices.
    """
    interior = pencil.mesh.interior_vertex_ids
    if len(interior) == 0:
        return np.inf
    A = pencil.a0[interior][:, interior]
    return inf_sup(A, gram[interior][:, interior]) / pencil.beta


def inf_sup(A, W):
    """Smallest singular value of the square sparse A in the energy norm of
    the Hermitian positive definite W,

        sigma_min = min_x max_y |y^H A x| / (|x|_W |y|_W),

    or 0.0 when A is exactly singular.  With W = L L^H this is
    sigma_min(L^-1 A L^-H), and sigma_min^-2 is the largest eigenvalue of
    A^-1 W A^-H W, self-adjoint in <x, y>_W = y^H W x: Lanczos finds it from
    one sparse LU of A and products with W, with no factor of W (Babuska,
    Numer. Math. 16, 1971).
    """
    try:
        lu = spla.splu(A.tocsc(), **SPLU_OPTIONS)
    except RuntimeError:
        return 0.0
    top = _lanczos_top(lambda v: lu.solve(W @ lu.solve(W @ v, trans="H")), W, A.shape[0])
    return float(1.0 / np.sqrt(top))


def _lanczos_top(apply, W, n):
    """Largest eigenvalue of ``apply``, an operator self-adjoint and positive
    semidefinite in <x, y>_W = y^H W x.

    Lanczos in the W-inner product with full reorthogonalization (two
    Gram-Schmidt passes) from a fixed start vector; stops once the top Ritz
    pair's residual beta |s_m| is at most ``LANCZOS_TOL`` of its Ritz value.
    """
    v = np.random.default_rng(0).standard_normal(n).astype(np.complex128)
    v /= np.sqrt(np.vdot(v, W @ v).real)
    V = np.empty((16, n), dtype=np.complex128)      # Lanczos vectors as rows
    alpha, beta = [], []
    for m in range(LANCZOS_MAX_STEPS):
        if m == len(V):
            V = np.concatenate([V, np.empty_like(V)])
        V[m] = v
        w = apply(v)
        a = 0.0
        for _ in range(2):
            h = (V[: m + 1] @ (W @ w).conj()).conj()
            w -= h @ V[: m + 1]
            a += h[m].real
        alpha.append(a)
        b = np.sqrt(max(np.vdot(w, W @ w).real, 0.0))
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta, S = np.linalg.eigh(T)
        if b * abs(S[-1, -1]) <= LANCZOS_TOL * theta[-1]:
            return float(theta[-1])
        beta.append(b)
        v = w / b
    raise SolverFailure(
        f"well-posedness diagnostic Lanczos did not converge in {LANCZOS_MAX_STEPS} steps")
