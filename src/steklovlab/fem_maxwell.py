"""Lowest-order edge-element discretization of the modified Maxwell Steklov
problem.

The pencil is (K_curl - omega^2 M_eps) u = lambda B u with

    K_curl = <mu_inv curl u, curl u'>,   M_eps = <eps u, u'>,

and B the boundary Gram form of the smoothing operator (boundary_ops).  Edge
basis functions are oriented globally low -> high vertex index, which makes
assembly deterministic and gives the discrete complex identity
K_curl . G = 0 for the vertex-to-edge gradient matrix G.

Eigenvectors of the pencil are discretely eps-divergence-free; project_Vh
realizes the corresponding projection by subtracting the gradient of a
mean-zero scalar potential solved from the eps-weighted Laplacian G^T M_eps G
(one grounded vertex per component, boundary_ops.GroundedLaplacian).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._assembly import P1_TET_MASS, scatter_square
from .boundary_ops import (
    BoundaryGram,
    GroundedLaplacian,
    SurfaceOperatorSet,
    assemble_boundary_form,
    ground,
)
from .errors import ConfigError, SolverFailure
from .materials import MaterialField
from .mesh import LOCAL_EDGES, Mesh

# Lanczos steps allowed for each extreme singular value of kernelS_diagnostic
LANCZOS_MAX_STEPS = 500


@dataclass
class MaxwellPencil:
    """Sparse pencil (K_curl - omega^2 M_eps) u = lambda B u on edge dofs."""

    K_curl: sp.csr_matrix
    M_eps: sp.csr_matrix
    B: BoundaryGram
    G: sp.csr_matrix                      # edges x vertices discrete gradient
    omega: float
    mesh: Mesh = field(repr=False)
    ops: SurfaceOperatorSet = field(repr=False)
    _a0: sp.csr_matrix | None = field(default=None, repr=False)
    _projector: GroundedLaplacian | None = field(default=None, repr=False)

    @property
    def n_dofs(self):
        return self.K_curl.shape[0]

    def a0(self) -> sp.csr_matrix:
        if self._a0 is None:
            self._a0 = (self.K_curl.astype(np.complex128) - (self.omega**2) * self.M_eps).tocsr()
        return self._a0


@dataclass
class ProjectionResult:
    projected: np.ndarray
    potential: np.ndarray     # mean-zero vertex potential


def discrete_gradient(mesh: Mesh) -> sp.csr_matrix:
    """G[e, hi] = +1, G[e, lo] = -1: edge dofs of the gradient of a vertex field."""
    ne = mesh.n_edges
    rows = np.repeat(np.arange(ne), 2)
    cols = mesh.edges.ravel()
    data = np.tile([-1.0, 1.0], ne)
    return sp.coo_matrix((data, (rows, cols)), shape=(ne, mesh.n_vertices)).tocsr()


def edge_mass_matrix(mesh: Mesh, tensors=None) -> sp.csr_matrix:
    """<A u, u'> for edge elements; ``tensors`` (T, 3, 3) or None for identity."""
    g = mesh.tet_gradients
    if tensors is None:
        C = np.einsum("tic,tjc->tij", g, g)
    else:
        C = np.einsum("tic,tcd,tjd->tij", g, tensors, g)
    a = LOCAL_EDGES[:, 0]
    b = LOCAL_EDGES[:, 1]
    P = P1_TET_MASS
    local = (
        P[np.ix_(a, a)] * C[:, b[:, None], b[None, :]]
        - P[np.ix_(a, b)] * C[:, b[:, None], a[None, :]]
        - P[np.ix_(b, a)] * C[:, a[:, None], b[None, :]]
        + P[np.ix_(b, b)] * C[:, a[:, None], a[None, :]]
    )
    s = mesh.tet_edge_signs
    local *= s[:, :, None] * s[:, None, :]
    local *= mesh.volumes[:, None, None]
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return scatter_square(local, mesh.tet_edges, mesh.n_edges)


def curl_curl_matrix(mesh: Mesh, tensors) -> sp.csr_matrix:
    """<A curl u, curl u'> for edge elements; curls are constant per element."""
    g = mesh.tet_gradients
    a = LOCAL_EDGES[:, 0]
    b = LOCAL_EDGES[:, 1]
    curls = 2.0 * np.cross(g[:, a], g[:, b])          # (T, 6, 3)
    curls = curls * mesh.tet_edge_signs[:, :, None]
    local = np.einsum("tic,tcd,tjd->tij", curls, tensors, curls)
    local *= mesh.volumes[:, None, None]
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return scatter_square(local, mesh.tet_edges, mesh.n_edges)


def assemble_maxwell(mesh: Mesh, mu_inv: MaterialField, eps: MaterialField,
                     omega: float, ops: SurfaceOperatorSet) -> MaxwellPencil:
    """Assemble the Maxwell pencil; piecewise-constant coefficients are
    integrated exactly (the integrands are at most quadratic)."""
    if omega == 0:
        raise ValueError("omega must be nonzero for the Maxwell pencil")
    if mu_inv.name != "mu_inv" or eps.name != "eps":
        raise ConfigError("fields must be passed as (mu_inv, eps)")
    for fld in (mu_inv, eps):
        if fld.mesh is not mesh and not np.array_equal(fld.mesh.tets, mesh.tets):
            raise ConfigError(f"field {fld.name!r} was built on a different mesh")
    if ops.mesh is not mesh:
        raise ConfigError("surface operators belong to a different mesh")

    K = curl_curl_matrix(mesh, np.ascontiguousarray(mu_inv.tensors.real))
    M = edge_mass_matrix(mesh, eps.tensors)
    B = assemble_boundary_form(ops)
    G = discrete_gradient(mesh)
    return MaxwellPencil(K, M, B, G, float(omega), mesh, ops)


def project_Vh(pencil: MaxwellPencil, u, eps: MaterialField | None = None) -> ProjectionResult:
    """Remove the eps-weighted gradient part: u - grad w with

        G^T M_eps G w = G^T M_eps u,   w of zero lumped-mass mean per component.

    With ``eps`` None the pencil's own mass matrix is reused (factorization
    cached); passing a field re-assembles the weighted mass.
    """
    u = np.asarray(u, dtype=np.complex128)
    mesh = pencil.mesh
    G = pencil.G
    M = pencil.M_eps if eps is None else edge_mass_matrix(mesh, eps.tensors)
    solver = pencil._projector if eps is None else None
    if solver is None:
        lumped = np.zeros(mesh.n_vertices)
        np.add.at(lumped, mesh.tets.ravel(), np.repeat(mesh.volumes / 4.0, 4))
        solver = GroundedLaplacian(G.T @ (M @ G), lumped)
        if eps is None:
            pencil._projector = solver
    w = solver.solve(G.T @ (M @ u))
    return ProjectionResult(u - G @ w, w)


@dataclass
class KernelBasis:
    """Orthonormal kernel basis Q = Z blockdiag(I, R^-T) kept in factored form.

    Z is blockdiag(I on interior edges, G_s0 on boundary edges) as an
    (n_edges, r) sparse matrix, its first ``n_interior`` columns the
    interior-edge unit fields; N_B = G_s0^T G_s0 = R R^T is the grounded
    surface graph Laplacian, so Z^T Z = blockdiag(I, N_B) =: N.
    """

    Z: sp.csr_matrix
    n_interior: int
    N_B: sp.csc_matrix
    N_B_lu: object = field(repr=False)

    def gram(self, x):
        """N x."""
        y = x.copy()
        y[self.n_interior:] = self.N_B @ x[self.n_interior:]
        return y

    def gram_solve(self, x):
        """N^-1 x; N_B is real, so a complex x is solved as Re and Im."""
        y = x.copy()
        b = x[self.n_interior:]
        re_im = self.N_B_lu.solve(np.column_stack([b.real, b.imag]))
        y[self.n_interior:] = re_im[:, 0] + 1j * re_im[:, 1]
        return y


def kernel_subspace_basis(mesh: Mesh):
    """Basis of the spanned part of the discrete smoothing-operator kernel:
    all gradients plus all interior-edge unit fields.

    The span splits by coordinates: interior-edge coordinates are free, and
    boundary edges carry only surface gradients G_s z.  So the orthonormal
    basis is Q = blockdiag(I, G_s0 R^-T), with G_s0 the surface gradient
    grounded at one vertex per surface component and R R^T = G_s0^T G_s0;
    its dimension n_interior_edges + n_boundary_vertices - components needs
    no rank tolerance.  Q is never formed: the KernelBasis holds Z, N_B and
    the sparse factor of N_B.

    Returns (KernelBasis, info): info records the subspace dimension and, for
    comparison, the dimension of the full kernel of the coupling matrix
    implied by its rank, so an unspanned remainder is detectable rather than
    silent.
    """
    interior = mesh.interior_edge_ids
    bed = mesh.boundary_edge_ids
    Gs = discrete_gradient(mesh)[bed][:, mesh.boundary_vertex_ids]
    Gs0 = Gs[:, ground(Gs.T @ Gs)[0]]
    E = sp.identity(mesh.n_edges, format="csc")
    Z = sp.hstack([E[:, interior], E[:, bed] @ Gs0], format="csr")
    N_B = (Gs0.T @ Gs0).tocsc()
    ni = len(interior)
    basis = KernelBasis(Z, ni, N_B, spla.splu(N_B))
    info = {"subspace_dim": Z.shape[1], "n_edges": mesh.n_edges, "n_interior_edges": ni}
    return basis, info


def kernelS_diagnostic(pencil: MaxwellPencil, basis=None, return_details=False):
    """Smallest singular value (normalized by the largest) of the pencil
    matrix compressed to the spanned kernel subspace of the smoothing
    operator.

    A value near zero signals that the variational problem restricted to that
    subspace is (numerically) singular at this omega, breaking the
    well-posedness assumption behind the eigenvalue problem.  The details
    report the subspace dimension and the rank of the coupling matrix so a
    kernel remainder not covered by gradients + interior edges is visible.

    With Q = Z T, T = blockdiag(I, R^-T), the compression is Q^T A0 Q =
    T^T C T with the sparse C = Z^T A0 Z, and its squared singular values
    are the eigenvalues of M = N^-1 C^H N^-1 C, self-adjoint in the inner
    product <x, y>_N = y^H N x.  Lanczos gives the largest eigenvalue of M
    (sigma_max^2) and, through one sparse LU of C, of
    M^-1 = C^-1 N C^-H N (sigma_min^-2).
    """
    basis, info = kernel_subspace_basis(pencil.mesh) if basis is None else basis
    sigma = _sigma_ratio((basis.Z.T @ (pencil.a0() @ basis.Z)).tocsc(), basis)

    if not return_details:
        return sigma
    Db = pencil.ops.D[:, pencil.mesh.boundary_edge_ids]
    # the singular values of D on boundary edges, squared, from its small Gram;
    # squaring leaves roundoff at 1e-16 sigma_max^2, so the rank counts the
    # singular values above 1e-6 sigma_max
    ev = np.linalg.eigvalsh((Db @ Db.T).toarray())
    rank_D = int(np.sum(ev > 1e-12 * ev[-1])) if ev.size and ev[-1] > 0 else 0
    details = dict(info)
    details["rank_D"] = rank_D
    details["kernel_dim_from_rank"] = pencil.n_dofs - rank_D
    details["unspanned_kernel_dim"] = details["kernel_dim_from_rank"] - info["subspace_dim"]
    details["sigma_min"] = sigma
    return sigma, details


def _sigma_ratio(C, basis):
    """sigma_min/sigma_max of T^T C T, 0.0 if C is exactly singular."""
    n = C.shape[0]
    CH = C.conj().T.tocsr()
    smax2 = _lanczos_top(lambda v: basis.gram_solve(CH @ basis.gram_solve(C @ v)), basis.gram, n)
    if smax2 <= 0:
        return 0.0
    try:
        lu = spla.splu(C)
    except RuntimeError:
        return 0.0
    inv_smin2 = _lanczos_top(
        lambda v: lu.solve(basis.gram(lu.solve(basis.gram(v), trans="H"))), basis.gram, n)
    return float(1.0 / np.sqrt(smax2 * inv_smin2))


def _lanczos_top(apply, gram, n):
    """Largest eigenvalue of ``apply``, an operator self-adjoint and positive
    semidefinite in <x, y>_N = y^H N x with N x = gram(x).

    Lanczos in the N-inner product with full reorthogonalization (two
    Gram-Schmidt passes) from a fixed start vector; stops once the top Ritz
    pair's residual beta |s_m| is at most 1e-10 of its Ritz value.
    """
    v = np.random.default_rng(0).standard_normal(n).astype(np.complex128)
    v /= np.sqrt(np.vdot(v, gram(v)).real)
    V = np.empty((16, n), dtype=np.complex128)      # Lanczos vectors as rows
    alpha, beta = [], []
    for m in range(LANCZOS_MAX_STEPS):
        if m == len(V):
            V = np.concatenate([V, np.empty_like(V)])
        V[m] = v
        w = apply(v)
        a = 0.0
        for _ in range(2):
            h = (V[: m + 1] @ gram(w).conj()).conj()
            w -= h @ V[: m + 1]
            a += h[m].real
        alpha.append(a)
        b = np.sqrt(max(np.vdot(w, gram(w)).real, 0.0))
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta, S = np.linalg.eigh(T)
        if b * abs(S[-1, -1]) <= 1e-10 * theta[-1]:
            return float(theta[-1])
        beta.append(b)
        v = w / b
    raise SolverFailure(
        f"kernel diagnostic Lanczos did not converge in {LANCZOS_MAX_STEPS} steps")
