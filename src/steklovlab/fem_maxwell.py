"""Lowest-order edge-element discretization of the modified Maxwell Steklov
problem.

The pencil (fem_scalar.Pencil) is (K - omega^2 M) u = lambda B u with

    K = <mu_inv curl u, curl u'>,   M = <eps u, u'>,

and B the boundary Gram form of the smoothing operator (boundary_ops).  Edge
basis functions are oriented globally low -> high vertex index, which makes
assembly deterministic and gives the discrete complex identity
K . G = 0 for the vertex-to-edge gradient matrix G.

The well-posedness diagnostic compresses the pencil to the spanned kernel of
the smoothing operator (kernel_subspace_basis, kernelS_diagnostic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._assembly import P1_TET_MASS, scatter_square
from .boundary_ops import BoundaryGram, ground
from .errors import ConfigError
from .fem_scalar import Pencil, continuity_bound, inf_sup
from .materials import MaterialField
from .mesh import LOCAL_EDGES, Mesh


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


def hcurl_gram(mesh: Mesh) -> sp.csr_matrix:
    """<curl u, curl v> + <u, v> for edge elements: the coefficient-free
    H(curl) Gram."""
    ident = np.tile(np.eye(3), (mesh.n_tets, 1, 1))
    return (curl_curl_matrix(mesh, ident) + edge_mass_matrix(mesh)).tocsr()


def assemble_maxwell(mesh: Mesh, mu_inv: MaterialField, eps: MaterialField,
                     omega: float, B: BoundaryGram, K=None, M=None) -> Pencil:
    """Assemble the Maxwell pencil; piecewise-constant coefficients are
    integrated exactly (the integrands are at most quadratic); a given
    ``K`` or ``M`` is taken as that field's matrix on ``mesh``."""
    if omega == 0:
        raise ValueError("omega must be nonzero for the Maxwell pencil")
    beta = continuity_bound(mesh, mu_inv, eps, omega)
    if B.mesh is not mesh:
        raise ConfigError("boundary form belongs to a different mesh")

    if K is None:
        K = curl_curl_matrix(mesh, np.ascontiguousarray(mu_inv.tensors.real))
    if M is None:
        M = edge_mass_matrix(mesh, eps.tensors)
    return Pencil(K, M, B, float(omega), beta, mesh)


@dataclass
class KernelBasis:
    """The kernel subspace in coordinates: Z = blockdiag(I on interior edges,
    G_s0 on boundary edges) as an (n_edges, r) sparse matrix of full column
    rank, W = Z^T H Z, the H(curl) Gram H restricted to its span, and the
    mesh-only part of the diagnostic report (see kernel_subspace_basis)."""

    Z: sp.csr_matrix
    W: sp.csr_matrix
    info: dict


def kernel_subspace_basis(B: BoundaryGram, gram) -> KernelBasis:
    """Basis of the spanned part of the discrete smoothing-operator kernel of
    the boundary form ``B``: all gradients plus all interior-edge unit fields.

    The span splits by coordinates: interior-edge coordinates are free, and
    boundary edges carry only surface gradients G_s z.  So Z =
    blockdiag(I, G_s0), with G_s0 the surface gradient grounded at one vertex
    per surface component, has full column rank; its dimension
    n_interior_edges + n_boundary_vertices - components needs no rank
    tolerance.  ``gram`` is the H(curl) Gram on all edges (hcurl_gram).

    ``info`` records the subspace dimension and, for comparison, the
    dimension of the full kernel of the coupling matrix D implied by its
    rank, so an unspanned remainder is detectable rather than silent.
    """
    mesh = B.mesh
    interior = mesh.interior_edge_ids
    bed = mesh.boundary_edge_ids
    Gs = discrete_gradient(mesh)[bed][:, mesh.boundary_vertex_ids]
    Gs0 = Gs[:, ground(Gs.T @ Gs)[0]]
    E = sp.identity(mesh.n_edges, format="csc")
    Z = sp.hstack([E[:, interior], E[:, bed] @ Gs0], format="csr")

    Db = B.D[:, bed]
    # the singular values of D on boundary edges, squared, from its small Gram;
    # squaring leaves roundoff at 1e-16 sigma_max^2, so the rank counts the
    # singular values above 1e-6 sigma_max
    ev = np.linalg.eigvalsh((Db @ Db.T).toarray())
    rank_D = int(np.sum(ev > 1e-12 * ev[-1])) if ev.size and ev[-1] > 0 else 0
    info = {"subspace_dim": Z.shape[1], "n_edges": mesh.n_edges,
            "n_interior_edges": len(interior), "rank_D": rank_D,
            "kernel_dim_from_rank": mesh.n_edges - rank_D,
            "unspanned_kernel_dim": mesh.n_edges - rank_D - Z.shape[1]}
    return KernelBasis(Z, (Z.T @ (gram @ Z)).tocsr(), info)


def kernelS_diagnostic(pencil: Pencil, basis: KernelBasis) -> float:
    """Inf-sup constant, in the H(curl) norm and normalized by the continuity
    bound ``pencil.beta``, of the pencil matrix compressed to the spanned
    kernel subspace of the smoothing operator: sigma_min of C = Z^T A0 Z in
    the norm of W = Z^T H Z (fem_scalar.inf_sup), a value in [0, 1] that
    does not shrink under refinement.

    A value near zero signals that the variational problem restricted to that
    subspace is (numerically) singular at this omega, breaking the
    well-posedness assumption behind the eigenvalue problem.  ``basis`` is
    the kernel_subspace_basis of ``pencil.B``.
    """
    C = basis.Z.T @ (pencil.a0 @ basis.Z)
    return inf_sup(C, basis.W) / pencil.beta
