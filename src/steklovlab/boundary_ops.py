"""Discrete realization of the nonlocal boundary smoothing operator.

On the closed boundary triangulation, the operator maps an edge-element
field u to the surface gradient of a scalar potential:

    S u = grad_G p,  where  L p = D u  (p mean-zero),

with L the surface P1 stiffness (kernel = constants on each boundary
component) and D the duality coupling D[j, i] = -int_G (n x phi_i) . grad_G q_j,
i.e. (D u)_j tests div_G of the tangential trace of u against the surface hat
function q_j.  The associated boundary Gram form is B = D^T L^+ D, a real
symmetric PSD operator on edge dofs whose kernel contains all discrete
gradients and all interior-edge fields.

Sign convention: the potential is fixed by L p = D u with the minus sign
inside D, so grad_G p realizes the smoothing operator including its leading
sign.  The Gram form is quadratic and therefore sign-independent.

L is inverted mean-zero by ``GroundedLaplacian``, which grounds one vertex
per boundary component (the right-hand sides sum to zero on each component
because the hat functions partition unity) and factors L once; the shifted
solve (eigensolver) reuses its grounding.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._assembly import scatter_rect, scatter_square
from .errors import MalformedMeshError, SolverFailure
from .mesh import Mesh, SurfaceMesh

# midpoint quadrature on the reference triangle: exact for quadratic integrands
_MID_BARY = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
_TRI_PAIRS = np.array([[0, 1], [0, 2], [1, 2]])

# most dofs a dense path takes (the explicit Gram block, the dense oracle)
DENSE_LIMIT = 5000

# keyword arguments of every run-path spla.splu call: the matrices are
# structurally symmetric, so a minimum-degree ordering of A + A^T in
# SuperLU's symmetric mode fills less than the default COLAMD of A^T A;
# the default pivot threshold keeps partial pivoting (George & Liu, SIAM
# Rev. 31(1), 1989; Li, ACM TOMS 31(3), 2005)
SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}


def ground(L):
    """The free vertices, all but the first of each connected component of
    the graph of L, and the component label of every vertex."""
    # imported here: csgraph adds start-up time to every run, scalar ones too
    from scipy.sparse.csgraph import connected_components
    labels = connected_components(abs(L), directed=False)[1]
    grounded = np.unique(labels, return_index=True)[1]
    return np.setdiff1d(np.arange(L.shape[0]), grounded), labels


class GroundedLaplacian:
    """Solves L p = b for a Laplacian L whose kernel is the constants on each
    connected component of its graph, with p of zero ``weights``-mean on every
    component; b must sum to zero on each component.

    The first vertex of each component is grounded (its row and column
    dropped), and the nonsingular rest L_ff is factored once (Bochev &
    Lehoucq, SIAM Review 47(1), 2005).
    """

    def __init__(self, L, weights):
        self.L = L.tocsr()
        self.free, labels = ground(self.L)
        self.L_ff = self.L[self.free][:, self.free].tocsc()
        parts = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
        self._parts = [(idx, weights[idx]) for idx in parts]
        self._scale = abs(self.L).max()       # max |L_ij|, the roundoff scale
        try:
            self._lu = spla.splu(self.L_ff, **SPLU_OPTIONS)
        except RuntimeError as exc:
            raise SolverFailure(f"grounded Laplacian not factorizable: {exc}") from exc

    def _solve_free(self, r):
        x = np.zeros(r.shape, dtype=np.result_type(r, self.L_ff.dtype))
        x[self.free] = self._lu.solve(r[self.free])
        return x

    def solve(self, b):
        """p for a 1-D or 2-D (column by column), real or complex ``b``."""
        b = np.asarray(b)
        if np.iscomplexobj(b) and not np.iscomplexobj(self.L):
            p = self._solve_free(b.real) + 1j * self._solve_free(b.imag)
        else:
            p = self._solve_free(b)
        for idx, w in self._parts:
            p[idx] -= (w @ p[idx]) / w.sum()
        # on the free rows, the system the factor solves: a grounded row's
        # residual is the roundoff in the component sum of b, which no p changes
        resid = np.linalg.norm((self.L @ p - b)[self.free])
        # relative to the data plus a roundoff floor, so a numerically zero
        # right-hand side (e.g. a discrete gradient) is not flagged
        tol = 1e-10 * np.linalg.norm(b) + 1e-12 * self._scale * (1.0 + np.linalg.norm(p))
        if not np.isfinite(resid) or resid > tol:
            raise SolverFailure(f"grounded Laplacian solve residual {resid:.2e} exceeds {tol:.2e}")
        return p


class BoundaryGram:
    """Boundary Gram form B = D^T L^+ D on edge dofs, with the surface
    operators it is made of: the surface stiffness L, the coupling D
    (surface vertices x edge dofs), the grounded solve of L, and ``D_free``,
    the rows of D on the free vertices of that solve, which every shifted
    solve with this form takes.

    Applied matrix-free (one coupling matvec, one factorized surface solve,
    one transposed matvec per application); ``sparse`` materializes the
    dense boundary-edge block for oracle runs on small meshes.
    """

    def __init__(self, surface: SurfaceMesh, mesh: Mesh, L, D, laplacian: GroundedLaplacian):
        self.surface = surface
        self.mesh = mesh
        self.L = L
        self.D = D
        self.laplacian = laplacian
        self.D_free = D.tocsr()[laplacian.free]
        self.shape = (D.shape[1], D.shape[1])

    def matvec(self, v):
        v = np.asarray(v)
        p = self.laplacian.solve(self.D @ v)
        return self.D.T @ p

    def __matmul__(self, other):
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        return np.stack([self.matvec(other[:, j]) for j in range(other.shape[1])], axis=1)

    @cached_property
    def sparse(self) -> sp.csr_matrix:
        """Explicit symmetric CSR form (dense on the boundary-edge block)."""
        bed = self.mesh.boundary_edge_ids
        if len(bed) > DENSE_LIMIT:
            raise ValueError(f"{len(bed)} boundary edge dofs exceed the dense limit {DENSE_LIMIT}")
        Db = np.asarray(self.D[:, bed].todense())
        block = Db.T @ self.laplacian.solve(Db)
        block = 0.5 * (block + block.T)
        rows = np.repeat(bed, len(bed))
        cols = np.tile(bed, len(bed))
        n = self.shape[0]
        return sp.coo_matrix((block.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_surface_operators(surface: SurfaceMesh, mesh: Mesh) -> BoundaryGram:
    """The boundary Gram form of ``mesh``, with L and D assembled by exact
    per-triangle integration (degree-2 rule)."""
    if surface.mesh is not mesh:
        raise MalformedMeshError("surface was extracted from a different mesh")
    grads = surface.hat_gradients                      # (F, 3, 3)
    areas = surface.areas

    local_L = np.einsum("fic,fjc->fij", grads, grads) * areas[:, None, None]
    local_L = 0.5 * (local_L + local_L.transpose(0, 2, 1))
    L = scatter_square(local_L, surface.triangles, surface.n_vertices)

    # edge ids and orientation signs of the three edges of each triangle
    tri_vol = surface.tri_vol                          # (F, 3) volume vertex ids
    pairs = tri_vol[:, _TRI_PAIRS]                     # (F, 3, 2) in local pair order
    lo = pairs.min(axis=2)
    hi = pairs.max(axis=2)
    edge_ids = mesh.find_edges(np.stack([lo.ravel(), hi.ravel()], axis=1)).reshape(-1, 3)
    signs = np.where(pairs[:, :, 0] == lo, 1.0, -1.0)  # (F, 3)

    # tangential Whitney trace of edge e=(i,j) at quadrature point q:
    #   W_e(x_q) = s_e (lam_i(x_q) grad lam_j - lam_j(x_q) grad lam_i)
    li = _MID_BARY[:, _TRI_PAIRS[:, 0]]                # (Q, 3 edges)
    lj = _MID_BARY[:, _TRI_PAIRS[:, 1]]
    gi = grads[:, _TRI_PAIRS[:, 0]]                    # (F, 3 edges, 3)
    gj = grads[:, _TRI_PAIRS[:, 1]]
    w = li[None, :, :, None] * gj[:, None] - lj[None, :, :, None] * gi[:, None]
    w *= signs[:, None, :, None]                       # (F, Q, E, 3)
    nxw = np.cross(surface.normals[:, None, None, :], w)
    # D_local[f, j, e] = -(A/3) sum_q (n x W_e)(x_q) . grad q_j
    local_D = -np.einsum("fqec,fjc->fje", nxw, grads) * (areas[:, None, None] / 3.0)
    D = scatter_rect(local_D, surface.triangles, edge_ids,
                     (surface.n_vertices, mesh.n_edges))

    return BoundaryGram(surface, mesh, L, D, GroundedLaplacian(L, surface.lumped_mass()))
