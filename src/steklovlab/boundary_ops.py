"""Discrete realization of the nonlocal boundary smoothing operator.

On the closed boundary triangulation, the operator maps an edge-element
field u to the surface gradient of a scalar potential:

    S u = grad_G p,  where  L p = D u  (p mean-zero),

with L the surface P1 stiffness (kernel = constants on the single boundary
component) and D the duality coupling D[j, i] = -int_G (n x phi_i) . grad_G q_j,
i.e. (D u)_j tests div_G of the tangential trace of u against the surface hat
function q_j.  The associated boundary Gram form is B = D^T L^+ D, a real
symmetric PSD operator on edge dofs whose kernel contains all discrete
gradients and all interior-edge fields.

Sign convention: the potential is fixed by L p = D u with the minus sign
inside D, so the returned field grad_G p realizes the smoothing operator
including its leading sign.  The Gram form is quadratic and therefore
sign-independent.

The mean-zero constraint is enforced by grounding one surface vertex in the
factorization (the right-hand sides are compatible: they sum to zero because
the hat functions partition unity) followed by a rank-1 lumped-mass
projection, so L is factored once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._assembly import scatter_rect, scatter_square
from .errors import MalformedMeshError
from .mesh import Mesh, SurfaceMesh

# midpoint quadrature on the reference triangle: exact for quadratic integrands
_MID_BARY = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
_TRI_PAIRS = np.array([[0, 1], [0, 2], [1, 2]])

# most boundary edge dofs whose Gram block BoundaryGram.to_sparse densifies
DENSE_LIMIT = 5000


@dataclass
class SurfaceOperatorSet:
    """Surface stiffness L, coupling D, and the data to invert L mean-zero."""

    surface: SurfaceMesh
    mesh: Mesh = field(repr=False)
    L: sp.csr_matrix = field(repr=False)
    D: sp.csr_matrix = field(repr=False)          # (surface vertices) x (edge dofs)
    lumped_mass: np.ndarray = field(repr=False)
    _lu: object = field(default=None, repr=False)
    _gram: object = field(default=None, repr=False)
    _lscale: float = field(init=False, repr=False)    # max |L_ij|, the roundoff scale

    def __post_init__(self):
        self._lscale = abs(self.L).max()

    @property
    def n_surface_vertices(self):
        return self.L.shape[0]

    @property
    def n_edge_dofs(self):
        return self.D.shape[1]

    def _factor(self):
        if self._lu is None:
            grounded = self.L.tocsc()[1:, 1:]
            try:
                self._lu = spla.splu(grounded)
            except RuntimeError as exc:
                raise MalformedMeshError(f"surface stiffness not factorizable: {exc}") from exc
        return self._lu

    def solve_mean_zero(self, rhs):
        """Solve L p = rhs with lumped-mass mean zero; rhs must be compatible.

        A 2-D ``rhs`` is solved column by column (each column mean zero).
        """
        lu = self._factor()
        rhs = np.asarray(rhs)

        def solve_real(b):
            x = np.zeros(b.shape)
            x[1:] = lu.solve(b[1:])
            return x

        if np.iscomplexobj(rhs):
            p = solve_real(rhs.real) + 1j * solve_real(rhs.imag)
        else:
            p = solve_real(rhs)
        p = p - (self.lumped_mass @ p) / self.lumped_mass.sum()
        resid = np.linalg.norm(self.L @ p - rhs)
        # relative to the data plus a roundoff floor, so a numerically zero
        # right-hand side (e.g. a discrete gradient) is not flagged
        tol = 1e-8 * np.linalg.norm(rhs) + 1e-12 * self._lscale * (1.0 + np.linalg.norm(p))
        if not np.isfinite(resid) or resid > tol:
            raise MalformedMeshError(
                f"surface solve residual {resid:.2e} exceeds the rank-1 deficiency tolerance"
            )
        return p


def assemble_surface_operators(surface: SurfaceMesh, mesh: Mesh) -> SurfaceOperatorSet:
    """Assemble L and D with exact per-triangle integration (degree-2 rule)."""
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

    return SurfaceOperatorSet(surface, mesh, L, D, surface.lumped_mass())


def apply_S(ops: SurfaceOperatorSet, u):
    """Apply the smoothing operator to an edge-dof vector.

    Returns (field, p): the per-triangle constant tangential field grad_G p,
    shape (F, 3), and the mean-zero surface potential p.
    """
    u = np.asarray(u)
    rhs = ops.D @ u
    p = ops.solve_mean_zero(rhs)
    tri = ops.surface.triangles
    fld = np.einsum("fj,fjc->fc", p[tri], ops.surface.hat_gradients)
    return fld, p


def surface_l2_product(ops: SurfaceOperatorSet, fld_a, fld_b):
    """Bilinear (unconjugated) L2 pairing of per-triangle constant fields."""
    return complex(np.sum(ops.surface.areas * np.einsum("fc,fc->f", fld_a, fld_b)))


class BoundaryGram:
    """Boundary Gram form B = D^T L^+ D on edge dofs.

    Applied matrix-free (one coupling matvec, one factorized surface solve,
    one transposed matvec per application); ``to_sparse`` materializes the
    dense boundary-edge block for oracle runs on small meshes.
    """

    def __init__(self, ops: SurfaceOperatorSet):
        self.ops = ops
        n = ops.n_edge_dofs
        self.shape = (n, n)
        self.dtype = np.dtype(np.float64)
        self._sparse = None

    def matvec(self, v):
        v = np.asarray(v)
        p = self.ops.solve_mean_zero(self.ops.D @ v)
        return self.ops.D.T @ p

    def __matmul__(self, other):
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        return np.stack([self.matvec(other[:, j]) for j in range(other.shape[1])], axis=1)

    def to_sparse(self) -> sp.csr_matrix:
        """Explicit symmetric CSR form (dense on the boundary-edge block)."""
        if self._sparse is None:
            bed = self.ops.mesh.boundary_edge_ids
            if len(bed) > DENSE_LIMIT:
                raise ValueError(
                    f"{len(bed)} boundary edge dofs exceed the dense limit {DENSE_LIMIT}"
                )
            Db = np.asarray(self.ops.D[:, bed].todense())
            block = Db.T @ self.ops.solve_mean_zero(Db)
            block = 0.5 * (block + block.T)
            rows = np.repeat(bed, len(bed))
            cols = np.tile(bed, len(bed))
            n = self.shape[0]
            self._sparse = sp.coo_matrix((block.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        return self._sparse


def assemble_boundary_form(ops: SurfaceOperatorSet) -> BoundaryGram:
    """The boundary Gram form for the Maxwell pencil; cached on the operator set."""
    if ops._gram is None:
        ops._gram = BoundaryGram(ops)
    return ops._gram
