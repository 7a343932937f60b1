"""Discrete realization of the nonlocal boundary smoothing operator.

On the closed boundary triangulation, the operator maps an edge-element
field u to the surface gradient of a scalar potential:

    S u = grad_G p,  where  L p = D u,

with L the surface P1 stiffness (kernel = constants on each boundary
component) and D the duality coupling D[j, i] = -int_G (n x phi_i) . grad_G q_j,
i.e. (D u)_j tests div_G of the tangential trace of u against the surface hat
function q_j.  The associated boundary Gram form is B = D^T L^+ D, a real
symmetric PSD operator on edge dofs whose kernel contains all discrete
gradients and all interior-edge fields.

Sign convention: the potential is fixed by L p = D u with the minus sign
inside D, so grad_G p realizes the smoothing operator including its leading
sign.  The Gram form is quadratic and therefore sign-independent.

L is inverted by ``GroundedLaplacian``, which grounds one vertex per
boundary component (the right-hand sides sum to zero on each component
because the hat functions partition unity) and factors L once; the shifted
solve (eigensolver) reuses its grounding.  Grounding fixes the constant of
p on each component, which neither grad_G nor D^T sees.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from ._assembly import scatter_rect, scatter_square
from .errors import ConfigError, SolverFailure
from .mesh import TRIANGLE_EDGES, Mesh, SurfaceMesh

# midpoint quadrature on the reference triangle: exact for quadratic integrands
_MID_BARY = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])

# keyword arguments of the pivoting factor that LUFactor falls back to: the
# matrices are structurally symmetric, so a minimum-degree ordering of A + A^T
# in SuperLU's symmetric mode fills less than the default COLAMD of A^T A;
# the default pivot threshold keeps partial pivoting (George & Liu, SIAM
# Rev. 31(1), 1989; Li, ACM TOMS 31(3), 2005).  LUFactor's first factor
# takes the same ordering with a pivot threshold of 0.
SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}

# largest normwise backward error of the probe solve that keeps a pivot-free factor
PROBE_BOUND = 1e-12


class LUFactor:
    """Sparse LU factor of the square matrix ``A``: the one factor routine of
    the run path.

    It factors first with pivot threshold 0 under the ordering of
    ``SPLU_OPTIONS``, so SuperLU takes every diagonal pivot that is not
    exactly zero, and solves one seeded right-hand side b as a probe.  That
    factor is kept when the probe's normwise backward error

        ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)

    is at most ``PROBE_BOUND`` (Arioli, Demmel & Duff, SIAM J. Matrix Anal.
    Appl. 10(2), 1989); a tiny pivot leaves a large one.  Otherwise, or when
    that factorization raises, A is factored once more with
    ``SPLU_OPTIONS``, partial pivoting, whose ``RuntimeError`` (an exactly
    singular A) the caller maps.

    A matrix whose entries are all real is factored in real arithmetic; a
    complex right-hand side is then solved as two real columns, or as one
    when its imaginary part is zero.  ``path`` is "pivot-free" or
    "pivoting", ``real`` tells the arithmetic and ``probe_error`` is the
    pivot-free probe's backward error (inf when that factorization raised).
    ``probe_residual`` is the kept factor's relative probe residual
    ||b - A x||_inf / ||b||_inf on either path, large for a numerically
    singular A.  ``splu`` is the factorization function,
    ``scipy.sparse.linalg.splu`` unless given.
    """

    def __init__(self, A, splu=None):
        splu = spla.splu if splu is None else splu
        A = A.tocsc()
        self.real = not (np.iscomplexobj(A) and A.data.imag.any())
        if self.real and np.iscomplexobj(A):
            A = sp.csc_matrix((A.data.real.copy(), A.indices, A.indptr), shape=A.shape)
        self.path, self.probe_error = "pivot-free", np.inf
        try:
            self.lu = splu(A, diag_pivot_thresh=0.0, **SPLU_OPTIONS)
            self.probe_error, self.probe_residual = self._probe(A)
        except RuntimeError:
            pass
        if not self.probe_error <= PROBE_BOUND:      # NaN included
            self.lu = None             # free the rejected factor before the next one
            self.path = "pivoting"
            self.lu = splu(A, **SPLU_OPTIONS)
            self.probe_residual = self._probe(A)[1]

    def _probe(self, A):
        """Backward error and relative residual of one seeded probe solve."""
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        if not self.real:
            b = b + 1j * rng.standard_normal(A.shape[0])
        x = self.lu.solve(b)
        # ||A||_inf from the row indices of the CSC entries
        a_norm = np.bincount(A.indices, np.abs(A.data), A.shape[0]).max()
        with np.errstate(over="ignore", invalid="ignore"):   # a ruined factor may overflow
            r, b_norm = np.linalg.norm(A @ x - b, np.inf), np.linalg.norm(b, np.inf)
            return float(r / (a_norm * np.linalg.norm(x, np.inf) + b_norm)), float(r / b_norm)

    def solve(self, b, trans="N"):
        """x with A x = b (A^T x = b for ``trans`` "T", A^H x = b for "H"),
        for a 1-D or 2-D (column by column) ``b``."""
        b = np.asarray(b)
        if not (self.real and np.iscomplexobj(b)):
            return self.lu.solve(b, trans=trans)
        if not b.imag.any():
            return self.lu.solve(np.ascontiguousarray(b.real), trans=trans).astype(b.dtype)
        cols = b.reshape(len(b), -1)
        x = self.lu.solve(np.hstack([cols.real, cols.imag]), trans=trans)
        m = cols.shape[1]
        return (x[:, :m] + 1j * x[:, m:]).reshape(b.shape)


def ground(L):
    """The free vertices: all but the first of each connected component of
    the graph of L."""
    labels = connected_components(abs(L), directed=False)[1]
    grounded = np.unique(labels, return_index=True)[1]
    return np.setdiff1d(np.arange(L.shape[0]), grounded)


class GroundedLaplacian:
    """Solves L p = b for a Laplacian L whose kernel is the constants on each
    connected component of its graph; b must sum to zero on each component.

    The first vertex of each component is grounded: its row and column are
    dropped and its p is zero, which fixes the constant of p on that
    component.  The nonsingular rest L_ff is factored once (Bochev &
    Lehoucq, SIAM Review 47(1), 2005).
    """

    def __init__(self, L):
        self.L = L.tocsr()
        self.free = ground(self.L)
        self.L_ff = self.L[self.free][:, self.free].tocsc()
        self._scale = abs(self.L).max()       # max |L_ij|, the roundoff scale
        try:
            self._lu = LUFactor(self.L_ff)
        except RuntimeError as exc:
            raise SolverFailure(f"grounded Laplacian not factorizable: {exc}") from exc

    def solve(self, b):
        """p for a 1-D or 2-D (column by column), real or complex ``b``; each
        column's residual is checked on its own."""
        b = np.asarray(b)
        p = np.zeros(b.shape, dtype=np.result_type(b, self.L_ff.dtype))
        p[self.free] = self._lu.solve(b[self.free])
        # on the free rows, the system the factor solves: a grounded row's
        # residual is the roundoff in the component sum of b, which no p changes
        resid = np.linalg.norm((self.L @ p - b)[self.free], axis=0)
        # per column, relative to the data plus a roundoff floor, so a
        # numerically zero right-hand side (e.g. a discrete gradient) is not flagged
        tol = 1e-10 * np.linalg.norm(b, axis=0) + 1e-12 * self._scale * (
            1.0 + np.linalg.norm(p, axis=0))
        for r, t in zip(np.ravel(resid), np.ravel(tol)):
            if not np.isfinite(r) or r > t:
                raise SolverFailure(f"grounded Laplacian solve residual {r:.2e} exceeds {t:.2e}")
        return p


class BoundaryGram:
    """Boundary Gram form B = D^T L^+ D on edge dofs, with the surface
    operators it is made of: the coupling D (surface vertices x edge dofs),
    the grounded solve of the surface stiffness L, and ``D_free``,
    the rows of D on the free vertices of that solve, which every shifted
    solve with this form takes.

    Applied matrix-free: one coupling product, one factorized surface solve
    and one transposed product per application, to a vector or to a block
    of columns at once.
    """

    def __init__(self, surface: SurfaceMesh, mesh: Mesh, D, laplacian: GroundedLaplacian):
        self.surface = surface
        self.mesh = mesh
        self.D = D
        self.laplacian = laplacian
        self.D_free = D.tocsr()[laplacian.free]

    def matvec(self, X):
        """B X for a vector or a block of columns ``X``."""
        return self.D.T @ self.laplacian.solve(self.D @ X)

    def __matmul__(self, other):
        # a call, not an alias: a class-level wrap of matvec then sees every product
        return self.matvec(other)


def assemble_surface_operators(surface: SurfaceMesh, mesh: Mesh) -> BoundaryGram:
    """The boundary Gram form of ``mesh``, with L and D assembled by exact
    per-triangle integration (degree-2 rule)."""
    if surface.mesh is not mesh:
        raise ConfigError("surface was extracted from a different mesh")
    grads = surface.hat_gradients                      # (F, 3, 3)
    areas = surface.areas

    local_L = np.einsum("fic,fjc->fij", grads, grads) * areas[:, None, None]
    local_L = 0.5 * (local_L + local_L.transpose(0, 2, 1))
    L = scatter_square(local_L, surface.triangles, surface.n_vertices)

    # orientation signs of the three edges of each triangle
    pairs = surface.tri_vol[:, TRIANGLE_EDGES]         # (F, 3, 2) volume vertex ids
    signs = np.where(pairs[:, :, 0] < pairs[:, :, 1], 1.0, -1.0)  # (F, 3)

    # tangential Whitney trace of edge e=(i,j) at quadrature point q:
    #   W_e(x_q) = s_e (lam_i(x_q) grad lam_j - lam_j(x_q) grad lam_i)
    li = _MID_BARY[:, TRIANGLE_EDGES[:, 0]]            # (Q, 3 edges)
    lj = _MID_BARY[:, TRIANGLE_EDGES[:, 1]]
    gi = grads[:, TRIANGLE_EDGES[:, 0]]                # (F, 3 edges, 3)
    gj = grads[:, TRIANGLE_EDGES[:, 1]]
    w = li[None, :, :, None] * gj[:, None] - lj[None, :, :, None] * gi[:, None]
    w *= signs[:, None, :, None]                       # (F, Q, E, 3)
    nxw = np.cross(surface.normals[:, None, None, :], w)
    # D_local[f, j, e] = -(A/3) sum_q (n x W_e)(x_q) . grad q_j
    local_D = -np.einsum("fqec,fjc->fje", nxw, grads) * (areas[:, None, None] / 3.0)
    D = scatter_rect(local_D, surface.triangles, mesh.boundary_face_edges,
                     (surface.n_vertices, mesh.n_edges))

    return BoundaryGram(surface, mesh, D, GroundedLaplacian(L))
