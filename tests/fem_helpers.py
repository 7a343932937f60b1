"""Operators the tests check the discretization with, and that no solve,
diagnose or study run needs: the dense brute-force eigensolver the tests
take as the reference, the smoothing operator applied to an edge field, the
eps-weighted divergence-free projection, Matrix Market dumps, the Euler
characteristic of a boundary surface, and the nondegeneracy coefficient and
first-order drift prediction of a tracked cluster."""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp

from steklovlab import stability
from steklovlab.boundary_ops import BoundaryGram, GroundedLaplacian
from steklovlab.eigensolver import DEFAULT_THETA_CUT, EigenResult, _a0_norm, pencil_residual
from steklovlab.errors import AssumptionViolation
from steklovlab.fem_maxwell import discrete_gradient, edge_mass_matrix

# most dofs the dense oracle takes
DENSE_LIMIT = 5000


def solve_dense_oracle(A0, B, residual_tol=1e-10) -> EigenResult:
    """Brute-force reference: all finite eigenvalues of the pencil via the
    dense spectrum of A0^-1 B.

    Requires A0 invertible (equivalently lambda = 0 is not an eigenvalue);
    eigenvalues of A0^-1 B below the relative cutoff are the infinite modes
    of the singular pencil and are discarded.  Reported pairs are certified
    at ``residual_tol``; uncertified ones are dropped and counted in meta.
    """
    n = A0.shape[0]
    if n > DENSE_LIMIT:
        raise ValueError(f"problem size {n} exceeds dense limit {DENSE_LIMIT}")
    A0 = np.asarray(A0.todense()) if sp.issparse(A0) else np.asarray(A0)
    if isinstance(B, BoundaryGram):
        B = B @ np.eye(n)
    Bd = np.asarray(B.todense()) if sp.issparse(B) else np.asarray(B)

    A0c = A0.astype(np.complex128)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(A0c)
    except scipy.linalg.LinAlgError as exc:
        raise AssumptionViolation(f"A0 is singular (lambda=0 eigenvalue): {exc}") from exc
    diag = np.abs(np.diag(lu[0]))
    if diag.min() <= 1e-14 * diag.max():
        raise AssumptionViolation("A0 is numerically singular (lambda=0 is an eigenvalue)")

    T = scipy.linalg.lu_solve(lu, Bd.astype(np.complex128))
    theta, X = scipy.linalg.eig(T)
    keep = np.abs(theta) > DEFAULT_THETA_CUT * np.abs(theta).max()
    lam = 1.0 / theta[keep]
    X = X[:, keep]

    a0n = _a0_norm(A0c)
    residuals = np.array([pencil_residual(A0c, Bd, l, X[:, j], a0n) for j, l in enumerate(lam)])
    certified = residuals <= residual_tol
    order = np.argsort(np.abs(lam[certified]), kind="stable")
    lam_out = lam[certified][order]
    vec_out = X[:, certified][:, order]
    res_out = residuals[certified][order]
    return EigenResult(
        eigenvalues=lam_out,
        eigenvectors=vec_out,
        residuals=res_out,
        meta={
            "method": "dense_oracle",
            "discarded_infinite": int(np.sum(~keep)),
            "discarded_uncertified": int(np.sum(~certified)),
            "residual_tol": residual_tol,
        },
    )


def apply_S(B: BoundaryGram, u):
    """The smoothing operator on an edge-dof vector: (field, p), the
    per-triangle constant tangential field grad_G p, shape (F, 3), and the
    surface potential p of L p = D u, zero at the grounded vertices."""
    p = B.laplacian.solve(B.D @ np.asarray(u))
    fld = np.einsum("fj,fjc->fc", p[B.surface.triangles], B.surface.hat_gradients)
    return fld, p


def surface_l2_product(B: BoundaryGram, fld_a, fld_b):
    """Bilinear (unconjugated) L2 pairing of per-triangle constant fields."""
    return complex(np.sum(B.surface.areas * np.einsum("fc,fc->f", fld_a, fld_b)))


@dataclass
class ProjectionResult:
    projected: np.ndarray
    potential: np.ndarray     # vertex potential, zero at the grounded vertices


def project_Vh(pencil, u, eps=None) -> ProjectionResult:
    """Remove the eps-weighted gradient part: u - grad w with

        G^T M G w = G^T M u,   w zero at the first vertex of each component.

    ``u`` is one edge vector or a block of them as columns.  With ``eps``
    None the pencil's own mass matrix is used; passing a field re-assembles
    the weighted mass.
    """
    u = np.asarray(u, dtype=np.complex128)
    mesh = pencil.mesh
    G = discrete_gradient(mesh)
    M = pencil.M if eps is None else edge_mass_matrix(mesh, eps.tensors)
    w = GroundedLaplacian(G.T @ (M @ G)).solve(G.T @ (M @ u))
    return ProjectionResult(u - G @ w, w)


def dump_matrix_market(pencil, directory):
    """Write the sparse K, M and B of a scalar pencil as Matrix Market
    coordinate files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, mat in (("K", pencil.K), ("M", pencil.M), ("B", pencil.B)):
        paths[name] = directory / f"{name}.mtx"
        scipy.io.mmwrite(paths[name], mat.tocoo())
    return paths


def euler_characteristic(surface):
    """V - E + F of a boundary triangulation (2 for a sphere)."""
    return (surface.n_vertices - len(surface.mesh.boundary_edge_ids)
            + len(surface.triangles))


class DegenerateCluster(Exception):
    """The nondegeneracy coefficient of a cluster is below threshold."""


def nondegeneracy(B, vectors) -> complex:
    """Bilinear cluster coefficient c = (1/N) sum_n u_n^T B u_n."""
    return complex(np.mean(np.diag(stability._nondegeneracy(B, vectors)[0])))


def first_order_prediction(pencil0, pencil_h, vectors):
    """Predicted shift lambda_h - lambda_0 of the mean of a tracked cluster
    (eigenvectors as the columns of ``vectors``) and its coefficient c, as
    run_study computes them; DegenerateCluster where run_study records a
    note."""
    vecs = np.asarray(vectors, dtype=np.complex128)
    C, note = stability._nondegeneracy(pencil0.B, vecs)
    if note:
        raise DegenerateCluster(note)
    return stability._first_order_drift(pencil0, pencil_h, vecs, C), complex(np.mean(np.diag(C)))
