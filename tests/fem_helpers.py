"""Operators the tests check the discretization with, and that no solve,
diagnose or study run needs: the smoothing operator applied to an edge
field, the eps-weighted divergence-free projection, Matrix Market dumps,
the Euler characteristic of a boundary surface, and the nondegeneracy
coefficient and first-order drift prediction of a tracked cluster."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io

from steklovlab import stability
from steklovlab.boundary_ops import BoundaryGram, GroundedLaplacian
from steklovlab.fem_maxwell import discrete_gradient, edge_mass_matrix


def apply_S(B: BoundaryGram, u):
    """The smoothing operator on an edge-dof vector: (field, p), the
    per-triangle constant tangential field grad_G p, shape (F, 3), and the
    mean-zero surface potential p of L p = D u."""
    p = B.laplacian.solve(B.D @ np.asarray(u))
    fld = np.einsum("fj,fjc->fc", p[B.surface.triangles], B.surface.hat_gradients)
    return fld, p


def surface_l2_product(B: BoundaryGram, fld_a, fld_b):
    """Bilinear (unconjugated) L2 pairing of per-triangle constant fields."""
    return complex(np.sum(B.surface.areas * np.einsum("fc,fc->f", fld_a, fld_b)))


@dataclass
class ProjectionResult:
    projected: np.ndarray
    potential: np.ndarray     # mean-zero vertex potential


def project_Vh(pencil, u, eps=None) -> ProjectionResult:
    """Remove the eps-weighted gradient part: u - grad w with

        G^T M G w = G^T M u,   w of zero lumped-mass mean per component.

    ``u`` is one edge vector or a block of them as columns.  With ``eps``
    None the pencil's own mass matrix is used; passing a field re-assembles
    the weighted mass.
    """
    u = np.asarray(u, dtype=np.complex128)
    mesh = pencil.mesh
    G = discrete_gradient(mesh)
    M = pencil.M if eps is None else edge_mass_matrix(mesh, eps.tensors)
    lumped = np.zeros(mesh.n_vertices)
    np.add.at(lumped, mesh.tets.ravel(), np.repeat(mesh.volumes / 4.0, 4))
    w = GroundedLaplacian(G.T @ (M @ G), lumped).solve(G.T @ (M @ u))
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
