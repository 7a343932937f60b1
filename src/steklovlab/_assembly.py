"""Shared low-level assembly kernels (vectorized, deterministic scatter)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# exact integrals of products of two P1 barycentric functions on a tet / triangle
P1_TET_MASS = (np.ones((4, 4)) + np.eye(4)) / 20.0
P1_TRI_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def scatter_square(local, dofs, n):
    """Sum (T, k, k) local blocks into an (n, n) CSR matrix via (T, k) dof ids.

    Assembly is deterministic (fixed element order, fixed compression).  The
    result is averaged with its transpose, which makes the bilinear forms
    bit-exactly symmetric regardless of duplicate summation order inside the
    sparse compression.
    """
    t, k, _ = local.shape
    rows = np.broadcast_to(dofs[:, :, None], (t, k, k)).ravel()
    cols = np.broadcast_to(dofs[:, None, :], (t, k, k)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return ((mat + mat.T.tocsr()) * 0.5).tocsr()


def scatter_rect(local, row_dofs, col_dofs, shape):
    """Sum (T, r, c) local blocks into CSR via (T, r) row ids and (T, c) col ids."""
    t, r, c = local.shape
    rows = np.broadcast_to(row_dofs[:, :, None], (t, r, c)).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], (t, r, c)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def p1_stiffness(mesh, tensors):
    """<A grad u, grad v> for P1 on tets; ``tensors`` is (T, 3, 3) symmetric."""
    g = mesh.tet_gradients
    local = np.einsum("tic,tcd,tjd->tij", g, tensors, g)
    local *= mesh.volumes[:, None, None]
    # einsum association order differs between (i,j) and (j,i); make the
    # local blocks bit-exactly symmetric
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return scatter_square(local, mesh.tets, mesh.n_vertices)


def p1_mass(mesh, values):
    """<a u, v> for P1 on tets with piecewise-constant scalar ``values`` (T,)."""
    local = values[:, None, None] * (mesh.volumes[:, None, None] * P1_TET_MASS)
    return scatter_square(local, mesh.tets, mesh.n_vertices)


def h1_gram(mesh):
    """<grad u, grad v> + <u, v> for P1 on tets: the coefficient-free H^1 Gram."""
    g = mesh.tet_gradients
    local = np.einsum("tic,tjc->tij", g, g) + P1_TET_MASS
    local *= mesh.volumes[:, None, None]
    return scatter_square(local, mesh.tets, mesh.n_vertices)


def boundary_p1_mass(mesh):
    """<tr u, tr v> over the boundary triangles, on volume vertex dofs."""
    tri = mesh.boundary_faces
    p = mesh.vertices[tri]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    local = areas[:, None, None] * P1_TRI_MASS
    return scatter_square(local, tri, mesh.n_vertices)
