"""Dense oracles for the well-posedness diagnostics on small meshes: the
explicit orthonormal kernel basis built from the Z that
``fem_maxwell.kernel_subspace_basis`` returns, and the energy-norm smallest
singular value by a full SVD."""

import numpy as np


def dense_kernel_basis(basis):
    """An orthonormal basis Q of span(Z) as an (n_edges, r) array."""
    return np.linalg.qr(basis.Z.toarray())[0]


def dense_inf_sup(A, W):
    """sigma_min(L^-1 A L^-H) with W = L L^H: the smallest singular value of
    the dense A in the energy norm of W."""
    L = np.linalg.cholesky(np.asarray(W))
    X = np.linalg.solve(L, np.asarray(A, dtype=np.complex128))
    X = np.linalg.solve(L, X.conj().T).conj().T
    return np.linalg.svd(X, compute_uv=False)[-1]
