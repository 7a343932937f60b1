"""The explicit orthonormal kernel basis, built from the factored form that
``fem_maxwell.kernel_subspace_basis`` returns, for dense oracle checks on
small meshes."""

import numpy as np


def dense_kernel_basis(basis):
    """Q = Z blockdiag(I, R^-T) as an (n_edges, r) array, R R^T = N_B."""
    Q = basis.Z.toarray()
    ni = basis.n_interior
    R = np.linalg.cholesky(basis.N_B.toarray())
    Q[:, ni:] = np.linalg.solve(R, Q[:, ni:].T).T
    return Q
