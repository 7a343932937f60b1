"""Metamorphic relations of the discrete spectrum, which need no oracle:

- a random renumbering of the vertices changes the edge orientations (low to
  high vertex index), the sparse orderings and so the elimination order of
  every factor, but not the spectrum;
- conjugating the permittivity and the shift conjugates the spectrum, since
  both pencils are complex symmetric with real K and B.

Each runs on the convex cube n=3 and on the genus-1 holed cube n=4, for both
pencils, with k = 8 and tol 1e-11.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from steklovlab.eigensolver import solve_shift_invert
from steklovlab.materials import build_field
from steklovlab.mesh import Mesh, generate_cube_mesh
from steklovlab.stability import Problem

SIGMA = {"maxwell": 2.3, "scalar": 1.5}
EPS = {"re": 4.0, "im": 1.0}
K, TOL = 8, 1e-11
# largest relative eigenvalue difference a relation allows; 1.3e-12 was the
# largest measured on these meshes
REL = 1e-10


def holed_cube():
    """Cube n=4 without the tets whose centroid lies in (0.25, 0.75)^2 x [0, 1]:
    a square ring, genus 1."""
    cube = generate_cube_mesh(4)
    c = cube.centroids
    keep = ~np.all((c[:, :2] > 0.25) & (c[:, :2] < 0.75), axis=1)
    used, tets = np.unique(cube.tets[keep], return_inverse=True)
    return Mesh(cube.vertices[used], tets.reshape(-1, 4))


MESHES = {"cube3": lambda: generate_cube_mesh(3), "holed4": holed_cube}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def spectrum(kind, mesh, eps=EPS, sigma=None):
    pencil = Problem(kind, mesh, 1.0).assemble(build_field(mesh, "mu_inv", {1: 1.0}),
                                               build_field(mesh, "eps", {1: eps}))
    res = solve_shift_invert(pencil.a0, pencil.B, SIGMA[kind] if sigma is None else sigma, K,
                             tol=TOL)
    assert len(res) == K and res.meta["confirmed"]
    return res.eigenvalues


def max_rel_difference(a, b):
    """Largest |a_i - b_p(i)| / |b_p(i)| under the pairing p that minimizes the sum."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float((cost[rows, cols] / np.abs(b[cols])).max())


@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_vertex_renumbering_leaves_the_spectrum(kind, mesh):
    perm = np.random.default_rng(7).permutation(mesh.n_vertices)   # new index of each vertex
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    renumbered = Mesh(verts, perm[mesh.tets])
    assert not np.array_equal(renumbered.edges, mesh.edges)
    assert max_rel_difference(spectrum(kind, renumbered), spectrum(kind, mesh)) <= REL


@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_conjugate_permittivity_conjugates_the_spectrum(kind, mesh):
    sigma = SIGMA[kind] + 0.2j        # a complex shift, so that conjugating it matters
    lam = spectrum(kind, mesh, sigma=sigma)
    conj = spectrum(kind, mesh, {"re": EPS["re"], "im": -EPS["im"]}, np.conj(sigma))
    assert max_rel_difference(conj, lam.conj()) <= REL
