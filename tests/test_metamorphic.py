"""Metamorphic relations of the discrete spectrum, which need no oracle:

- a random renumbering of the vertices changes the edge orientations (low to
  high vertex index), the sparse orderings and so the elimination order of
  every factor, but not the spectrum;
- a random rotation moves every normal and tangent but not the spectrum;
- scaling the mesh by S, with omega and the shift divided by S, divides the
  spectrum by S;
- conjugating the permittivity and the shift conjugates the spectrum, since
  both pencils are complex symmetric with real K and B.

The well-posedness diagnostic is invariant under renumbering and rotation
too (under scaling it is not: its norm mixes the units of length).

Beside them, the dense oracle counts the finite eigenvalues, which a
pencil with invertible A0 has as many of as B has rank: n_bv, the boundary
vertex count, for the scalar pencil, and the rank of the coupling D, n_bv - 3,
for Maxwell.

Each runs on the convex cube n=3, on the genus-1 holed cube n=4 and on the
nonconvex Fichera cube n=4 (a reentrant corner), for both pencils, with
k = 8 and tol 1e-11.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.transform import Rotation

from fem_helpers import solve_dense_oracle
from steklovlab.eigensolver import solve_shift_invert
from steklovlab.materials import build_field
from steklovlab.mesh import Mesh, generate_cube_mesh
from steklovlab.stability import Problem

SIGMA = {"maxwell": 2.3, "scalar": 1.5}
EPS = {"re": 4.0, "im": 1.0}
K, TOL = 8, 1e-11
# largest relative eigenvalue or diagnostic difference a relation allows;
# 1.5e-12 (the scalar pencil on the Fichera cube, scaled) was the largest
# measured on these meshes
REL = 1e-10
SCALE = 2.5


def cube_without(cut):
    """Cube n=4 without the tets whose centroids ``cut`` marks."""
    cube = generate_cube_mesh(4)
    keep = ~cut(cube.centroids)
    used, tets = np.unique(cube.tets[keep], return_inverse=True)
    return Mesh(cube.vertices[used], tets.reshape(-1, 4))


def holed_cube():
    """Cube n=4 without the tets whose centroid lies in (0.25, 0.75)^2 x [0, 1]:
    a square ring, genus 1."""
    return cube_without(lambda c: np.all((c[:, :2] > 0.25) & (c[:, :2] < 0.75), axis=1))


def fichera_cube():
    """Cube n=4 without the tets whose centroid lies in (0.5, 1]^3: the
    Fichera corner, nonconvex."""
    return cube_without(lambda c: np.all(c > 0.5, axis=1))


MESHES = {"cube3": lambda: generate_cube_mesh(3), "holed4": holed_cube,
          "fichera4": fichera_cube}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def renumbered(mesh):
    """The mesh with its vertices in a seeded random order."""
    perm = np.random.default_rng(7).permutation(mesh.n_vertices)   # new index of each vertex
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    return Mesh(verts, perm[mesh.tets])


def rotated(mesh):
    """The mesh under a seeded random rotation."""
    R = Rotation.random(random_state=7).as_matrix()
    return Mesh(mesh.vertices @ R.T, mesh.tets)


def assemble(kind, mesh, eps=EPS, omega=1.0):
    """The problem of ``kind`` on ``mesh`` and its pencil, mu^-1 = 1 and ``eps``."""
    prob = Problem(kind, mesh, omega)
    return prob, prob.assemble(build_field(mesh, "mu_inv", {1: 1.0}),
                               build_field(mesh, "eps", {1: eps}))


def spectrum(kind, mesh, eps=EPS, sigma=None, omega=1.0):
    pencil = assemble(kind, mesh, eps, omega)[1]
    res = solve_shift_invert(pencil.a0, pencil.B, SIGMA[kind] if sigma is None else sigma, K,
                             tol=TOL)
    assert len(res) == K and res.meta["confirmed"]
    return res.eigenvalues


def diagnostic(kind, mesh):
    prob, pencil = assemble(kind, mesh)
    return prob.diagnostic(pencil)


def max_rel_difference(a, b):
    """Largest |a_i - b_p(i)| / |b_p(i)| under the pairing p that minimizes the sum."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float((cost[rows, cols] / np.abs(b[cols])).max())


@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_vertex_renumbering_leaves_the_spectrum(kind, mesh):
    moved = renumbered(mesh)
    assert not np.array_equal(moved.edges, mesh.edges)
    assert max_rel_difference(spectrum(kind, moved), spectrum(kind, mesh)) <= REL


@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_rotation_leaves_the_spectrum(kind, mesh):
    assert max_rel_difference(spectrum(kind, rotated(mesh)), spectrum(kind, mesh)) <= REL


@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_scaling_divides_the_spectrum(kind, mesh):
    scaled = Mesh(SCALE * mesh.vertices, mesh.tets)
    lam = spectrum(kind, scaled, sigma=SIGMA[kind] / SCALE, omega=1.0 / SCALE)
    assert max_rel_difference(lam, spectrum(kind, mesh) / SCALE) <= REL


@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_conjugate_permittivity_conjugates_the_spectrum(kind, mesh):
    sigma = SIGMA[kind] + 0.2j        # a complex shift, so that conjugating it matters
    lam = spectrum(kind, mesh, sigma=sigma)
    conj = spectrum(kind, mesh, {"re": EPS["re"], "im": -EPS["im"]}, np.conj(sigma))
    assert max_rel_difference(conj, lam.conj()) <= REL


@pytest.mark.parametrize("move", [renumbered, rotated])
@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_diagnostic_is_invariant(kind, move, mesh):
    want = diagnostic(kind, mesh)
    if kind == "scalar" and np.isinf(want):
        pytest.skip("no interior vertex: the scalar diagnostic is inf by definition")
    assert 0.0 < want < np.inf
    assert abs(diagnostic(kind, move(mesh)) - want) <= REL * want


@pytest.mark.parametrize("kind", ["maxwell", "scalar"])
def test_finite_eigenvalue_count_is_the_rank_of_B(kind, mesh):
    prob, pencil = assemble(kind, mesh)
    res = solve_dense_oracle(pencil.a0, pencil.B)
    n_bv = len(mesh.boundary_vertex_ids)
    assert res.meta["discarded_uncertified"] == 0
    if kind == "scalar":
        assert len(res) == n_bv
        return
    info = prob.diagnostic_info()
    assert len(res) == info["rank_D"] == n_bv - 3
    assert res.meta["discarded_infinite"] == info["kernel_dim_from_rank"]
