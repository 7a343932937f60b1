import numpy as np
import pytest

from steklovlab.mesh import Mesh, generate_cube_mesh


@pytest.fixture(scope="session")
def two_cubes():
    """Two disjoint cubes n=2, the second shifted by 2 in x: a boundary with
    two components and a vertex graph with two components."""
    cube = generate_cube_mesh(2)
    verts = np.concatenate([cube.vertices, cube.vertices + [2.0, 0.0, 0.0]])
    return Mesh(verts, np.concatenate([cube.tets, cube.tets + cube.n_vertices]))
