"""Numerical laboratory for scalar and modified Maxwell Steklov eigenvalue
problems in absorbing media: FEM discretization, nonselfadjoint eigensolvers,
and material-perturbation stability studies."""

__version__ = "0.1.0"

from .boundary_ops import BoundaryGram, assemble_surface_operators
from .eigensolver import (
    EigenResult,
    SectorCensus,
    cluster,
    pencil_residual,
    sector_census,
    solve_dense_oracle,
    solve_shift_invert,
)
from .errors import (
    AssumptionViolation,
    ConfigError,
    InsufficientData,
    MalformedMeshError,
    ShiftAtEigenvalue,
    SolverFailure,
)
from .fem_maxwell import (
    assemble_maxwell,
    discrete_gradient,
    kernelS_diagnostic,
)
from .fem_scalar import (
    Pencil,
    assemble_scalar,
    scalar_dirichlet_diagnostic,
)
from .materials import (
    MaterialField,
    MaterialReport,
    PerturbationSpec,
    build_field,
    lp_diff_norm,
    validate,
)
from .mesh import (
    Mesh,
    SurfaceMesh,
    extract_boundary,
    generate_ball_mesh,
    generate_cube_mesh,
    load_mesh,
    refine_uniform,
    save_mesh,
)
from .stability import (
    FitResult,
    RunConfig,
    StudyReport,
    fit_rate,
    run_study,
)

__all__ = [
    "AssumptionViolation",
    "BoundaryGram",
    "ConfigError",
    "EigenResult",
    "FitResult",
    "InsufficientData",
    "MalformedMeshError",
    "MaterialField",
    "MaterialReport",
    "Mesh",
    "Pencil",
    "PerturbationSpec",
    "RunConfig",
    "SectorCensus",
    "ShiftAtEigenvalue",
    "SolverFailure",
    "StudyReport",
    "SurfaceMesh",
    "assemble_maxwell",
    "assemble_scalar",
    "assemble_surface_operators",
    "build_field",
    "cluster",
    "discrete_gradient",
    "extract_boundary",
    "fit_rate",
    "generate_ball_mesh",
    "generate_cube_mesh",
    "kernelS_diagnostic",
    "load_mesh",
    "lp_diff_norm",
    "pencil_residual",
    "refine_uniform",
    "run_study",
    "save_mesh",
    "scalar_dirichlet_diagnostic",
    "sector_census",
    "solve_dense_oracle",
    "solve_shift_invert",
    "validate",
]
