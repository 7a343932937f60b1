"""Exception types shared across the package.

The CLI maps these onto exit codes; library code raises them directly.
"""


class ConfigError(Exception):
    """Invalid or incomplete run configuration (bad schema, uncovered region tag, ...)."""


class MalformedMeshError(Exception):
    """Mesh violates a structural invariant (inverted element, non-manifold face, open surface)."""


class AssumptionViolation(Exception):
    """A coefficient-field or well-posedness assumption does not hold."""


class SolverFailure(Exception):
    """A linear or eigenvalue solve did not reach the requested accuracy."""


class ShiftAtEigenvalue(SolverFailure):
    """Shift-invert factorization hit a (near-)singular shifted pencil."""


class InsufficientData(Exception):
    """Too few usable data points for a rate fit."""
