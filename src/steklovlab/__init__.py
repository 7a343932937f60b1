"""Numerical laboratory for scalar and modified Maxwell Steklov eigenvalue
problems in absorbing media: FEM discretization, nonselfadjoint eigensolvers,
and material-perturbation stability studies.

Each definition is imported from the module that defines it (for example
``steklovlab.eigensolver.solve_shift_invert``); the package root holds only
``__version__``."""

__version__ = "0.1.0"
