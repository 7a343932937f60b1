"""Piecewise-constant material tensor fields and their L^p norms.

A field assigns one complex 3x3 tensor per tetrahedron.  The inverse
permeability ("mu_inv") must be real symmetric positive definite; the
permittivity ("eps") combines the real permittivity and the conductivity,
eps = eps_r + (i/omega) sigma, and must have coercive Hermitian part and be
a normal (and symmetric) matrix pointwise.

Ball perturbations add delta * I on every element whose centroid lies inside
an open ball, so the perturbed field is an element-resolved characteristic
function and all L^p norms are exact integrals of piecewise constants.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, ConfigError
from .mesh import MAX_EXTENT, Mesh

FIELD_NAMES = ("mu_inv", "eps")

_NORMALITY_TOL = 1e-12
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class PerturbationSpec:
    """Ball perturbation: add ``delta * I`` on elements with centroid in B_radius(center)."""

    center: tuple
    radius: float
    delta: complex
    target: str = "eps"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"perturbation radius must be > 0, got {self.radius}")
        if self.target not in FIELD_NAMES:
            raise ValueError(f"unknown perturbation target {self.target!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 3:
            raise ValueError("perturbation center must be a 3D point")
        object.__setattr__(self, "delta", complex(self.delta))


@dataclass
class MaterialField:
    """Per-element complex 3x3 tensors tied to a mesh."""

    name: str
    tensors: np.ndarray          # (T, 3, 3) complex
    mesh: Mesh = field(repr=False)
    # set by build_field, which validates the field once; None otherwise
    report: MaterialReport | None = field(default=None, repr=False)
    # per element, a label shared only by elements with equal tensors: set by
    # build_field from region tag and perturbation membership; None gives
    # every element a label of its own
    labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.name not in FIELD_NAMES:
            raise ValueError(f"unknown field name {self.name!r}")
        self.tensors = np.ascontiguousarray(self.tensors, dtype=np.complex128)
        if self.tensors.shape != (self.mesh.n_tets, 3, 3):
            raise ConfigError(
                f"tensor array shape {self.tensors.shape} does not match "
                f"{self.mesh.n_tets} elements"
            )
        if self.labels is None:
            self.labels = np.arange(len(self.tensors))

    def lives_on(self, mesh) -> bool:
        """True when the field's mesh is ``mesh`` or has the same vertices and tets."""
        return self.mesh is mesh or (np.array_equal(self.mesh.tets, mesh.tets)
                                     and np.array_equal(self.mesh.vertices, mesh.vertices))

    def distinct_tensors(self) -> np.ndarray:
        """One copy of each distinct tensor: enough for any max or min of a
        per-element quantity."""
        return self.tensors[np.unique(self.labels, return_index=True)[1]]

    def scalar_values(self):
        """Isotropic scalar per element (trace/3); exact for multiples of I."""
        return np.trace(self.tensors, axis1=1, axis2=2) / 3.0


@dataclass
class MaterialReport:
    """Report-only validation outcome for one field."""

    name: str
    coercivity_min: float        # min eig of the tensor (mu_inv) or of its Hermitian part (eps)
    symmetry_defect: float
    normality_defect: float
    realness_defect: float       # mu_inv only; 0.0 for eps
    conductivity_min: float | None
    passed: bool
    failures: list


def tensor_from_entry(value):
    """Coerce a config entry to a 3x3 complex tensor.

    Accepts a scalar (-> scalar * I), a 3x3 nested list, or a mapping with
    "re"/"im" entries that are themselves scalars or 3x3 lists; every number
    must be real and at most ``MAX_EXTENT`` in magnitude, and a boolean or a
    string is refused.  A numpy array is taken as a tensor already built.
    """
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise ConfigError(f"unknown tensor keys {sorted(extra)}")
        re = tensor_from_entry(value.get("re", 0.0)).real
        im = tensor_from_entry(value.get("im", 0.0)).real
        return re + 1j * im
    if not isinstance(value, np.ndarray):
        for leaf in np.asarray(value, dtype=object).flat:
            if isinstance(leaf, bool) or not isinstance(leaf, numbers.Real):
                raise ConfigError(f"tensor entry must hold real numbers, got {leaf!r}")
    arr = np.asarray(value, dtype=np.complex128)
    if not np.all(np.abs(arr) <= MAX_EXTENT):
        raise ConfigError(f"tensor entry must be at most {MAX_EXTENT:g} in magnitude: {value!r}")
    if arr.ndim == 0:
        return complex(arr) * np.eye(3, dtype=np.complex128)
    if arr.shape == (3, 3):
        return arr
    raise ConfigError(f"tensor entry must be scalar or 3x3, got shape {arr.shape}")


def build_field(mesh: Mesh, name: str, base: dict, perturbations=(), omega=None) -> MaterialField:
    """Assemble base-per-region values plus ball perturbations and validate.

    ``base`` maps region tag -> tensor entry (see :func:`tensor_from_entry`).
    Only perturbations whose target matches ``name`` are applied.  Raises
    AssumptionViolation when the resulting field breaks the field invariants;
    otherwise the field keeps its ``validate(fld, omega)`` report as ``report``.
    """
    table = {int(k): tensor_from_entry(v) for k, v in base.items()}
    tags = np.unique(mesh.region)
    missing = [int(t) for t in tags if int(t) not in table]
    if missing:
        raise ConfigError(f"material table for {name!r} misses region tags {missing}")

    tensors = np.empty((mesh.n_tets, 3, 3), dtype=np.complex128)
    for tag in tags:
        tensors[mesh.region == tag] = table[int(tag)]
    labels = np.searchsorted(tags, mesh.region)

    centroids = mesh.centroids
    for pert in perturbations:
        if pert.target != name:
            continue
        inside = np.linalg.norm(centroids - np.asarray(pert.center), axis=1) < pert.radius
        if pert.delta != 0 and np.any(inside):
            tensors[inside] += pert.delta * np.eye(3)
            labels = np.unique(2 * labels + inside, return_inverse=True)[1]

    fld = MaterialField(name, tensors, mesh, labels=labels)
    fld.report = validate(fld, omega)
    if not fld.report.passed:
        raise AssumptionViolation(f"field {name!r} invalid: " + "; ".join(fld.report.failures))
    return fld


def validate(fld: MaterialField, omega: float | None = None) -> MaterialReport:
    """Check the coefficient assumptions; report-only (never raises).

    For eps, ``omega`` is only used to report the conductivity
    sigma = omega * Im(eps); the pass/fail flags do not depend on it.
    """
    t = fld.distinct_tensors()
    tT = t.transpose(0, 2, 1)
    scale = max(1.0, float(np.abs(t).max()) if t.size else 1.0)
    symmetry = float(np.abs(t - tT).max()) / scale if t.size else 0.0

    failures = []
    realness = 0.0
    conductivity_min = None
    if fld.name == "mu_inv":
        realness = float(np.abs(t.imag).max()) / scale if t.size else 0.0
        if realness > _SYMMETRY_TOL:
            failures.append(f"mu_inv not real (defect {realness:.2e})")
        if symmetry > _SYMMETRY_TOL:
            failures.append(f"mu_inv not symmetric (defect {symmetry:.2e})")
        sym_real = 0.5 * (t.real + t.real.transpose(0, 2, 1))
        coercivity = float(np.linalg.eigvalsh(sym_real).min()) if t.size else np.inf
        if coercivity <= 0:
            failures.append(f"mu_inv not positive definite (min eig {coercivity:.2e})")
        normality = 0.0
    else:
        herm = 0.5 * (t + np.conj(tT))
        coercivity = float(np.linalg.eigvalsh(herm).min().real) if t.size else np.inf
        if coercivity <= 0:
            failures.append(f"Re(eps) not coercive (min eig {coercivity:.2e})")
        tH = np.conj(tT)
        comm = t @ tH - tH @ t
        nscale = max(1.0, float((np.abs(t) ** 2).sum(axis=(1, 2)).max()) if t.size else 1.0)
        normality = float(np.abs(comm).max()) / nscale if t.size else 0.0
        if normality > _NORMALITY_TOL:
            failures.append(f"eps not normal (defect {normality:.2e})")
        if symmetry > _SYMMETRY_TOL:
            failures.append(f"eps not symmetric (defect {symmetry:.2e})")
        if omega is not None and omega != 0 and t.size:
            sigma = omega * 0.5 * (t.imag + t.imag.transpose(0, 2, 1))
            conductivity_min = float(np.linalg.eigvalsh(sigma).min())

    return MaterialReport(
        name=fld.name,
        coercivity_min=coercivity,
        symmetry_defect=symmetry,
        normality_defect=normality,
        realness_defect=realness,
        conductivity_min=conductivity_min,
        passed=not failures,
        failures=failures,
    )


def lp_diff_norm(f: MaterialField, g: MaterialField, p) -> float:
    """Exact L^p norm of |f - g| with the pointwise spectral (2-)norm.

    The fields are piecewise constant, so the integral is a finite sum over
    element volumes; p = inf returns the max over elements, m.  The sum is
    taken of (s / m)^p, so a large p does not underflow it to zero.
    """
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if not f.lives_on(g.mesh):
        raise ConfigError("fields live on different meshes")
    # the spectral norm once per distinct (f, g) tensor pair, then per element
    pairs = f.labels * (g.labels.max(initial=0) + 1) + g.labels
    _, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
    svals = np.linalg.norm(f.tensors[first] - g.tensors[first], 2, axis=(1, 2))[inverse]
    m = float(svals.max()) if svals.size else 0.0
    if p == np.inf or m == 0.0:
        return m
    return m * float(np.sum(f.mesh.volumes * (svals / m) ** p) ** (1.0 / p))
