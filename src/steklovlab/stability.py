"""Perturbation studies: eigenvalue drift against L^p norms of material
perturbations, log-log rate fits, and first-order drift predictions.

Baseline and perturbed eigenvalues are always computed on the same mesh, so
discretization error cancels and the material effect is isolated.  For a
complex-symmetric pencil the left eigenvectors are the unconjugated right
ones, so all pairings below are bilinear (no conjugation).  A tracked
cluster of N eigenvectors, the columns of X, has the cluster matrix
C = X^T B X and the nondegeneracy coefficient

    c = (1/N) tr C = (1/N) sum_n u_n^T B u_n,

which can vanish for genuinely complex eigenvectors even when B u_n != 0.
A step records the cluster mean lambda_h of its matched eigenvalues, and
the first-order drift of that mean for a semisimple cluster under a pencil
perturbation delta A = delta K - omega^2 delta M is

    lambda_h - lambda_0 ~= (1/N) tr(C^-1 G),   G = X^T delta A X,

which for N = 1 is u^T delta A u / c.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._assembly import h1_gram
from ._blas import one_blas_thread, stop_blas_workers
from .boundary_ops import assemble_surface_operators
from .eigensolver import cluster, solve_shift_invert
from .errors import AssumptionViolation, InsufficientData, ShiftAtEigenvalue, SolverFailure
from .fem_maxwell import (
    assemble_maxwell,
    hcurl_gram,
    kernelS_diagnostic,
    kernel_subspace_basis,
)
from .fem_scalar import LANCZOS_TOL, assemble_scalar, scalar_dirichlet_diagnostic
from .materials import PerturbationSpec, build_field, lp_diff_norm
from .mesh import Mesh, extract_boundary

# a study records no first-order prediction for a cluster whose cluster
# matrix C has a smallest singular value below this fraction of its
# sesquilinear B average (the nondegeneracy condition fails)
C_THRESHOLD = 1e-8

# a study step whose pencil is singular at the tracked eigenvalue itself is
# solved once more at a shift this fraction of the guard radius away
SHIFT_OFFSET = 1e-3

# fewest eigenvalues the baseline solve asks for, so a neighboring cluster
# sets a finite guard radius
MIN_STUDY_K = 6


@dataclass
class FitResult:
    slope: float
    intercept: float
    residual: float          # rms deviation in log-log space
    bound_ratio_max: float   # max over steps of (drift/norm) / (drift_0/norm_0)


def fit_rate(pairs) -> FitResult:
    """Least squares on (log norm, log drift).

    The first pair is the reference (coarsest) step for the bound-satisfaction
    ratio.  Pairs with nonpositive norm or drift are unusable; fewer than
    three usable pairs, or usable pairs that all share one norm, raise
    InsufficientData.
    """
    usable = [(float(n), float(d)) for n, d in pairs if n > 0 and d > 0]
    if len(usable) < 3:
        raise InsufficientData(f"need >= 3 positive (norm, drift) pairs, got {len(usable)}")
    norms = np.array([n for n, _ in usable])
    if np.all(norms == norms[0]):
        raise InsufficientData(f"all {len(usable)} usable norms equal {norms[0]:.6g}: no slope")
    drifts = np.array([d for _, d in usable])
    slope, intercept = np.polyfit(np.log(norms), np.log(drifts), 1)
    resid = np.log(drifts) - (slope * np.log(norms) + intercept)
    ref = drifts[0] / norms[0]
    ratio = float(np.max((drifts / norms) / ref))
    return FitResult(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))), ratio)


def normalize_vectors(vectors, gram):
    """Normalize columns in the sesquilinear inner product of ``gram``."""
    vecs = np.array(vectors, dtype=np.complex128, copy=True)
    for j in range(vecs.shape[1]):
        nrm = np.sqrt(np.real(np.conj(vecs[:, j]) @ (gram @ vecs[:, j])))
        if nrm == 0.0:
            raise ValueError("vector with zero norm in the provided inner product")
        vecs[:, j] /= nrm
    return vecs


def _nondegeneracy(B, vectors):
    """The cluster matrix C = X^T B X of the columns X of ``vectors``
    (normalized by :func:`normalize_vectors`), and why the cluster is
    degenerate, or "" when it is not: sigma_min(C) at most ``C_THRESHOLD``
    times the sesquilinear cluster average of B.  For one vector
    sigma_min(C) is |c|."""
    vecs = np.asarray(vectors, dtype=np.complex128)
    if vecs.ndim == 1:
        vecs = vecs[:, None]
    if vecs.shape[1] == 0:
        raise ValueError("nondegeneracy needs at least one vector")
    bvecs = B @ vecs
    C = vecs.T @ bvecs
    scale = max(float(np.mean(np.real(np.sum(np.conj(vecs) * bvecs, axis=0)))), 1e-300)
    sigma_min = float(np.linalg.svd(C, compute_uv=False)[-1])
    if sigma_min <= C_THRESHOLD * scale:
        return C, f"sigma_min(C) = {sigma_min:.3e} below threshold {C_THRESHOLD:.1e} x {scale:.3e}"
    return C, ""


def _first_order_drift(pencil0, pencil_h, vecs, C) -> complex:
    """(1/N) tr(C^-1 G), G = X^T delta A X: the first-order shift of the
    cluster mean."""
    G = vecs.T @ ((pencil_h.a0 - pencil0.a0) @ vecs)
    return complex(np.trace(np.linalg.solve(C, G)) / vecs.shape[1])


# --------------------------------------------------------------------- #
# study driver
# --------------------------------------------------------------------- #

@dataclass
class StepRecord:
    index: int
    h: float
    delta: complex
    status: str                          # ok | lost-track | ambiguous | aborted-*
    norms: dict                          # field -> {p: value}
    diag_sigma: float | None = None
    diag_kind: str | None = None         # "bound" | "lanczos"; None without diag_sigma
    confirmed: bool | None = None        # the step solve's flags; None without a solve
    partial: bool | None = None
    n_matched: int = 0
    lam: complex | None = field(default=None, metadata={"json": "lambda"})   # cluster mean
    drift: float | None = None
    cluster_diameter: float | None = None
    predicted: complex | None = None
    prediction_note: str = ""


@dataclass
class StudyReport:
    problem: str
    omega: float
    target: str
    p_list: tuple
    lambda0: complex
    cluster_size: int
    c: complex
    guard_radius: float
    baseline_diag: float
    steps: list
    fits: dict                           # p -> FitResult (drift vs target-field norm)
    meta: dict = field(default_factory=dict)

    def csv_rows(self):
        """Summary rows: h, norms (None if no fields were built), the drift
        of the cluster mean, its prediction and the step's diagnostic."""
        header = ["index", "h", "delta_re", "delta_im", "status"]
        for p in self.p_list:
            header.append(f"norm_mu_inv_p{p:g}")
        for p in self.p_list:
            header.append(f"norm_eps_p{p:g}")
        header += ["drift", "predicted_re", "predicted_im", "diag_sigma", "diag_kind"]
        rows = [header]
        for s in self.steps:
            row = [s.index, s.h, s.delta.real, s.delta.imag, s.status]
            for fld in ("mu_inv", "eps"):
                for p in self.p_list:
                    row.append(s.norms.get(fld, {}).get(p))
            row += [
                s.drift,
                None if s.predicted is None else s.predicted.real,
                None if s.predicted is None else s.predicted.imag,
                s.diag_sigma,
                s.diag_kind,
            ]
            rows.append(row)
        return rows


@dataclass
class RunConfig:
    """One run of ``solve``, ``diagnose`` or ``study``: the problem, its
    materials, the solver and its checks, and the study section.

    The command line reads it from JSON (``cli._run_config``; see README for
    the schema).  ``schedule`` is None when the config has no study.
    """

    problem: str                         # "scalar" or "maxwell"
    materials: dict                      # "mu_inv"/"eps" -> {region tag: tensor entry}
    omega: float = 0.0
    mesh_spec: dict | None = None        # {"path"} or {"kind": "cube"|"ball", "n"|"level"}
    perturbations: tuple = ()            # PerturbationSpec; solve and diagnose apply them
    sigma: complex = 1.0 + 0.0j
    k: int = 12
    tol: float = 1e-10
    seed: int = 0
    cluster_reltol: float = 1e-6
    census_delta: float = np.pi / 3.0
    census_radius: float | None = None
    diag_threshold: float = 1e-6
    schedule: list | None = None         # study steps as (h, delta) pairs; None: no study
    center: tuple = (0.0, 0.0, 0.0)
    target: str = "eps"
    p_list: tuple = (4.0,)
    target_lambda: complex | None = None


class Problem:
    """One pencil family on a fixed mesh: the layer behind solve, diagnose and study.

    ``kind`` is "scalar" or "maxwell".  Every operator that depends on the
    mesh only is built once: for Maxwell the boundary form ``B`` here, since
    assembly reads it, and on first use the coefficient-free energy Gram
    ``gram`` (H^1 or H(curl)), the norm of the diagnostic and of eigenvector
    normalization, and for Maxwell the kernel ``basis``, which only the
    diagnostic reads.  Every pencil assembled on the mesh reuses them.
    """

    def __init__(self, kind, mesh: Mesh, omega):
        if kind not in ("maxwell", "scalar"):
            raise ValueError(f"unknown problem {kind!r}")
        self.kind = kind
        self.mesh = mesh
        self.omega = omega
        if kind == "maxwell":
            self.B = assemble_surface_operators(extract_boundary(mesh), mesh)

    @cached_property
    def gram(self):
        return h1_gram(self.mesh) if self.kind == "scalar" else hcurl_gram(self.mesh)

    @cached_property
    def basis(self):
        return kernel_subspace_basis(self.B, self.gram)

    def assemble(self, mu, eps, K=None, M=None):
        """The pencil of (mu, eps); ``K`` or ``M``, when given, is that
        field's matrix from an earlier pencil, taken as it is."""
        if self.kind == "scalar":
            return assemble_scalar(self.mesh, mu, eps, self.omega, K, M)
        return assemble_maxwell(self.mesh, mu, eps, self.omega, self.B, K, M)

    def diagnostic(self, pencil) -> float:
        """Well-posedness value sigma_min of ``pencil`` in the norm of ``gram``."""
        if self.kind == "scalar":
            return scalar_dirichlet_diagnostic(pencil, self.gram)
        return kernelS_diagnostic(pencil, self.basis)

    def diagnostic_info(self) -> dict:
        """The mesh-only part of the diagnostics block of solve_meta.json."""
        if self.kind == "scalar":
            return {"kind": "interior_dirichlet"}
        return {"kind": "kernel_subspace", **self.basis.info}


@one_blas_thread()
def run_study(cfg: RunConfig, mesh: Mesh) -> StudyReport:
    """Track one eigenvalue cluster across the perturbation schedule of ``cfg``.

    Rebuilds the coefficient fields per step, reassembles only the
    coefficient-dependent matrices on the same mesh, resolves near the
    tracked eigenvalue with the shift placed at it, and matches eigenvalues
    by nearest neighbor inside a guard radius of half the baseline gap.

    The study runs on two threads (``_run_tasks``), with every OpenBLAS pool
    of the process at one thread while the call runs and their worker
    threads ended, since they busy-wait on the second core; the pools get
    their previous counts back on return.
    """
    stop_blas_workers()
    prob = Problem(cfg.problem, mesh, cfg.omega)

    mu0 = build_field(mesh, "mu_inv", cfg.materials["mu_inv"])
    eps0 = build_field(mesh, "eps", cfg.materials["eps"])
    pencil0 = prob.assemble(mu0, eps0)
    a0 = pencil0.a0     # filled here, so the two tasks below only read it

    def check_baseline():
        sigma_min = prob.diagnostic(pencil0)     # builds prob.gram and prob.basis
        if sigma_min < cfg.diag_threshold:
            raise AssumptionViolation(
                f"baseline diagnostic {sigma_min:.3e} below threshold {cfg.diag_threshold:.1e}"
            )
        return sigma_min

    def solve_baseline():
        return solve_shift_invert(a0, pencil0.B, cfg.sigma, max(cfg.k, MIN_STUDY_K),
                                  tol=cfg.tol, seed=cfg.seed)

    # the diagnostic is task 0, so its failure wins over a solve error
    baseline_diag, base = _run_tasks([check_baseline, solve_baseline])
    if len(base) == 0:
        raise SolverFailure("baseline solve produced no certified eigenvalues")
    labels, means = cluster(base.eigenvalues, cfg.cluster_reltol)
    guess = cfg.target_lambda if cfg.target_lambda is not None else cfg.sigma
    tracked = labels[int(np.argmin(np.abs(base.eigenvalues - guess)))]
    members = labels == tracked
    lam0 = complex(means[tracked])
    n_members = int(members.sum())
    other_means = np.delete(means, tracked)
    guard = 0.5 * float(np.abs(other_means - lam0).min()) if len(other_means) else np.inf

    vectors = normalize_vectors(base.eigenvectors[:, members], prob.gram)
    C, degenerate = _nondegeneracy(pencil0.B, vectors)   # baseline-only: decided once

    # sigma_min of the baseline, less the Lanczos tolerance of its value
    sigma_floor = baseline_diag * pencil0.beta * (1.0 - LANCZOS_TOL)

    # The baseline has filled every lazy value a step reads (pencil0.a0,
    # prob.gram, prob.basis and the mesh's cached arrays), so the steps
    # share only read-only state and may run in any order.
    steps = [partial(_run_step, cfg, prob, pencil0, mu0, eps0, sigma_floor, lam0, n_members,
                     guard, vectors, C, degenerate, idx, float(h), complex(delta))
             for idx, (h, delta) in enumerate(cfg.schedule)]
    # the records come in schedule order, so the stable sort keeps tied h in it
    records = sorted(_run_tasks(steps), key=lambda r: r.h)

    fits = {}
    ok = [r for r in records if r.status == "ok"]
    ok_coarse_first = sorted(ok, key=lambda r: -r.h)
    for p in cfg.p_list:
        try:
            fits[p] = fit_rate([(r.norms[cfg.target][p], r.drift) for r in ok_coarse_first])
        except InsufficientData:
            continue

    return StudyReport(
        problem=cfg.problem,
        omega=cfg.omega,
        target=cfg.target,
        p_list=tuple(cfg.p_list),
        lambda0=lam0,
        cluster_size=n_members,
        c=complex(np.mean(np.diag(C))),
        guard_radius=guard,
        baseline_diag=float(baseline_diag),
        steps=records,
        fits=fits,
        meta={
            "sigma": complex(cfg.sigma),
            "seed": cfg.seed,
            "k": cfg.k,
            "tol": cfg.tol,
            "baseline": {"confirmed": base.meta["confirmed"], "partial": base.meta["partial"]},
            "mesh": mesh.summary(),
        },
    )


def _run_tasks(tasks):
    """The results of the thunks ``tasks``, in task order: this thread and
    one worker thread take the tasks from one queue in list order.

    SuperLU and BLAS release the GIL, so the two threads use two cores.  A
    failing task stops both threads from taking further tasks; once both
    are done, the error of the lowest-index failing task is raised, the one
    a loop over the tasks would raise.
    """
    pending = iter(enumerate(tasks))
    lock = threading.Lock()
    stop = threading.Event()
    results, errors = {}, {}

    def drain():
        while not stop.is_set():
            with lock:
                entry = next(pending, None)
            if entry is None:
                return
            idx, task = entry
            try:
                results[idx] = task()
            except Exception as exc:
                errors[idx] = exc
                stop.set()

    worker = threading.Thread(target=drain, name="study-task")
    worker.start()
    try:
        drain()
    finally:
        stop.set()
        worker.join()
    if errors:
        raise errors[min(errors)]
    return [results[idx] for idx in range(len(tasks))]


def _run_step(cfg, prob, pencil0, mu0, eps0, sigma_floor, lam0, n_members, guard,
              vectors, C, degenerate, idx, h, delta):
    spec = PerturbationSpec(cfg.center, h, delta, cfg.target)
    baseline = {"mu_inv": mu0, "eps": eps0}
    try:
        target_h = build_field(prob.mesh, cfg.target, cfg.materials[cfg.target], [spec])
    except AssumptionViolation as exc:
        return StepRecord(idx, h, delta, f"aborted-invalid-field: {exc}", {})
    fields = {**baseline, cfg.target: target_h}

    # the field the step does not perturb is the baseline one: its norms are 0.0
    norms = {name: dict.fromkeys(cfg.p_list, 0.0) for name in baseline}
    norms[cfg.target] = {p: lp_diff_norm(target_h, baseline[cfg.target], p) for p in cfg.p_list}
    rec = StepRecord(idx, h, delta, "ok", norms)

    change = lp_diff_norm(target_h, baseline[cfg.target], np.inf)
    if change == 0.0:
        # perturbation misses every element: identical pencil, zero drift
        rec.n_matched = n_members
        rec.lam = lam0
        rec.drift = 0.0
        rec.cluster_diameter = 0.0
        rec.predicted = 0.0 + 0.0j
        return rec

    # the matrix of the field the step does not perturb is the baseline one
    unchanged = {"K": pencil0.K} if cfg.target == "eps" else {"M": pencil0.M}
    pencil_h = prob.assemble(fields["mu_inv"], fields["eps"], **unchanged)
    # The volume form changes by at most d, the L^inf change of its coefficient
    # (omega^2 delta eps for eps), in the norm of prob.gram, so by Weyl's
    # inequality for singular values (Horn & Johnson, Topics in Matrix Analysis,
    # 1991, Thm 3.3.16) the unnormalized sigma_min of the diagnostic moves by at most d.
    d = prob.omega**2 * change if cfg.target == "eps" else change
    bound = (sigma_floor - d) / pencil_h.beta
    if bound >= cfg.diag_threshold:
        rec.diag_sigma, rec.diag_kind = float(bound), "bound"
    else:
        rec.diag_sigma, rec.diag_kind = float(prob.diagnostic(pencil_h)), "lanczos"
        if rec.diag_sigma < cfg.diag_threshold:
            rec.status = "aborted-diagnostic"
            return rec

    # the guard test reads the cluster and one value more: ok holds at most
    # n_members values inside the guard, one more is ambiguous
    k_step = n_members + 1
    try:
        res = solve_shift_invert(pencil_h.a0, pencil_h.B, lam0, k_step, tol=cfg.tol, seed=cfg.seed)
    except ShiftAtEigenvalue:
        # lam0 is an eigenvalue of the step pencil too (at omega = 0 an eps
        # perturbation does not enter it), so the shift moves off it once
        offset = SHIFT_OFFSET * (guard if np.isfinite(guard) else abs(lam0))
        res = solve_shift_invert(pencil_h.a0, pencil_h.B, lam0 + offset, k_step,
                                 tol=cfg.tol, seed=cfg.seed)
    rec.confirmed = res.meta["confirmed"]
    rec.partial = res.meta["partial"]
    cand = res.eigenvalues[np.abs(res.eigenvalues - lam0) < guard]
    rec.n_matched = int(len(cand))
    if len(cand) == 0:
        rec.status = "lost-track"
        return rec
    if len(cand) > n_members:
        rec.status = "ambiguous"
        return rec

    rec.lam = complex(cand.mean())
    rec.drift = float(abs(lam0 - rec.lam))
    rec.cluster_diameter = float(np.abs(cand[:, None] - cand[None, :]).max()) if len(cand) > 1 else 0.0

    if degenerate:
        rec.prediction_note = degenerate
    else:
        rec.predicted = _first_order_drift(pencil0, pencil_h, vectors, C)
    return rec
