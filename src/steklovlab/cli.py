"""Batch front door: mesh generation, eigenvalue solves, perturbation
studies, and assumption diagnostics.

Subcommands
-----------
mesh      write a mesh JSON for a cube or ball domain
solve     assemble + solve one pencil; writes eigenvalues.csv + solve_meta.json
study     run a perturbation study; writes study_report.json + study_summary.csv
diagnose  evaluate the coefficient and well-posedness checks; exit 2 on failure

Exit codes: 0 success, 1 configuration error, 2 assumption violation
(diagnostic failure), 3 solver failure.  Every failure prints one
machine-parsable line on stderr: ``error: <kind>: <message>``.

``--threads N`` (fallback: the ``STEKLOV_THREADS`` environment variable) caps
the BLAS threads only when ``threadpoolctl`` is installed; without it the run
goes ahead at the library default and prints one ``note:`` line on stderr.  A
thread count that is not an integer >= 1 is a configuration error.

Identical config and seed produce byte-identical CSV outputs; no timestamps
or environment-dependent values are written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from .eigensolver import cluster, sector_census, solve_shift_invert
from .errors import (
    AssumptionViolation,
    ConfigError,
    MalformedMeshError,
    SolverFailure,
)
from .materials import PerturbationSpec, build_field, validate
from .mesh import generate_ball_mesh, generate_cube_mesh, load_mesh, save_mesh
from .stability import Problem, StudySetup, run_study

# Not called here (stability.Problem builds every pencil); perfbench/tracing.py wraps them on cli.
from .boundary_ops import assemble_surface_operators  # noqa: F401
from .fem_maxwell import assemble_maxwell, kernelS_diagnostic  # noqa: F401
from .fem_scalar import assemble_scalar, scalar_dirichlet_diagnostic  # noqa: F401
from .mesh import extract_boundary  # noqa: F401

DEFAULT_CENSUS_DELTA = np.pi / 3.0


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _cx(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


@dataclass
class RunConfig:
    """Validated run configuration (see README for the JSON schema)."""

    problem: str
    mesh_spec: dict
    omega: float
    materials: dict
    perturbations: list
    sigma: complex = 1.0 + 0.0j
    k: int = 12
    tol: float = 1e-10
    seed: int = 0
    cluster_reltol: float = 1e-6
    krylov_dim: int | None = None
    max_krylov: int | None = None
    census_delta: float = DEFAULT_CENSUS_DELTA
    census_radius: float | None = None
    diag_threshold: float = 1e-6
    study: dict | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        problem = doc.get("problem")
        if problem not in ("scalar", "maxwell"):
            raise ConfigError(f"problem must be 'scalar' or 'maxwell', got {problem!r}")
        mesh_spec = doc.get("mesh")
        if not isinstance(mesh_spec, dict):
            raise ConfigError("config requires a 'mesh' object")
        if "path" not in mesh_spec and mesh_spec.get("kind") not in ("cube", "ball"):
            raise ConfigError("mesh needs 'path' or kind 'cube'/'ball'")
        omega = _number(doc, "omega", 0.0)
        if problem == "maxwell" and omega == 0.0:
            raise ConfigError("omega must be nonzero for the maxwell problem")

        materials = doc.get("materials")
        if not isinstance(materials, dict) or not {"mu_inv", "eps"} <= set(materials):
            raise ConfigError("materials must provide 'mu_inv' and 'eps' region tables")

        perturbations = []
        pert_docs = doc.get("perturbations", [])
        if not isinstance(pert_docs, list):
            raise ConfigError("perturbations must be a list")
        for i, p in enumerate(pert_docs):
            try:
                spec = PerturbationSpec(
                    tuple(p["center"]),
                    float(p["h"]),
                    complex(p.get("delta_re", 0.0), p.get("delta_im", 0.0)),
                    p.get("target", "eps"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"perturbation #{i} invalid: {exc}") from exc
            if not np.all(np.isfinite([*spec.center, spec.radius, spec.delta])):
                raise ConfigError(f"perturbation #{i} invalid: values must be finite")
            perturbations.append(spec)

        solver = _section(doc, "solver")
        sigma = complex(_number(solver, "sigma_re", 1.0, "solver."),
                        _number(solver, "sigma_im", 0.0, "solver."))
        k = _number(solver, "k", 12, "solver.", int)
        if k < 1:
            raise ConfigError("solver.k must be >= 1")
        tol = _number(solver, "tol", 1e-10, "solver.")
        if tol <= 0:
            raise ConfigError(f"solver.tol must be > 0, got {tol}")
        krylov_dim = _number(solver, "krylov_dim", None, "solver.", int)
        max_krylov = _number(solver, "max_krylov", None, "solver.", int)
        for name, size in (("krylov_dim", krylov_dim), ("max_krylov", max_krylov)):
            if size is not None and size < 1:
                raise ConfigError(f"solver.{name} must be >= 1, got {size}")
        census = _section(doc, "census")
        census_delta = _number(census, "delta", DEFAULT_CENSUS_DELTA, "census.")
        if not 0.0 < census_delta < np.pi:
            raise ConfigError(f"census.delta must be in (0, pi), got {census_delta}")
        diag = _section(doc, "diagnostics")

        study = doc.get("study")
        if study is not None:
            if not isinstance(study, dict) or not isinstance(study.get("schedule"), list):
                raise ConfigError("study section needs a 'schedule' list")
            try:
                bad = [p for p in study.get("p_list", [4.0]) if not float(p) >= 1.0]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"study p_list must hold numbers: {exc}") from None
            if bad:
                raise ConfigError(f"study p values must be >= 1, got {bad[0]}")

        return cls(
            problem=problem,
            mesh_spec=mesh_spec,
            omega=omega,
            materials=materials,
            perturbations=perturbations,
            sigma=sigma,
            k=k,
            tol=tol,
            seed=_number(solver, "seed", 0, "solver.", int),
            cluster_reltol=_number(solver, "cluster_reltol", 1e-6, "solver."),
            krylov_dim=krylov_dim,
            max_krylov=max_krylov,
            census_delta=census_delta,
            census_radius=_number(census, "radius", None, "census."),
            diag_threshold=_number(diag, "threshold", 1e-6, "diagnostics."),
            study=study,
        )


def _section(doc, name):
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be a JSON object, got {sec!r}")
    return sec


def _number(sec, key, default, where="", cast=float):
    """``sec[key]`` as a finite ``cast`` value; an absent key gives ``default``
    (None only where the key is optional)."""
    value = sec.get(key, default)
    if value is None and default is None:
        return None
    try:
        x = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}{key} must be a number, got {value!r}") from None
    if not np.isfinite(x):
        raise ConfigError(f"{where}{key} must be finite, got {value!r}")
    return x


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc)


def build_mesh(spec: dict):
    if "path" in spec:
        try:
            return load_mesh(spec["path"])
        except OSError as exc:
            raise ConfigError(f"cannot read mesh {spec['path']}: {exc}") from exc
    if spec["kind"] == "cube":
        if "n" not in spec:
            raise ConfigError("cube mesh needs 'n'")
        return generate_cube_mesh(int(spec["n"]))
    if "level" not in spec:
        raise ConfigError("ball mesh needs 'level'")
    return generate_ball_mesh(int(spec["level"]))


def _diagnosed_pencil(cfg: RunConfig):
    """The config's pencil, its diagnostic value, and the report head that
    solve_meta.json and diagnostics.json share (fields, validation, diagnostic)."""
    mesh = build_mesh(cfg.mesh_spec)
    mu = build_field(mesh, "mu_inv", cfg.materials["mu_inv"], cfg.perturbations)
    eps = build_field(mesh, "eps", cfg.materials["eps"], cfg.perturbations)
    reports = {
        "mu_inv": validate(mu, cfg.omega).as_dict(),
        "eps": validate(eps, cfg.omega).as_dict(),
    }
    problem = Problem(cfg.problem, mesh, cfg.omega)
    pencil = problem.assemble(mu, eps)
    sigma_min, diag = problem.diagnostic(pencil, details=True)
    diag["threshold"] = cfg.diag_threshold
    diag["passed"] = bool(sigma_min >= cfg.diag_threshold)
    head = {
        "problem": cfg.problem,
        "omega": cfg.omega,
        "mesh": _mesh_info(mesh),
        "materials": reports,
        "diagnostics": diag,
    }
    return pencil, float(sigma_min), head


def _mesh_info(mesh):
    return {
        "vertices": mesh.n_vertices,
        "tets": mesh.n_tets,
        "edges": mesh.n_edges,
        "boundary_faces": int(len(mesh.boundary_faces)),
        "kind": mesh.kind,
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #

def cmd_mesh(args) -> int:
    if args.kind == "cube":
        mesh = generate_cube_mesh(args.n)
    else:
        mesh = generate_ball_mesh(args.level)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "mesh.json"
    save_mesh(mesh, path)
    print(f"wrote {path} ({mesh.n_vertices} vertices, {mesh.n_tets} tets)")
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    pencil, sigma_min, meta = _diagnosed_pencil(cfg)
    meta["solver"] = {"sigma": _cx(cfg.sigma), "k": cfg.k, "tol": cfg.tol, "seed": cfg.seed}
    if not meta["diagnostics"]["passed"]:
        _write_json(out / "solve_meta.json", meta)
        raise AssumptionViolation(
            f"well-posedness diagnostic {sigma_min:.3e} below threshold "
            f"{cfg.diag_threshold:.1e}; no eigenvalue table emitted"
        )

    result = solve_shift_invert(pencil.a0(), pencil.B, cfg.sigma, cfg.k,
                                tol=cfg.tol, seed=cfg.seed,
                                krylov_dim=cfg.krylov_dim, max_krylov=cfg.max_krylov)
    if len(result) == 0:
        raise SolverFailure("no eigenvalue converged at the requested tolerance")
    clustered = cluster(result, cfg.cluster_reltol)

    radius = cfg.census_radius
    if radius is None:
        radius = 10.0 * float(np.median(np.abs(clustered.eigenvalues)))
    census = sector_census(clustered.eigenvalues, cfg.census_delta, radius)

    csv_path = out / "eigenvalues.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("index,re,im,residual,cluster_id,cluster_size\n")
        for i, lam in enumerate(clustered.eigenvalues):
            fh.write(",".join([
                str(i), _fmt(lam.real), _fmt(lam.imag),
                _fmt(clustered.residuals[i]),
                str(int(clustered.cluster_labels[i])),
                str(int(clustered.cluster_sizes[i])),
            ]) + "\n")

    meta["census"] = census.as_dict()
    meta["solver"].update({
        "converged": int(result.meta["converged"]),
        "iterations": int(result.meta["iterations"]),
        "partial": bool(result.meta["partial"]),
        "exhausted": bool(result.meta["exhausted"]),
    })
    meta["cluster_means"] = [_cx(m) for m in clustered.cluster_means]
    _write_json(out / "solve_meta.json", meta)
    print(f"wrote {csv_path} ({len(clustered)} eigenvalues)")
    return 0


def cmd_study(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if cfg.study is None:
        raise ConfigError("config has no 'study' section")
    if cfg.perturbations:
        raise ConfigError("perturbations apply to solve and diagnose only; "
                          "a study perturbs through its schedule")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    mesh = build_mesh(cfg.mesh_spec)
    st = cfg.study
    schedule = []
    for i, step in enumerate(st["schedule"]):
        try:
            h = float(step["h"])
            delta = complex(step.get("delta_re", 0.0), step.get("delta_im", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"study schedule entry #{i} invalid: {exc}") from exc
        if not np.all(np.isfinite([h, delta])):
            raise ConfigError(f"study schedule entry #{i} invalid: values must be finite")
        schedule.append((h, delta))
    try:
        center = tuple(st.get("center", (0.0, 0.0, 0.0)))
        target_lambda = st.get("target_lambda")
        if target_lambda is not None:
            target_lambda = complex(target_lambda.get("re", 0.0), target_lambda.get("im", 0.0))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"study center or target_lambda invalid: {exc}") from exc

    setup = StudySetup(
        mesh=mesh,
        omega=cfg.omega,
        problem=cfg.problem,
        mu_base=cfg.materials["mu_inv"],
        eps_base=cfg.materials["eps"],
        center=center,
        target=st.get("target", "eps"),
        schedule=schedule,
        p_list=tuple(float(p) for p in st.get("p_list", [4.0])),
        sigma=cfg.sigma,
        target_lambda=target_lambda,
        k=cfg.k,
        tol=cfg.tol,
        cluster_reltol=cfg.cluster_reltol,
        diag_threshold=cfg.diag_threshold,
        step_diagnostics=bool(st.get("step_diagnostics", True)),
        seed=cfg.seed,
    )
    report = run_study(setup)

    _write_json(out / "study_report.json", report.as_dict())
    csv_path = out / "study_summary.csv"
    with open(csv_path, "w", newline="") as fh:
        rows = report.csv_rows()
        fh.write(",".join(str(c) for c in rows[0]) + "\n")
        for row in rows[1:]:
            cells = []
            for c in row:
                if c is None:
                    cells.append("")
                elif isinstance(c, str):
                    cells.append(c)
                elif isinstance(c, (int, np.integer)):
                    cells.append(str(int(c)))
                else:
                    cells.append(_fmt(c))
            fh.write(",".join(cells) + "\n")
    print(f"wrote {csv_path} ({len(report.steps)} steps)")
    return 0


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    failures = []
    try:
        _, sigma_min, doc = _diagnosed_pencil(cfg)
    except AssumptionViolation as exc:
        # field-level failure: still emit a report with what we know
        doc = {"problem": cfg.problem, "passed": False, "failures": [str(exc)]}
        _write_json(out / "diagnostics.json", doc)
        raise

    for name, rep in doc["materials"].items():
        if not rep["passed"]:
            failures.extend(f"{name}: {msg}" for msg in rep["failures"])
    if not doc["diagnostics"]["passed"]:
        failures.append(
            f"well-posedness diagnostic {sigma_min:.3e} below threshold {cfg.diag_threshold:.1e}"
        )
    doc["passed"] = not failures
    doc["failures"] = failures
    _write_json(out / "diagnostics.json", doc)
    if failures:
        raise AssumptionViolation("; ".join(failures))
    print(f"diagnostics passed (sigma_min = {sigma_min:.3e})")
    return 0


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #

def _parser():
    ap = argparse.ArgumentParser(prog="steklovlab",
                                 description="Steklov eigenvalue laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    mesh_p = sub.add_parser("mesh", help="generate and write a mesh JSON")
    mesh_p.add_argument("--kind", choices=["cube", "ball"], required=True)
    mesh_p.add_argument("--n", type=int, default=2, help="cube subdivisions per axis")
    mesh_p.add_argument("--level", type=int, default=1, help="ball refinement level")
    mesh_p.add_argument("--output", default=".")

    for name in ("solve", "study", "diagnose"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output", default=".")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
    return ap


_ERROR_KINDS = [
    (ConfigError, "config-error", 1),
    (MalformedMeshError, "malformed-mesh", 1),
    (AssumptionViolation, "assumption-violation", 2),
    (SolverFailure, "solver-failure", 3),
    (np.linalg.LinAlgError, "solver-failure", 3),   # a ValueError subclass
    (ArpackNoConvergence, "solver-failure", 3),
    (ValueError, "invalid-argument", 1),
]


def _thread_limit(args):
    """BLAS thread cap and where it came from: ``--threads``, else ``STEKLOV_THREADS``.

    Returns ``(None, None)`` when neither is set.
    """
    threads = getattr(args, "threads", None)
    source = "--threads"
    if threads is None:
        env = os.environ.get("STEKLOV_THREADS")
        if not env:
            return None, None
        source = "STEKLOV_THREADS"
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(f"{source} must be an integer, got {env!r}") from None
    if threads < 1:
        raise ConfigError(f"{source} must be >= 1, got {threads}")
    return threads, source


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        threads, source = _thread_limit(args)
        if threads is None:
            return _dispatch(args)
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            print(f"note: {source} {threads} not enforced: threadpoolctl is not installed",
                  file=sys.stderr)
            return _dispatch(args)
        with threadpool_limits(limits=threads):
            return _dispatch(args)
    except Exception as exc:   # mapped onto documented exit codes
        for klass, kind, code in _ERROR_KINDS:
            if isinstance(exc, klass):
                print(f"error: {kind}: {exc}", file=sys.stderr)
                return code
        raise


def _dispatch(args) -> int:
    if args.command == "mesh":
        return cmd_mesh(args)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "study":
        return cmd_study(args)
    return cmd_diagnose(args)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
