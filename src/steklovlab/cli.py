"""Batch front door: mesh generation, eigenvalue solves, perturbation
studies, and assumption diagnostics.

Subcommands
-----------
mesh      write a mesh JSON for a cube or ball domain
solve     assemble + solve one pencil; writes eigenvalues.csv + solve_meta.json
study     run a perturbation study; writes study_report.json + study_summary.csv
diagnose  evaluate the coefficient and well-posedness checks; exit 2 on failure

solve, study and diagnose share one prologue (``_dispatch``): the config,
then its mesh, then ``--output``, so a bad config or mesh leaves no directory.
Exit codes: 0 success, 1 configuration error, 2 assumption violation
(diagnostic failure), 3 solver failure or out of memory.  Every failure
prints one machine-parsable line on stderr: ``error: <kind>: <message>``.

A run sets every OpenBLAS runtime in the process (numpy and scipy each bundle
one) to one thread and restores the previous counts on return, so its
outputs never depend on a thread setting (``_blas.one_blas_thread``).
``study`` runs on two Python threads (its baseline diagnostic beside its
baseline solve, then its steps two at a time); ``run_study`` ends the
OpenBLAS worker threads first, which otherwise busy-wait on the second core.

Identical config and seed produce byte-identical CSV outputs; no timestamps
or environment-dependent values are written.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from ._blas import one_blas_thread
from .eigensolver import cluster, sector_census, solve_shift_invert
from .errors import (
    AssumptionViolation,
    ConfigError,
    MalformedMeshError,
    SolverFailure,
)
from .materials import FIELD_NAMES, PerturbationSpec, build_field, tensor_from_entry
from .mesh import MAX_EXTENT, generate_ball_mesh, generate_cube_mesh, load_mesh, save_mesh
from .stability import Problem, RunConfig, run_study

# Not called here (stability.Problem builds every pencil, build_field validates each field);
# perfbench/tracing.py wraps them on cli.
from .boundary_ops import assemble_surface_operators  # noqa: F401
from .fem_maxwell import assemble_maxwell, kernelS_diagnostic  # noqa: F401
from .fem_scalar import assemble_scalar, scalar_dirichlet_diagnostic  # noqa: F401
from .materials import validate  # noqa: F401
from .mesh import extract_boundary  # noqa: F401


def _cell(x) -> str:
    """A CSV cell: None is empty, integers print as such, other numbers with 17 digits."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _run_config(doc) -> RunConfig:
    """The checked ``RunConfig`` of a config document (see README for the
    JSON schema): the only reader of the raw JSON.  Every value is typed and
    range-checked, and a key that no reader reads is refused; an absent key
    takes the ``RunConfig`` default."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _known(doc, "", ("problem", "mesh", "omega", "materials", "perturbations", "solver",
                     "census", "diagnostics", "study"))
    problem = doc.get("problem")
    if problem not in ("scalar", "maxwell"):
        raise ConfigError(f"problem must be 'scalar' or 'maxwell', got {problem!r}")
    omega = _bounded(doc, "omega", RunConfig.omega)
    if problem == "maxwell" and omega == 0.0:
        raise ConfigError("omega must be nonzero for the maxwell problem")

    pert_docs = doc.get("perturbations", [])
    if not isinstance(pert_docs, list):
        raise ConfigError("perturbations must be a list")

    solver = _section(doc, "solver", ("sigma_re", "sigma_im", "k", "tol", "seed", "cluster_reltol"))
    sigma = complex(_bounded(solver, "sigma_re", RunConfig.sigma.real, "solver."),
                    _bounded(solver, "sigma_im", RunConfig.sigma.imag, "solver."))
    tol = _number(solver, "tol", RunConfig.tol, "solver.")
    if tol <= 0:
        raise ConfigError(f"solver.tol must be > 0, got {tol}")
    census = _section(doc, "census", ("delta", "radius"))
    census_delta = _number(census, "delta", RunConfig.census_delta, "census.")
    if not 0.0 < census_delta < np.pi:
        raise ConfigError(f"census.delta must be in (0, pi), got {census_delta}")
    census_radius = _number(census, "radius", None, "census.")
    if census_radius is not None and census_radius <= 0:
        raise ConfigError(f"census.radius must be > 0, got {census_radius}")
    diag = _section(doc, "diagnostics", ("threshold",))
    diag_threshold = _number(diag, "threshold", RunConfig.diag_threshold, "diagnostics.")
    if not 0.0 <= diag_threshold <= 1.0:
        # sigma_min is normalized by the continuity bound, so it lies in [0, 1]
        raise ConfigError(f"diagnostics.threshold must be in [0, 1], got {diag_threshold}")

    return RunConfig(
        problem=problem,
        mesh_spec=_mesh_spec(doc.get("mesh")),
        omega=omega,
        materials=_materials(doc.get("materials"), problem),
        perturbations=tuple(_ball(p, f"perturbations[{i}]") for i, p in enumerate(pert_docs)),
        sigma=sigma,
        k=_number(solver, "k", RunConfig.k, "solver.", int, minimum=1),
        tol=tol,
        seed=_number(solver, "seed", RunConfig.seed, "solver.", int, minimum=0),
        cluster_reltol=_number(solver, "cluster_reltol", RunConfig.cluster_reltol, "solver.",
                               minimum=0.0),
        census_delta=census_delta,
        census_radius=census_radius,
        diag_threshold=diag_threshold,
        **_study(doc.get("study")),
    )


def _known(sec, where, keys):
    """Refuse a key of the config section ``sec`` that is not in ``keys``,
    the keys its reader reads."""
    unknown = sorted(set(sec) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {where}{unknown[0]}")


def _section(doc, name, keys):
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be a JSON object, got {sec!r}")
    _known(sec, f"{name}.", keys)
    return sec


_REQUIRED = object()     # default of a key that must be present


def _number(sec, key, default=_REQUIRED, where="", cast=float, minimum=None):
    """``sec[key]`` as a finite ``cast`` value, at least ``minimum`` when given.

    An absent key gives ``default`` (None where the key is optional); with no
    ``default`` the key is required.  With ``cast=int`` a value with
    a fractional part is rejected, not truncated.
    """
    value = sec.get(key, default)
    if value is None and default is None:
        return None
    if value is _REQUIRED:
        raise ConfigError(f"{where}{key} is required")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}{key} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:         # an integer beyond the float range
        x = np.inf
    if not np.isfinite(x):
        raise ConfigError(f"{where}{key} must be finite, got {value!r}")
    if cast is int:
        if not x.is_integer():
            raise ConfigError(f"{where}{key} must be an integer, got {value!r}")
        x = int(value)
    if minimum is not None and x < minimum:
        raise ConfigError(f"{where}{key} must be >= {minimum}, got {value!r}")
    return x


def _bounded(sec, key, default=_REQUIRED, where=""):
    """``sec[key]`` as a number of magnitude at most ``MAX_EXTENT`` (see mesh)."""
    x = _number(sec, key, default, where)
    if abs(x) > MAX_EXTENT:
        raise ConfigError(f"{where}{key} must be at most {MAX_EXTENT:g} in magnitude, got {x!r}")
    return x


def _point(sec, key, where, default=None):
    """``sec[key]`` as a 3D point: a tuple of three floats (see ``_bounded``)."""
    value = sec.get(key, default)
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where}{key} must be a list of 3 numbers, got {sec.get(key)!r}")
    return tuple(_bounded({key: c}, key, where=where) for c in value)


def _mesh_spec(spec):
    if not isinstance(spec, dict):
        raise ConfigError("config requires a 'mesh' object")
    if "path" in spec:
        _known(spec, "mesh.", ("path",))
        if not isinstance(spec["path"], str):
            raise ConfigError(f"mesh.path must be a string, got {spec['path']!r}")
        return {"path": spec["path"]}
    kind = spec.get("kind")
    if kind == "cube":
        _known(spec, "mesh.", ("kind", "n"))
        return {"kind": kind, "n": _number(spec, "n", where="mesh.", cast=int, minimum=1)}
    if kind == "ball":
        _known(spec, "mesh.", ("kind", "level"))
        return {"kind": kind, "level": _number(spec, "level", where="mesh.", cast=int, minimum=0)}
    raise ConfigError("mesh needs 'path' or kind 'cube'/'ball'")


def _materials(materials, problem):
    """Both region tables as {int tag: 3x3 complex tensor}."""
    if not isinstance(materials, dict) or not {"mu_inv", "eps"} <= set(materials):
        raise ConfigError("materials must provide 'mu_inv' and 'eps' region tables")
    _known(materials, "materials.", FIELD_NAMES)
    tables = {}
    for name in FIELD_NAMES:
        table = materials[name]
        if not isinstance(table, dict) or not table:
            raise ConfigError(f"materials.{name} must be a JSON object mapping region tags "
                              f"to tensor entries, got {table!r}")
        tables[name] = {}
        for key, entry in table.items():
            where = f"materials.{name}.{key}"
            try:
                tag = int(key)
            except ValueError:
                raise ConfigError(f"{where}: region tag must be an integer") from None
            # one spelling per tag: "01" or "1_0" would stand beside "1" or "10"
            if key != str(tag):
                raise ConfigError(f"{where}: region tag must be written as {str(tag)!r}")
            try:
                tensor = tensor_from_entry(entry)
            except (ConfigError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{where} invalid: {exc}") from None
            # the scalar pencil takes one permittivity per element (trace/3)
            if problem == "scalar" and name == "eps" and not np.array_equal(
                    tensor, tensor[0, 0] * np.eye(3)):
                raise ConfigError(f"{where} must be a multiple of I for the scalar problem")
            tables[name][tag] = tensor
    return tables


def _ball(entry, where, center=None, target=None):
    """A ball entry {"h", "delta_re", "delta_im"} as a checked PerturbationSpec.

    A ``perturbations`` entry also carries its own "center" and "target"; a
    study schedule entry is given the study's.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a JSON object, got {entry!r}")
    keys = ("h", "delta_re", "delta_im")
    _known(entry, f"{where}.", keys if center is not None else keys + ("center", "target"))
    if center is None:
        center = _point(entry, "center", f"{where}.")
        target = entry.get("target", PerturbationSpec.target)
    h = _number(entry, "h", where=f"{where}.")
    delta = complex(_bounded(entry, "delta_re", 0.0, f"{where}."),
                    _bounded(entry, "delta_im", 0.0, f"{where}."))
    try:
        return PerturbationSpec(center, h, delta, target)
    except ValueError as exc:
        raise ConfigError(f"{where} invalid: {exc}") from None


def _study(st):
    """The ``study`` section as RunConfig keyword arguments; {} when it is absent."""
    if st is None:
        return {}
    if not isinstance(st, dict):
        raise ConfigError(f"study must be a JSON object, got {st!r}")
    _known(st, "study.", ("center", "target", "schedule", "p_list", "target_lambda"))
    center = _point(st, "center", "study.", RunConfig.center)
    target = st.get("target", RunConfig.target)
    if target not in FIELD_NAMES:
        raise ConfigError(f"study.target must be 'mu_inv' or 'eps', got {target!r}")
    steps = st.get("schedule")
    if not isinstance(steps, list) or not steps:
        raise ConfigError("study section needs a non-empty 'schedule' list")
    schedule = []
    for i, entry in enumerate(steps):
        spec = _ball(entry, f"study.schedule[{i}]", center, target)
        schedule.append((spec.radius, spec.delta))
    p_list = st.get("p_list", list(RunConfig.p_list))
    if not isinstance(p_list, list) or not p_list:
        raise ConfigError(f"study.p_list must be a non-empty list, got {p_list!r}")
    target_lambda = st.get("target_lambda")
    if target_lambda is not None:
        if not isinstance(target_lambda, dict):
            raise ConfigError(f"study.target_lambda must be a JSON object, got {target_lambda!r}")
        _known(target_lambda, "study.target_lambda.", ("re", "im"))
        target_lambda = complex(_bounded(target_lambda, "re", 0.0, "study.target_lambda."),
                                _bounded(target_lambda, "im", 0.0, "study.target_lambda."))
    return {
        "center": center,
        "target": target,
        "schedule": schedule,
        "p_list": tuple(_number({"p_list": p}, "p_list", where="study.", minimum=1.0)
                        for p in p_list),
        "target_lambda": target_lambda,
    }


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is refused, where json would
    keep the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats key {key!r} in one object")
        obj[key] = value
    return obj


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _run_config(doc)


def _config(args) -> RunConfig:
    """The config of ``args``; ``--seed``, checked as ``solver.seed`` is, replaces that key."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = _number(vars(args), "seed", where="--", cast=int, minimum=0)
    if args.command == "study":
        if cfg.schedule is None:
            raise ConfigError("config has no 'study' section")
        if cfg.perturbations:
            raise ConfigError("perturbations apply to solve and diagnose only; "
                              "a study perturbs through its schedule")
    return cfg


# peak bytes per tet while a mesh is generated (measured 630-690 B at ball
# level 3 and cube n=30 and 40)
MESH_BYTES_PER_TET = 700


def _available_memory():
    """MemAvailable of /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def build_mesh(spec: dict):
    """The mesh of a checked ``RunConfig.mesh_spec``.

    A generated mesh whose estimated generation peak exceeds the available
    memory is refused with ``MemoryError`` before any work, instead of being
    killed by the kernel part way.
    """
    if "path" in spec:
        try:
            return load_mesh(spec["path"])
        except OSError as exc:
            raise ConfigError(f"cannot read mesh {spec['path']}: {exc}") from exc
    cube = spec["kind"] == "cube"
    with np.errstate(over="ignore"):     # an estimate beyond the float range is inf
        n_tets = 6.0 * np.float64(spec["n"]) ** 3 if cube else 8.0 ** np.float64(spec["level"] + 2)
    available = _available_memory()
    if available is not None and n_tets * MESH_BYTES_PER_TET > available:
        raise MemoryError(
            f"a {spec['kind']} mesh of {n_tets:.3g} tets needs about "
            f"{n_tets * MESH_BYTES_PER_TET / 2**30:.3g} GiB to generate; "
            f"{available / 2**30:.3g} GiB available")
    return generate_cube_mesh(spec["n"]) if cube else generate_ball_mesh(spec["level"])


def _diagnosed_pencil(cfg: RunConfig, mesh):
    """The config's pencil on ``mesh``, its diagnostic value, and the report
    head that solve_meta.json and diagnostics.json share (fields, validation,
    diagnostic)."""
    mu, eps = (build_field(mesh, name, cfg.materials[name], cfg.perturbations, cfg.omega)
               for name in FIELD_NAMES)
    problem = Problem(cfg.problem, mesh, cfg.omega)
    pencil = problem.assemble(mu, eps)
    sigma_min = float(problem.diagnostic(pencil))
    diag = {**problem.diagnostic_info(), "sigma_min": sigma_min,
            "threshold": cfg.diag_threshold, "passed": bool(sigma_min >= cfg.diag_threshold)}
    head = {
        "problem": cfg.problem,
        "omega": cfg.omega,
        "mesh": mesh.summary(),
        "materials": {fld.name: fld.report for fld in (mu, eps)},
        "diagnostics": diag,
    }
    return pencil, sigma_min, head


def _json_safe(x):
    """``x`` as JSON data, the one encoder of every report: a dataclass as
    its fields (under a field's ``metadata["json"]`` name where one is given),
    a complex number as ``{"re", "im"}``, an array as a list, every dict key as
    a string, and every non-finite float as None, written as null."""
    if is_dataclass(x):
        return {f.metadata.get("json", f.name): _json_safe(getattr(x, f.name))
                for f in fields(x)}
    if isinstance(x, complex):
        return {"re": _json_safe(x.real), "im": _json_safe(x.imag)}
    if isinstance(x, dict):
        return {str(key): _json_safe(v) for key, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_json_safe(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(_json_safe(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path, rows):
    """``rows[0]`` is the header; see ``_cell`` for the cell format."""
    with open(path, "w", newline="") as fh:
        for row in rows:
            fh.write(",".join(_cell(c) for c in row) + "\n")


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #

def cmd_mesh(args) -> int:
    mesh = build_mesh({"kind": args.kind, "n": args.n, "level": args.level})
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "mesh.json"
    save_mesh(mesh, path)
    print(f"wrote {path} ({mesh.n_vertices} vertices, {mesh.n_tets} tets)")
    return 0


def cmd_solve(cfg: RunConfig, mesh, out: Path) -> int:
    pencil, sigma_min, meta = _diagnosed_pencil(cfg, mesh)
    meta["solver"] = {"sigma": cfg.sigma, "k": cfg.k, "tol": cfg.tol, "seed": cfg.seed}
    if not meta["diagnostics"]["passed"]:
        _write_json(out / "solve_meta.json", meta)
        raise AssumptionViolation(
            f"well-posedness diagnostic {sigma_min:.3e} below threshold "
            f"{cfg.diag_threshold:.1e}; no eigenvalue table emitted"
        )

    result = solve_shift_invert(pencil.a0, pencil.B, cfg.sigma, cfg.k, tol=cfg.tol, seed=cfg.seed)
    if len(result) == 0:
        raise SolverFailure("no eigenvalue converged at the requested tolerance")
    labels, means = cluster(result.eigenvalues, cfg.cluster_reltol)
    sizes = np.bincount(labels)[labels]

    radius = cfg.census_radius
    if radius is None:
        radius = 10.0 * float(np.median(np.abs(result.eigenvalues)))
    census = sector_census(result.eigenvalues, cfg.census_delta, radius)

    csv_path = out / "eigenvalues.csv"
    _write_csv(csv_path, [["index", "re", "im", "residual", "cluster_id", "cluster_size"]] + [
        [i, lam.real, lam.imag, result.residuals[i], labels[i], sizes[i]]
        for i, lam in enumerate(result.eigenvalues)
    ])

    meta["census"] = census
    meta["solver"].update({key: result.meta[key] for key in (
        "converged", "iterations", "partial", "confirmed", "exhausted", "sweeps", "schur_defect")})
    meta["cluster_means"] = means
    _write_json(out / "solve_meta.json", meta)
    print(f"wrote {csv_path} ({len(result)} eigenvalues)")
    return 0


def cmd_study(cfg: RunConfig, mesh, out: Path) -> int:
    report = run_study(cfg, mesh)
    _write_json(out / "study_report.json", report)
    csv_path = out / "study_summary.csv"
    _write_csv(csv_path, report.csv_rows())
    print(f"wrote {csv_path} ({len(report.steps)} steps)")
    return 0


def cmd_diagnose(cfg: RunConfig, mesh, out: Path) -> int:
    try:
        _, sigma_min, doc = _diagnosed_pencil(cfg, mesh)
    except AssumptionViolation as exc:
        # field-level failure (build_field refuses an invalid field): still
        # emit a report with what we know
        doc = {"problem": cfg.problem, "passed": False, "failures": [str(exc)]}
        _write_json(out / "diagnostics.json", doc)
        raise

    doc["passed"] = doc["diagnostics"]["passed"]
    doc["failures"] = [] if doc["passed"] else [
        f"well-posedness diagnostic {sigma_min:.3e} below threshold {cfg.diag_threshold:.1e}"
    ]
    _write_json(out / "diagnostics.json", doc)
    if not doc["passed"]:
        raise AssumptionViolation(doc["failures"][0])
    print(f"diagnostics passed (sigma_min = {sigma_min:.3e})")
    return 0


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #

class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is a config error, not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _parser():
    ap = _ArgumentParser(prog="steklovlab", description="Steklov eigenvalue laboratory")
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
    return ap


_ERROR_KINDS = [
    (ConfigError, "config-error", 1),
    (MalformedMeshError, "malformed-mesh", 1),
    (AssumptionViolation, "assumption-violation", 2),
    (SolverFailure, "solver-failure", 3),
    (np.linalg.LinAlgError, "solver-failure", 3),   # a ValueError subclass
    (MemoryError, "out-of-memory", 3),
    (ValueError, "invalid-argument", 1),
]


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with one_blas_thread():
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
    cfg = _config(args)
    mesh = build_mesh(cfg.mesh_spec)    # a missing mesh file leaves no directory behind
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    command = {"solve": cmd_solve, "study": cmd_study, "diagnose": cmd_diagnose}[args.command]
    return command(cfg, mesh, out)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
