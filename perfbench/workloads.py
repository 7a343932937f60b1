"""Workload definitions: generated configs, correctness gates and output hashes.

Each workload is one or more ``steklovlab`` CLI invocations whose configs are
generated from a solver seed (it becomes ``solver.seed``).  A gate reads
the files the CLI wrote and returns a list of failures; an empty list means
the run's outputs are correct.  Gate tolerances are stated next to each gate.

Mesh sizes are one level below the acceptance-criteria meshes so that a run
repeats each workload several times inside the benchmark's time budget; the
analytic tolerances below are set for these meshes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ABSORBING_EPS = {"re": 4.0, "im": 1.0}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``steklovlab <command> --config <name>.json --output <name>``."""

    name: str
    command: str
    config: dict

    def argv(self, rep_dir: Path):
        return [self.command, "--config", str(rep_dir / f"{self.name}.json"),
                "--output", str(rep_dir / self.name)]

    def outputs(self):
        if self.command == "solve":
            return ("eigenvalues.csv", "solve_meta.json")
        return ("study_summary.csv", "study_report.json")


@dataclass(frozen=True)
class Workload:
    name: str
    build: object                 # (seed, size) -> list[Invocation]
    check: object                 # (rep_dir, invocations) -> list[str]
    size: int                     # ball refinement level or cube subdivisions

    def invocations(self, seed: int):
        return self.build(int(seed), self.size)


# --------------------------------------------------------------------- #
# output parsing shared by the gates
# --------------------------------------------------------------------- #

def _read_eigen_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lam = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    res = np.array([float(r["residual"]) for r in rows])
    ids = np.array([int(r["cluster_id"]) for r in rows])
    sizes = np.array([int(r["cluster_size"]) for r in rows])
    return lam, res, ids, sizes


def _clusters(lam, ids):
    """Cluster id -> (mean, size), computed from the CSV rows."""
    return {int(c): (complex(lam[ids == c].mean()), int(np.sum(ids == c))) for c in np.unique(ids)}


def check_solve_outputs(out: Path, k: int, tol: float):
    """Gates every solve shares; returns (failures, cluster table)."""
    lam, res, ids, sizes = _read_eigen_csv(out / "eigenvalues.csv")
    meta = json.loads((out / "solve_meta.json").read_text())
    fails = []
    if len(lam) != k:
        fails.append(f"{len(lam)} eigenpairs, expected {k}")
    if not np.all(np.isfinite(lam)) or not np.all(res <= tol):
        fails.append(f"residual certificate above tol {tol:g} (max {res.max():.3e})")
    if not meta["diagnostics"]["passed"]:
        fails.append("well-posedness diagnostic did not pass")
    if meta["solver"]["converged"] != len(lam):
        fails.append("solve_meta converged count disagrees with eigenvalues.csv")
    table = _clusters(lam, ids)
    # the CSV and the metadata are written from the same values: a cluster
    # mean recomputed from the CSV must match the metadata to rounding
    means = [complex(m["re"], m["im"]) for m in meta["cluster_means"]]
    if len(means) != len(table):
        fails.append("cluster count differs between eigenvalues.csv and solve_meta.json")
    else:
        for c, (mean, size) in table.items():
            if abs(mean - means[c]) > 1e-12 * max(1.0, abs(means[c])):
                fails.append(f"cluster {c}: CSV mean {mean} != metadata mean {means[c]}")
    for c, (_, size) in table.items():
        if np.any(sizes[ids == c] != size):
            fails.append(f"cluster {c}: cluster_size column disagrees with its {size} rows")
    return fails, table


# --------------------------------------------------------------------- #
# W1: scalar Steklov spectrum of the unit ball
# --------------------------------------------------------------------- #

def scalar_ball_configs(seed, level):
    return [Invocation("solve", "solve", {
        "problem": "scalar",
        "mesh": {"kind": "ball", "level": level},
        "omega": 0.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": 1.0}},
        "solver": {"sigma_re": 1.5, "k": 17, "tol": 1e-9, "seed": seed, "cluster_reltol": 0.05},
    })]


# Exact ball spectrum: eigenvalue l with multiplicity 2l + 1.  Allowed
# relative error of a cluster mean: criterion 1 asks 5% on level 3; level 2
# carries 0.5% (l=1), 4.2% (l=2) and 10.5% (l=3) discretization error.
BALL_SPECTRUM = ((0, 1), (1, 3), (2, 5), (3, 7))
BALL_REL_ERR = 0.12


def check_scalar_ball(rep_dir, invocations):
    inv = invocations[0]
    cfg = inv.config["solver"]
    fails, table = check_solve_outputs(rep_dir / inv.name, cfg["k"], cfg["tol"])
    clusters = sorted(table.values(), key=lambda ms: ms[0].real)
    if len(clusters) < len(BALL_SPECTRUM):
        return fails + [f"only {len(clusters)} clusters"]
    for (mean, size), (exact, mult) in zip(clusters, BALL_SPECTRUM):
        if size != mult:
            fails.append(f"lambda={exact}: multiplicity {size} != {mult}")
        if exact == 0:
            if abs(mean) > 1e-8 * BALL_SPECTRUM[-1][0]:
                fails.append(f"lambda=0 off by {abs(mean):.2e}")
        elif abs(mean - exact) / exact > BALL_REL_ERR:
            fails.append(f"lambda={exact}: relative error {abs(mean - exact) / exact:.3%} "
                         f"> {BALL_REL_ERR:.0%}")
    return fails


# --------------------------------------------------------------------- #
# W2: modified-Maxwell pencil on the unit ball
# --------------------------------------------------------------------- #

def maxwell_ball_configs(seed, level):
    return [Invocation("solve", "solve", {
        "problem": "maxwell",
        "mesh": {"kind": "ball", "level": level},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": ABSORBING_EPS}},
        "solver": {"sigma_re": 2.3, "k": 12, "tol": 1e-10, "seed": seed},
    })]


# Double eigenvalues of the level-1 pencil, to the 4 decimals given; each
# must come out as one cluster of size 2 (a solver that drops a copy fails).
MAXWELL_BALL_DOUBLES = (2.7998 - 0.1855j, 1.2277 - 0.2409j, 5.0052 - 0.1743j)


def check_maxwell_ball(rep_dir, invocations):
    inv = invocations[0]
    cfg = inv.config["solver"]
    fails, table = check_solve_outputs(rep_dir / inv.name, cfg["k"], cfg["tol"])
    for lam in MAXWELL_BALL_DOUBLES:
        hits = [size for mean, size in table.values() if abs(mean - lam) < 1e-4]
        if hits != [2]:
            fails.append(f"double eigenvalue {lam}: cluster sizes {hits}, expected [2]")
    return fails


# --------------------------------------------------------------------- #
# W3: perturbation studies (criterion 6) on the unit cube
# --------------------------------------------------------------------- #

STUDY_RADII = (0.42, 0.34, 0.26, 0.18)
STUDY_DELTAS = (4e-3, 2e-3, 1e-3)
BOUND_SLACK = 1e-6          # bound_ratio_max <= 1 + BOUND_SLACK for each p
PREDICTION_REL_ERR = 0.20   # first-order prediction error at the smallest delta


def cube_study_configs(seed, n):
    def study(schedule, p_list):
        return {
            "problem": "maxwell",
            "mesh": {"kind": "cube", "n": n},
            "omega": 1.0,
            "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": ABSORBING_EPS}},
            "solver": {"sigma_re": 2.3, "k": 8, "tol": 1e-11, "seed": seed},
            "study": {"target": "eps", "center": [0.5, 0.5, 0.5],
                      "schedule": schedule, "p_list": p_list},
        }

    return [
        Invocation("study_radii", "study",
                   study([{"h": h, "delta_im": 1e-3} for h in STUDY_RADII], [2, 4, 8])),
        Invocation("study_delta", "study",
                   study([{"h": 0.42, "delta_im": d} for d in STUDY_DELTAS], [4])),
    ]


def _cx(d):
    return complex(d["re"], d["im"])


def check_study_outputs(out: Path):
    """Gates every study shares; returns (failures, study report)."""
    report = json.loads((out / "study_report.json").read_text())
    with open(out / "study_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fails = [f"step h={s['h']} delta={s['delta']}: status {s['status']}"
             for s in report["steps"] if s["status"] != "ok"]
    if len(rows) != len(report["steps"]):
        fails.append("study_summary.csv and study_report.json list different steps")
    for row, step in zip(rows, report["steps"]):
        if row["status"] != step["status"] or float(row["drift"]) != step["drift"]:
            fails.append(f"study_summary.csv row {row['index']} disagrees with study_report.json")
    return fails, report


def check_cube_study(rep_dir, invocations):
    radii, deltas = invocations
    fails, rep_a = check_study_outputs(rep_dir / radii.name)
    norms = [s["norms"]["eps"]["2.0"] for s in rep_a["steps"]]
    if len(set(norms)) != len(norms):
        fails.append("radii do not give distinct element-resolved volumes")
    for p in ("2.0", "4.0", "8.0"):
        fit = rep_a["fits"].get(p)
        if fit is None:
            fails.append(f"p={p}: no fit")
        elif fit["bound_ratio_max"] > 1.0 + BOUND_SLACK:
            fails.append(f"p={p}: bound violated, ratio {fit['bound_ratio_max']:.8f}")

    fails_b, rep_b = check_study_outputs(rep_dir / deltas.name)
    fails += fails_b
    if fails_b:
        return fails
    lam0 = _cx(rep_b["lambda0"])
    smallest = min(rep_b["steps"], key=lambda s: abs(_cx(s["delta"])))
    rel = abs((_cx(smallest["lambda"]) - lam0) - _cx(smallest["predicted"])) / smallest["drift"]
    if rel > PREDICTION_REL_ERR:
        fails.append(f"prediction error {rel:.2%} > {PREDICTION_REL_ERR:.0%} at smallest delta")
    return fails


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

# Why each workload (the one-line reasons are repeated in BENCHMARK.json):
# - scalar-ball-l2: the eigensolver Krylov loop is most of the run and
#   fem_maxwell is never called, so solver, ordering and thread-policy changes
#   show here and a kernel-diagnostic change should read "no change".
# - maxwell-ball-l1: the dense kernel basis + SVD diagnostic is about a third
#   of the CLI time, next to a solve that must keep three double eigenvalues.
# - maxwell-cube-study: nine small reassemble -> diagnose -> factor -> solve
#   cycles at a moving shift instead of one large solve, so per-call set-up,
#   per-study caching and materials work show, and a change that speeds one
#   big solve but adds per-call cost shows up as a regression.
WORKLOADS = {w.name: w for w in (
    Workload("scalar-ball-l2", scalar_ball_configs, check_scalar_ball, 2),
    Workload("maxwell-ball-l1", maxwell_ball_configs, check_maxwell_ball, 1),
    Workload("maxwell-cube-study", cube_study_configs, check_cube_study, 4),
)}


def check(workload: Workload, rep_dir: Path, invocations):
    """Run the workload's gate; a missing or unparsable output is a failure."""
    for inv in invocations:
        for fname in inv.outputs():
            if not (rep_dir / inv.name / fname).is_file():
                return [f"{inv.name}: missing {fname}"]
    try:
        return workload.check(rep_dir, invocations)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def output_hashes(rep_dir: Path, invocations):
    """sha256 of every output file the determinism gate compares."""
    hashes = {}
    for inv in invocations:
        for fname in inv.outputs():
            path = rep_dir / inv.name / fname
            if path.is_file():
                hashes[f"{inv.name}/{fname}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def mesh_size(rep_dir: Path, invocations):
    inv = invocations[0]
    out = rep_dir / inv.name
    if inv.command == "solve":
        mesh = json.loads((out / "solve_meta.json").read_text())["mesh"]
    else:
        mesh = json.loads((out / "study_report.json").read_text())["meta"]["mesh"]
    return {"kind": mesh["kind"], "vertices": mesh["vertices"], "edges": mesh["edges"]}
