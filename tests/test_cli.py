import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import _blas, cli, eigensolver, fem_scalar
from steklovlab.cli import run
from steklovlab.eigensolver import solve_shift_invert
from steklovlab.errors import ConfigError
from steklovlab.fem_scalar import assemble_scalar
from steklovlab.materials import build_field
from steklovlab.mesh import generate_cube_mesh, save_mesh


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_ball_config(sigma=1.5, level=1, eps=1.0, omega=0.0, seed=0):
    return {
        "problem": "scalar",
        "mesh": {"kind": "ball", "level": level},
        "omega": omega,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": eps}},
        "solver": {"sigma_re": sigma, "k": 18, "tol": 1e-9, "seed": seed,
                   "cluster_reltol": 0.05},
    }


def test_mesh_command(tmp_path):
    assert run(["mesh", "--kind", "cube", "--n", "2", "--output", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "mesh.json").read_text())
    assert doc["version"] == 1
    assert len(doc["tets"]) == 48


def test_mesh_command_invalid_n(tmp_path, capsys):
    code = run(["mesh", "--kind", "cube", "--n", "0", "--output", str(tmp_path)])
    assert code == 1
    assert "error: invalid-argument" in capsys.readouterr().err


def test_solve_scalar_ball(tmp_path, capsys):
    cfg = write_config(tmp_path, scalar_ball_config())
    out = tmp_path / "run"
    assert run(["solve", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "index,re,im,residual,cluster_id,cluster_size"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 18
    meta = json.loads((out / "solve_meta.json").read_text())
    assert meta["diagnostics"]["passed"]
    assert "census" in meta
    assert meta["census"]["outside"] == 0      # real eps: spectrum on the real axis
    # smallest cluster means approximate the sphere harmonics ladder 0,1,2,3
    means = sorted((m["re"] for m in meta["cluster_means"]))
    assert abs(means[0]) < 0.05
    assert means[1] == pytest.approx(1.0, abs=0.2)
    # the solver history: per sweep applies, locked pairs and stop reason
    solver = meta["solver"]
    sweeps = solver["sweeps"]
    assert sum(s["applies"] for s in sweeps) == solver["iterations"]
    assert sum(s["locked"] for s in sweeps) >= solver["converged"] == 18
    assert [s["stop"] for s in sweeps] == ["certified"] * (len(sweeps) - 1) + ["spectral"]
    assert all(s["discarded_infinite"] >= 0 for s in sweeps)
    assert solver["confirmed"] is True and solver["partial"] is False
    assert 0.0 <= solver["schur_defect"] <= 1e-12


def test_solve_meta_solver_block_keys(tmp_path):
    # the config's solver settings plus the solve's record: a key the solver
    # stops returning must not drop out of the report with it
    doc = scalar_ball_config(level=0)
    doc["solver"]["k"] = 4
    out = tmp_path / "run"
    assert run(["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 0
    solver = json.loads((out / "solve_meta.json").read_text())["solver"]
    assert sorted(solver) == ["confirmed", "converged", "exhausted", "iterations", "k", "partial",
                              "schur_defect", "seed", "sigma", "sweeps", "tol"]
    assert all(sorted(s) == ["applies", "discarded_infinite", "locked", "stop"]
               for s in solver["sweeps"])


def test_solve_reports_unconfirmed_answer(tmp_path, monkeypatch):
    # a Krylov cap of 12 lets the sweeps lock k = 4 pairs, but the last sweep
    # runs out of space before it can settle, so the 4 nearest are unconfirmed
    monkeypatch.setattr(eigensolver, "CHECKPOINT", 2)
    monkeypatch.setattr(eigensolver, "MAX_KRYLOV", 12)
    doc = scalar_ball_config(sigma=0.7)
    doc["solver"]["k"] = 4
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert run(["solve", "--config", cfg, "--output", str(out)]) == 0
    solver = json.loads((out / "solve_meta.json").read_text())["solver"]
    assert solver["converged"] == 4
    assert solver["partial"] is False
    assert solver["sweeps"][-1]["stop"] == "budget"
    assert solver["confirmed"] is False


def test_solve_determinism(tmp_path):
    cfg = write_config(tmp_path, scalar_ball_config(seed=3))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", cfg, "--output", str(out1), "--seed", "3"]) == 0
    assert run(["solve", "--config", cfg, "--output", str(out2), "--seed", "3"]) == 0
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()
    assert (out1 / "solve_meta.json").read_bytes() == (out2 / "solve_meta.json").read_bytes()


def test_diagnose_negative_eps_fails(tmp_path, capsys):
    doc = scalar_ball_config(eps=-1.0)
    cfg = write_config(tmp_path, doc)
    code = run(["diagnose", "--config", cfg, "--output", str(tmp_path / "d")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: assumption-violation" in err


def test_diagnose_scalar_cube_one_interior_vertex(tmp_path):
    doc = {**scalar_ball_config(), "mesh": {"kind": "cube", "n": 2}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "d"
    assert run(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    # the 1 x 1 block at omega = 0 in the H^1 norm: K_cc / (K_cc + M_cc)
    mesh = generate_cube_mesh(2)
    pencil = assemble_scalar(mesh, build_field(mesh, "mu_inv", {1: 1.0}),
                             build_field(mesh, "eps", {1: 1.0}), 0.0)
    (c,) = pencil.mesh.interior_vertex_ids
    k_cc, m_cc = pencil.K[c, c], pencil.M[c, c].real
    assert doc["diagnostics"]["sigma_min"] == pytest.approx(k_cc / (k_cc + m_cc), rel=1e-14)


def _strict_json(path):
    """The JSON document at ``path``; NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{path} holds the non-standard constant {name}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_diagnose_scalar_cube_no_interior_vertex_writes_null(tmp_path):
    doc = {**scalar_ball_config(), "mesh": {"kind": "cube", "n": 1}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "d"
    assert run(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    doc = _strict_json(out / "diagnostics.json")
    assert doc["diagnostics"]["sigma_min"] is None
    # a study whose baseline has one cluster has an infinite guard radius
    cli._write_json(tmp_path / "report.json", {"guard_radius": np.inf, "fits": [np.nan, 1.5]})
    assert _strict_json(tmp_path / "report.json") == {"guard_radius": None, "fits": [None, 1.5]}

    # the one encoder: dataclasses (nested, renamed by metadata["json"]),
    # complex numbers and arrays of them, float dict keys
    @dataclass
    class Step:
        lam: complex = field(default=2 - 0.5j, metadata={"json": "lambda"})
        norms: dict = field(default_factory=lambda: {2.0: 0.5, 10.0: np.inf})

    @dataclass
    class Report:
        c: complex
        steps: list

    cli._write_json(tmp_path / "report.json", {
        "report": Report(complex(np.inf, 1.0), [Step()]),
        "means": np.array([1 + 1j, -2j]),
    })
    assert _strict_json(tmp_path / "report.json") == {
        "report": {"c": {"re": None, "im": 1.0},
                   "steps": [{"lambda": {"re": 2.0, "im": -0.5},
                              "norms": {"2.0": 0.5, "10.0": None}}]},
        "means": [{"re": 1.0, "im": 1.0}, {"re": 0.0, "im": -2.0}],
    }


def test_diagnose_scalar_two_cubes_from_mesh_path(tmp_path, capsys, two_cubes):
    # one interior vertex per cube: the diagnostic's block is 2 x 2
    save_mesh(two_cubes, tmp_path / "two_cubes.json")
    doc = {**scalar_ball_config(), "mesh": {"path": str(tmp_path / "two_cubes.json")}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "d"
    assert run(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert _strict_json(out / "diagnostics.json")["diagnostics"]["sigma_min"] > 0


def test_diagnose_passes(tmp_path):
    cfg = write_config(tmp_path, scalar_ball_config(eps={"re": 2.0, "im": 1.0}, omega=1.0))
    out = tmp_path / "d"
    assert run(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["passed"]
    assert doc["materials"]["eps"]["coercivity_min"] == pytest.approx(2.0)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "nope"})
    assert run(["solve", "--config", cfg, "--output", str(tmp_path)]) == 1
    assert "error: config-error" in capsys.readouterr().err


def test_config_maxwell_omega_zero_rejected(tmp_path):
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 0.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": 1.0}},
    }
    cfg = write_config(tmp_path, doc)
    assert run(["solve", "--config", cfg, "--output", str(tmp_path)]) == 1


def test_missing_config_file(tmp_path, capsys):
    assert run(["solve", "--config", str(tmp_path / "nope.json"), "--output", str(tmp_path)]) == 1


def test_solve_maxwell_cube(tmp_path):
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 5, "tol": 1e-9},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "mx"
    assert run(["solve", "--config", cfg, "--output", str(out)]) == 0
    meta = json.loads((out / "solve_meta.json").read_text())
    assert meta["diagnostics"]["kind"] == "kernel_subspace"
    assert meta["diagnostics"]["unspanned_kernel_dim"] >= 0
    lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert len(lines) == 6


def test_solve_validates_each_field_once(tmp_path, monkeypatch):
    # build_field keeps its validation report; the run reports it, not a second check
    from steklovlab import materials
    calls = []
    real = materials.validate

    def counted(fld, omega=None):
        calls.append(fld.name)
        return real(fld, omega)

    monkeypatch.setattr(materials, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 5, "tol": 1e-9},
    }
    out = tmp_path / "mx"
    assert run(["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 0
    assert sorted(calls) == ["eps", "mu_inv"]
    reports = json.loads((out / "solve_meta.json").read_text())["materials"]
    assert reports["eps"]["conductivity_min"] == pytest.approx(1.0)
    assert reports["mu_inv"]["conductivity_min"] is None


@pytest.mark.parametrize("problem", ["scalar", "maxwell"])
def test_orphan_vertex_is_malformed_mesh(tmp_path, capsys, problem):
    # cube n=2 plus a vertex that no tet uses
    path = tmp_path / "orphan.json"
    save_mesh(generate_cube_mesh(2), path)
    mesh_doc = json.loads(path.read_text())
    mesh_doc["vertices"].append([5.0, 5.0, 5.0])
    path.write_text(json.dumps(mesh_doc))
    doc = {
        "problem": problem,
        "mesh": {"path": str(path)},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 5, "tol": 1e-9},
    }
    out = tmp_path / "out"
    assert run(["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: malformed-mesh: a vertex belongs to no tet"]
    assert not out.exists()


@pytest.mark.parametrize("problem", ["scalar", "maxwell"])
@pytest.mark.parametrize("field, value", [("tets", 0.6), ("region", 0.9)])
def test_fractional_mesh_integer_is_malformed_mesh(tmp_path, capsys, problem, field, value):
    # cube n=2 with tets[0][0] or region[0] moved off its integer; truncation
    # would give back the valid mesh
    path = tmp_path / "fractional.json"
    save_mesh(generate_cube_mesh(2), path)
    mesh_doc = json.loads(path.read_text())
    if field == "tets":
        mesh_doc["tets"][0][0] += value
    else:
        mesh_doc["region"][0] += value
    path.write_text(json.dumps(mesh_doc))
    doc = {
        "problem": problem,
        "mesh": {"path": str(path)},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 5, "tol": 1e-9},
    }
    out = tmp_path / "out"
    assert run(["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: malformed-mesh: mesh file '{field}' holds a non-integer value")
    assert not out.exists()


class Twice(NamedTuple):
    """A second entry of a top-level key, written after its first."""
    value: object


_ABSENT = object()      # the entry is taken out


# (keys of the mesh-file entry, its new value, the message after
# "error: malformed-mesh: ", where "{path}" stands for the file's path); no
# keys replace the whole document; "INF" is written as the JSON number 1e400,
# which reads as inf
MALFORMED_MESH_FILES = {
    "tets-null": (["tets"], None, "mesh file 'tets' is not an array of numbers"),
    "tets-object": (["tets"], {"a": 1}, "mesh file 'tets' is not an array of numbers"),
    "region-null": (["region"], None, "mesh file 'region' is not an array of numbers"),
    "vertices-null": (["vertices"], None, "mesh file 'vertices' is not an array of numbers"),
    "vertices-ragged": (["vertices", 0], [0.0, 0.0],
                        "mesh file 'vertices' is not a rectangular array"),
    "tet-index-1e30": (["tets", 0, 0], 10**30, "mesh file 'tets' holds an integer outside int64"),
    "tet-index-2^63": (["tets", 0, 0], 2**63, "mesh file 'tets' holds an integer outside int64"),
    "region-float-1e30": (["region", 0], 1e30,
                          "mesh file 'region' holds an integer outside int64"),
    "region-1e400": (["region", 0], "INF", "mesh file 'region' holds a non-finite value inf"),
    "kind-5": (["kind"], 5, "mesh file 'kind' must be cube, ball or generic, got 5"),
    "version-true": (["version"], True, "mesh file 'version' must be the integer 1, got True"),
    "version-1.0": (["version"], 1.0, "mesh file 'version' must be the integer 1, got 1.0"),
    # finite coordinates whose volumes overflow
    "vertices-1e200": (["vertices"], (generate_cube_mesh(2).vertices * 1e200).tolist(),
                       "tet 0 has non-finite volume inf"),
    # finite volumes, but a scale whose powers leave the float range
    "vertices-1e100": (["vertices"], (generate_cube_mesh(2).vertices * 1e100).tolist(),
                       "mesh scale 1.000e+100 (largest bounding-box side) outside [1e-30, 1e+30]"),
    "vertices-1e-100": (["vertices"], (generate_cube_mesh(2).vertices * 1e-100).tolist(),
                        "mesh scale 1.000e-100 (largest bounding-box side) outside [1e-30, 1e+30]"),
    # json keeps the last of two entries: the run would go on with a ball
    "kind-twice": (["kind"], Twice("ball"), "{path} repeats key 'kind' in one object"),
    # a boolean counts as 0 or 1 in an array of numbers: tet [1, 9, 12, 13]
    "tet-index-true": (["tets", 0, 0], True, "mesh file 'tets' is not an array of numbers"),
    "region-true": (["region", 0], True, "mesh file 'region' is not an array of numbers"),
    "vertex-true": (["vertices", -1, 0], True, "mesh file 'vertices' is not an array of numbers"),
    "version-2": (["version"], 2, "mesh file 'version' must be the integer 1, got 2"),
    "region-missing": (["region"], _ABSENT, "mesh file missing 'region'"),
    "root-list": ([], [1], "mesh file {path} is not a JSON object"),
    # a misspelled "kind" would run as generic and refine a ball without re-projection
    "unknown-key": (["knd"], "ball", "mesh file has unknown key 'knd'"),
    "tet-index-27": (["tets", 0, 0], 27, "tet vertex index out of range"),
    # tets[0] is [0, 9, 12, 13]: two indices swapped invert it
    "tet-inverted": (["tets", 0], [0, 9, 13, 12], "tet 0 has non-positive volume -2.083e-02"),
    "tets-3-columns": (["tets"], generate_cube_mesh(2).tets[:, :3].tolist(),
                       "tets must be (T, 4), got (48, 3)"),
    "region-short": (["region"], [1] * 47, "region tag array must have one entry per tet"),
    "vertices-2-columns": (["vertices"], generate_cube_mesh(2).vertices[:, :2].tolist(),
                           "vertices must be (V, 3), got (27, 2)"),
}


@pytest.mark.filterwarnings("error")        # a numpy warning is a second stderr line
@pytest.mark.parametrize("case", list(MALFORMED_MESH_FILES))
def test_malformed_mesh_file_is_one_error_line(tmp_path, capsys, case):
    keys, value, message = MALFORMED_MESH_FILES[case]
    path = tmp_path / "malformed.json"
    save_mesh(generate_cube_mesh(2), path)
    mesh_doc = json.loads(path.read_text())
    entry = mesh_doc
    for key in keys[:-1]:
        entry = entry[key]
    if not keys:
        mesh_doc = value
    elif value is _ABSENT:
        del entry[keys[-1]]
    elif not isinstance(value, Twice):
        entry[keys[-1]] = value
    text = json.dumps(mesh_doc).replace('"INF"', "1e400")
    if isinstance(value, Twice):
        text = f"{text[:-1]}, {json.dumps(keys[0])}: {json.dumps(value.value)}}}"
    path.write_text(text)
    doc = {
        "problem": "scalar",
        "mesh": {"path": str(path)},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 0.5, "k": 5, "tol": 1e-9},
    }
    out = tmp_path / "out"
    assert run(["solve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: malformed-mesh: {message.format(path=path)}"]
    assert not out.exists()


# mesh files of two positive tets whose boundary is not a Lipschitz surface:
# name -> (vertices, tets, the message after "error: malformed-mesh: ")
PINCHED_MESHES = {
    # the tets share only the edge (0, 1): the surface is not closed
    "edge": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]],
             [[0, 1, 2, 3], [0, 1, 4, 5]], "boundary surface is not closed"),
    # the tets share only vertex 0: closed, but two fans meet there
    "vertex": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
               [[0, 1, 2, 3], [0, 4, 6, 5]], "boundary surface is pinched at a vertex"),
}


@pytest.mark.parametrize("problem, pinch", [
    ("scalar", "edge"), ("scalar", "vertex"), ("maxwell", "edge"), ("maxwell", "vertex"),
], ids=["scalar", "scalar-vertex", "maxwell", "maxwell-vertex"])
@pytest.mark.parametrize("command", ["solve", "diagnose", "study"])
def test_pinched_mesh_file_is_refused_before_any_output(tmp_path, capsys, problem, command, pinch):
    vertices, tets, message = PINCHED_MESHES[pinch]
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({"version": 1, "vertices": vertices, "tets": tets,
                                "region": [1, 1]}))
    doc = {**_CUBE_STUDY, "problem": problem, "mesh": {"path": str(path)}}
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, doc), "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: malformed-mesh: {message}"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("problem, scale", [
    ("maxwell", 1e100), ("maxwell", 1e-100),
    ("scalar", 1e3), ("scalar", 1e-3), ("maxwell", 1e3), ("maxwell", 1e-3),
])
def test_mesh_scale_is_checked_against_the_float_range(tmp_path, capsys, problem, scale):
    path = tmp_path / "scaled.json"
    save_mesh(generate_cube_mesh(2), path)
    mesh_doc = json.loads(path.read_text())
    mesh_doc["vertices"] = (np.array(mesh_doc["vertices"]) * scale).tolist()
    path.write_text(json.dumps(mesh_doc))
    doc = {
        "problem": problem,
        "mesh": {"path": str(path)},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3 if problem == "maxwell" else 0.5, "k": 5, "tol": 1e-9},
    }
    code = run(["solve", "--config", write_config(tmp_path, doc), "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    if 1e-30 <= scale <= 1e30:
        assert (code, err) == (0, [])
    else:
        assert code == 1
        assert err == [f"error: malformed-mesh: mesh scale {scale:.3e} (largest bounding-box "
                       "side) outside [1e-30, 1e+30]"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_config_example():
    """The text of README's config example (the jsonc block after "Config
    schema") and its JSON data with the comments taken out."""
    text = README.read_text().split("### Config schema", 1)[1]
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    return block, json.loads(re.sub(r"//.*", "", block))


def _known_key_tuples():
    """Each tuple of key names a ``_known`` or ``_section`` call in cli.py
    names: a tuple literal in its arguments, or a name bound to one."""
    import ast
    tree = ast.parse(Path(cli.__file__).read_text())
    tuples = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {t.id: node.value for node in ast.walk(func) if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in ("_known", "_section")):
                continue
            for node in (n for arg in call.args[2:] for n in ast.walk(arg)):
                if isinstance(node, ast.Name) and node.id in bound:
                    node = bound[node.id]
                elif isinstance(node, ast.Name) and isinstance(getattr(cli, node.id, None), tuple):
                    tuples.append(getattr(cli, node.id))
                    continue
                if isinstance(node, ast.Tuple) and all(
                        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                    tuples.append(tuple(e.value for e in node.elts))
    return tuples


def test_readme_config_example_matches_the_reader():
    # the example is a config the reader accepts, and it names every key a
    # section reader reads
    block, doc = _readme_config_example()
    cli._run_config(doc)
    tuples = _known_key_tuples()
    assert len(tuples) >= 10
    missing = sorted({key for keys in tuples for key in keys if f'"{key}"' not in block})
    assert missing == []


def test_study_command(tmp_path):
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 3},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 6, "tol": 1e-11},
        "study": {
            "target": "eps",
            "center": [0.5, 0.5, 0.5],
            "schedule": [{"h": 0.45, "delta_im": 2e-3}, {"h": 0.45, "delta_im": 1e-3}],
            "p_list": [2, 4],
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "study"
    assert run(["study", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "study_report.json").read_text())
    assert report["cluster_size"] >= 1
    assert len(report["steps"]) == 2
    csv_lines = (out / "study_summary.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("index,h,delta_re,delta_im,status")
    assert len(csv_lines) == 3


def test_study_passes_krylov_sizes_to_every_solve(tmp_path, monkeypatch):
    # one Krylov sweep per solve leaves the baseline's k = 8 nearest
    # unconfirmed; the solver's module sizes hold in every solve of the
    # study's threads, and each call receives the run's tol and seed
    from steklovlab import stability

    options = []

    def recording_solve(*args, **kwargs):
        options.append((kwargs["tol"], kwargs["seed"]))
        return solve_shift_invert(*args, **kwargs)

    monkeypatch.setattr(stability, "solve_shift_invert", recording_solve)
    monkeypatch.setattr(eigensolver, "MAX_SWEEPS", 1)
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 8, "tol": 1e-11, "seed": 7},
        "study": {"target": "eps", "center": [0.5, 0.5, 0.5],
                  "schedule": [{"h": 0.45, "delta_im": 1e-3}], "p_list": [4]},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "study"
    assert run(["study", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "study_report.json").read_text())
    assert report["meta"]["baseline"]["confirmed"] is False
    assert [step["confirmed"] for step in report["steps"]] == [False]
    assert len(options) >= 2 and set(options) == {(1e-11, 7)}


# a one-step Maxwell study on cube n=2 that runs in well under a second
_CUBE_STUDY = {
    "problem": "maxwell",
    "mesh": {"kind": "cube", "n": 2},
    "omega": 1.0,
    "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
    "solver": {"sigma_re": 2.3, "k": 6, "tol": 1e-11},
    "study": {"target": "eps", "center": [0.5, 0.5, 0.5], "p_list": [4],
              "schedule": [{"h": 0.45, "delta_im": 1e-3}]},
}


def test_failing_steps_end_as_the_lowest_index_error(tmp_path, capsys, monkeypatch):
    # step 2 fails first in time, step 1 after it: the run reports step 1's
    # error alone, as a loop over the schedule would, and leaves no thread behind
    from steklovlab import stability
    from steklovlab.errors import SolverFailure

    real = stability._run_step
    step2_failed = threading.Event()

    def failing(*args):
        idx = args[-3]
        if idx == 1:
            step2_failed.wait(timeout=10.0)
            raise MemoryError("step 1")
        if idx == 2:
            step2_failed.set()
            raise SolverFailure("step 2")
        return real(*args)

    monkeypatch.setattr(stability, "_run_step", failing)
    doc = _with(_CUBE_STUDY, ("study", "schedule"),
                [{"h": 0.45, "delta_im": d} for d in (1e-3, 2e-3, 3e-3, 4e-3)])
    cfg = write_config(tmp_path, doc)
    threads = threading.active_count()
    assert run(["study", "--config", cfg, "--output", str(tmp_path / "study")]) == 3
    assert threading.active_count() == threads
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: out-of-memory: step 1"]


def test_failing_baseline_diagnostic_wins_over_baseline_solve_error(tmp_path, capsys,
                                                                     monkeypatch):
    # the baseline diagnostic runs beside the baseline solve; the solve fails
    # first in time, the diagnostic after it, and the run reports the
    # diagnostic alone, as running them in turn would
    from steklovlab import stability

    real = stability.Problem.diagnostic
    solve_failed = threading.Event()

    def late_diagnostic(self, pencil):
        solve_failed.wait(timeout=10.0)
        return real(self, pencil)

    def failing_solve(*args, **kwargs):
        solve_failed.set()
        raise MemoryError("baseline solve")

    monkeypatch.setattr(stability.Problem, "diagnostic", late_diagnostic)
    monkeypatch.setattr(stability, "solve_shift_invert", failing_solve)
    cfg = write_config(tmp_path, _with(_CUBE_STUDY, ("diagnostics", "threshold"), 0.99))
    threads = threading.active_count()
    assert run(["study", "--config", cfg, "--output", str(tmp_path / "study")]) == 2
    assert threading.active_count() == threads
    assert solve_failed.is_set()
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: assumption-violation: baseline")


def test_baseline_solve_error_after_passing_diagnostic(tmp_path, capsys, monkeypatch):
    from steklovlab import stability
    from steklovlab.errors import SolverFailure

    def failing_solve(*args, **kwargs):
        raise SolverFailure("baseline solve")

    monkeypatch.setattr(stability, "solve_shift_invert", failing_solve)
    cfg = write_config(tmp_path, _CUBE_STUDY)
    threads = threading.active_count()
    assert run(["study", "--config", cfg, "--output", str(tmp_path / "study")]) == 3
    assert threading.active_count() == threads
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: solver-failure: baseline solve"]


def test_repeated_step_study_fits_nothing_quietly(tmp_path):
    # three equal steps share one norm: no rate is fitted, and nothing
    # (numpy's RankWarning included) is printed
    doc = {**_CUBE_STUDY, "mesh": {"kind": "cube", "n": 3}, "solver": {"sigma_re": 2.3, "k": 8},
           "study": {**_CUBE_STUDY["study"], "schedule": [{"h": 0.42, "delta_im": 1e-3}] * 3}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "study"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "steklovlab.cli", "study", "--config", cfg,
                           "--output", str(out)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads((out / "study_report.json").read_text())
    assert [s["status"] for s in report["steps"]] == ["ok"] * 3
    assert report["fits"] == {} and "mean_fits" not in report


def test_study_of_a_triplet_records_the_cluster_mean(tmp_path):
    # at cluster_reltol 0.01 the tracked cluster of cube n=4 is a triplet,
    # the singleton 2.36865 - 0.11975i and the double 2.38150 - 0.12252i:
    # a step's lambda is the mean of its three members, so its drift
    # vanishes with the perturbation while the members stay 0.013 apart,
    # and the first-order prediction of the mean is accurate
    doc = {**_CUBE_STUDY, "mesh": {"kind": "cube", "n": 4},
           "solver": {"sigma_re": 2.3, "k": 8, "tol": 1e-11, "cluster_reltol": 0.01},
           "study": {**_CUBE_STUDY["study"], "p_list": [1, 2],
                     "schedule": [{"h": h, "delta_im": 1e-3} for h in (0.42, 0.34, 0.26, 0.18)]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "study"
    assert run(["study", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "study_report.json").read_text())
    assert report["cluster_size"] == 3
    lam0 = complex(report["lambda0"]["re"], report["lambda0"]["im"])
    for step in report["steps"]:
        assert (step["status"], step["n_matched"]) == ("ok", 3)
        assert step["cluster_diameter"] > 1e-2
        shift = complex(step["lambda"]["re"], step["lambda"]["im"]) - lam0
        predicted = complex(step["predicted"]["re"], step["predicted"]["im"])
        assert abs(shift - predicted) / abs(shift) <= 1e-3
    for p in ("1.0", "2.0"):
        assert report["fits"][p]["bound_ratio_max"] <= 1.0 + 1e-6
    assert 2.8 <= report["fits"]["2.0"]["slope"] <= 3.4
    with open(out / "study_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert "mean_drift" not in rows[0]
    assert [float(row["drift"]) for row in rows] == [s["drift"] for s in report["steps"]]


def test_study_requires_section(tmp_path):
    cfg = write_config(tmp_path, scalar_ball_config())
    assert run(["study", "--config", cfg, "--output", str(tmp_path)]) == 1


def test_solve_suppresses_table_on_diagnostic_failure(tmp_path, capsys):
    # oracle: dense interior eigensolve gives a Dirichlet eigenvalue; at that
    # omega the well-posedness diagnostic fails and no eigenvalue table may
    # be emitted
    import scipy.linalg

    from steklovlab.fem_scalar import assemble_scalar
    from steklovlab.materials import build_field
    from steklovlab.mesh import generate_ball_mesh

    mesh = generate_ball_mesh(1)
    mu = build_field(mesh, "mu_inv", {1: 1.0})
    eps = build_field(mesh, "eps", {1: 1.0})
    base = assemble_scalar(mesh, mu, eps, 0.0)
    interior = base.mesh.interior_vertex_ids
    K = base.K.toarray()[np.ix_(interior, interior)]
    M = base.M.toarray().real[np.ix_(interior, interior)]
    omega_hit = float(np.sqrt(scipy.linalg.eigh(K, M, eigvals_only=True)[0]))

    doc = scalar_ball_config(omega=omega_hit)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "fail"
    code = run(["solve", "--config", cfg, "--output", str(out)])
    assert code == 2
    assert "error: assumption-violation" in capsys.readouterr().err
    assert not (out / "eigenvalues.csv").exists()
    meta = json.loads((out / "solve_meta.json").read_text())
    assert meta["diagnostics"]["passed"] is False


def test_blas_threads_pinned_during_dispatch(tmp_path, monkeypatch, capsys):
    # every run computes at one BLAS thread, whatever the pools or the
    # environment say, and gives the pools back as it found them
    monkeypatch.setenv("STEKLOV_THREADS", "2")
    pools = _blas.blas_pools()     # numpy and scipy each bundle an OpenBLAS
    assert pools
    before = [get() for get, _ in pools]
    seen = []

    def probe(args):
        seen.append([get() for get, _ in pools])
        return 0

    monkeypatch.setattr(cli, "_dispatch", probe)
    cfg = write_config(tmp_path, scalar_ball_config())
    try:
        for _, set_ in pools:
            set_(2)
        assert run(["solve", "--config", cfg, "--output", str(tmp_path)]) == 0
        assert [get() for get, _ in pools] == [2] * len(pools)
    finally:
        for (_, set_), n in zip(pools, before):
            set_(n)
    assert seen == [[1] * len(pools)]
    assert capsys.readouterr().err == ""

    monkeypatch.setattr(_blas, "blas_pools", lambda: [])
    assert run(["solve", "--config", cfg, "--output", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def _native_threads():
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_study_runs_with_no_openblas_worker(tmp_path, monkeypatch):
    # OpenBLAS workers busy-wait on the core a study's second thread uses, so
    # a study ends them before its threads start: while they run, every
    # thread of the process is a Python one.  After the run the pools compute
    # at two threads again.
    import scipy.linalg.blas

    from steklovlab import stability

    pools = _blas.blas_pools()
    assert pools
    before = [get() for get, _ in pools]
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((600, 600)), rng.standard_normal((600, 600))

    def products():
        return a @ b, scipy.linalg.blas.dgemm(1.0, a, b)

    seen = []
    real_tasks, real_step = stability._run_tasks, stability._run_step

    def probed_tasks(tasks):
        seen.append((_native_threads(), threading.active_count()))
        return real_tasks(tasks)

    def probed_step(*args):
        rec = real_step(*args)
        seen.append((_native_threads(), threading.active_count()))
        return rec

    monkeypatch.setattr(stability, "_run_tasks", probed_tasks)
    monkeypatch.setattr(stability, "_run_step", probed_step)
    doc = _with(_CUBE_STUDY, ("study", "schedule"),
                [{"h": 0.45, "delta_im": d} for d in (1e-3, 2e-3, 3e-3)])
    cfg = write_config(tmp_path, doc)
    try:
        for _, set_ in pools:
            set_(1)
        single = products()
        for _, set_ in pools:
            set_(2)                 # both pools start their workers
        products()
        assert _native_threads() > threading.active_count()
        assert run(["study", "--config", cfg, "--output", str(tmp_path / "study")]) == 0
        assert [get() for get, _ in pools] == [2] * len(pools)
        assert _native_threads() > threading.active_count()     # restored, with workers
        double = products()
    finally:
        for (_, set_), n in zip(pools, before):
            set_(n)
    assert len(seen) == 5 and all(native == python for native, python in seen)
    # two threads split the sums differently: equal up to roundoff
    assert all(np.abs(x - y).max() <= 1e-12 * np.abs(y).max() for x, y in zip(double, single))


def test_outputs_do_not_depend_on_openblas_thread_count(tmp_path):
    cfg = write_config(tmp_path, scalar_ball_config())
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "steklovlab.cli", "solve", "--config", cfg,
                        "--output", str(out)], env=env, check=True, capture_output=True,
                       timeout=300)
        outputs.append([(out / f).read_bytes() for f in ("eigenvalues.csv", "solve_meta.json")])
    assert outputs[0] == outputs[1]


def _with(doc, path, value):
    """Copy of ``doc`` with the entry at key ``path`` (a tuple of keys and list
    indices) set to ``value``; missing sections are created."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return doc


_SMALL = scalar_ball_config(level=0)
_MAXWELL = {**_SMALL, "problem": "maxwell", "omega": 1.0, "mesh": {"kind": "cube", "n": 2}}
_STUDY = {"schedule": [{"h": 0.3, "delta_im": 1e-3}]}
# a mesh.path that the test points at a file of the row's bytes
_MESH_FILE = "<mesh file>"
_SKEWED = [[2, 1, 0], [0, 2, 0], [0, 0, 2]]     # neither symmetric nor normal
# the whole message after "error: <kind>: " of some rows, by id
_BAD_INPUT_MESSAGES = {
    "below-diagnostic-threshold": "well-posedness diagnostic 9.369e-01 below threshold 1.0e+00",
    "config-root-list": "config root must be a JSON object",
    "mesh-path-number": "mesh.path must be a string, got 3",
    "cube-n-missing": "mesh.n is required",
    "omega-integer-beyond-float": f"omega must be finite, got {10**400}",
    "tensor-key-imag": "materials.eps.1 invalid: unknown tensor keys ['imag']",
    "maxwell-eps-not-symmetric": "field 'eps' invalid: eps not normal (defect 7.69e-02); "
                                 "eps not symmetric (defect 5.00e-01)",
    "maxwell-eps-not-normal": "field 'eps' invalid: eps not normal (defect 2.50e-01)",
    "mu-inv-not-symmetric": "field 'mu_inv' invalid: mu_inv not symmetric (defect 5.00e-01)",
}


@pytest.mark.parametrize("command, doc, kind, code", [
    ("solve", _with(_SMALL, ("solver",), [1]), "config-error", 1),
    ("solve", _with(_SMALL, ("census",), [1]), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "sigma_re"), [1]), "config-error", 1),
    ("solve", _with(_SMALL, ("mesh",), {"path": "no/such/mesh.json"}), "config-error", 1),
    ("solve", _with(_SMALL, ("omega",), float("nan")), "config-error", 1),
    ("diagnose", _with(_SMALL, ("materials", "eps", "1"), float("nan")), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "tol"), -1), "config-error", 1),
    ("study", _with(_with(_SMALL, ("study",), _STUDY), ("perturbations",),
                    [{"center": [0, 0, 0], "h": 0.3, "delta_im": 1e-3}]), "config-error", 1),
    ("study", _with(_SMALL, ("study",), {**_STUDY, "target_lambda": [1]}), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "krylov_dim"), 0), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "max_krylov"), 0), "config-error", 1),
    ("solve", _with(_SMALL, ("census", "delta"), 4.0), "config-error", 1),
    ("solve", _SMALL, "solver-failure", 3),      # _dispatch raises LinAlgError
    ("solve", _with(_SMALL, ("materials", "mu_inv"), [1.0]), "config-error", 1),
    ("study", _with(_SMALL, ("study",), {**_STUDY, "target": "foo"}), "config-error", 1),
    ("study", _with(_SMALL, ("study",), {**_STUDY, "center": [0.5, 0.5]}), "config-error", 1),
    ("study", _with(_SMALL, ("study",), {"schedule": [{"h": -0.3}]}), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "seed"), -1), "config-error", 1),
    ("solve --seed -1", _SMALL, "config-error", 1),
    ("solve", _with(_SMALL, ("mesh",), {"kind": "cube", "n": 0}), "config-error", 1),
    ("solve", _with(_SMALL, ("mesh",), {"kind": "cube", "n": "abc"}), "config-error", 1),
    ("solve", _with(_SMALL, ("mesh", "level"), -1), "config-error", 1),
    ("solve", _with(_SMALL, ("materials", "mu_inv"), {"a": 1.0}), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "k"), 4.5), "config-error", 1),
    ("solve", _with(_SMALL, ("mesh",), {"kind": "cube", "n": 2.7}), "config-error", 1),
    ("study", _with(_SMALL, ("study",), {**_STUDY, "step_diagnostics": "no"}), "config-error", 1),
    ("solve", _with(_SMALL, ("census", "radius"), -1), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "cluster_reltol"), -1), "config-error", 1),
    ("study", _with(_with(_SMALL, ("study",), _STUDY), ("diagnostics", "threshold"), -1),
     "config-error", 1),
    ("solve", _with(_SMALL, ("diagnostics", "threshold"), 2), "config-error", 1),
    ("solve", _with(_SMALL, ("materials", "eps", "1"), [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "config-error", 1),
    ("solve --seed 1.5", _SMALL, "config-error", 1),
    ("solve --threads abc", _SMALL, "config-error", 1),
    ("solve --threads 2", _SMALL, "config-error", 1),
    ("solve", _with(_SMALL, ("sudy",), {}), "config-error", 1),
    ("solve", _with(_SMALL, ("mesh", "size"), 2), "config-error", 1),
    ("solve", _with(_SMALL, ("materials", "sigma"), {"1": 1.0}), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "sigma"), 2.3), "config-error", 1),
    ("solve", _with(_SMALL, ("census", "angle"), 1.0), "config-error", 1),
    ("solve", _with(_SMALL, ("diagnostics", "tol"), 1e-6), "config-error", 1),
    ("solve", _with(_SMALL, ("perturbations",),
                    [{"center": [0, 0, 0], "h": 0.3, "radius": 0.3}]), "config-error", 1),
    ("study", _with(_SMALL, ("study",), {**_STUDY, "radius": 0.3}), "config-error", 1),
    ("study", _with(_SMALL, ("study",), {"schedule": [{"h": 0.3, "center": [0, 0, 0]}]}),
     "config-error", 1),
    ("study", _with(_SMALL, ("study",), {**_STUDY, "target_lambda": {"re": 1.0, "real": 1.0}}),
     "config-error", 1),
    ("solve", _with(_SMALL, ("mesh",), {"kind": "cube", "n": 100000}), "out-of-memory", 3),
    ("mesh --kind cube --n 100000", None, "out-of-memory", 3),
    ("solve", b'{"problem": "scalar\xff"}', "config-error", 1),
    ("solve", (_with(_SMALL, ("mesh",), {"path": _MESH_FILE}), b"not json"), "malformed-mesh", 1),
    ("solve", (_with(_SMALL, ("mesh",), {"path": _MESH_FILE}), b'{"version": 1\xff}'),
     "malformed-mesh", 1),
    ("solve", b"[" * 100000 + b"]" * 100000, "config-error", 1),
    ("solve", (_with(_SMALL, ("mesh",), {"path": _MESH_FILE}), b"[" * 100000 + b"]" * 100000),
     "malformed-mesh", 1),
    ("diagnose", _with(_SMALL, ("materials", "eps", "1"), True), "config-error", 1),
    ("diagnose", _with(_SMALL, ("materials", "eps", "1"), "4"), "config-error", 1),
    ("diagnose", _with(_SMALL, ("materials", "eps", "1"), {"re": True}), "config-error", 1),
    ("diagnose", _with(_SMALL, ("materials", "eps", "1"),
                       [[True, 0, 0], [0, 1, 0], [0, 0, 1]]), "config-error", 1),
    ("diagnose", _with(_SMALL, ("materials", "eps", "1"), 10**400), "config-error", 1),
    ("solve", _with(_SMALL, ("omega",), 1e155), "config-error", 1),
    ("diagnose", _with(_MAXWELL, ("omega",), 1e155), "config-error", 1),
    ("diagnose", _with(_SMALL, ("omega",), 1e100), "config-error", 1),
    ("diagnose", _with(_MAXWELL, ("omega",), 1e100), "config-error", 1),
    ("diagnose", _with(_SMALL, ("materials", "eps", "1"), 1e200), "config-error", 1),
    ("diagnose", _with(_MAXWELL, ("materials", "eps", "1"), {"re": 1.0, "im": 1e200}),
     "config-error", 1),
    ("diagnose", _with(_SMALL, ("materials", "mu_inv", "1"), 1e200), "config-error", 1),
    ("solve", _with(_SMALL, ("solver", "sigma_re"), 1e200), "config-error", 1),
    ("solve", _with(_MAXWELL, ("solver", "sigma_im"), -1e200), "config-error", 1),
    ("solve", _with(_SMALL, ("perturbations",),
                    [{"center": [0, 0, 0], "h": 0.6, "delta_re": 1e200}]), "config-error", 1),
    ("study", _with(_MAXWELL, ("study",), {"schedule": [{"h": 0.6, "delta_im": 1e200}]}),
     "config-error", 1),
    ("solve", _with(_SMALL, ("perturbations",),
                    [{"center": [1e200, 0, 0], "h": 0.6, "delta_re": 1.0}]), "config-error", 1),
    ("study", _with(_MAXWELL, ("study",), {**_STUDY, "center": [0, -1e200, 0]}), "config-error", 1),
    ("diagnose", _with(_with(_MAXWELL, ("omega",), 1e-30), ("materials", "mu_inv", "1"), 1e-30),
     "solver-failure", 3),
    # two spellings of one setting, of which json and int() would keep the last
    ("solve", _with(_SMALL, ("materials", "mu_inv"), {"1": 1.0, "01": 5.0}), "config-error", 1),
    ("solve", _with(_SMALL, ("materials", "mu_inv"), {"1": 1.0, "1_0": 5.0}), "config-error", 1),
    ("solve", json.dumps(_SMALL).replace('"k": 18', '"k": 4, "k": 6').encode(), "config-error", 1),
    ("solve", (_with(_SMALL, ("mesh",), {"path": _MESH_FILE}), b'{"version": 1, "version": 1}'),
     "malformed-mesh", 1),
    # longer than int() reads (4300 digits)
    ("solve", json.dumps(_SMALL).replace('"k": 18', '"k": ' + "9" * 5000).encode(),
     "config-error", 1),
    ("solve", (_with(_SMALL, ("mesh",), {"path": _MESH_FILE}), b'{"version": ' + b"9" * 5000 + b"}"),
     "malformed-mesh", 1),
    ("diagnose", _with(_SMALL, ("diagnostics", "threshold"), 1.0), "assumption-violation", 2),
    ("solve", [], "config-error", 1),
    ("solve", _with(_SMALL, ("mesh",), {"path": 3}), "config-error", 1),
    ("solve", _with(_SMALL, ("mesh",), {"kind": "cube"}), "config-error", 1),
    ("solve", _with(_SMALL, ("omega",), 10**400), "config-error", 1),
    ("solve", _with(_SMALL, ("materials", "eps", "1"), {"re": 1, "imag": 0}), "config-error", 1),
    ("diagnose", _with(_MAXWELL, ("materials", "eps", "1"), _SKEWED), "assumption-violation", 2),
    ("diagnose", _with(_MAXWELL, ("materials", "eps", "1"),
                       {"re": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                        "im": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}), "assumption-violation", 2),
    ("diagnose", _with(_SMALL, ("materials", "mu_inv", "1"), _SKEWED), "assumption-violation", 2),
], ids=["solver-list", "census-list", "sigma-list", "missing-mesh-path", "nan-omega",
        "nan-material", "negative-tol", "study-with-perturbations", "target-lambda-list",
        "krylov-dim-zero", "max-krylov-zero", "census-delta-range",
        "linalg-error", "mu-inv-list", "study-target-name", "study-center-2d",
        "schedule-negative-h", "negative-seed", "negative-seed-flag", "cube-n-zero",
        "cube-n-string", "ball-level-negative", "region-tag-name", "fractional-k",
        "fractional-cube-n", "step-diagnostics-string", "census-radius-negative",
        "cluster-reltol-negative", "diag-threshold-negative", "diag-threshold-above-one",
        "scalar-anisotropic-eps", "fractional-seed-flag",
        "thread-flag-string", "thread-flag", "unknown-root-key", "unknown-mesh-key", "unknown-materials-key",
        "unknown-solver-key", "unknown-census-key", "unknown-diagnostics-key",
        "unknown-perturbation-key", "unknown-study-key", "unknown-schedule-key",
        "unknown-target-lambda-key", "cube-too-large-to-allocate",
        "mesh-command-too-large-to-allocate", "config-not-utf8", "mesh-file-not-json",
        "mesh-file-not-utf8", "config-nested-too-deep", "mesh-file-nested-too-deep",
        "material-bool", "material-string", "material-re-bool", "material-matrix-bool",
        "material-int-beyond-float", "omega-square-overflows", "maxwell-omega-square-overflows",
        "huge-omega", "maxwell-huge-omega", "huge-eps", "maxwell-huge-eps-im", "huge-mu-inv",
        "huge-sigma-re", "maxwell-huge-sigma-im", "huge-perturbation-delta",
        "huge-schedule-delta", "huge-perturbation-center", "huge-study-center",
        "lanczos-overflow", "region-tag-leading-zero", "region-tag-underscore",
        "repeated-key", "mesh-file-repeated-key", "integer-too-long", "mesh-file-integer-too-long",
        "below-diagnostic-threshold", "config-root-list", "mesh-path-number", "cube-n-missing",
        "omega-integer-beyond-float", "tensor-key-imag", "maxwell-eps-not-symmetric",
        "maxwell-eps-not-normal", "mu-inv-not-symmetric"])
def test_bad_input_is_one_error_line(request, tmp_path, monkeypatch, capsys, command, doc, kind,
                                     code):
    if kind == "solver-failure" and doc is _SMALL:
        def fail(args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(cli, "_dispatch", fail)
    # the mesh command takes no config; a mesh of n = 100000 is refused by
    # numpy at once (petabytes), so the test allocates nothing
    out = tmp_path / "out"
    argv = [*command.split(), "--output", str(out)]
    if isinstance(doc, tuple):              # a config and the bytes of its mesh file
        doc, mesh_bytes = doc
        (tmp_path / "mesh.json").write_bytes(mesh_bytes)
        doc = _with(doc, ("mesh", "path"), str(tmp_path / "mesh.json"))
    if isinstance(doc, bytes):              # the bytes of the config file
        (tmp_path / "config.json").write_bytes(doc)
        argv += ["--config", str(tmp_path / "config.json")]
    elif doc is not None:
        argv += ["--config", write_config(tmp_path, doc)]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith(f"error: {kind}: ")
    message = _BAD_INPUT_MESSAGES.get(request.node.callspec.id)
    assert message is None or lines[0] == f"error: {kind}: {message}"
    if kind in ("config-error", "out-of-memory"):
        assert not out.exists()      # rejected before any output is written
    if command == "diagnose" and kind == "assumption-violation":
        assert _strict_json(out / "diagnostics.json")["passed"] is False


@pytest.mark.parametrize("doc, message", [
    (_SMALL, "config has no 'study' section"),
    (_with(_with(_SMALL, ("study",), _STUDY), ("perturbations",),
           [{"center": [0, 0, 0], "h": 0.3, "delta_im": 1e-3}]),
     "perturbations apply to solve and diagnose only"),
], ids=["no-study-section", "study-with-perturbations"])
def test_study_preconditions_precede_the_mesh(tmp_path, capsys, doc, message):
    # a study that cannot run is refused before its mesh file is read
    doc = _with(doc, ("mesh",), {"path": str(tmp_path / "no" / "such" / "mesh.json")})
    out = tmp_path / "out"
    assert run(["study", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config-error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("part", ["re", "im"])
def test_huge_target_lambda_is_one_error_line(tmp_path, capsys, part):
    # an unbounded guess puts every baseline value at distance inf, and the
    # study would silently track the cluster at index 0
    doc = _with(_MAXWELL, ("study",), {**_STUDY, "target_lambda": {part: 1e308}})
    out = tmp_path / "out"
    assert run(["study", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 1
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith(
        f"error: config-error: study.target_lambda.{part} must be at most 1e+30 in magnitude")
    assert not out.exists()


def _key_paths(node, prefix=()):
    """Every key path of a JSON document, through objects and lists."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


_MALFORMED = [None, "x", [], {}, [1], -1, 0, 2.5, float("nan"), float("inf")]
_FULL_SECTIONS = {
    "perturbations": [{"center": [0.1, 0.0, 0.0], "h": 0.5, "delta_im": 1e-3, "target": "eps"}],
    "census": {"delta": 1.0, "radius": 5.0},
    "diagnostics": {"threshold": 1e-6},
    "study": {"target": "eps", "center": [0.0, 0.0, 0.0],
              "schedule": [{"h": 0.4, "delta_re": 0.0, "delta_im": 1e-3}],
              "p_list": [2, 4], "target_lambda": {"re": 1.0, "im": 0.0}},
}
# tiny meshes only: no pool value turns a mesh size into a large valid one
_FUZZ_BASES = {
    "scalar-ball-l0": {**scalar_ball_config(level=0), **_FULL_SECTIONS},
    "maxwell-cube-n1": {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 1},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "sigma_im": 0.0, "k": 4, "tol": 1e-9, "seed": 0,
                   "cluster_reltol": 1e-6},
        **_FULL_SECTIONS,
    },
}


@pytest.mark.parametrize("base", list(_FUZZ_BASES.values()), ids=list(_FUZZ_BASES))
def test_malformed_config_value_is_at_most_one_error_line(base):
    # a base the reader refuses would end every example at the same error
    cli._run_config(base)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(path=st.sampled_from(list(_key_paths(base))), value=st.sampled_from(_MALFORMED))
    def check(path, value):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), _with(base, path, value))
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(["diagnose", "--config", cfg, "--output", str(Path(tmp) / "out")])
            for path in Path(tmp).glob("out/**/*.json"):
                _strict_json(path)
        text = err.getvalue()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in text
        assert sum(ln.startswith("error:") for ln in text.splitlines()) <= 1

    check()


def test_unknown_config_key_is_named():
    # each section reader refuses a key it does not read, named by its path;
    # the full config, which carries every key, is read without complaint
    base = _FUZZ_BASES["scalar-ball-l0"]
    cli._run_config(base)
    for path, name in [
        (("sudy",), "sudy"),
        (("mesh", "n"), "mesh.n"),
        (("materials", "mu"), "materials.mu"),
        (("solver", "sigma"), "solver.sigma"),
        (("census", "angle"), "census.angle"),
        (("diagnostics", "tol"), "diagnostics.tol"),
        (("perturbations", 0, "radius"), "perturbations[0].radius"),
        (("study", "radius"), "study.radius"),
        (("study", "schedule", 0, "center"), "study.schedule[0].center"),
        (("study", "target_lambda", "real"), "study.target_lambda.real"),
        # run settings that are constants of the program, not of the config
        (("solver", "krylov_dim"), "solver.krylov_dim"),
        (("solver", "max_krylov"), "solver.max_krylov"),
        (("study", "step_diagnostics"), "study.step_diagnostics"),
    ]:
        with pytest.raises(ConfigError, match=f"^unknown key {re.escape(name)}$"):
            cli._run_config(_with(base, path, 1.0))


@pytest.mark.parametrize("command", ["solve", "study"])
def test_no_certified_pair_is_solver_failure(tmp_path, capsys, command):
    # no pair meets a 1e-30 certificate: a study's baseline fails as a solve does
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 4, "tol": 1e-30},
        "study": {"center": [0.5, 0.5, 0.5], "schedule": [{"h": 0.45, "delta_im": 1e-3}]},
    }
    cfg = write_config(tmp_path, doc)
    assert run([command, "--config", cfg, "--output", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver-failure: ")


def test_solve_diagnose_study_report_one_diagnostic(tmp_path):
    # all three commands build the pencil and its diagnostic through one layer
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 5, "tol": 1e-9},
        "study": {"center": [0.5, 0.5, 0.5], "schedule": [{"h": 0.45, "delta_im": 1e-3}]},
    }
    cfg = write_config(tmp_path, doc)
    outs = {c: tmp_path / c for c in ("solve", "diagnose", "study")}
    for command, out in outs.items():
        assert run([command, "--config", cfg, "--output", str(out)]) == 0
    solve_diag = json.loads((outs["solve"] / "solve_meta.json").read_text())["diagnostics"]
    diag_doc = json.loads((outs["diagnose"] / "diagnostics.json").read_text())["diagnostics"]
    report = json.loads((outs["study"] / "study_report.json").read_text())
    assert solve_diag == diag_doc
    assert solve_diag["kind"] == "kernel_subspace"
    assert report["baseline_diag"] == solve_diag["sigma_min"]


class _ScipyDenseCall(Exception):
    pass


def test_run_path_keeps_dense_kernels_on_numpy(tmp_path, monkeypatch):
    # numpy and scipy each load their own BLAS; a run that alternates between
    # them makes the two thread pools compete for the cores, so solve,
    # diagnose and study must not call scipy's dense linear algebra
    import scipy.linalg
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise _ScipyDenseCall("scipy dense or ARPACK routine called on the run path")

    for name in ("eig", "svd", "svdvals", "qr", "cholesky", "solve_triangular",
                 "lu_factor", "lu_solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    # ARPACK runs on scipy's BLAS as well
    for name in ("eigs", "eigsh", "svds"):
        monkeypatch.setattr(scipy.sparse.linalg, name, refuse)
    maxwell = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 5, "tol": 1e-9},
        "study": {"center": [0.5, 0.5, 0.5],
                  "schedule": [{"h": 0.45, "delta_im": 2e-3}, {"h": 0.45, "delta_im": 1e-3}]},
    }
    runs = [("solve", maxwell), ("diagnose", scalar_ball_config()), ("study", maxwell)]
    for i, (command, doc) in enumerate(runs):
        cfg = write_config(tmp_path, doc, name=f"config{i}.json")
        assert run([command, "--config", cfg, "--output", str(tmp_path / f"out{i}")]) == 0


@pytest.mark.parametrize("doc", [
    {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 5, "tol": 1e-9},
    },
    scalar_ball_config(omega=1.0, eps={"re": 2.0, "im": 1.0}),
], ids=["maxwell", "scalar"])
def test_kernel_diagnostic_lanczos_cap_is_solver_failure(tmp_path, capsys, monkeypatch, doc):
    monkeypatch.setattr(fem_scalar, "LANCZOS_MAX_STEPS", 2)
    cfg = write_config(tmp_path, doc)
    assert run(["diagnose", "--config", cfg, "--output", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: solver-failure:")


def test_study_step_at_exact_eigenvalue_shifts_off_it(tmp_path, capsys):
    # at omega = 0 an eps perturbation does not enter the scalar pencil, so a
    # step pencil equals the baseline and lambda0 is one of its eigenvalues
    doc = {**scalar_ball_config(), "study": {
        "target": "eps", "center": [0.0, 0.0, 0.0],
        "schedule": [{"h": 0.5, "delta_re": 1e-3}]}}
    doc["solver"] = {"sigma_re": 1.5, "k": 1, "tol": 1e-9, "seed": 0}
    cfg = write_config(tmp_path, doc)
    assert run(["study", "--config", cfg, "--output", str(tmp_path / "k1")]) == 0
    assert "error:" not in capsys.readouterr().err

    # a simple eigenvalue with a neighboring cluster (finite guard) is matched
    doc["solver"]["k"] = 3
    doc["study"]["target_lambda"] = {"re": 1.01842, "im": 0.0}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "k3"
    assert run(["study", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "study_report.json").read_text())
    lam0 = complex(report["lambda0"]["re"], report["lambda0"]["im"])
    assert report["cluster_size"] == 1 and report["guard_radius"] is not None
    (step,) = report["steps"]
    assert step["status"] == "ok"
    assert step["drift"] <= 1e-9 * abs(lam0)


def test_study_with_k1_baseline_finds_a_guard(tmp_path, capsys):
    # the baseline solve asks for at least six eigenvalues, so a k=1 study
    # still sees a neighboring cluster and gets a finite guard
    doc = {**scalar_ball_config(omega=1.0, eps={"re": 2.0, "im": 1.0}), "study": {
        "target": "eps", "center": [0.0, 0.0, 0.0],
        "schedule": [{"h": 0.5, "delta_re": 1e-3}]}}
    doc["solver"] = {"sigma_re": 1.5, "k": 1, "tol": 1e-9, "seed": 0}
    cfg = write_config(tmp_path, doc)
    assert run(["study", "--config", cfg, "--output", str(tmp_path)]) == 0
    assert "error:" not in capsys.readouterr().err
    report = json.loads((tmp_path / "study_report.json").read_text())
    assert report["guard_radius"] is not None and 0.0 < report["guard_radius"] < np.inf
    (step,) = report["steps"]
    assert step["status"] == "ok" and step["n_matched"] == report["cluster_size"]


def test_oversized_generated_mesh_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a generated mesh the machine cannot hold ends as one out-of-memory line
    # before any work, not as a kill part way through its generation; a
    # smaller memory reading makes cube n=4 (384 tets) stand for such a mesh
    need = 384 * cli.MESH_BYTES_PER_TET
    doc = _with(_CUBE_STUDY, ("mesh", "n"), 4)
    cfg = write_config(tmp_path, doc)
    monkeypatch.setattr(cli, "_available_memory", lambda: need - 1)
    for argv in (["diagnose", "--config", cfg], ["study", "--config", cfg],
                 ["mesh", "--kind", "cube", "--n", "4"]):
        out = tmp_path / argv[0]
        assert run(argv + ["--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out-of-memory: ") and err.count("\n") == 1
        assert not out.exists()
    # at the estimate itself, and where the reading fails, the run goes ahead
    for available in (need, None):
        monkeypatch.setattr(cli, "_available_memory", lambda: available)
        assert run(["diagnose", "--config", cfg, "--output", str(tmp_path / "ok")]) == 0
