import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovlab import cli, fem_scalar
from steklovlab.cli import run
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


def test_solve_reports_unconfirmed_answer(tmp_path):
    # a Krylov cap of 12 lets the sweeps lock k = 4 pairs, but the last sweep
    # runs out of space before it can settle, so the 4 nearest are unconfirmed
    doc = scalar_ball_config(sigma=0.7)
    doc["solver"].update({"k": 4, "krylov_dim": 4, "max_krylov": 12})
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


# (keys of the mesh-file entry, its new value, the message after
# "error: malformed-mesh: "); "INF" is written as the JSON number 1e400,
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
    entry[keys[-1]] = value
    path.write_text(json.dumps(mesh_doc).replace('"INF"', "1e400"))
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
    # a Krylov cap of 12 leaves the baseline's k = 8 nearest unconfirmed
    from steklovlab import stability

    sizes = []
    solve = stability.solve_shift_invert

    def recording_solve(*args, **kwargs):
        sizes.append((kwargs.get("krylov_dim"), kwargs.get("max_krylov")))
        return solve(*args, **kwargs)

    monkeypatch.setattr(stability, "solve_shift_invert", recording_solve)
    doc = {
        "problem": "maxwell",
        "mesh": {"kind": "cube", "n": 2},
        "omega": 1.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
        "solver": {"sigma_re": 2.3, "k": 8, "tol": 1e-11, "krylov_dim": 4, "max_krylov": 12},
        "study": {"target": "eps", "center": [0.5, 0.5, 0.5],
                  "schedule": [{"h": 0.45, "delta_im": 1e-3}], "p_list": [4]},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "study"
    assert run(["study", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "study_report.json").read_text())
    assert report["meta"]["baseline"]["confirmed"] is False
    assert len(sizes) >= 2 and set(sizes) == {(4, 12)}


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


def test_threads_flag_accepted(tmp_path):
    cfg = write_config(tmp_path, scalar_ball_config())
    out = tmp_path / "thr"
    assert run(["solve", "--config", cfg, "--output", str(out), "--threads", "1"]) == 0


def test_blas_threads_pinned_during_dispatch(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("STEKLOV_THREADS", raising=False)
    pools = cli._blas_pools()      # numpy and scipy each bundle an OpenBLAS
    assert pools
    before = [get() for get, _ in pools]
    seen = []

    def probe(args):
        seen.append([get() for get, _ in pools])
        return 0

    monkeypatch.setattr(cli, "_dispatch", probe)
    cfg = write_config(tmp_path, scalar_ball_config())
    try:
        for _, set_ in pools:      # so that the default run has something to change
            set_(2)
        assert run(["solve", "--config", cfg, "--output", str(tmp_path)]) == 0
        assert [get() for get, _ in pools] == [2] * len(pools)
        for _, set_ in pools:
            set_(1)
        assert run(["solve", "--config", cfg, "--output", str(tmp_path), "--threads", "2"]) == 0
        assert [get() for get, _ in pools] == [1] * len(pools)
    finally:
        for (_, set_), n in zip(pools, before):
            set_(n)
    assert seen == [[1] * len(pools), [2] * len(pools)]
    assert capsys.readouterr().err == ""

    monkeypatch.setattr(cli, "_blas_pools", lambda: [])
    assert run(["solve", "--config", cfg, "--output", str(tmp_path), "--threads", "1"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("note: --threads 1 not enforced")


def test_outputs_do_not_depend_on_openblas_thread_count(tmp_path):
    cfg = write_config(tmp_path, scalar_ball_config())
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        env.pop("STEKLOV_THREADS", None)
        subprocess.run([sys.executable, "-m", "steklovlab.cli", "solve", "--config", cfg,
                        "--output", str(out)], env=env, check=True, capture_output=True,
                       timeout=300)
        outputs.append([(out / f).read_bytes() for f in ("eigenvalues.csv", "solve_meta.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag, env", [
    (["--threads", "0"], None),
    (["--threads", "-1"], None),
    ([], "abc"),
    ([], "0"),
])
def test_bad_thread_count_is_config_error(tmp_path, monkeypatch, capsys, flag, env):
    if env is not None:
        monkeypatch.setenv("STEKLOV_THREADS", env)
    cfg = write_config(tmp_path, scalar_ball_config())
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--output", str(out), *flag]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config-error: ")
    assert not out.exists()


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
_STUDY = {"schedule": [{"h": 0.3, "delta_im": 1e-3}]}


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
    ("solve", _with(_SMALL, ("solver", "krylov_dim"), -5), "config-error", 1),
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
    ("solve", _with(_SMALL, ("materials", "eps", "1"), [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "config-error", 1),
    ("solve --seed 1.5", _SMALL, "config-error", 1),
    ("solve --threads abc", _SMALL, "config-error", 1),
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
], ids=["solver-list", "census-list", "sigma-list", "missing-mesh-path", "nan-omega",
        "nan-material", "negative-tol", "study-with-perturbations", "target-lambda-list",
        "krylov-dim-zero", "krylov-dim-negative", "max-krylov-zero", "census-delta-range",
        "linalg-error", "mu-inv-list", "study-target-name", "study-center-2d",
        "schedule-negative-h", "negative-seed", "negative-seed-flag", "cube-n-zero",
        "cube-n-string", "ball-level-negative", "region-tag-name", "fractional-k",
        "fractional-cube-n", "step-diagnostics-string", "census-radius-negative",
        "cluster-reltol-negative", "scalar-anisotropic-eps", "fractional-seed-flag",
        "thread-flag-string", "unknown-root-key", "unknown-mesh-key", "unknown-materials-key",
        "unknown-solver-key", "unknown-census-key", "unknown-diagnostics-key",
        "unknown-perturbation-key", "unknown-study-key", "unknown-schedule-key",
        "unknown-target-lambda-key"])
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capsys, command, doc, kind, code):
    if kind == "solver-failure":
        def fail(args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(cli, "_dispatch", fail)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run([*command.split(), "--config", cfg, "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith(f"error: {kind}: ")
    if kind == "config-error":
        assert not out.exists()      # rejected before any output is written


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
              "p_list": [2, 4], "target_lambda": {"re": 1.0, "im": 0.0},
              "step_diagnostics": True},
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
                   "cluster_reltol": 1e-6, "krylov_dim": 20, "max_krylov": 40},
        **_FULL_SECTIONS,
    },
}


@pytest.mark.parametrize("base", list(_FUZZ_BASES.values()), ids=list(_FUZZ_BASES))
def test_malformed_config_value_is_at_most_one_error_line(base):
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
