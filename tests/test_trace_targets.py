"""The benchmark tracer (perfbench/tracing.py) wraps names that it looks up on
steklovlab modules and classes; each one must still exist there, and a solve
must still call it."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import steklovlab
from steklovlab import cli, stability
from steklovlab.mesh import generate_cube_mesh

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for sites in tracing.TARGETS.values():
        for where, names in sites:
            cls, _, mod = where.rpartition("@")
            owner = importlib.import_module(f"steklovlab.{mod}")
            if cls:
                owner = getattr(owner, cls)
            missing += [f"{where}.{name}" for name in names if name not in vars(owner)]
    assert missing == []
    # the factorization is traced through the module eigensolver imports as spla
    assert "spla" in vars(importlib.import_module("steklovlab.eigensolver"))


SOLVES = {
    "maxwell": ({"problem": "maxwell", "mesh": {"kind": "cube", "n": 2}, "omega": 1.0,
                 "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": {"re": 4.0, "im": 1.0}}},
                 "solver": {"sigma_re": 2.3, "k": 4}},
                ("fem_maxwell.assemble_s", "fem_maxwell.diag_s", "fem_maxwell.basis_calls",
                 "boundary_ops.setup_s", "boundary_ops.gram_applies")),
    "scalar": ({"problem": "scalar", "mesh": {"kind": "ball", "level": 0}, "omega": 0.0,
                "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": 1.0}},
                "solver": {"sigma_re": 1.5, "k": 4}},
               ("fem_scalar.assemble_s", "fem_scalar.diag_s")),
}


@pytest.mark.parametrize("kind", sorted(SOLVES))
def test_traced_solve_reports_every_layer(kind, tmp_path):
    # a refactor that routes a call around a traced name leaves its layer at zero
    config, layers = SOLVES[kind]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(steklovlab)
    try:
        code = tracer.root(cli.run, ["solve", "--config", str(path), "--output", str(tmp_path)])
    finally:
        tracer.restore()
    assert code == 0
    assert tracer.restored()
    metrics = tracer.layer_metrics()
    assert [name for name in layers + ("eigensolver.lu_nnz",) if not metrics[name] > 0] == []


MESH_BUILDERS = {
    "maxwell": ("assemble_surface_operators", "hcurl_gram", "kernel_subspace_basis"),
    "scalar": ("h1_gram",),
}


@pytest.mark.parametrize("kind", sorted(MESH_BUILDERS))
def test_study_builds_mesh_operators_once(kind, monkeypatch):
    # every study step reuses the operators that depend on the mesh only
    calls = {name: 0 for names in MESH_BUILDERS.values() for name in names}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(stability, name, counted(name, getattr(stability, name)))
    report = stability.run_study(stability.RunConfig(
        omega=1.0, problem=kind,
        materials={"mu_inv": {1: 1.0}, "eps": {1: {"re": 4.0, "im": 1.0}}}, center=(0.5, 0.5, 0.5),
        schedule=[(0.45, 1e-3j), (0.3, 1e-3j)], p_list=(4.0,),
        sigma=(2.3 if kind == "maxwell" else 0.5) + 0.0j, k=6, tol=1e-10), generate_cube_mesh(2))
    assert [r.status for r in report.steps] == ["ok", "ok"]
    assert calls == {name: int(name in MESH_BUILDERS[kind]) for name in calls}
