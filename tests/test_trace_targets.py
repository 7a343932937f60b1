"""The benchmark tracer (perfbench/tracing.py) wraps names that it looks up on
steklovlab modules and classes; each one must still exist there, and a solve
must still call it."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import steklovlab
from steklovlab import cli

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
                ("fem_maxwell.assemble_s", "fem_maxwell.diag_s", "fem_maxwell.basis_calls")),
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
