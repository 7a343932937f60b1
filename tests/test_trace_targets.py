"""The benchmark tracer (perfbench/tracing.py) wraps names that it looks up on
steklovlab modules and classes; each one must still exist there."""

import importlib
import importlib.util
from pathlib import Path

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
