"""One workload repetition in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json SPAWN_TIME``.  ``SPAWN_TIME`` is
the parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide on Linux), so ``setup_s`` runs from interpreter start to
the first ``steklovlab.cli.run`` call: imports plus writing the generated
configs.  ``wall_s`` sums the ``cli.run`` calls.  Peak RSS is this process's
own ``getrusage`` maximum.  The result goes to ``result.json`` next to the
job file; traced runs also write their spans to ``spans.json``.
"""

import ctypes
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_OPENBLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                            "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """OpenBLAS libraries mapped into this process and their effective thread count."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if ".so" in line and "/" in line}
    except OSError:
        return found
    for path in sorted(paths):
        name = os.path.basename(path)
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _OPENBLAS_THREAD_GETTERS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[name] = fn()
                break
    return found


def main(job_path, spawn):
    sys.path.insert(0, str(SRC))
    steklovlab = importlib.import_module("steklovlab")
    cli = importlib.import_module("steklovlab.cli")
    job = json.loads(job_path.read_text())
    rep_dir = job_path.parent
    if not Path(steklovlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"steklovlab imported from {steklovlab.__file__}, not from {SRC}")
    for inv in job["invocations"]:
        with open(rep_dir / f"{inv['name']}.json", "w") as fh:
            json.dump(inv["config"], fh)

    tracer = None
    if job["traced"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(steklovlab)
    run = cli.run
    codes = []
    wall = 0.0
    setup = None
    try:
        for inv in job["invocations"]:
            start = time.monotonic()
            if setup is None:
                setup = start - spawn
            codes.append(tracer.root(run, inv["argv"]) if tracer else run(inv["argv"]))
            wall += time.monotonic() - start
    finally:
        if tracer:
            tracer.restore()

    result = {
        "codes": codes,
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "python": platform.python_version(),
            "numpy": importlib.import_module("numpy").__version__,
            "scipy": importlib.import_module("scipy").__version__,
            "blas_threads": blas_threads(),
        },
    }
    if tracer:
        result["restored"] = tracer.restored()
        result["layers"] = tracer.layer_metrics()
        with open(rep_dir / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    with open(rep_dir / "result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(Path(sys.argv[1]), float(sys.argv[2]))
