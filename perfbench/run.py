"""steklovlab benchmark: workloads through the public CLI, one fresh process per repetition.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: repetitions run one after another, each in a
new interpreter (``perfbench/worker.py``) calling ``steklovlab.cli.run`` on
configs generated from a solver seed.  BLAS runs at the library default
thread count; the effective count is part of the environment record.

``--trace 0``: a gated but untimed warm-up, then timed repetitions that cycle
through the solver seeds ``--seed`` and ``PANEL_SEEDS``.  Each seed runs at
least once, and further repetitions start while the median repetition still
fits in ``--seconds``.  A metric is the median over the timed repetitions.
The Krylov work of the study workload depends on the start vectors (2437 to
3809 operator applies over 38 solver seeds when the benchmark was written), so
a run covers several seeds, and the panel shared by every run keeps runs on
different ``--seed`` values comparable.

``--trace 1``: warm-up, then untraced and traced repetitions of ``--seed``
and one at a single BLAS thread.  It reports the per-layer metrics of
``tracing.py`` (medians over traced repetitions) and ``trace.overhead_s``;
whether the outputs at one thread are identical is reported, not gated.  The
spans of the last traced repetition stay in ``.perfbench_work/NAME.spans.json``
as ``[group, start, end, parent index]`` lists.

A repetition fails if the CLI exits non-zero, the workload's correctness gate
rejects its outputs, or its output bytes differ from the first repetition on
the same seed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS, check, mesh_size, output_hashes

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
PANEL_SEEDS = (1_000_001, 1_000_002, 1_000_003)
RUN_LIMIT_S = 170.0          # a run ends within this, whatever --seconds says
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Rep:
    """Outcome of one repetition."""

    kind: str                   # "warmup" | "plain" | "traced" | "single-thread"
    seed: int
    result: dict | None         # the worker's result.json
    failures: list
    hashes: dict
    elapsed: float


def run_rep(workload, seed, parent_dir, kind, deadline, corrupt=None):
    rep_dir = Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=parent_dir))
    invocations = workload.invocations(seed)
    job = {
        "traced": kind == "traced",
        "invocations": [{"name": inv.name, "config": inv.config, "argv": inv.argv(rep_dir)}
                        for inv in invocations],
    }
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    if kind == "single-thread":
        env.update(SINGLE_THREAD_ENV)
    timeout = max(1.0, deadline - time.monotonic())
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(job_path), repr(start)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Rep(kind, seed, None, [f"timed out after {timeout:.0f} s"], {},
                   time.monotonic() - start)
    elapsed = time.monotonic() - start
    if proc.returncode != 0 or not (rep_dir / "result.json").is_file():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return Rep(kind, seed, None, [f"worker exited {proc.returncode}: {tail}"], {}, elapsed)
    result = json.loads((rep_dir / "result.json").read_text())
    failures = [f"cli exit code {c}" for c in result["codes"] if c != 0]
    if corrupt is not None:
        corrupt(rep_dir)
    if not failures:
        failures = check(workload, rep_dir, invocations)
    if result.get("restored") is False:
        failures.append("traced run left a wrapped name in place")
    result["mesh"] = mesh_size(rep_dir, invocations) if not failures else None
    if kind == "traced":
        shutil.copyfile(rep_dir / "spans.json", WORK / f"{workload.name}.spans.json")
    return Rep(kind, seed, result, failures, output_hashes(rep_dir, invocations), elapsed)


def schedule(seed, trace):
    """(kind, solver seed) of the repetitions that always run, and of those that then repeat."""
    if trace:
        return ([("warmup", seed), ("plain", seed), ("traced", seed), ("single-thread", seed)],
                [("traced", seed), ("plain", seed)])
    seeds = [("plain", s) for s in (seed, *PANEL_SEEDS)]
    return [("warmup", seed)] + seeds, seeds


def run_workload(workload, seed, seconds, trace, corrupt=None):
    """Run repetitions for ``seconds``; returns (repetitions, report lines, result).

    ``corrupt(rep_dir)``, if given, is applied to the outputs of the second
    repetition before they are checked.
    """
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    head, tail = schedule(seed, trace)
    reps = []
    try:
        while True:
            i = len(reps)
            kind, rep_seed = head[i] if i < len(head) else tail[(i - len(head)) % len(tail)]
            reps.append(run_rep(workload, rep_seed, run_dir, kind, hard_deadline,
                                corrupt if i == 1 else None))
            now = time.monotonic()
            typical = statistics.median(r.elapsed for r in reps)
            if now >= hard_deadline or (len(reps) >= len(head) and now + typical > start + seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return (reps, *summarize(workload, seed, reps, trace))


def _determinism(reps):
    """Fail each default-thread repetition whose outputs differ from the first on its seed.

    Returns the reference hashes per seed.
    """
    refs = {}
    for r in reps:
        if r.kind == "single-thread" or r.failures:
            continue
        ref = refs.setdefault(r.seed, r.hashes)
        if r.hashes != ref:
            r.failures.append("outputs differ from the first repetition on this seed: "
                              + ", ".join(k for k in ref if r.hashes.get(k) != ref[k]))
    return refs


def summarize(workload, seed, reps, trace):
    refs = _determinism(reps)
    attempted = len(reps)
    failed = sum(1 for r in reps if r.failures)
    lines = [f"workload {workload.name} seed {seed} trace {int(trace)}: "
             f"{attempted} repetitions, {failed} failed"]
    for i, r in enumerate(reps):
        status = "ok" if not r.failures else "FAILED: " + "; ".join(r.failures)
        timing = ""
        if r.result:
            timing = (f"wall {r.result['wall_s']:.4f} s, setup {r.result['setup_s']:.4f} s, "
                      f"rss {r.result['peak_rss_mb']:.1f} MB, ")
        lines.append(f"  rep {i + 1} [{r.kind}, solver seed {r.seed}] {timing}{status}")

    ok = [r for r in reps if r.result and not r.failures]
    env = next((r.result for r in ok if r.kind != "single-thread"), None)
    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **(env["environment"] if env else {}),
        "mesh": env["mesh"] if env else None,
    }
    lines.append("environment " + json.dumps(record, sort_keys=True))
    for s, hashes in refs.items():
        lines.append(f"output sha256 (solver seed {s}) " + json.dumps(hashes, sort_keys=True))

    metrics = {}
    plain = [r.result for r in ok if r.kind == "plain"]
    if trace:
        traced = [r.result for r in ok if r.kind == "traced"]
        single = [r for r in ok if r.kind == "single-thread"]
        for r in single:
            blas = r.result["environment"]["blas_threads"]
            same = r.hashes == refs.get(r.seed)
            lines.append(f"thread_invariant {str(same).lower()}: outputs at BLAS threads {blas} "
                         f"{'identical to' if same else 'differ from'} the default (reported, not gated)")
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                continue
            values = [t["layers"][name] for t in traced]
            if unit == "count" and len(set(values)) > 1:
                lines.append(f"note: count {name} differs between traced repetitions: {values}")
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = median(values) if values else 0.0
        metrics["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain)
            if traced and plain else 0.0)
        units = LAYER_METRICS
    else:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            values = [p[name] for p in plain]
            metrics[name] = statistics.median(values) if values else 0.0
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                lines.append(f"{name} median {metrics[name]:.4f} {END_TO_END[name]} "
                             f"(quartiles {q1:.4f} .. {q3:.4f}, {len(values)} repetitions)")
        metrics["pass_ratio"] = (attempted - failed) / attempted
        lines.append(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f} ratio")
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "steklovlab" / "cli.py").is_file():
        print(f"error: no steklovlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _, lines, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
