"""Self-test of the benchmark on tiny inputs (scalar ball level 1, cube n=2).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted output counts as a failure, that a traced run puts every
wrapped name back, and that the benchmark refuses to run without sources.
"""

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def structural_check(rep_dir, invocations):
    """The gates every output must pass; tiny meshes miss the analytic targets."""
    fails = []
    for inv in invocations:
        out = rep_dir / inv.name
        if inv.command == "solve":
            cfg = inv.config["solver"]
            fails += workloads.check_solve_outputs(out, cfg["k"], cfg["tol"])[0]
        else:
            fails += workloads.check_study_outputs(out)[0]
    return fails


TINY_SOLVE = dataclasses.replace(workloads.WORKLOADS["scalar-ball-l2"], size=1,
                                 check=structural_check)
TINY_STUDY = dataclasses.replace(workloads.WORKLOADS["maxwell-cube-study"], size=2,
                                 check=structural_check)


def alter_digit(path: Path):
    """Change the first digit after the decimal point of the second CSV line."""
    lines = path.read_text().splitlines(keepends=True)
    head, dot, tail = lines[1].partition(".")
    lines[1] = head + dot + str((int(tail[0]) + 1) % 10) + tail[1:]
    path.write_text("".join(lines))


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)

    def assert_metrics(self, result, spec):
        want = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCH["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCH["per_layer"]},
                         tracing.LAYER_METRICS)

    def test_end_to_end_metrics(self):
        reps, _, result = run.run_workload(TINY_SOLVE, 3, 0, trace=False)
        self.assertTrue(result["correct"], [r.failures for r in reps])
        self.assertEqual(result["attempted"], 2 + len(run.PANEL_SEEDS))
        self.assert_metrics(result, BENCH["end_to_end"])
        self.assertEqual(result["metrics"]["pass_ratio"]["value"], 1.0)

    def test_per_layer_metrics_and_restore(self):
        reps, lines, result = run.run_workload(TINY_STUDY, 0, 0, trace=True)
        self.assertTrue(result["correct"], [r.failures for r in reps])
        self.assert_metrics(result, BENCH["per_layer"])
        self.assertTrue(all(r.result["restored"] for r in reps if r.kind == "traced"))
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertEqual(metrics["stability.steps"], 7)
        self.assertGreater(metrics["fem_maxwell.diag_calls"], 0)
        self.assertGreater(metrics["eigensolver.applies"], 0)
        self.assertTrue(any(line.startswith("thread_invariant") for line in lines))

    def test_corrupted_output_is_a_failure(self):
        def corrupt(rep_dir):
            alter_digit(rep_dir / "solve" / "eigenvalues.csv")

        reps, lines, result = run.run_workload(TINY_SOLVE, 0, 0, trace=False, corrupt=corrupt)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(reps[1].failures)
        self.assertIn("fail_ratio 1/", "\n".join(lines))

        # the gate alone rejects it too, without the determinism comparison
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            rep = run.run_rep(TINY_SOLVE, 0, Path(tmp), "plain", time.monotonic() + 120)
            self.assertEqual(rep.failures, [])
            out = next(Path(tmp).iterdir())
            alter_digit(out / "solve" / "eigenvalues.csv")
            self.assertTrue(TINY_SOLVE.check(out, TINY_SOLVE.invocations(0)))

    def test_tracer_restores_every_name(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import steklovlab
        import steklovlab.cli

        original = steklovlab.cli.solve_shift_invert
        tracer = tracing.Tracer()
        tracer.install(steklovlab)
        self.assertIsNot(steklovlab.cli.solve_shift_invert, original)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            tmp = Path(tmp)
            try:
                for inv in TINY_STUDY.invocations(0):
                    (tmp / f"{inv.name}.json").write_text(json.dumps(inv.config))
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = tracer.root(steklovlab.cli.run, inv.argv(tmp))
                    self.assertEqual(code, 0)
            finally:
                tracer.restore()
        self.assertTrue(tracer.restored())
        self.assertIs(steklovlab.cli.solve_shift_invert, original)
        self.assertGreater(len(tracer._patches), 20)
        for owner, name, original in tracer._patches:
            self.assertIs(vars(owner)[name], original, name)
        self.assertGreater(tracer.layer_metrics()["eigensolver.lu_solves"], 0)

    def test_refuses_to_run_without_sources(self):
        root = run.ROOT
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            run.ROOT = Path(tmp)
            try:
                code = run.main(["--workload", "scalar-ball-l2", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"])
            finally:
                run.ROOT = root
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
