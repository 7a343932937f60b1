"""Span tracing of steklovlab's layers from outside the package.

``Tracer.install`` replaces the names that ``cli``, ``stability``,
``fem_maxwell`` and ``eigensolver`` look up at call time with wrappers that
record one span per call: (group, start, end, parent span).  The shifted
factorization is traced by handing ``eigensolver`` a stand-in for its
``scipy.sparse.linalg`` module whose ``splu`` returns a factor with a traced
``solve``.  ``Tracer.restore`` puts every original back.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer numbers.

Time metrics (seconds, summed over calls) are inclusive of nested spans,
with three exceptions: ``fem_maxwell.diag_s`` excludes the kernel basis it
builds itself (reported as ``fem_maxwell.basis_s``), ``cli.self_s`` and
``stability.self_s`` are self time (duration minus the time their child spans
cover), and ``eigensolver.krylov_s`` is ``solve_s - factor_s - certify_s``.
Gram applies and LU solves are nested in the solver and study spans.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

# group -> (owner module suffix or "Class@module", attribute names)
TARGETS = {
    "mesh": [("cli", ("generate_ball_mesh", "generate_cube_mesh", "load_mesh", "extract_boundary")),
             ("stability", ("extract_boundary",))],
    "materials": [("cli", ("build_field", "validate")),
                  ("stability", ("build_field", "lp_diff_norm"))],
    "fem_scalar.assemble": [("cli", ("assemble_scalar",)), ("stability", ("assemble_scalar",))],
    "fem_scalar.diag": [("cli", ("scalar_dirichlet_diagnostic",)),
                        ("stability", ("scalar_dirichlet_diagnostic",))],
    "fem_maxwell.assemble": [("cli", ("assemble_maxwell",)), ("stability", ("assemble_maxwell",))],
    "fem_maxwell.basis": [("stability", ("kernel_subspace_basis",)),
                          ("fem_maxwell", ("kernel_subspace_basis",))],
    "fem_maxwell.diag": [("cli", ("kernelS_diagnostic",)), ("stability", ("kernelS_diagnostic",))],
    "boundary_ops.setup": [("cli", ("assemble_surface_operators",)),
                           ("stability", ("assemble_surface_operators",))],
    "boundary_ops.gram": [("BoundaryGram@boundary_ops", ("matvec",))],
    "eigensolver.solve": [("cli", ("solve_shift_invert",)), ("stability", ("solve_shift_invert",))],
    "eigensolver.certify": [("eigensolver", ("pencil_residual",))],
    "eigensolver.cluster": [("cli", ("cluster", "sector_census")), ("stability", ("cluster",))],
    "stability.run": [("cli", ("run_study",))],
}

# per-layer metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "mesh.s": "s",
    "materials.s": "s",
    "materials.calls": "count",
    "fem_scalar.assemble_s": "s",
    "fem_scalar.diag_s": "s",
    "fem_maxwell.assemble_s": "s",
    "fem_maxwell.basis_s": "s",
    "fem_maxwell.basis_calls": "count",
    "fem_maxwell.diag_s": "s",
    "fem_maxwell.diag_calls": "count",
    "boundary_ops.setup_s": "s",
    "boundary_ops.gram_applies": "count",
    "boundary_ops.gram_apply_s": "s",
    "eigensolver.solve_s": "s",
    "eigensolver.solve_calls": "count",
    "eigensolver.applies": "count",
    "eigensolver.factor_s": "s",
    "eigensolver.lu_nnz": "count",
    "eigensolver.lu_solves": "count",
    "eigensolver.lu_solve_s": "s",
    "eigensolver.certify_calls": "count",
    "eigensolver.certify_s": "s",
    "eigensolver.certify_yield": "ratio",
    "eigensolver.krylov_s": "s",
    "eigensolver.cluster_s": "s",
    "stability.self_s": "s",
    "stability.steps": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class _TracedFactor:
    """A SuperLU factor whose ``solve`` records an ``eigensolver.lu_solve`` span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("eigensolver.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedLinalg:
    """Stand-in for ``scipy.sparse.linalg`` with a traced ``splu``."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def splu(self, *args, **kwargs):
        lu = self._tracer.call("eigensolver.factor", self._real.splu, args, kwargs)
        self._tracer.factors.append(lu)
        return _TracedFactor(lu, self._tracer)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [group, start, end, parent index]
        self.counts = {"applies": 0, "certified": 0, "steps": 0}
        self.factors = []        # kept until the run ends, for nnz(L+U)
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._tol = []           # tol of each open solve, for the certify yield

    def call(self, group, fn, args, kwargs):
        rec = [group, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, group, fn):
        tracer = self
        if group == "eigensolver.solve":
            signature = inspect.signature(fn)

            def solve(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._tol.append(bound.arguments["tol"])
                try:
                    result = tracer.call(group, fn, args, kwargs)
                finally:
                    tracer._tol.pop()
                tracer.counts["applies"] += int(result.meta["iterations"])
                return result
            return solve
        if group == "eigensolver.certify":
            def certify(*args, **kwargs):
                res = tracer.call(group, fn, args, kwargs)
                if tracer._tol and res <= tracer._tol[-1]:
                    tracer.counts["certified"] += 1
                return res
            return certify
        if group == "stability.run":
            def run_study(*args, **kwargs):
                report = tracer.call(group, fn, args, kwargs)
                tracer.counts["steps"] += len(report.steps)
                return report
            return run_study

        def traced(*args, **kwargs):
            return tracer.call(group, fn, args, kwargs)
        return traced

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self, package):
        """Wrap the traced names of ``package`` (the imported steklovlab)."""
        for group, sites in TARGETS.items():
            for where, names in sites:
                cls, _, mod = where.rpartition("@")
                owner = importlib.import_module(f"{package.__name__}.{mod}")
                if cls:
                    owner = getattr(owner, cls)
                for name in names:
                    self._set(owner, name, self._wrap(group, vars(owner)[name]))
        eig = importlib.import_module(f"{package.__name__}.eigensolver")
        self._set(eig, "spla", _TracedLinalg(eig.spla, self))

    def restore(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def restored(self):
        """True when every wrapped name holds its original object again."""
        return all(vars(owner)[name] is original for owner, name, original in self._patches)

    def root(self, fn, *args):
        """Run ``fn`` as a ``cli.run`` root span."""
        return self.call("cli.run", fn, args, {})

    def layer_metrics(self):
        spans = self.spans
        t = defaultdict(float)       # group -> inclusive seconds, outermost calls
        n = defaultdict(int)         # group -> outermost calls
        self_time = defaultdict(float)
        child = [0.0] * len(spans)
        basis_in_diag = 0.0
        for group, start, end, parent in spans:
            dur = end - start
            if parent >= 0:
                child[parent] += dur
                if spans[parent][0] == group:
                    continue            # nested call of the same layer
                if group == "fem_maxwell.basis" and spans[parent][0] == "fem_maxwell.diag":
                    basis_in_diag += dur
            t[group] += dur
            n[group] += 1
        for i, (group, start, end, _) in enumerate(spans):
            self_time[group] += (end - start) - child[i]

        certify_calls = n["eigensolver.certify"]
        return {
            "mesh.s": t["mesh"],
            "materials.s": t["materials"],
            "materials.calls": n["materials"],
            "fem_scalar.assemble_s": t["fem_scalar.assemble"],
            "fem_scalar.diag_s": t["fem_scalar.diag"],
            "fem_maxwell.assemble_s": t["fem_maxwell.assemble"],
            "fem_maxwell.basis_s": t["fem_maxwell.basis"],
            "fem_maxwell.basis_calls": n["fem_maxwell.basis"],
            "fem_maxwell.diag_s": t["fem_maxwell.diag"] - basis_in_diag,
            "fem_maxwell.diag_calls": n["fem_maxwell.diag"],
            "boundary_ops.setup_s": t["boundary_ops.setup"],
            "boundary_ops.gram_applies": n["boundary_ops.gram"],
            "boundary_ops.gram_apply_s": t["boundary_ops.gram"],
            "eigensolver.solve_s": t["eigensolver.solve"],
            "eigensolver.solve_calls": n["eigensolver.solve"],
            "eigensolver.applies": self.counts["applies"],
            "eigensolver.factor_s": t["eigensolver.factor"],
            # stored entries of both factors, summed over factorizations
            "eigensolver.lu_nnz": sum(int(lu.L.nnz + lu.U.nnz) for lu in self.factors),
            "eigensolver.lu_solves": n["eigensolver.lu_solve"],
            "eigensolver.lu_solve_s": t["eigensolver.lu_solve"],
            "eigensolver.certify_calls": certify_calls,
            "eigensolver.certify_s": t["eigensolver.certify"],
            "eigensolver.certify_yield": self.counts["certified"] / certify_calls if certify_calls else 0.0,
            "eigensolver.krylov_s": (t["eigensolver.solve"] - t["eigensolver.factor"]
                                     - t["eigensolver.certify"]),
            "eigensolver.cluster_s": t["eigensolver.cluster"],
            "stability.self_s": self_time["stability.run"],
            "stability.steps": self.counts["steps"],
            "cli.self_s": self_time["cli.run"],
        }
