import dataclasses
import re
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fem_helpers import DegenerateCluster, first_order_prediction, nondegeneracy
from steklovlab import _blas, cli, stability
from steklovlab.errors import InsufficientData
from steklovlab.materials import build_field, lp_diff_norm, PerturbationSpec
from steklovlab.mesh import generate_cube_mesh
from steklovlab.stability import RunConfig, fit_rate, run_study


class _StubPencil:
    """Minimal pencil interface for the synthetic prediction tests."""

    def __init__(self, A0, B):
        self.a0 = sp.csr_matrix(np.asarray(A0, dtype=complex))
        self.B = sp.csr_matrix(np.asarray(B, dtype=float))


# ----------------------------------------------------------------- fit_rate

def test_fit_rate_exact_cubic():
    x = np.array([0.2, 0.1, 0.05])
    fit = fit_rate(list(zip(x, 2.0 * x**3)))
    assert fit.slope == pytest.approx(3.0, abs=1e-10)
    assert fit.residual <= 1e-12


def test_fit_rate_square_root():
    x = np.array([0.4, 0.2, 0.1, 0.05])
    fit = fit_rate(list(zip(x, np.sqrt(x))))
    assert fit.slope == pytest.approx(0.5, abs=1e-10)


def test_fit_rate_constant_drift_flagged():
    x = np.array([0.4, 0.2, 0.1, 0.05])
    fit = fit_rate(list(zip(x, np.ones_like(x))))
    assert fit.slope == pytest.approx(0.0, abs=1e-10)
    # drift/norm grows as the norm shrinks: ratio relative to first step is large
    assert fit.bound_ratio_max == pytest.approx(0.4 / 0.05, rel=1e-10)


def test_fit_rate_needs_three_points():
    with pytest.raises(InsufficientData):
        fit_rate([(0.1, 0.1), (0.05, 0.05)])
    with pytest.raises(InsufficientData):
        fit_rate([(0.1, 0.1), (0.05, 0.0), (0.02, 0.01)])  # zero drift unusable


def test_fit_rate_refuses_one_norm():
    # a line through points that share one abscissa has no slope
    with pytest.raises(InsufficientData, match="norms equal"):
        fit_rate([(0.1, 0.2), (0.1, 0.3), (0.1, 0.25), (0.0, 0.1)])


# ------------------------------------------------------------ nondegeneracy

def test_nondegeneracy_real_vector():
    u = np.array([1.0, 2.0, 2.0])
    c = nondegeneracy(sp.eye(3, format="csr"), u[:, None])
    assert c == pytest.approx(9.0)


def test_nondegeneracy_complex_vector_can_vanish():
    u = np.array([1.0, 1j]) / np.sqrt(2)
    c = nondegeneracy(sp.eye(2, format="csr"), u[:, None])
    assert abs(c) <= 1e-15


def test_nondegeneracy_kernel_vector():
    B = sp.csr_matrix(np.diag([1.0, 0.0]))
    u = np.array([0.0, 1.0])
    assert nondegeneracy(B, u[:, None]) == 0


# ------------------------------------------------- first_order_prediction

def test_prediction_diagonal_pencil_exact():
    eta = 1e-3
    p0 = _StubPencil(np.diag([1.0, 2.0]), np.eye(2))
    ph = _StubPencil(np.diag([1.0 + eta, 2.0]), np.eye(2))
    u = np.array([1.0, 0.0])
    predicted, c = first_order_prediction(p0, ph, u[:, None])
    assert c == pytest.approx(1.0)
    assert predicted == pytest.approx(eta, rel=1e-12)
    # exact eigenvalue moved by exactly eta here, remainder 0
    assert abs(predicted - eta) <= 1e-15


def test_prediction_second_order_remainder():
    # perturb off-diagonally so the exact shift has an O(eta^2) tail
    u = np.array([1.0, 0.0])
    p0 = _StubPencil(np.diag([1.0, 2.0]), np.eye(2))
    rems = []
    for eta in (4e-3, 2e-3, 1e-3):
        dA = np.array([[eta, eta], [eta, 0.0]])
        ph = _StubPencil(np.diag([1.0, 2.0]) + dA, np.eye(2))
        predicted, _ = first_order_prediction(p0, ph, u[:, None])
        exact = np.linalg.eigvals(np.diag([1.0, 2.0]) + dA)
        lam = exact[np.argmin(np.abs(exact - 1.0))]
        rems.append(abs((lam - 1.0) - predicted))
    assert rems[0] / rems[1] == pytest.approx(4.0, rel=0.2)
    assert rems[1] / rems[2] == pytest.approx(4.0, rel=0.2)


def test_prediction_is_the_shift_of_the_cluster_mean():
    # the double eigenvalue 1 of (diag(1, 2, 10), diag(1, 2, 1)) has
    # u^T B u = 1 and 2 on its members: delta A = diag(eta, 0, 0) moves one
    # member by eta, so the mean by eta / 2, which tr(C^-1 G) / N gives and
    # the ratio of means mean(u^T delta A u) / mean(u^T B u) = eta / 3 misses
    eta = 1e-3
    B = np.diag([1.0, 2.0, 1.0])
    p0 = _StubPencil(np.diag([1.0, 2.0, 10.0]), B)
    ph = _StubPencil(np.diag([1.0 + eta, 2.0, 10.0]), B)
    predicted, c = first_order_prediction(p0, ph, np.eye(3)[:, :2])
    assert c == pytest.approx(1.5)
    exact = scipy.linalg.eigvals(ph.a0.toarray(), B)
    shift = np.sort(exact.real)[:2].mean() - 1.0
    assert shift == pytest.approx(eta / 2, rel=1e-12)
    assert predicted == pytest.approx(shift, rel=1e-12)


def test_prediction_zero_perturbation():
    p0 = _StubPencil(np.diag([1.0, 2.0]), np.eye(2))
    predicted, _ = first_order_prediction(p0, p0, np.array([1.0, 0.0])[:, None])
    assert predicted == 0


def test_prediction_refuses_degenerate():
    p0 = _StubPencil(np.diag([1.0, 2.0]), np.eye(2))
    ph = _StubPencil(np.diag([1.1, 2.0]), np.eye(2))
    u = np.array([1.0, 1j]) / np.sqrt(2)
    with pytest.raises(DegenerateCluster):
        first_order_prediction(p0, ph, u[:, None])


def test_prediction_refuses_cluster_with_an_isotropic_member():
    # a cluster of the triple eigenvalue 1 whose second member has
    # u_2^T u_2 = 0: C = diag(1, 0) is singular although c = 1/2
    p0 = _StubPencil(np.eye(3), np.eye(3))
    ph = _StubPencil(np.diag([1.1, 1.0, 1.0]), np.eye(3))
    vectors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1j]]).T / np.array([1.0, np.sqrt(2)])
    assert nondegeneracy(sp.eye(3, format="csr"), vectors) == pytest.approx(0.5)
    with pytest.raises(DegenerateCluster, match="sigma_min"):
        first_order_prediction(p0, ph, vectors)


# ---------------------------------------------------------------- run_study

@pytest.fixture(scope="module")
def cube3():
    return generate_cube_mesh(3)


def maxwell_setup(**kw):
    args = dict(
        omega=1.0,
        problem="maxwell",
        materials={"mu_inv": {1: 1.0}, "eps": {1: {"re": 4.0, "im": 1.0}}},
        center=(0.5, 0.5, 0.5),
        target="eps",
        schedule=[],
        p_list=(2.0, 4.0),
        sigma=2.3 + 0.0j,
        k=8,
        tol=1e-11,
    )
    args.update(kw)
    return RunConfig(**args)


def test_empty_schedule_no_drifts(cube3):
    report = run_study(maxwell_setup(), cube3)
    assert report.steps == []
    assert report.cluster_size >= 1
    assert all(d is None or d == 0 for d in [])  # trivially: no drift entries at all


def test_ball_outside_domain_gives_zero_drift(cube3):
    report = run_study(maxwell_setup(schedule=[(0.2, 1e-3j)], center=(5.0, 5.0, 5.0)), cube3)
    (step,) = report.steps
    assert step.status == "ok"
    assert step.drift == 0.0
    assert step.predicted == 0.0


def test_delta_halving_first_order_regime(cube3):
    report = run_study(maxwell_setup(
        schedule=[(0.45, 2e-3j), (0.45, 1e-3j)],
    ), cube3)
    steps = sorted(report.steps, key=lambda s: -abs(s.delta))
    ratio = steps[0].drift / steps[1].drift
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_norms_in_records_match_materials(cube3):
    h, delta = 0.4, 1e-3j
    report = run_study(maxwell_setup(schedule=[(h, delta)]), cube3)
    (step,) = report.steps
    eps0 = build_field(cube3, "eps", {1: {"re": 4.0, "im": 1.0}})
    eps_h = build_field(cube3, "eps", {1: {"re": 4.0, "im": 1.0}},
                        [PerturbationSpec((0.5, 0.5, 0.5), h, delta)])
    for p in (2.0, 4.0):
        assert step.norms["eps"][p] == pytest.approx(lp_diff_norm(eps_h, eps0, p), rel=1e-12)
    assert step.norms["mu_inv"][2.0] == 0.0


def test_step_norms_only_the_target_field(cube3, monkeypatch):
    # the field a step does not perturb is the baseline one: its norms are
    # written as 0.0, and lp_diff_norm runs once per step and p, plus once per
    # step for the L^inf change of the Weyl bound
    real = stability.lp_diff_norm
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stability, "lp_diff_norm", counted)
    setup = maxwell_setup(schedule=[(0.45, 1e-3j), (0.3, 1e-3j)])
    report = run_study(setup, cube3)
    assert len(calls) == len(report.steps) * (len(setup.p_list) + 1) == 6
    for step in report.steps:
        assert step.norms["mu_inv"] == {2.0: 0.0, 4.0: 0.0}
        assert all(v > 0.0 for v in step.norms["eps"].values())


def test_large_p_study_solves_every_step(cube3):
    # (1e-3)^128 underflows to 0.0, yet every step changes the pencil: each
    # solves, drifts as it does at p = 2 and has a positive norm, and a rate fits
    schedule = [(h, 1e-3j) for h in (0.45, 0.4, 0.35, 0.3)]
    large, small = (run_study(maxwell_setup(schedule=schedule, p_list=(p,), k=6), cube3)
                    for p in (128.0, 2.0))
    for step, ref in zip(large.steps, small.steps):
        assert step.status == "ok" and step.diag_kind == ref.diag_kind is not None
        assert step.drift == ref.drift > 0.0
        assert 0.0 < step.norms["eps"][128.0] < 1e-3
    assert 128.0 in large.fits


def test_prediction_vs_measured_small_delta(cube3):
    report = run_study(maxwell_setup(schedule=[(0.45, 1e-3j)]), cube3)
    (step,) = report.steps
    shift = step.lam - report.lambda0
    assert abs(shift - step.predicted) / abs(shift) <= 0.2


def test_double_cluster_records_its_mean(cube3):
    # centered ball = symmetric perturbation of the symmetric double cluster:
    # it stays a double, and a step records the mean of its two members,
    # which moves linearly in delta as the first-order prediction says
    report = run_study(maxwell_setup(
        schedule=[(0.45, 4e-3j), (0.45, 2e-3j), (0.45, 1e-3j), (0.45, 5e-4j)],
        target_lambda=2.50 - 0.13j,
        p_list=(4.0,),
    ), cube3)
    assert report.cluster_size == 2
    steps = sorted(report.steps, key=lambda s: -abs(s.delta))
    for step in steps:
        assert step.status == "ok"
        assert step.n_matched == 2
        assert step.cluster_diameter <= 1e-12
        shift = step.lam - report.lambda0
        assert step.drift == abs(shift)
        assert abs(shift - step.predicted) / abs(shift) <= 1e-4
    for larger, smaller in zip(steps, steps[1:]):
        assert larger.drift / smaller.drift == pytest.approx(2.0, rel=1e-3)
    fit = report.fits[4.0]
    assert fit.slope == pytest.approx(1.0, abs=1e-3)
    assert fit.residual <= 1e-5


def test_records_sorted_by_h(cube3):
    report = run_study(maxwell_setup(
        schedule=[(0.45, 1e-3j), (0.2, 1e-3j), (0.3, 1e-3j)],
    ), cube3)
    hs = [s.h for s in report.steps]
    assert hs == sorted(hs)


def test_tied_steps_in_schedule_order_and_independent(cube3, monkeypatch):
    # the steps run on two threads: tied h comes back in schedule order even
    # when step 0 ends after step 1, and each record is the one a study of
    # that step alone writes
    real = stability._run_step
    step1_done = threading.Event()

    def step0_last(*args):
        idx = args[-3]
        if idx == 0:
            step1_done.wait(timeout=10.0)
        rec = real(*args)
        if idx == 1:
            step1_done.set()
        return rec

    monkeypatch.setattr(stability, "_run_step", step0_last)
    schedule = [(0.42, 4e-3j), (0.42, 2e-3j), (0.42, 1e-3j)]
    report = run_study(maxwell_setup(schedule=schedule), cube3)
    monkeypatch.undo()
    assert [(s.index, s.h, s.delta) for s in report.steps] == [
        (i, h, delta) for i, (h, delta) in enumerate(schedule)]
    for step, entry in zip(report.steps, schedule):
        (alone,) = run_study(maxwell_setup(schedule=[entry]), cube3).steps
        assert step.status == "ok"
        assert dataclasses.replace(alone, index=step.index) == step


@pytest.mark.parametrize("problem", ["maxwell", "scalar"])
def test_steps_fill_no_shared_lazy_value(problem, monkeypatch):
    # the baseline fills pencil0.a0, prob.gram, prob.basis and every cached
    # mesh array a step reads, so the two step threads only read shared
    # state (a fresh mesh: the module fixture's arrays are already cached)
    real = stability._run_step
    seen = []

    def checked(cfg, prob, pencil0, *args):
        assert "a0" in vars(pencil0)
        # Problem's lazy operators, built by the baseline diagnostic
        assert {"gram", "basis"} & set(vars(prob)) == (
            {"gram", "basis"} if problem == "maxwell" else {"gram"})
        seen.append(set(vars(prob.mesh)))
        rec = real(cfg, prob, pencil0, *args)
        seen.append(set(vars(prob.mesh)))
        return rec

    monkeypatch.setattr(stability, "_run_step", checked)
    mesh = generate_cube_mesh(3)
    setup = maxwell_setup(problem=problem, schedule=[(0.45, 4e-3j), (0.3, 1e-3j), (0.45, -10.0)])
    if problem == "scalar":
        setup.sigma = 0.5 + 0.0j
    report = run_study(setup, mesh)
    assert [s.status == "ok" for s in report.steps] == [True, True, False]
    assert len(seen) == 6 and all(keys == set(vars(mesh)) for keys in seen)


def test_scalar_study_runs(cube3):
    report = run_study(RunConfig(
        omega=1.0,
        problem="scalar",
        materials={"mu_inv": {1: 1.0}, "eps": {1: {"re": 4.0, "im": 1.0}}},
        center=(0.5, 0.5, 0.5),
        target="eps",
        schedule=[(0.45, 1e-3j)],
        p_list=(4.0,),
        sigma=0.5 + 0.0j,
        k=6,
        tol=1e-10,
    ), cube3)
    (step,) = report.steps
    assert step.status == "ok"
    assert step.drift > 0
    shift = step.lam - report.lambda0
    assert abs(shift - step.predicted) / abs(shift) <= 0.25


def test_invalid_field_step_aborts(cube3):
    # perturbation large enough to destroy coercivity of Re(eps)
    report = run_study(maxwell_setup(schedule=[(0.45, -10.0 + 0j)]), cube3)
    (step,) = report.steps
    assert step.status.startswith("aborted-invalid-field")
    # no fields were built, so the summary row has empty norm cells, not zeros
    header, row = report.csv_rows()
    norm_cells = [c for name, c in zip(header, row) if name.startswith("norm_")]
    assert norm_cells and all(c is None for c in norm_cells)


def test_step_records_solver_flags_without_changing_status(cube3, monkeypatch):
    # an unconfirmed step solve is recorded as such but still matched; steps
    # that do no solve record null
    real = stability.solve_shift_invert
    calls = []

    def unconfirmed_steps(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res)
        if len(calls) > 1:
            res.meta["confirmed"] = False
        return res

    monkeypatch.setattr(stability, "solve_shift_invert", unconfirmed_steps)
    report = run_study(maxwell_setup(schedule=[(0.45, 1e-3j), (0.3, -10.0 + 0j)]), cube3)
    assert len(calls) == 2
    assert report.meta["baseline"] == {"confirmed": True, "partial": calls[0].meta["partial"]}
    invalid, solved = report.steps
    assert solved.status == "ok"
    assert (solved.confirmed, solved.partial) == (False, calls[1].meta["partial"])
    assert invalid.status.startswith("aborted-invalid-field")
    doc = cli._json_safe(invalid)
    assert doc["confirmed"] is None and doc["partial"] is None
    assert cli._json_safe(solved)["confirmed"] is False


def test_csv_rows_shape(cube3):
    report = run_study(maxwell_setup(schedule=[(0.45, 1e-3j)]), cube3)
    rows = report.csv_rows()
    assert len(rows) == 2
    assert len(rows[0]) == len(rows[1])
    assert rows[0][0] == "index"


def _step_pencil(cube3, setup, h, delta):
    """The Problem of ``setup`` and the pencil of its step (h, delta), built
    from scratch."""
    prob = stability.Problem(setup.problem, cube3, setup.omega)
    spec = PerturbationSpec(setup.center, h, delta, setup.target)
    fields = {name: build_field(cube3, name, setup.materials[name], [spec])
              for name in ("mu_inv", "eps")}
    return prob, prob.assemble(fields["mu_inv"], fields["eps"])


def test_study_solves_ask_for_what_the_record_reads(cube3, monkeypatch):
    # the baseline asks for max(k, MIN_STUDY_K) values, a step for its
    # cluster and one value more
    real = stability.solve_shift_invert
    asked = []

    def recording(A0, B, sigma, k, **kwargs):
        asked.append(k)
        return real(A0, B, sigma, k, **kwargs)

    monkeypatch.setattr(stability, "solve_shift_invert", recording)
    report = run_study(maxwell_setup(k=4, schedule=[(0.45, 1e-3j), (0.3, 1e-3j)]), cube3)
    assert [s.status for s in report.steps] == ["ok", "ok"]
    assert asked == [6] + [report.cluster_size + 1] * 2


def test_step_diagnostic_is_the_perturbation_bound(cube3):
    # |delta eps| = 1e-3 moves sigma_min by at most 1e-3: the bound passes,
    # and it lies below the step's own Lanczos value
    setup = maxwell_setup(schedule=[(0.45, 1e-3j), (0.3, 2e-3j)])
    report = run_study(setup, cube3)
    for step in report.steps:
        prob, pencil = _step_pencil(cube3, setup, step.h, step.delta)
        assert step.diag_kind == "bound"
        assert setup.diag_threshold <= step.diag_sigma <= prob.diagnostic(pencil)
    header, *rows = report.csv_rows()
    assert header[-2:] == ["diag_sigma", "diag_kind"]
    assert [row[-1] for row in rows] == ["bound", "bound"]


def test_step_falls_back_to_lanczos_below_the_bound(cube3):
    # a threshold between a step's bound and its Lanczos value: the bound
    # cannot certify the step, so it runs the diagnostic, which passes
    h, delta = 0.45, 4e-3j
    (bounded,) = run_study(maxwell_setup(schedule=[(h, delta)]), cube3).steps
    setup = maxwell_setup(schedule=[(h, delta)])
    prob, pencil = _step_pencil(cube3, setup, h, delta)
    lanczos = prob.diagnostic(pencil)
    assert bounded.diag_sigma < lanczos
    setup.diag_threshold = 0.5 * (bounded.diag_sigma + lanczos)
    (step,) = run_study(setup, cube3).steps
    assert step.diag_kind == "lanczos"
    assert step.diag_sigma == lanczos
    assert step.status == "ok"
    assert (step.lam, step.drift) == (bounded.lam, bounded.drift)


def test_step_outcome_does_not_depend_on_extra_values(cube3, monkeypatch):
    # asking a step for three more values than the guard test reads changes
    # neither its status nor its matched eigenvalue
    schedule = [(0.45, 2e-3j), (0.3, 1e-3j)]
    report = run_study(maxwell_setup(schedule=schedule), cube3)
    real = stability.solve_shift_invert
    asked = []

    def more_values(A0, B, sigma, k, **kwargs):
        if asked:                       # the first call is the baseline
            k += 3
        asked.append(k)
        return real(A0, B, sigma, k, **kwargs)

    monkeypatch.setattr(stability, "solve_shift_invert", more_values)
    wider = run_study(maxwell_setup(schedule=schedule), cube3)
    assert asked[1:] == [report.cluster_size + 4] * 2
    for a, b in zip(report.steps, wider.steps):
        assert (a.status, a.lam, a.drift) == (b.status, b.lam, b.drift)


def test_study_computes_at_one_blas_thread(cube3, monkeypatch):
    # called as a library function, not through the CLI: a study pins every
    # OpenBLAS pool to one thread while it runs and gives the counts back
    pools = _blas.blas_pools()
    assert pools
    before = [get() for get, _ in pools]
    real = stability._run_step
    inside = []

    def probed(*args):
        inside.append([get() for get, _ in pools])
        return real(*args)

    monkeypatch.setattr(stability, "_run_step", probed)
    setup = maxwell_setup(schedule=[(0.45, 2e-3j), (0.3, 1e-3j)])
    try:
        reports = []
        for threads in (2, 1):
            for _, set_ in pools:
                set_(threads)
            reports.append(run_study(setup, cube3))
            assert [get() for get, _ in pools] == [threads] * len(pools)
    finally:
        for (_, set_), n in zip(pools, before):
            set_(n)
    assert inside == [[1] * len(pools)] * 4
    assert cli._json_safe(reports[0]) == cli._json_safe(reports[1])


def _edit_step_solves(monkeypatch, edit):
    """Patch the study's solver so that the result of every solve after the
    first (the baseline) is ``edit(result)``."""
    real = stability.solve_shift_invert
    calls = []

    def edited(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res)
        return res if len(calls) == 1 else edit(res)

    monkeypatch.setattr(stability, "solve_shift_invert", edited)
    return calls


def _csv_cells(report):
    header, *rows = report.csv_rows()
    return [dict(zip(header, row)) for row in rows]


def _assert_unmatched(report, status, n_matched):
    (step,) = report.steps
    assert (step.status, step.n_matched) == (status, n_matched)
    assert step.confirmed is not None                    # the step solved
    assert (step.lam, step.drift, step.cluster_diameter, step.predicted) == (None,) * 4
    (cells,) = _csv_cells(report)
    assert cells["status"] == status
    assert (cells["drift"], cells["predicted_re"], cells["predicted_im"]) == (None,) * 3
    assert cells["diag_kind"] == "bound"


def test_step_with_no_value_in_the_guard_loses_track(cube3, monkeypatch):
    setup = maxwell_setup(schedule=[(0.45, 1e-3j)])
    ref = run_study(setup, cube3)
    calls = _edit_step_solves(monkeypatch, lambda res: dataclasses.replace(
        res, eigenvalues=res.eigenvalues[np.abs(res.eigenvalues - ref.lambda0)
                                         >= ref.guard_radius]))
    report = run_study(setup, cube3)
    assert len(calls) == 2
    _assert_unmatched(report, "lost-track", 0)


def test_step_with_one_value_too_many_in_the_guard_is_ambiguous(cube3, monkeypatch):
    setup = maxwell_setup(schedule=[(0.45, 1e-3j)])
    ref = run_study(setup, cube3)
    n = ref.cluster_size + 1
    _edit_step_solves(monkeypatch, lambda res: dataclasses.replace(
        res, eigenvalues=np.full(n, ref.lambda0)))
    report = run_study(setup, cube3)
    _assert_unmatched(report, "ambiguous", n)


def test_step_below_the_threshold_aborts_without_a_solve(cube3, monkeypatch):
    # the baseline diagnostic reads exactly the threshold, so the Weyl bound
    # (below the baseline value) cannot certify the step, and the step's own
    # diagnostic reads half the threshold
    values = []

    def diagnostic(self, pencil):
        values.append(1.0 if not values else 0.5)
        return values[-1]

    monkeypatch.setattr(stability.Problem, "diagnostic", diagnostic)
    calls = _edit_step_solves(monkeypatch, lambda res: res)
    report = run_study(maxwell_setup(schedule=[(0.45, 1e-3j)], diag_threshold=1.0), cube3)
    assert values == [1.0, 0.5]
    assert len(calls) == 1                                # the baseline only
    (step,) = report.steps
    assert step.status == "aborted-diagnostic"
    assert (step.diag_sigma, step.diag_kind) == (0.5, "lanczos")
    assert (step.confirmed, step.partial, step.n_matched, step.lam) == (None, None, 0, None)
    (cells,) = _csv_cells(report)
    assert (cells["status"], cells["diag_sigma"], cells["diag_kind"]) == (
        "aborted-diagnostic", 0.5, "lanczos")
    assert cells["drift"] is None and cells["norm_eps_p4"] > 0.0


def test_degenerate_cluster_records_no_prediction(cube3, monkeypatch):
    setup = maxwell_setup(schedule=[(0.45, 1e-3j)])
    (ref,) = run_study(setup, cube3).steps
    monkeypatch.setattr(stability, "C_THRESHOLD", 1e30)
    report = run_study(setup, cube3)
    (step,) = report.steps
    assert step.status == "ok"
    assert (step.lam, step.drift) == (ref.lam, ref.drift)
    assert ref.predicted is not None and ref.prediction_note == ""
    assert step.predicted is None
    assert re.fullmatch(r"sigma_min\(C\) = \S+ below threshold 1\.0e\+30 x \S+",
                        step.prediction_note)
    assert cli._json_safe(step)["prediction_note"] == step.prediction_note
    (cells,) = _csv_cells(report)
    assert cells["status"] == "ok" and cells["drift"] == ref.drift
    assert (cells["predicted_re"], cells["predicted_im"]) == (None, None)
