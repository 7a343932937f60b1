import numpy as np
import pytest
import scipy.sparse as sp

from fem_helpers import DegenerateCluster, first_order_prediction, nondegeneracy
from steklovlab import cli, stability
from steklovlab.errors import InsufficientData
from steklovlab.materials import build_field, lp_diff_norm, PerturbationSpec
from steklovlab.mesh import generate_cube_mesh
from steklovlab.stability import RunConfig, fit_rate, run_study


class _StubPencil:
    """Minimal pencil interface for the synthetic prediction tests."""

    def __init__(self, A0, B):
        self._A0 = sp.csr_matrix(np.asarray(A0, dtype=complex))
        self.B = sp.csr_matrix(np.asarray(B, dtype=float))

    def a0(self):
        return self._A0


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


def test_nondegeneracy_empty_rejected():
    with pytest.raises(ValueError):
        nondegeneracy(sp.eye(2, format="csr"), np.zeros((2, 0)))


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
    # written as 0.0, and lp_diff_norm runs once per step and p
    real = stability.lp_diff_norm
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stability, "lp_diff_norm", counted)
    setup = maxwell_setup(schedule=[(0.45, 1e-3j), (0.3, 1e-3j)])
    report = run_study(setup, cube3)
    assert len(calls) == len(report.steps) * len(setup.p_list) == 4
    for step in report.steps:
        assert step.norms["mu_inv"] == {2.0: 0.0, 4.0: 0.0}
        assert all(v > 0.0 for v in step.norms["eps"].values())


def test_prediction_vs_measured_small_delta(cube3):
    report = run_study(maxwell_setup(schedule=[(0.45, 1e-3j)]), cube3)
    (step,) = report.steps
    shift = step.lam - report.lambda0
    assert abs(shift - step.predicted) / abs(shift) <= 0.2


def test_degenerate_cluster_tracked_and_mean_triangle(cube3):
    # centered ball = symmetric perturbation of the symmetric double cluster
    report = run_study(maxwell_setup(
        schedule=[(0.45, 4e-3j), (0.45, 2e-3j), (0.45, 1e-3j), (0.45, 5e-4j)],
        target_lambda=2.50 - 0.13j,
        p_list=(4.0,),
    ), cube3)
    assert report.cluster_size == 2
    for step in report.steps:
        assert step.status == "ok"
        assert step.n_matched == 2
        assert step.mean_drift <= step.drift + step.cluster_diameter + 1e-12
    # weighted-mean drift fits are at least as clean on symmetric perturbations
    fit = report.fits[4.0]
    mean_fit = report.mean_fits[4.0]
    assert mean_fit.residual <= fit.residual + 1e-8


def test_records_sorted_by_h(cube3):
    report = run_study(maxwell_setup(
        schedule=[(0.45, 1e-3j), (0.2, 1e-3j), (0.3, 1e-3j)],
    ), cube3)
    hs = [s.h for s in report.steps]
    assert hs == sorted(hs)


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
