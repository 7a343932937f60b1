import numpy as np
import pytest

from steklovlab.errors import AssumptionViolation, ConfigError
from steklovlab.fem_scalar import continuity_bound
from steklovlab.materials import (
    MaterialField,
    PerturbationSpec,
    build_field,
    lp_diff_norm,
    tensor_from_entry,
    validate,
)
from steklovlab.mesh import Mesh, generate_cube_mesh

I3 = np.eye(3)


@pytest.fixture(scope="module")
def cube4():
    return generate_cube_mesh(4)


def test_build_no_perturbation_equals_base(cube4):
    fld = build_field(cube4, "eps", {1: 2.0})
    assert np.array_equal(fld.tensors, np.broadcast_to(2.0 * I3 + 0j, fld.tensors.shape))


def test_build_zero_delta_identical(cube4):
    base = build_field(cube4, "eps", {1: 2.0})
    pert = build_field(
        cube4, "eps", {1: 2.0},
        [PerturbationSpec((0.5, 0.5, 0.5), 0.25, 0.0)],
    )
    assert np.array_equal(base.tensors, pert.tensors)


def test_build_ball_outside_domain_identical(cube4):
    base = build_field(cube4, "eps", {1: 2.0})
    pert = build_field(
        cube4, "eps", {1: 2.0},
        [PerturbationSpec((5.0, 5.0, 5.0), 0.5, 1e-2j)],
    )
    assert np.array_equal(base.tensors, pert.tensors)


def test_build_uncovered_region(cube4):
    with pytest.raises(ConfigError):
        build_field(cube4, "eps", {2: 1.0})


def test_build_rejects_invalid_field(cube4):
    with pytest.raises(AssumptionViolation):
        build_field(cube4, "eps", {1: -1.0})
    with pytest.raises(AssumptionViolation):
        build_field(cube4, "mu_inv", {1: {"re": 1.0, "im": 1.0}})


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec((0, 0, 0), 0.0, 1.0)
    with pytest.raises(ValueError):
        PerturbationSpec((0, 0, 0), 0.1, 1.0, target="nope")


def test_tensor_from_entry_shorthands():
    assert np.array_equal(tensor_from_entry(2.0), 2.0 * I3)
    t = tensor_from_entry({"re": 4.0, "im": 1.0})
    assert np.array_equal(t, (4 + 1j) * I3)
    full = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert np.array_equal(tensor_from_entry(full), np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigError):
        tensor_from_entry([1.0, 2.0])


@pytest.mark.parametrize("entry", [True, "4", {"re": True}, {"im": "1"}, None,
                                   [[1, 0, 0], [0, True, 0], [0, 0, 1]]])
def test_tensor_from_entry_refuses_booleans_and_strings(entry):
    with pytest.raises(ConfigError, match="must hold real numbers"):
        tensor_from_entry(entry)


def test_validate_identity(cube4):
    rep = validate(build_field(cube4, "eps", {1: 1.0}))
    assert rep.passed
    assert rep.coercivity_min == pytest.approx(1.0)
    assert rep.normality_defect <= 1e-15


def test_validate_absorbing_diag(cube4):
    fld = build_field(cube4, "eps", {1: {"re": 2.0, "im": 1.0}})
    rep = validate(fld, omega=2.0)
    assert rep.passed
    assert rep.coercivity_min == pytest.approx(2.0)
    assert rep.conductivity_min == pytest.approx(2.0)  # omega * Im(eps)


def test_validate_negative_real_part_fails(cube4):
    fld = MaterialField("eps", np.broadcast_to(-I3 + 0j, (cube4.n_tets, 3, 3)).copy(), cube4)
    rep = validate(fld)
    assert not rep.passed
    assert any("coercive" in f for f in rep.failures)


def test_lp_norm_zero_for_equal(cube4):
    f = build_field(cube4, "eps", {1: 3.0})
    g = build_field(cube4, "eps", {1: 3.0})
    for p in (1, 2, 4, np.inf):
        assert lp_diff_norm(f, g, p) == 0.0


def test_lp_norm_constant_shift_unit_cube(cube4):
    delta = 0.5 - 0.25j
    f = build_field(cube4, "eps", {1: 2.0})
    g = build_field(cube4, "eps", {1: tensor_from_entry(2.0) + delta * I3})
    for p in (1, 2, 4, 8):
        assert lp_diff_norm(f, g, p) == pytest.approx(abs(delta), rel=1e-12)
    assert lp_diff_norm(f, g, np.inf) == pytest.approx(abs(delta), rel=1e-12)


def test_lp_norm_ball_exact_volume(cube4):
    delta = 1e-3j
    spec = PerturbationSpec((0.5, 0.5, 0.5), 0.3, delta)
    f = build_field(cube4, "eps", {1: 2.0})
    g = build_field(cube4, "eps", {1: 2.0}, [spec])
    inside = np.linalg.norm(cube4.centroids - 0.5, axis=1) < 0.3
    vol = cube4.volumes[inside].sum()
    assert vol > 0
    # |delta|^p underflows to 0.0 for p above about 103; the norm does not
    for p in (1, 2, 4, 128, 1024):
        assert lp_diff_norm(f, g, p) == pytest.approx(abs(delta) * vol ** (1 / p), rel=1e-12)


def test_lp_norm_rejects_small_p(cube4):
    f = build_field(cube4, "eps", {1: 1.0})
    with pytest.raises(ValueError):
        lp_diff_norm(f, f, 0.5)


def test_holder_interpolation_randomized(cube4):
    # ||f||_{2p}^2 <= ||f||_p * ||f||_inf for piecewise-constant scalar fields
    rng = np.random.default_rng(7)
    base = build_field(cube4, "eps", {1: 1.0})
    for _ in range(20):
        vals = rng.exponential(size=cube4.n_tets) * np.exp(1j * rng.uniform(0, 2 * np.pi, cube4.n_tets))
        tensors = base.tensors + vals[:, None, None] * I3
        fld = MaterialField("eps", tensors, cube4)
        for p in (1.0, 2.0, 3.5):
            lhs = lp_diff_norm(fld, base, 2 * p) ** 2
            rhs = lp_diff_norm(fld, base, p) * lp_diff_norm(fld, base, np.inf)
            assert lhs <= rhs * (1 + 1e-12)


def test_ball_norm_ratio_tracks_volume(cube4):
    # nested element-resolved balls: lp ratios equal volume ratios exactly
    base = build_field(cube4, "eps", {1: 1.0})
    radii = (0.2, 0.3, 0.45)
    delta = 2.0
    vols = []
    norms = {p: [] for p in (1, 2, 4)}
    for h in radii:
        pert = build_field(cube4, "eps", {1: 1.0}, [PerturbationSpec((0.5, 0.5, 0.5), h, delta)])
        inside = np.linalg.norm(cube4.centroids - 0.5, axis=1) < h
        vols.append(cube4.volumes[inside].sum())
        for p in norms:
            norms[p].append(lp_diff_norm(pert, base, p))
    for p, vals in norms.items():
        for i in range(len(radii) - 1):
            assert vals[i] / vals[i + 1] == pytest.approx((vols[i] / vols[i + 1]) ** (1 / p), rel=1e-12)


def test_ball_norm_h_cubed_over_p_trend():
    # as the mesh resolves the ball, ||.||_p ~ |delta| (4pi/3)^(1/p) h^(3/p)
    mesh = generate_cube_mesh(12)
    base = build_field(mesh, "eps", {1: 1.0})
    radii = np.array([0.2, 0.25, 0.3, 0.38])
    for p in (1, 2, 4):
        norms = [
            lp_diff_norm(
                build_field(mesh, "eps", {1: 1.0}, [PerturbationSpec((0.5, 0.5, 0.5), h, 1.0)]),
                base, p,
            )
            for h in radii
        ]
        slope = np.polyfit(np.log(radii), np.log(norms), 1)[0]
        assert slope == pytest.approx(3.0 / p, rel=0.15)


def test_lp_norm_nondecreasing_in_p_on_unit_volume(cube4):
    # Hoelder on a volume<=1 domain: ||f||_p <= ||f||_q for p <= q.
    rng = np.random.default_rng(3)
    base = build_field(cube4, "eps", {1: 1.0})
    vals = rng.exponential(size=cube4.n_tets)
    fld = MaterialField("eps", base.tensors + vals[:, None, None] * I3, cube4)
    ps = [1, 1.5, 2, 4, 8, np.inf]
    norms = [lp_diff_norm(fld, base, p) for p in ps]
    for a, b in zip(norms, norms[1:]):
        assert a <= b * (1 + 1e-12)


def test_per_tensor_work_equals_per_element_work(cube4):
    # two regions and two overlapping balls: build_field labels the distinct
    # tensors, and every reduction over them must equal the per-element one
    mesh = Mesh(cube4.vertices, cube4.tets, region=1 + (cube4.centroids[:, 0] > 0.5))
    balls = [PerturbationSpec((0.5, 0.5, 0.5), 0.3, 2e-3j), PerturbationSpec((0.3, 0.5, 0.5), 0.3, 1e-3)]
    eps_base = {1: {"re": 4.0, "im": 1.0}, 2: {"re": [[3, 0.5, 0], [0.5, 3, 0], [0, 0, 2]], "im": 0.5}}
    eps = build_field(mesh, "eps", eps_base, balls, omega=1.0)
    eps0 = build_field(mesh, "eps", eps_base)
    mu = build_field(mesh, "mu_inv", {1: 1.0, 2: 2.5}, balls)
    for fld in (eps, eps0, mu):
        distinct = np.unique(fld.tensors.reshape(-1, 9), axis=0)
        assert len(np.unique(fld.labels)) == len(distinct) >= 2
        for label in np.unique(fld.labels):
            members = fld.tensors[fld.labels == label]
            assert np.array_equal(members, np.broadcast_to(members[0], members.shape))

    def plain(fld):         # no labels: every element counts as distinct
        return MaterialField(fld.name, fld.tensors, fld.mesh)

    assert validate(eps, 1.0) == validate(plain(eps), 1.0) == eps.report
    assert validate(mu) == validate(plain(mu))
    for p in (1.0, 2.5, np.inf):
        assert lp_diff_norm(eps, eps0, p) == lp_diff_norm(plain(eps), plain(eps0), p) > 0
        assert lp_diff_norm(eps0, mu, p) == lp_diff_norm(plain(eps0), plain(mu), p)
    assert continuity_bound(mesh, mu, eps, 1.3) == continuity_bound(mesh, plain(mu), plain(eps), 1.3)
