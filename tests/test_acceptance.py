"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from ball_steklov_oracle import verified_spectrum
from fem_helpers import apply_S, project_Vh, solve_dense_oracle
from kernel_basis_oracle import dense_kernel_basis
from steklovlab._assembly import h1_gram
from steklovlab.boundary_ops import assemble_surface_operators
from steklovlab.cli import run as cli_run
from steklovlab.eigensolver import (
    _a0_norm,
    cluster,
    sector_census,
    solve_shift_invert,
)
from steklovlab.fem_maxwell import (
    assemble_maxwell,
    discrete_gradient,
    hcurl_gram,
    kernelS_diagnostic,
    kernel_subspace_basis,
)
from steklovlab.fem_scalar import assemble_scalar, scalar_dirichlet_diagnostic
from steklovlab.materials import build_field
from steklovlab.mesh import extract_boundary, generate_ball_mesh, generate_cube_mesh, refine_uniform
from steklovlab.stability import RunConfig, run_study

ABSORBING = {"re": 4.0, "im": 1.0}


def report(criterion, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {criterion} ({label}): {status}")
    assert not failures, f"criterion {criterion} ({label}): " + "; ".join(failures)


def unit_fields(mesh, eps_entry=1.0):
    return (
        build_field(mesh, "mu_inv", {1: 1.0}),
        build_field(mesh, "eps", {1: eps_entry}),
    )


def ball_benchmark(level):
    """Clustered scalar Steklov spectrum of the unit ball at omega = 0."""
    mesh = generate_ball_mesh(level)
    mu, eps = unit_fields(mesh)
    pencil = assemble_scalar(mesh, mu, eps, omega=0.0)
    res = solve_shift_invert(pencil.a0, pencil.B, 1.5, 17, tol=1e-9, seed=0)
    labels, means = cluster(res.eigenvalues, reltol=0.05)
    order = np.argsort(means.real)
    sizes = np.bincount(labels)[order]
    means = means[order]
    return mesh, means, sizes


def test_criterion_1_scalar_ball_benchmark():
    failures = []
    oracle = verified_spectrum(3)           # [(0,1), (1,3), (2,5), (3,7)], verified symbolically
    exact = np.array([k for k, _ in oracle], dtype=float)
    mults = np.array([m for _, m in oracle])
    scale = exact.max()

    mesh, means, sizes = ball_benchmark(3)   # ~1e4 vertices
    if mesh.n_vertices < 5000:
        failures.append(f"mesh too coarse: {mesh.n_vertices} vertices")
    if len(means) < 4:
        failures.append(f"only {len(means)} clusters found")
    errs_fine = {}
    for j, (k, mult) in enumerate(oracle):
        mean, size = means[j], sizes[j]
        if size != mult:
            failures.append(f"lambda={k}: multiplicity {size} != {mult}")
        if k == 0:
            if abs(mean) > 1e-8 * scale:
                failures.append(f"lambda=0 off by {abs(mean):.2e}")
        else:
            err = abs(mean - k) / k
            errs_fine[k] = err
            if err > 0.05:
                failures.append(f"lambda={k}: relative error {err:.3%} > 5%")

    # drift toward the exact values under one refinement
    _, means_c, sizes_c = ball_benchmark(2)
    for j, (k, mult) in enumerate(oracle):
        if k == 0:
            continue
        err_c = abs(means_c[j] - k) / k
        if errs_fine[k] > err_c + 1e-12:
            failures.append(f"lambda={k}: error grew under refinement ({err_c:.2e} -> {errs_fine[k]:.2e})")
    report(1, "scalar ball benchmark", failures)


def random_pencil(n, rank, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A0 = A + A.T
    s = np.linalg.svd(A0, compute_uv=False)
    if s[-1] < 0.05 * s[0]:
        A0 = A0 + (0.3 + 0.2j) * s[0] * np.eye(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.zeros(n)
    d[:rank] = rng.uniform(0.5, 2.0, rank)
    return A0, 0.5 * ((Q * d) @ Q.T + ((Q * d) @ Q.T).T)


def test_criterion_2_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(40, 201))
        rank = int(0.5 * n + rng.integers(0, n // 4))
        A0, B = random_pencil(n, rank, seed=100 + trial)
        sigma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        oracle = solve_dense_oracle(A0, B, residual_tol=1e-10)
        if oracle.residuals.size and oracle.residuals.max() > 1e-10:
            failures.append(f"trial {trial}: oracle certificate {oracle.residuals.max():.2e}")
        import scipy.sparse as sp

        res = solve_shift_invert(sp.csr_matrix(A0), sp.csr_matrix(B), sigma, 6,
                                 tol=1e-10, seed=trial)
        if len(res) < 6:
            failures.append(f"trial {trial}: only {len(res)} converged")
            continue
        if res.residuals.max() > 1e-10:
            failures.append(f"trial {trial}: certificate {res.residuals.max():.2e} > 1e-10")
        want = oracle.eigenvalues[np.argsort(np.abs(oracle.eigenvalues - sigma), kind="stable")][:6]
        for lam in res.eigenvalues:
            rel = np.abs(want - lam).min() / max(abs(lam), 1.0)
            if rel > 1e-8:
                failures.append(f"trial {trial}: eigenvalue mismatch {rel:.2e}")
                break
    report(2, "oracle equivalence on randomized pencils", failures)


def test_criterion_3_discrete_structure_exactness():
    failures = []
    cube = generate_cube_mesh(2)
    ball = generate_ball_mesh(0)
    meshes = [("cube", cube), ("cube+1", refine_uniform(cube)),
              ("ball", ball), ("ball+1", refine_uniform(ball))]
    rng = np.random.default_rng(3)
    for name, mesh in meshes:
        mu, eps = unit_fields(mesh)
        ops = assemble_surface_operators(extract_boundary(mesh), mesh)
        pencil = assemble_maxwell(mesh, mu, eps, 1.0, ops)
        G = discrete_gradient(mesh)

        kg = np.abs((pencil.K @ G).toarray()).max()
        if kg > 1e-10:
            failures.append(f"{name}: ||K_curl G|| = {kg:.2e}")

        z = rng.standard_normal(mesh.n_vertices)
        gz = G @ z
        scale = max(1.0, np.abs(gz).max())
        dg = np.abs(ops.D @ gz).max() / scale
        if dg > 1e-10:
            failures.append(f"{name}: ||D Gz|| = {dg:.2e}")
        bg = np.abs(pencil.B @ gz).max() / scale
        if bg > 1e-10:
            failures.append(f"{name}: ||B Gz|| = {bg:.2e}")

        u = np.zeros(mesh.n_edges)
        u[mesh.interior_edge_ids] = rng.standard_normal(len(mesh.interior_edge_ids))
        fld, _ = apply_S(ops, u)
        si = np.abs(fld).max()
        if si > 1e-10:
            failures.append(f"{name}: ||S(interior)|| = {si:.2e}")
    report(3, "discrete-structure exactness", failures)


def test_criterion_4_divergence_free_eigenvectors():
    failures = []
    mesh = generate_ball_mesh(1)
    mu, eps = unit_fields(mesh, ABSORBING)
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    pencil = assemble_maxwell(mesh, mu, eps, 1.0, ops)
    A0 = pencil.a0
    res = solve_shift_invert(A0, pencil.B, 2.3 + 0j, 8, tol=1e-10, seed=0)
    if len(res) < 8:
        failures.append(f"only {len(res)} pairs converged")
    a0n = _a0_norm(A0)
    G = discrete_gradient(mesh)
    projected = project_Vh(pencil, res.eigenvectors).projected
    for j in range(len(res)):
        lam, u = res.eigenvalues[j], res.eigenvectors[:, j]
        # reference scale: the achieved residual, floored at the roundoff
        # level of the projection's scalar solve
        ref = max(res.residuals[j], 1e-12)
        den = a0n * np.linalg.norm(u) + abs(lam) * np.linalg.norm(pencil.B @ u)
        div = pencil.omega**2 * np.linalg.norm(G.T @ (pencil.M @ u)) / den
        if div > 10.0 * ref:
            failures.append(f"pair {j}: divergence defect {div:.2e} > 10 x {ref:.2e}")
        change = np.linalg.norm(projected[:, j] - u) / np.linalg.norm(u)
        if change > 10.0 * ref:
            failures.append(f"pair {j}: projection change {change:.2e} > 10 x {ref:.2e}")
    report(4, "divergence-free eigenvectors", failures)


def _complete_spectrum_scalar(level, eps_entry, omega):
    mesh = generate_ball_mesh(level)
    mu, eps = unit_fields(mesh, eps_entry)
    pencil = assemble_scalar(mesh, mu, eps, omega)
    return solve_dense_oracle(pencil.a0.toarray(), pencil.B.toarray(),
                              residual_tol=1e-8)


def _complete_spectrum_maxwell(level, eps_entry, omega):
    mesh = generate_ball_mesh(level)
    mu, eps = unit_fields(mesh, eps_entry)
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    pencil = assemble_maxwell(mesh, mu, eps, omega, ops)
    return solve_dense_oracle(pencil.a0, pencil.B, residual_tol=1e-8)


def test_criterion_5_sector_property():
    failures = []
    absorbing = {"re": 2.0, "im": 1.0}   # spectrum clear of the pi/3 boundary
    delta = np.pi / 3.0

    # complete discrete spectra make the census over the fixed disk exact
    coarse = _complete_spectrum_scalar(1, absorbing, 1.0)
    fine = _complete_spectrum_scalar(2, absorbing, 1.0)
    R = 10.0 * float(np.median(np.abs(coarse.eigenvalues)))
    out_c = sector_census(coarse.eigenvalues, delta, R).outside
    out_f = sector_census(fine.eigenvalues, delta, R).outside
    if out_f > out_c:
        failures.append(f"scalar census grew {out_c} -> {out_f}")

    coarse_m = _complete_spectrum_maxwell(0, absorbing, 1.0)
    fine_m = _complete_spectrum_maxwell(1, absorbing, 1.0)
    Rm = 10.0 * float(np.median(np.abs(coarse_m.eigenvalues)))
    out_cm = sector_census(coarse_m.eigenvalues, delta, Rm).outside
    out_fm = sector_census(fine_m.eigenvalues, delta, Rm).outside
    if out_fm > out_cm:
        failures.append(f"maxwell census grew {out_cm} -> {out_fm}")

    # real eps: all converged eigenvalues real within 100x residual
    for name, runner, level in (("scalar", _scalar_real_run, 2), ("maxwell", _maxwell_real_run, 1)):
        res = runner(level)
        ref = 100.0 * res.residuals.max()
        rel_im = np.max(np.abs(res.eigenvalues.imag) / np.abs(res.eigenvalues))
        if rel_im > ref:
            failures.append(f"{name}: |Im|/|lambda| = {rel_im:.2e} > {ref:.2e}")
    report(5, "sector property and real spectra", failures)


def _scalar_real_run(level):
    mesh = generate_ball_mesh(level)
    mu, eps = unit_fields(mesh, 4.0)
    pencil = assemble_scalar(mesh, mu, eps, 1.0)
    return solve_shift_invert(pencil.a0, pencil.B, 1.0 + 0j, 15, tol=1e-9, seed=0)


def _maxwell_real_run(level):
    mesh = generate_ball_mesh(level)
    mu, eps = unit_fields(mesh, 4.0)
    ops = assemble_surface_operators(extract_boundary(mesh), mesh)
    pencil = assemble_maxwell(mesh, mu, eps, 1.0, ops)
    return solve_shift_invert(pencil.a0, pencil.B, 1.0 + 0j, 10, tol=1e-9, seed=0)


def test_criterion_6_stability_bound_and_prediction():
    failures = []
    mesh = generate_cube_mesh(5)
    common = dict(
        omega=1.0, problem="maxwell",
        materials={"mu_inv": {1: 1.0}, "eps": {1: ABSORBING}}, center=(0.5, 0.5, 0.5), target="eps",
        sigma=2.3 + 0.0j, k=8, tol=1e-11,
    )

    # (a) shrinking element-resolved radii at fixed delta: bound satisfaction
    radii = (0.42, 0.34, 0.26, 0.18)
    rep_a = run_study(RunConfig(
        schedule=[(h, 1e-3j) for h in radii], p_list=(2.0, 4.0, 8.0), **common), mesh)
    if any(s.status != "ok" for s in rep_a.steps):
        failures.append("study (a) has non-ok steps")
    norms = [s.norms["eps"][2.0] for s in rep_a.steps]
    if len(set(norms)) != len(norms):
        failures.append("radii do not give distinct element-resolved volumes")
    for p in (2.0, 4.0, 8.0):
        fit = rep_a.fits.get(p)
        if fit is None:
            failures.append(f"p={p}: no fit")
        elif fit.bound_ratio_max > 1.0 + 1e-6:
            failures.append(f"p={p}: bound violated, ratio {fit.bound_ratio_max:.4f}")

    # (b) delta halving at fixed radius: first-order prediction accuracy
    rep_b = run_study(RunConfig(
        schedule=[(0.42, 4e-3j), (0.42, 2e-3j), (0.42, 1e-3j)], p_list=(4.0,), **common), mesh)
    if abs(rep_b.c) <= 1e-8:
        failures.append(f"tracked cluster degenerate: |c| = {abs(rep_b.c):.2e}")
    steps = sorted(rep_b.steps, key=lambda s: -abs(s.delta))
    rems = []
    for s in steps:
        if s.status != "ok":
            failures.append(f"step delta={s.delta}: status {s.status}")
            continue
        shift = s.lam - rep_b.lambda0
        rems.append(abs(shift - s.predicted))
    smallest = steps[-1]
    rel = abs((smallest.lam - rep_b.lambda0) - smallest.predicted) / smallest.drift
    if rel > 0.20:
        failures.append(f"prediction error {rel:.2%} > 20% at smallest delta")
    if len(rems) == 3:
        for r1, r2 in ((rems[0], rems[1]), (rems[1], rems[2])):
            ratio = r1 / r2
            if not (2.0 <= ratio <= 6.0):
                failures.append(f"remainder ratio {ratio:.2f} outside 4 +- 50%")
    report(6, "stability bound and first-order prediction", failures)


def test_criterion_6c_lp_stability_at_full_amplitude():
    # delta = 4 doubles eps inside the ball and delta = -2 halves its real
    # part: the L^infinity norm of the perturbation stays fixed while the
    # radius shrinks, and the L^p claim (p < infinity) says the drift of the
    # cluster mean still vanishes at the rate of the small-delta study.  At
    # cluster_reltol 0.01 the tracked cluster is the triplet 2.36865 -
    # 0.11975i plus the double 2.38150 - 0.12252i, so a full-amplitude step
    # keeps all three members inside the guard.
    failures = []
    mesh = generate_cube_mesh(4)
    radii = (0.42, 0.34, 0.26, 0.18)

    def study(delta):
        return run_study(RunConfig(
            omega=1.0, problem="maxwell", materials={"mu_inv": {1: 1.0}, "eps": {1: ABSORBING}},
            center=(0.5, 0.5, 0.5), target="eps", sigma=2.3 + 0.0j, k=8, tol=1e-11,
            cluster_reltol=0.01, schedule=[(h, delta) for h in radii], p_list=(2.0, 4.0, 8.0)),
            mesh)

    small_slope = study(1e-3j).fits[2.0].slope
    for delta in (4.0, -2.0):
        rep = study(delta)
        if any(s.status != "ok" for s in rep.steps):
            failures.append(f"delta={delta}: non-ok steps")
            continue
        finest, coarsest = rep.steps[0], rep.steps[-1]      # sorted by h
        if coarsest.drift < 10.0 * finest.drift:
            failures.append(f"delta={delta}: drift falls only "
                            f"{coarsest.drift / finest.drift:.1f}x from h=0.42 to h=0.18")
        for p in (2.0, 4.0, 8.0):
            fit = rep.fits.get(p)
            if fit is None or fit.bound_ratio_max > 1.0 + 1e-6:
                failures.append(f"delta={delta}, p={p}: bound violated or no fit")
        fit = rep.fits.get(2.0)
        if fit is not None and abs(fit.slope - small_slope) > 0.1 * small_slope:
            failures.append(f"delta={delta}: p=2 slope {fit.slope:.3f} vs {small_slope:.3f} "
                            "at delta=1e-3i")
        for s in rep.steps:
            shift = s.lam - rep.lambda0
            rel = abs(shift - s.predicted) / abs(shift)
            if rel > (0.01 if s.h == 0.18 else 0.10):
                failures.append(f"delta={delta}, h={s.h}: prediction error {rel:.2%}")
    report("6(c)", "L^p stability at full amplitude", failures)


def test_criterion_7_assumption_diagnostics():
    failures = []

    # scalar: omega^2 at a computed interior Dirichlet eigenvalue (dense oracle)
    mesh = generate_ball_mesh(1)
    mu, eps = unit_fields(mesh)
    base = assemble_scalar(mesh, mu, eps, omega=0.0)
    interior = base.mesh.interior_vertex_ids
    K = base.K.toarray()[np.ix_(interior, interior)]
    M = base.M.toarray().real[np.ix_(interior, interior)]
    lam_dir = scipy.linalg.eigh(K, M, eigvals_only=True)[0]
    gram = h1_gram(mesh)
    s_base = scalar_dirichlet_diagnostic(base, gram)
    s_hit = scalar_dirichlet_diagnostic(
        assemble_scalar(mesh, mu, eps, omega=float(np.sqrt(lam_dir))), gram)
    if s_hit > 1e-8 * s_base:
        failures.append(f"scalar diagnostic did not drop: {s_hit:.2e} vs base {s_base:.2e}")

    mu_a, eps_a = unit_fields(mesh, {"re": 2.0, "im": 1.0})
    sweep = [
        scalar_dirichlet_diagnostic(assemble_scalar(mesh, mu_a, eps_a, float(om)), gram)
        for om in np.linspace(0.5, 6.0, 10)
    ]
    if min(sweep) <= 1e-6:
        failures.append(f"scalar absorbing sweep dipped to {min(sweep):.2e}")

    # maxwell analog on the projected problem
    cube = generate_cube_mesh(2)
    ops = assemble_surface_operators(extract_boundary(cube), cube)
    basis = kernel_subspace_basis(ops, hcurl_gram(cube))
    Q = dense_kernel_basis(basis)
    mu_c, eps_real = unit_fields(cube, 4.0)
    pencil = assemble_maxwell(cube, mu_c, eps_real, 1.0, ops)
    Kq = Q.T @ (pencil.K @ Q)
    Mq = Q.T @ (pencil.M.real @ Q)
    lam_proj = scipy.linalg.eigh(Kq, Mq, eigvals_only=True)
    lam_proj = lam_proj[lam_proj > 1e-8]
    k_base = kernelS_diagnostic(pencil, basis=basis)
    k_hit = kernelS_diagnostic(
        assemble_maxwell(cube, mu_c, eps_real, float(np.sqrt(lam_proj[0])), ops), basis=basis)
    if k_hit > 1e-8 * k_base:
        failures.append(f"kernel diagnostic did not drop: {k_hit:.2e} vs base {k_base:.2e}")

    _, eps_abs = unit_fields(cube, ABSORBING)
    sweep_m = [
        kernelS_diagnostic(assemble_maxwell(cube, mu_c, eps_abs, float(om), ops), basis=basis)
        for om in np.linspace(0.5, 4.0, 10)
    ]
    if min(sweep_m) <= 1e-6:
        failures.append(f"maxwell absorbing sweep dipped to {min(sweep_m):.2e}")
    report(7, "assumption diagnostics", failures)


def test_diagnostics_mesh_independent():
    # the energy-norm inf-sup constant converges under refinement, so a
    # well-posed pencil keeps its value on every level
    failures = []
    maxwell = []
    for level in (0, 1, 2):
        mesh = generate_ball_mesh(level)
        mu, eps = unit_fields(mesh, ABSORBING)
        ops = assemble_surface_operators(extract_boundary(mesh), mesh)
        basis = kernel_subspace_basis(ops, hcurl_gram(mesh))
        maxwell.append(kernelS_diagnostic(assemble_maxwell(mesh, mu, eps, 1.0, ops), basis))
    scalar = []
    for level in (1, 2):
        mesh = generate_ball_mesh(level)
        mu, eps = unit_fields(mesh, {"re": 2.0, "im": 1.0})
        pencil = assemble_scalar(mesh, mu, eps, 1.0)
        scalar.append(scalar_dirichlet_diagnostic(pencil, h1_gram(mesh)))
    for name, values in (("maxwell", maxwell), ("scalar", scalar)):
        if not all(0.0 < v <= 1.0 for v in values):
            failures.append(f"{name} values {values} outside (0, 1]")
        elif max(values) / min(values) > 1.05:
            failures.append(f"{name} values {values} vary by more than 5%")
    report("7b", "mesh-independent diagnostics", failures)


def test_criterion_8_determinism(tmp_path):
    failures = []
    config = {
        "problem": "scalar",
        "mesh": {"kind": "ball", "level": 3},
        "omega": 0.0,
        "materials": {"mu_inv": {"1": 1.0}, "eps": {"1": 1.0}},
        "solver": {"sigma_re": 1.5, "k": 17, "tol": 1e-9, "seed": 11,
                   "cluster_reltol": 0.05},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_run(["solve", "--config", str(cfg), "--output", str(out), "--seed", "11"])
        if code != 0:
            failures.append(f"{name}: exit code {code}")
        outs.append(out)
    if not failures:
        csv1 = (outs[0] / "eigenvalues.csv").read_bytes()
        csv2 = (outs[1] / "eigenvalues.csv").read_bytes()
        if csv1 != csv2:
            failures.append("eigenvalue CSVs differ between identical runs")
        meta1 = (outs[0] / "solve_meta.json").read_bytes()
        meta2 = (outs[1] / "solve_meta.json").read_bytes()
        if meta1 != meta2:
            failures.append("metadata differs between identical runs")
    report(8, "determinism", failures)
