"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line.  Run with
    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from conftest import load_at_qp
from oracles import constant_p_eigenvalue, eigenvalue_by_shooting
from pxlap.eigen import first_eigenpair
from pxlap.existence import (
    Nonlinearity,
    OrderedBox,
    System,
    benchmark_family,
    build_ordered_box,
    check_hypotheses,
    negative_solutions,
    solve_in_box,
    verify_ordered_box,
)
from pxlap.exponents import ExponentField
from pxlap.mesh import GridFunction, build_interval_mesh, build_rectangle_mesh
from pxlap.modular import check_norm_modular, sobolev_norm
from pxlap.multiplicity import (
    HomotopyConfig,
    annulus_search,
    boundedness_probe,
    continuation,
    nonexistence_probe,
    pair_distance,
    solve_homotopy_system,
)
from pxlap.operator import (
    OperatorContext,
    assemble_jacobian,
    assembly_plan,
    comparison_check,
    mean_value_constant,
    picone,
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# shared benchmark system at the acceptance resolution ----------------------


@pytest.fixture(scope="module")
def bench256_system():
    mesh = build_interval_mesh(0.0, 1.0, 256)
    ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
    return System.build(ctx, ctx)


@pytest.fixture(scope="module")
def bench256(bench256_system):
    system = bench256_system
    eig = system.eigs[0]
    f = benchmark_family(system)
    hyp = check_hypotheses(f, system)
    return system.mesh, system.ctx1, eig, f, hyp


@pytest.fixture(scope="module")
def bench256_solution(bench256, bench256_system):
    mesh, ctx, eig, f, hyp = bench256
    box = build_ordered_box(f, bench256_system, hyp=hyp)
    pos = solve_in_box(box, f, bench256_system)
    return box, pos


def test_criterion_01_eigenvalue_consistency():
    t0 = time.time()
    mesh = build_interval_mesh(0.0, 1.0, 256)
    lam_1d = first_eigenpair(OperatorContext(mesh, ExponentField(mesh, 2.0))).lambda1
    t1 = time.time() - t0

    t0 = time.time()
    mesh3 = build_interval_mesh(0.0, 1.0, 512)
    lam_p3 = first_eigenpair(OperatorContext(mesh3, ExponentField(mesh3, 3.0))).lambda1
    t2 = time.time() - t0
    oracle_p3 = eigenvalue_by_shooting(3.0)
    closed_p3 = constant_p_eigenvalue(3.0)

    t0 = time.time()
    mesh2d = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 16, 16)
    lam_2d = first_eigenpair(OperatorContext(mesh2d, ExponentField(mesh2d, 2.0))).lambda1
    t3 = time.time() - t0

    err1 = abs(lam_1d - np.pi**2) / np.pi**2
    err3 = abs(lam_p3 - oracle_p3) / oracle_p3
    err2d = abs(lam_2d - 2 * np.pi**2) / (2 * np.pi**2)
    ok = (
        err1 < 0.01
        and err3 < 0.02
        and err2d < 0.03
        and abs(oracle_p3 - closed_p3) / closed_p3 < 1e-8
        and max(t1, t2, t3) < 30.0
    )
    report(
        "1 (eigenvalue consistency)",
        ok,
        f"p2 err {err1:.2e}, p3-vs-shooting err {err3:.2e}, 2D err {err2d:.2e}, "
        f"times {t1:.1f}/{t2:.1f}/{t3:.1f}s",
    )
    assert ok


def test_criterion_02_norm_modular_suite():
    t0 = time.time()
    mesh = build_interval_mesh(0.0, 1.0, 64)
    p = ExponentField(mesh, "2 + x")
    rng = np.random.default_rng(2024)
    worst_margin = np.inf
    worst_unit = 0.0
    for _ in range(1000):
        vals = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-2, 2)
        rep = check_norm_modular(GridFunction(mesh, vals), p)
        worst_margin = min(worst_margin, rep.chain_margin)
        worst_unit = max(worst_unit, rep.unit_residual)
    elapsed = time.time() - t0
    ok = worst_margin >= -1e-12 and worst_unit <= 1e-10 and elapsed < 10.0
    report(
        "2 (norm-modular suite)",
        ok,
        f"1000 fields, worst chain margin {worst_margin:.2e}, "
        f"worst unit residual {worst_unit:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_picone_suite():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    p = ExponentField(mesh, "2 + x")
    rng = np.random.default_rng(3)
    worst_gap = 0.0
    worst_neg = 0.0
    for _ in range(100):
        w1 = GridFunction(mesh, np.abs(rng.standard_normal(mesh.n_nodes)))
        w2 = GridFunction(mesh, 0.3 + np.abs(rng.standard_normal(mesh.n_nodes)))
        L1, L2 = picone(w1, w2, p)
        scale = np.maximum(np.abs(L1), 1.0)
        worst_gap = max(worst_gap, float(np.max(np.abs(L1 - L2) / scale)))
        worst_neg = min(worst_neg, float(np.min(L1)))
    ok = worst_gap <= 1e-8 and worst_neg >= -1e-10
    report(
        "3 (Picone suite)",
        ok,
        f"100 pairs, max rel |L1-L2| {worst_gap:.2e}, min L1 {worst_neg:.2e}",
    )
    assert ok


def test_criterion_04_mean_value_suite():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + x"))
    phi = GridFunction(mesh, mesh.nodes[:, 0] * (1.0 - mesh.nodes[:, 0]))
    rng = np.random.default_rng(4)
    m, M = 1.0, 2.0
    all_inside = True
    for _ in range(100):
        nodal = m + (M - m) * (0.01 + 0.98 * rng.random(mesh.n_nodes))
        k = GridFunction(mesh, nodal)
        khat = mean_value_constant(ctx, k.at_qp(), m, M, h=1.0, phi=phi)
        all_inside &= m < khat < M
    khat_const = mean_value_constant(ctx, 1.4, m, M, h=1.0, phi=phi)
    const_err = abs(khat_const - 1.4)
    ok = all_inside and const_err <= 1e-12
    report(
        "4 (mean-value suite)",
        ok,
        f"100 multipliers inside ({m},{M}): {all_inside}, constant recovery "
        f"error {const_err:.2e}",
    )
    assert ok


def test_criterion_05_comparison_suite():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    rng = np.random.default_rng(5)
    worst = -np.inf
    count = 0
    for pexpr in (2.0, 3.0, "2 + x"):
        ctx = OperatorContext(mesh, ExponentField(mesh, pexpr))
        for _ in range(17):
            base = 0.3 + 2.0 * rng.random()
            gap_expr = rng.random()
            rep = comparison_check(ctx, base, base + gap_expr)
            assert rep.conclusive
            worst = max(worst, rep.max_violation)
            count += 1
            if count >= 50:
                break
        if count >= 50:
            break
    # top up to exactly 50 pairs with coordinate-dependent right sides
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + x"))
    while count < 50:
        a = 0.3 + rng.random()
        rep = comparison_check(
            ctx, a, load_at_qp(mesh, lambda pts: a + 0.5 + 0.5 * np.sin(3 * pts[:, 0]) ** 2)
        )
        worst = max(worst, rep.max_violation)
        count += 1
    ok = worst <= 1e-8
    report(
        "5 (comparison suite)", ok, f"{count} ordered pairs, worst violation {worst:.2e}"
    )
    assert ok


def test_criterion_06_theorem1_pipeline(bench256, bench256_solution, bench256_system):
    mesh, ctx, eig, f, hyp = bench256
    box, pos = bench256_solution
    t0 = time.time()
    neg = negative_solutions(box, f, bench256_system, hyp=hyp)
    elapsed_neg = time.time() - t0

    c = box.constants
    p = ctx.p
    # (28): strict interior bound of the restricted enlarged eigenfunctions
    ok_28 = bool(np.all(box.u_sup1.values * c["eps_super"] > c["tau"]))
    # (67): admissible growth bound re-evaluated from the recorded pieces
    bound_67 = min(
        0.5 * lam_t * c["tau"] ** (p.p_max - 1.0) * sup_t ** (-(p.p_min - 1.0))
        for lam_t, sup_t in zip(c["lambda_tilde"], c["sup_phi_tilde"])
    )
    ok_67 = c["eta_bar"] < bound_67
    # (45): load domination at the chosen eps
    ok_45 = all(
        c["eps_super"] ** (-(p.p_min - 1.0)) * 0.5 * lam_t * c["tau"] ** (p.p_max - 1.0)
        >= c["c_rho"]
        for lam_t in c["lambda_tilde"]
    )
    # (32): growth envelope on random samples
    rng = np.random.default_rng(6)
    pts = mesh.quad_points.reshape(-1, 1)[:50]
    ok_32 = True
    for _ in range(300):
        s1 = rng.uniform(-3 * c["rho"], 3 * c["rho"], len(pts))
        s2 = rng.uniform(-3 * c["rho"], 3 * c["rho"], len(pts))
        for i, fi in enumerate((f.f1, f.f2)):
            own = (s1, s2)[i]
            ok_32 &= bool(
                np.all(
                    np.abs(fi(pts, s1, s2))
                    <= c["c_rho"] + c["eta_bar"] * np.abs(own) ** (p.p_min - 1.0) + 1e-12
                )
            )

    ordered = bool(
        np.all(box.u_sub1.values <= box.u_sup1.values)
        and np.all(box.u_sub2.values <= box.u_sup2.values)
    )
    odd_gap = max(
        float(np.max(np.abs(neg.u1.values + pos.u1.values))),
        float(np.max(np.abs(neg.u2.values + pos.u2.values))),
    )
    interior = mesh.interior_nodes
    ok = (
        ok_28 and ok_67 and ok_45 and ok_32 and ordered
        and pos.converged and pos.iterations <= 200
        and max(pos.residuals) <= 1e-8
        and bool(np.all(pos.u1.values[interior] > 0))
        and bool(np.all(pos.u2.values[interior] > 0))
        and neg.converged
        and bool(np.all(neg.u1.values[interior] < 0))
        and odd_gap <= 1e-9
        and elapsed_neg < 120.0
    )
    report(
        "6 (Theorem 1 pipeline)",
        ok,
        f"certificates 28/67/45/32 = {ok_28}/{ok_67}/{ok_45}/{ok_32}, "
        f"iters {pos.iterations}, residuals {max(pos.residuals):.2e}, "
        f"odd-symmetry gap {odd_gap:.2e}",
    )
    assert ok


def test_criterion_07_nonexistence_probe(bench256):
    """Faithful transcription of the stated criterion.

    The probe problem -Delta u = J (u+/max(1,||u||))^(p-1) + delta*lambda1*
    phi1^(p-1) admits, at constant exponent 2 with J < lambda1, the exact
    solution (delta*lambda1/(lambda1-J)) * phi1, which every seed finds; the
    criterion's expected outcome (zero converged solutions) is therefore
    unattainable and this test records the falsification honestly.  See
    the nonexistence-probe tests for the pinned library behavior.
    """
    mesh, ctx, eig, f, hyp = bench256
    J = 0.5 * eig.lambda1
    outcomes = {}
    for delta in (1e-2, 1e-3):
        rep = nonexistence_probe(ctx, eig, J=J, delta=delta, attempts=50, tolerance=1e-8)
        outcomes[delta] = rep
    ok = all(
        rep.applicable and rep.converged_count == 0 and rep.min_residual >= 10 * 1e-8
        for rep in outcomes.values()
    )
    detail = ", ".join(
        f"delta={d:g}: converged {rep.converged_count}/50, min residual {rep.min_residual:.2e}"
        for d, rep in outcomes.items()
    )
    report("7 (nonexistence probe)", ok, detail)
    assert ok, (
        "the probe problem has an exact discrete solution "
        "(delta*lambda1/(lambda1-J)) * phi1; zero converged attempts is "
        "mathematically unattainable at constant exponent (see the README "
        "section 'Tests and the acceptance suite' and tests/test_multiplicity.py"
        "::test_nonexistence_probe_detects_reference_solution)"
    )


def test_criterion_08_trivial_reference_family(bench256, bench256_system):
    mesh, ctx, eig, f, hyp = bench256
    cfg = HomotopyConfig()
    rng = np.random.default_rng(8)
    seeds = [GridFunction.zeros(mesh)]
    for c in (0.3, -0.5, 1.0, 2.0, 5.0):
        seeds.append(eig.phi.with_values(c * eig.phi.values))
    for _ in range(4):
        vals = np.zeros(mesh.n_nodes)
        vals[mesh.interior_nodes] = rng.standard_normal(len(mesh.interior_nodes))
        seeds.append(GridFunction(mesh, vals))
    worst = 0.0
    all_conv = True
    for s in seeds:
        rep = solve_homotopy_system(cfg, 0.0, f, bench256_system, s, s)
        all_conv &= rep.converged
        worst = max(
            worst,
            sobolev_norm(rep.u1, ctx.p) + sobolev_norm(rep.u2, ctx.p),
        )
    ok = all_conv and worst <= 1e-8
    report(
        "8 (trivial reference family)",
        ok,
        f"{len(seeds)} multistart attempts at t=0, worst pair norm {worst:.2e}",
    )
    assert ok


def test_criterion_09_homotopy_trace(bench256, bench256_solution, bench256_system):
    mesh, ctx, eig, f, hyp = bench256
    box, pos = bench256_solution
    cfg = HomotopyConfig()
    assert len(cfg.t_grid) == 11
    trace = continuation(cfg, f, bench256_system)
    bnd = boundedness_probe(trace)
    dists = [
        pair_distance(pair, (pos.u1, pos.u2), bench256_system)
        for pair in trace.steps[-1].solutions
    ]
    ok = (
        bnd.max_pair_norm < bnd.suggested_radius
        and bool(dists)
        and min(dists) <= 1e-7
    )
    report(
        "9 (homotopy trace)",
        ok,
        f"max pair norm {bnd.max_pair_norm:.2f} < auto radius "
        f"{bnd.suggested_radius:.2f}, distance to box solution {min(dists):.2e}",
    )
    assert ok


def test_criterion_10_annulus_search():
    from oracles import bratu_profile, bratu_solutions_by_shooting

    mesh = build_interval_mesh(0.0, 1.0, 96)
    ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
    system = System.build(ctx, ctx)
    lam = 1.0

    def f_own(x, s_own, s_other):
        return lam * np.exp(np.minimum(np.asarray(s_own, dtype=float), 50.0))

    f = Nonlinearity(
        f1=lambda x, s1, s2: f_own(x, s1, s2),
        f2=lambda x, s1, s2: f_own(x, s2, s1),
        eta1=1.0,
        eta2=1.0,
    )
    # dense shooting oracle enumerates the solution set first
    oracle = bratu_solutions_by_shooting(lam)
    assert len(oracle) == 2
    small = bratu_profile(lam, oracle[0][0], mesh.nodes[:, 0])
    sup = GridFunction(mesh, 1.05 * small)
    box = OrderedBox(GridFunction.zeros(mesh), GridFunction.zeros(mesh), sup, sup)
    assert verify_ordered_box(box, f, system).passed
    pos = solve_in_box(box, f, system)
    assert pos.converged

    cfg = HomotopyConfig(R=50.0)
    base = annulus_search(cfg, f, system, box, (pos.u1, pos.u2))
    inside = [s for s in base.solutions if s.inside_box]
    outside = [s for s in base.solutions if s.pair_norm > base.R_hat]
    distinct = bool(outside) and all(s.distance_to_known > 1e-3 for s in outside)

    perm = list(reversed(range(22)))
    swapped = annulus_search(cfg, f, system, box, (pos.u1, pos.u2), seed_order=perm)
    same_set = len(base.solutions) == len(swapped.solutions) and all(
        pair_distance((a.u1, a.u2), (b.u1, b.u2), system) < 1e-6
        for a, b in zip(base.solutions, swapped.solutions)
    )
    ok = (
        len(base.solutions) >= 2
        and base.second_solution_found
        and bool(inside)
        and distinct
        and same_set
    )
    report(
        "10 (annulus search)",
        ok,
        f"{len(base.solutions)} distinct pairs, inside-box {len(inside)}, "
        f"outside-radius {len(outside)}, permutation-identical {same_set}",
    )
    assert ok


def test_criterion_11_numerical_hygiene(tmp_path):
    # Jacobian vs central differences
    mesh = build_interval_mesh(0.0, 1.0, 24)
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + x"), eps_reg=1e-6)
    rng = np.random.default_rng(11)
    from pxlap.operator import _load_elements, _residual_full

    load_el = _load_elements(mesh, np.zeros((mesh.n_elements, mesh.n_qp)))
    interior = mesh.interior_nodes
    worst = 0.0
    for _ in range(20):
        vals = np.zeros(mesh.n_nodes)
        vals[interior] = rng.standard_normal(len(interior))
        J = assembly_plan(mesh).matrix([[assemble_jacobian(ctx, vals, eps=1e-6)]]).toarray()
        J_fd = np.zeros_like(J)
        for col, node in enumerate(interior):
            h = 1e-6
            up, dn = vals.copy(), vals.copy()
            up[node] += h
            dn[node] -= h
            J_fd[:, col] = (
                _residual_full(ctx, up, load_el, 1e-6)[interior]
                - _residual_full(ctx, dn, load_el, 1e-6)[interior]
            ) / (2 * h)
        worst = max(worst, np.max(np.abs(J - J_fd)) / max(np.max(np.abs(J)), 1.0))
    jac_ok = worst <= 1e-5

    # byte-identical JSON across repeated seeded runs
    from pxlap.cli import main

    cfg = tmp_path / "d.cfg"
    cfg.write_text("mesh.n = 64\nhomotopy.seeds = 6\n")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main([
            "probe-L9", "--config", str(cfg), "--output-dir", str(out),
            "--quiet", "--seed", "42",
        ])
        assert rc == 0
        blobs.append((out / "summary.json").read_bytes())
    json_ok = blobs[0] == blobs[1]

    ok = jac_ok and json_ok
    report(
        "11 (numerical hygiene)",
        ok,
        f"Jacobian FD worst rel err {worst:.2e}, byte-identical JSON {json_ok}",
    )
    assert ok
