import numpy as np
import pytest

from pxlap import existence
from pxlap.eigen import first_eigenpair
from pxlap.errors import ConstructionError
from pxlap.existence import (
    OrderedBox,
    Nonlinearity,
    benchmark_family,
    build_ordered_box,
    check_hypotheses,
    construct_supersolution,
    eta_threshold,
    negative_solutions,
    solve_in_box,
    verify_ordered_box,
)
from pxlap.exponents import ExponentField
from pxlap.mesh import GridFunction, build_interval_mesh
from pxlap.operator import OperatorContext, dirichlet_solve


@pytest.fixture(scope="module")
def system64(ctx2_64, eig2_64):
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    hyp = check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    return f, hyp


@pytest.fixture(scope="module")
def box64(system64, ctx2_64, eig2_64):
    f, hyp = system64
    return build_ordered_box(f, ctx2_64, ctx2_64, eig2_64, eig2_64, hyp=hyp)


def test_benchmark_hypotheses_pass(system64):
    f, hyp = system64
    assert hyp.passed
    assert hyp.rho_hat is not None and hyp.rho_hat > 0
    assert hyp.eta_declared[0] > hyp.thresholds[0]


def test_constant_f_fails_negative_branch(ctx2_64, eig2_64):
    f = Nonlinearity(
        f1=lambda x, s1, s2: np.ones(len(np.atleast_2d(x))),
        f2=lambda x, s1, s2: np.ones(len(np.atleast_2d(x))),
        eta1=2.0 * eta_threshold(eig2_64, ctx2_64.p),
        eta2=2.0 * eta_threshold(eig2_64, ctx2_64.p),
    )
    hyp = check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    # f/s^(p-1) -> +inf as s -> 0+, so the positive branch holds, but the
    # s -> 0- branch has ratio -> -inf
    assert hyp.small_growth_positive
    assert not hyp.small_growth_negative
    assert not hyp.passed


def test_eta_below_threshold_fails(ctx2_64, eig2_64):
    thr = eta_threshold(eig2_64, ctx2_64.p)
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    low = Nonlinearity(f1=f.f1, f2=f.f2, eta1=0.9 * thr, eta2=0.9 * thr)
    hyp = check_hypotheses(low, ctx2_64, ctx2_64, eig2_64, eig2_64)
    assert not hyp.eta_above_threshold
    assert not hyp.passed


def test_threshold_sharpness(ctx2_64, eig2_64, monkeypatch):
    # scaling the benchmark eta across the threshold flips the verdict
    thr = eta_threshold(eig2_64, ctx2_64.p)
    monkeypatch.setattr(existence, "_ETA_FACTOR", 1.01)
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    assert check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64).eta_above_threshold
    below = Nonlinearity(f1=f.f1, f2=f.f2, eta1=0.99 * thr, eta2=0.99 * thr)
    assert not check_hypotheses(below, ctx2_64, ctx2_64, eig2_64, eig2_64).eta_above_threshold


def test_supersolution_certificate(system64, ctx2_64, eig2_64):
    f, hyp = system64
    sup = construct_supersolution(f, ctx2_64, ctx2_64)
    c = sup.constants
    # independent re-evaluation of every certificate inequality
    assert np.all(sup.enlarged1.phi_restricted.values > c["tau"])
    assert np.all(sup.enlarged2.phi_restricted.values > c["tau"])
    for i, enl in enumerate((sup.enlarged1, sup.enlarged2)):
        p = (ctx2_64.p, ctx2_64.p)[i]
        bound = (
            0.5
            * enl.pair.lambda1
            * c["tau"] ** (p.p_max - 1.0)
            * enl.sup_phi_tilde ** (-(p.p_min - 1.0))
        )
        assert c["eta_bar"] < bound
        assert (
            c["eps_super"] ** (-(p.p_min - 1.0)) * 0.5 * enl.pair.lambda1
            * c["tau"] ** (p.p_max - 1.0)
            >= c["c_rho"]
        )
    # the bound realized by c_rho and eta_bar: |f| <= c_rho + eta_bar|s|^(p-1)
    rng = np.random.default_rng(7)
    x = ctx2_64.mesh.quad_points.reshape(-1, 1)[:40]
    for _ in range(200):
        s1 = rng.uniform(-5 * c["rho"], 5 * c["rho"], len(x))
        s2 = rng.uniform(-5 * c["rho"], 5 * c["rho"], len(x))
        for i, fi in enumerate((f.f1, f.f2)):
            own = (s1, s2)[i]
            lhs = np.abs(fi(x, s1, s2))
            rhs = c["c_rho"] + c["eta_bar"] * np.abs(own) ** (ctx2_64.p.p_min - 1.0)
            assert np.all(lhs <= rhs + 1e-12)


def test_halved_eps_still_valid(system64, ctx2_64, eig2_64):
    f, hyp = system64
    sup = construct_supersolution(f, ctx2_64, ctx2_64)
    c = sup.constants
    eps = 0.5 * c["eps_super"]
    for i, enl in enumerate((sup.enlarged1, sup.enlarged2)):
        p = ctx2_64.p
        assert (
            eps ** (-(p.p_min - 1.0)) * 0.5 * enl.pair.lambda1 * c["tau"] ** (p.p_max - 1.0)
            >= c["c_rho"]
        )


def test_equal_contexts_share_the_enlarged_eigenpair(monkeypatch, system64, ctx2_64, eig2_64):
    # equal contexts (one mesh, one exponent field, equal settings) used to
    # solve the same enlarged eigenproblem once per component
    calls = []
    real = existence.enlarged_eigenpair
    monkeypatch.setattr(
        existence, "enlarged_eigenpair", lambda ctx, margin: calls.append(ctx) or real(ctx, margin)
    )
    f, _ = system64
    twin = OperatorContext(ctx2_64.mesh, ctx2_64.p)
    construct_supersolution(f, ctx2_64, twin)
    assert len(calls) == 1

    calls.clear()
    other = OperatorContext(ctx2_64.mesh, ExponentField(ctx2_64.mesh, "2 + 0.1*x"))
    eig_other = first_eigenpair(other)
    f = benchmark_family(ctx2_64, other, eig2_64, eig_other)
    construct_supersolution(f, ctx2_64, other)
    assert calls == [ctx2_64, other]


def test_subsolution_bounds(system64, box64, ctx2_64, eig2_64):
    f, hyp = system64
    eps = box64.constants["eps_sub"]
    assert eps * eig2_64.phi.max_abs() <= hyp.rho_hat
    assert np.all(box64.u_sub1.values <= box64.u_sup1.values)
    interior = ctx2_64.mesh.interior_nodes
    assert np.all(box64.u_sub1.values[interior] > 0)
    assert np.all(box64.u_sub1.values[interior] < box64.u_sup1.values[interior])


def test_box_verification_margins(box64):
    v = box64.verification
    assert v.passed
    assert max(v.worst_sub_margin) <= v.slack
    assert min(v.worst_sup_margin) >= -v.slack


def test_oversized_subsolution_flagged(system64, ctx2_64, eig2_64, box64):
    f, hyp = system64
    # eigenfunction multiples stop being subsolutions once the amplitude
    # outgrows the bounded nonlinearity; force one far beyond that point
    eps_big = 10.0
    u1 = eig2_64.phi.with_values(eps_big * eig2_64.phi.values)
    u2 = eig2_64.phi.with_values(eps_big * eig2_64.phi.values)
    forced = OrderedBox(u1, u2, box64.u_sup1, box64.u_sup2)
    rep = verify_ordered_box(forced, f, ctx2_64, ctx2_64)
    assert max(rep.worst_sub_margin) > rep.slack
    assert not rep.passed


def test_degenerate_zero_subsolution(ctx2_64, eig2_64):
    # f >= 0 with zero subsolution: the box passes trivially
    mesh = ctx2_64.mesh
    f0 = Nonlinearity(
        f1=lambda x, s1, s2: np.full(len(np.atleast_2d(x)), 0.5),
        f2=lambda x, s1, s2: np.full(len(np.atleast_2d(x)), 0.5),
        eta1=1.0,
        eta2=1.0,
    )
    sup = dirichlet_solve(ctx2_64, 1.0).u  # dominates the 0.5 load
    box = OrderedBox(
        GridFunction.zeros(mesh),
        GridFunction.zeros(mesh),
        sup,
        sup,
    )
    rep = verify_ordered_box(box, f0, ctx2_64, ctx2_64)
    assert max(rep.worst_sub_margin) <= rep.slack


def test_solve_in_box_benchmark(system64, box64, ctx2_64):
    f, hyp = system64
    res = solve_in_box(box64, f, ctx2_64, ctx2_64)
    assert res.converged
    assert res.iterations <= 200
    assert max(res.residuals) <= 1e-8
    assert res.interior_positive
    assert box64.contains(res.u1, res.u2, tol=0.0)  # containment is enforced
    assert res.pretruncation_violation <= 1e-6  # raw solves barely leave the box


def test_solve_in_box_newton_crosscheck(system64, box64, ctx2_64):
    # independent coupled damped-Newton solve seeded from the box midpoint
    # (the subsolution itself sits in the trivial solution's basin)
    from pxlap.multiplicity import solve_coupled

    f, hyp = system64
    res = solve_in_box(box64, f, ctx2_64, ctx2_64)
    mid1 = box64.u_sub1.with_values(0.5 * (box64.u_sub1.values + box64.u_sup1.values))
    mid2 = box64.u_sub2.with_values(0.5 * (box64.u_sub2.values + box64.u_sup2.values))
    rep = solve_coupled(ctx2_64, ctx2_64, f.f1, f.f2, mid1, mid2, tol=1e-11)
    assert rep.converged
    assert np.max(np.abs(rep.u1.values - res.u1.values)) < 1e-7
    assert np.max(np.abs(rep.u2.values - res.u2.values)) < 1e-7


def test_solve_in_box_decoupled_matches_scalar(ctx2_64, eig2_64):
    # no coupling: the Gauss-Seidel iteration must agree with two
    # independent scalar fixed-point solves
    thr = eta_threshold(eig2_64, ctx2_64.p)
    A = 2.5 * thr

    def scalar_f(x, s_own, s_other):
        s = np.asarray(s_own)
        return A * s / (1.0 + np.abs(s))

    f = Nonlinearity(f1=scalar_f, f2=lambda x, s1, s2: scalar_f(x, s2, s1),
                     eta1=1.1 * thr, eta2=1.1 * thr)
    hyp = check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    box = build_ordered_box(f, ctx2_64, ctx2_64, eig2_64, eig2_64, hyp=hyp)
    res = solve_in_box(box, f, ctx2_64, ctx2_64)
    assert res.converged

    u = box.u_sub1
    for _ in range(200):
        rhs = scalar_f(None, u.at_qp(), None)
        new = dirichlet_solve(ctx2_64, rhs, initial=u).u
        new = new.with_values(box.clip(1, new.values))
        delta = np.max(np.abs(new.values - u.values))
        u = new
        if delta <= 1e-10:
            break
    assert np.max(np.abs(u.values - res.u1.values)) < 1e-9


def test_solve_in_box_from_supersolution(system64, box64, ctx2_64):
    f, hyp = system64
    res = solve_in_box(box64, f, ctx2_64, ctx2_64, start="sup")
    assert res.converged
    assert box64.contains(res.u1, res.u2, tol=0.0)


def test_negative_solutions_odd_symmetry(system64, box64, ctx2_64):
    f, hyp = system64
    pos = solve_in_box(box64, f, ctx2_64, ctx2_64)
    neg = negative_solutions(box64, f, ctx2_64, ctx2_64, hyp=hyp)
    assert neg.converged
    interior = ctx2_64.mesh.interior_nodes
    assert np.all(neg.u1.values[interior] < 0)
    assert np.all(neg.u2.values[interior] < 0)
    # benchmark is odd in its own argument with even coupling
    assert np.max(np.abs(neg.u1.values + pos.u1.values)) < 1e-9
    assert np.max(np.abs(neg.u2.values + pos.u2.values)) < 1e-9


def test_negative_solutions_non_odd(ctx2_64, eig2_64):
    thr = eta_threshold(eig2_64, ctx2_64.p)
    A = 2.5 * thr

    def f1(x, s1, s2):
        s = np.asarray(s1)
        skew = np.where(s >= 0, 1.0, 0.8)  # breaks odd symmetry
        return A * skew * s / (1.0 + np.abs(s))

    f = Nonlinearity(f1=f1, f2=lambda x, s1, s2: f1(x, s2, s1),
                     eta1=1.05 * thr, eta2=1.05 * thr)
    hyp = check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    assert hyp.passed
    box = build_ordered_box(f, ctx2_64, ctx2_64, eig2_64, eig2_64, hyp=hyp)
    pos = solve_in_box(box, f, ctx2_64, ctx2_64)
    neg = negative_solutions(box, f, ctx2_64, ctx2_64, hyp=hyp)
    assert neg.converged and pos.converged
    assert max(neg.residuals) <= 1e-8
    # genuinely different from the mirrored positive pair
    assert np.max(np.abs(neg.u1.values + pos.u1.values)) > 1e-3


def test_mesh_refinement_agreement(eig2_64):
    sols = {}
    for n in (64, 128):
        mesh = build_interval_mesh(0.0, 1.0, n)
        ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
        eig = first_eigenpair(ctx)
        f = benchmark_family(ctx, ctx, eig, eig)
        hyp = check_hypotheses(f, ctx, ctx, eig, eig)
        box = build_ordered_box(f, ctx, ctx, eig, eig, hyp=hyp)
        res = solve_in_box(box, f, ctx, ctx)
        assert res.converged
        sols[n] = res.u1
    coarse = sols[64].values
    fine_at_coarse = sols[128].values[::2]
    # O(h) nodal agreement on the benchmark
    assert np.max(np.abs(coarse - fine_at_coarse)) < 0.5 / 64


def test_variable_exponent_pipeline_smoke():
    # mild variation: the construction certifies end to end
    mesh = build_interval_mesh(0.0, 1.0, 64)
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + 0.1*x"))
    eig = first_eigenpair(ctx)
    f = benchmark_family(ctx, ctx, eig, eig)
    hyp = check_hypotheses(f, ctx, ctx, eig, eig)
    assert hyp.passed
    box = build_ordered_box(f, ctx, ctx, eig, eig, hyp=hyp)
    assert box.verification.passed
    res = solve_in_box(box, f, ctx, ctx)
    assert res.converged
    assert res.interior_positive


def test_two_dimensional_pipeline():
    from pxlap.mesh import build_rectangle_mesh

    mesh = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 12, 12)
    ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
    eig = first_eigenpair(ctx)
    f = benchmark_family(ctx, ctx, eig, eig)
    hyp = check_hypotheses(f, ctx, ctx, eig, eig)
    assert hyp.passed
    box = build_ordered_box(f, ctx, ctx, eig, eig, hyp=hyp)
    assert box.verification.passed
    res = solve_in_box(box, f, ctx, ctx)
    assert res.converged and res.interior_positive
    neg = negative_solutions(box, f, ctx, ctx, hyp=hyp)
    assert neg.converged
    assert np.max(np.abs(neg.u1.values + res.u1.values)) < 1e-9


def test_reflected_box_verification(system64, box64, ctx2_64):
    # the same box certifies the reflected system, whose positive
    # solutions mirror the negative ones of the original pair
    f, hyp = system64
    rep = verify_ordered_box(box64, f.reflected(), ctx2_64, ctx2_64)
    assert rep.passed


def _nan_band(base, i, arg, lo, hi):
    """base with f_i NaN wherever its argument s_arg lies in (lo, hi)."""
    fi = base.component(i)

    def banded(x, s1, s2):
        s = np.asarray((s1, s2)[arg - 1])
        return np.where((lo < s) & (s < hi), np.nan, fi(x, s1, s2))

    fs = (banded, base.f2) if i == 1 else (base.f1, banded)
    return Nonlinearity(f1=fs[0], f2=fs[1], eta1=base.eta1, eta2=base.eta2)


@pytest.mark.parametrize("i", [1, 2])
def test_nan_band_fails_box_verification(i, system64, box64, ctx2_64):
    # f_i NaN on a band of own states that the box section samples; the
    # verification took Python max/min over the two components, which
    # dropped a NaN margin of component 2 and read passed
    f = _nan_band(system64[0], i, i, 0.29, 0.31)
    rep = verify_ordered_box(box64, f, ctx2_64, ctx2_64)
    assert not rep.passed
    assert np.isnan(rep.worst_sub_margin[i - 1]) and np.isnan(rep.worst_sup_margin[i - 1])
    other = 2 - i
    assert rep.worst_sub_margin[other] == box64.verification.worst_sub_margin[other]


@pytest.mark.parametrize("i", [1, 2])
def test_nan_band_fails_subsolution(i, system64, box64, ctx2_64, eig2_64):
    # f_i NaN at the partner states below 1, where every partner range
    # starts: the weak inequality fails at every eps_sub, so the eps search
    # runs out instead of accepting
    f = _nan_band(system64[0], i, 3 - i, 0.0, 1.0)
    u_sup = (box64.u_sup1, box64.u_sup2)
    with pytest.raises(ConstructionError, match="eps_sub underflow"):
        existence.construct_subsolution(
            f, ctx2_64, ctx2_64, eig2_64, eig2_64, system64[1], u_sup
        )


def test_verification_against_another_f_keeps_the_box_record(system64, ctx2_64, eig2_64):
    # verify_ordered_box used to store its report in the box it checked, so
    # checking the box of a non-odd f against the reflected f overwrote the
    # box's own record
    base, _ = system64

    def lopsided(fi, i):
        return lambda x, s1, s2: np.where(np.asarray((s1, s2)[i]) > 0, 1.2, 1.0) * fi(x, s1, s2)

    f = Nonlinearity(
        f1=lopsided(base.f1, 0), f2=lopsided(base.f2, 1), eta1=base.eta1, eta2=base.eta2
    )
    box = build_ordered_box(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    own = box.verification
    rep = verify_ordered_box(box, f.reflected(), ctx2_64, ctx2_64)
    assert rep.worst_sub_margin != own.worst_sub_margin
    assert box.verification is own
    assert verify_ordered_box(box, f, ctx2_64, ctx2_64) == own


def test_strong_variation_reported_honestly():
    # steep exponent growth: the eigenfunction-scaling supersolution loses
    # its margin near the boundary where the exponent increases along the
    # outward direction; the verification must report that, not hide it
    mesh = build_interval_mesh(0.0, 1.0, 64)
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + 0.5*x"))
    eig = first_eigenpair(ctx)
    f = benchmark_family(ctx, ctx, eig, eig)
    sup = construct_supersolution(f, ctx, ctx)
    sub = eig.phi.with_values(0.25 * eig.phi.values)
    box = OrderedBox(sub, sub, sup.u_sup1, sup.u_sup2)
    rep = verify_ordered_box(box, f, ctx, ctx)
    assert not rep.passed
    assert min(rep.worst_sup_margin) < 0


def test_dyadic_eps_returns_the_largest_accepted_power_of_two():
    tried = []

    def accept(eps):
        tried.append(eps)
        return eps <= 2.0**-5

    assert existence._dyadic_eps(accept, "unused") == 2.0**-5
    assert tried == [2.0**-k for k in range(1, 6)]
    assert existence._dyadic_eps(lambda eps: True, "unused") == 0.5


def test_dyadic_eps_raises_with_its_text_after_two_to_the_minus_39():
    tried = []

    def reject(eps):
        tried.append(eps)
        return False

    with pytest.raises(ConstructionError, match="^nothing fits$"):
        existence._dyadic_eps(reject, "nothing fits")
    assert tried == [2.0**-k for k in range(1, 40)]


def test_state_pairs_are_own_major():
    own, part = existence._state_pairs([1.0, -2.0], [0.5, 0.0, 3.0])
    assert own.tolist() == [1.0, 1.0, 1.0, -2.0, -2.0, -2.0]
    assert part.tolist() == [0.5, 0.0, 3.0, 0.5, 0.0, 3.0]
