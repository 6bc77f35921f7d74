import dataclasses

import numpy as np
import pytest

import pxlap.multiplicity as multiplicity
from oracles import bratu_profile, bratu_solutions_by_shooting
from pxlap.errors import ConfigError, NumericalError
from pxlap.eigen import first_eigenpair
from pxlap.existence import (
    Nonlinearity,
    OrderedBox,
    System,
    benchmark_family,
    build_ordered_box,
    check_hypotheses,
    solve_in_box,
    verify_ordered_box,
)
from pxlap.exponents import ExponentField
from pxlap.mesh import GridFunction, build_interval_mesh
from pxlap.modular import luxemburg_norm_of_qp, sobolev_norm
from pxlap.operator import OperatorContext
from pxlap.multiplicity import (
    DEDUP_DISTANCE,
    _SOLUTION_TOL,
    HomotopyConfig,
    _homotopy_loads,
    _multistart,
    _reference_load,
    annulus_search,
    boundedness_probe,
    continuation,
    nonexistence_probe,
    pair_distance,
    solve_coupled,
    solve_homotopy_system,
)


@pytest.fixture(scope="module")
def system(sys2_64):
    f = benchmark_family(sys2_64)
    cfg = HomotopyConfig()
    return f, cfg


def _loads(cfg, t, u, f, system):
    """The homotopy loads of the pair (u, u), denominators frozen from u."""
    den = max(1.0, sobolev_norm(u, system.ctx1.p))
    return _homotopy_loads(cfg, t, (den, den), f, system)


def test_config_gate_rejects_large_J(ctx2_64, eig2_64):
    # J_i is a fraction of lambda1 * min(1, p_min - 1): a fraction in (0, 1)
    # is the spectral gate, and any other one is refused
    for fraction in (0.0, 1.0, 1.5, -0.2, float("nan")):
        with pytest.raises(ConfigError, match="J_fraction"):
            HomotopyConfig(J_fraction=fraction)
    bound = eig2_64.lambda1 * min(1.0, ctx2_64.p.p_min - 1.0)
    for fraction in (1e-6, 0.5, 0.999):
        J = HomotopyConfig(J_fraction=fraction).J(ctx2_64, eig2_64)
        assert 0.0 < J < bound and J == pytest.approx(fraction * bound, rel=1e-14)
    # a small lambda1 shrinks J with the bound instead of breaking the gate
    small = type("E", (), {"lambda1": 0.1})()
    assert 0.0 < HomotopyConfig().J(ctx2_64, small) < 0.1 * min(1.0, ctx2_64.p.p_min - 1.0)


def test_config_t_grid_validation():
    for steps in (1, 0, -3):
        with pytest.raises(ConfigError, match="t-grid"):
            HomotopyConfig(t_steps=steps)
    # delta is the probe's shift
    for delta in (0.0, -1e-3, float("nan")):
        with pytest.raises(ConfigError, match="delta > 0"):
            HomotopyConfig(delta=delta)
    # the grid is uniform, has both endpoints and holds plain floats
    assert HomotopyConfig(t_steps=2).t_grid == (0.0, 1.0)
    grid = HomotopyConfig().t_grid
    assert grid == tuple(k / 10 for k in range(11))
    assert all(type(t) is float for t in grid)


def test_rhs_at_t0(system, ctx2_64, sys2_64):
    f, cfg = system
    zero = GridFunction.zeros(ctx2_64.mesh)
    pts = ctx2_64.mesh.quad_points.reshape(-1, 1)
    s0 = np.zeros(len(pts))
    g1, g2 = _loads(cfg, 0.0, zero, f, sys2_64)
    assert np.max(np.abs(g1(pts, s0, s0))) == 0.0


def test_reference_load_is_the_closed_form(ctxvar_64, rng):
    # J (s+)^(p-1) / den^(p-1) with p(x) at the quadrature points, bit for bit
    pts = ctxvar_64.mesh.quad_points_flat
    pm1 = ctxvar_64.p.evaluate(pts) - 1.0
    s = rng.standard_normal(len(pts))
    for J, den in ((0.7, 1.0), (3.2, 1.7)):
        want = J * np.maximum(s, 0.0) ** pm1 / den**pm1
        assert _reference_load(ctxvar_64, J, den)(s).tobytes() == want.tobytes()


def test_probe_load_adds_the_shift(ctx2_64, eig2_64, rng, monkeypatch):
    # each sweep of the probe solves with its reference load plus
    # delta * lambda1 * phi1^(p-1), which is positive inside the domain
    cfg = HomotopyConfig(delta=0.5)
    J = cfg.J(ctx2_64, eig2_64)
    pts = ctx2_64.mesh.quad_points_flat
    interior = (pts[:, 0] > 1e-3) & (pts[:, 0] < 1 - 1e-3)
    expected = cfg.delta * eig2_64.lambda1 * (
        eig2_64.phi.eval(pts) ** (ctx2_64.p.evaluate(pts) - 1.0)
    )
    assert np.all(expected[interior] > 0)
    reference_load, solve = multiplicity._reference_load, multiplicity.semilinear_solve
    cores, loads = [], []

    def recorded_core(ctx, J_, den):
        cores.append((J_, den, reference_load(ctx, J_, den)))
        return cores[-1][2]

    def recorded_solve(ctx, g, initial):
        loads.append(g)
        return solve(ctx, g, initial=initial)

    monkeypatch.setattr(multiplicity, "_reference_load", recorded_core)
    monkeypatch.setattr(multiplicity, "semilinear_solve", recorded_solve)
    nonexistence_probe(ctx2_64, eig2_64, J, cfg.delta, attempts=1)
    monkeypatch.undo()
    # the zero seed starts at den = 1 and the solutions' norms exceed 1
    assert len(cores) == len(loads) and len({den for _, den, _ in cores}) > 1
    for (J_, den, core), g in zip(cores, loads):
        assert J_ == J
        for s in (np.zeros(len(pts)), np.abs(rng.standard_normal(len(pts)))):
            assert np.allclose(g(pts, s) - core(s), expected, atol=1e-14)
        assert np.max(np.abs(core(np.zeros(len(pts))))) == 0.0


def test_tilde_t0_trivial(system, ctx2_64, eig2_64, sys2_64):
    f, cfg = system
    for scale in (0.0, 0.5, 3.0):
        seed = eig2_64.phi.with_values(scale * eig2_64.phi.values)
        rep = solve_homotopy_system(cfg, 0.0, f, sys2_64, seed, seed)
        assert rep.converged
        norm = sobolev_norm(rep.u1, ctx2_64.p) + sobolev_norm(rep.u2, ctx2_64.p)
        assert norm <= 1e-8


def test_continuation_trace(system, sys2_64):
    f, cfg = system
    trace = continuation(cfg, f, sys2_64)
    assert [s.t for s in trace.steps] == list(cfg.t_grid)
    assert all(
        s.residual <= 1e-8 for step in trace.steps for s in step.solutions
    )
    # trivial branch present everywhere
    for step in trace.steps:
        assert min(s.pair_norm for s in step.solutions) <= 1e-8
    bnd = boundedness_probe(trace)
    assert bnd.passed and bnd.suggested_radius > bnd.max_pair_norm


def test_continuation_recovers_box_solution(system, sys2_64):
    f, cfg = system
    hyp = check_hypotheses(f, sys2_64)
    box = build_ordered_box(f, sys2_64, hyp=hyp)
    sol = solve_in_box(box, f, sys2_64)
    trace = continuation(cfg, f, sys2_64)
    dists = [
        pair_distance(pair, (sol.u1, sol.u2), sys2_64)
        for pair in trace.steps[-1].solutions
    ]
    assert min(dists) <= 1e-7


def test_boundedness_probe_thresholds(system, sys2_64):
    f, cfg = system
    trace = continuation(cfg, f, sys2_64)
    m = trace.max_pair_norm()
    assert boundedness_probe(trace, R=2 * (m + 1)).passed
    bad = boundedness_probe(trace, R=0.5 * m)
    assert not bad.passed
    assert bad.witness_t is not None


def test_nonexistence_probe_gates(ctx2_64, eig2_64):
    with pytest.raises(ConfigError):
        nonexistence_probe(ctx2_64, eig2_64, J=0.5 * eig2_64.lambda1, delta=0.0)
    rep = nonexistence_probe(ctx2_64, eig2_64, J=2.0 * eig2_64.lambda1, delta=1e-3)
    assert not rep.applicable
    assert "does not apply" in rep.reason


def test_nonexistence_probe_gate_is_the_spectral_bound():
    # the gate was lambda1 * (p_min - 1), which admits J >= lambda1 once
    # p_min > 2; at p = 3.5 the bound is lambda1 itself
    mesh = build_interval_mesh(0.0, 1.0, 32)
    ctx = OperatorContext(mesh, ExponentField(mesh, "3.5"))
    eig = first_eigenpair(ctx)
    for J in (eig.lambda1, 1.5 * eig.lambda1, 2.4 * eig.lambda1):
        rep = nonexistence_probe(ctx, eig, J=J, delta=1e-3, attempts=3)
        assert not rep.applicable and not rep.attempts and not rep.passed
        assert "min(1, p_min - 1)" in rep.reason


@pytest.mark.parametrize("attempts", [0, -5])
def test_nonexistence_probe_needs_an_attempt(ctx2_64, eig2_64, attempts):
    # zero attempts used to report "passed" with no evidence at all
    with pytest.raises(ConfigError, match="at least one attempt"):
        nonexistence_probe(ctx2_64, eig2_64, J=0.5 * eig2_64.lambda1, delta=1e-3, attempts=attempts)


def test_nonexistence_probe_detects_reference_solution(ctx2_64, eig2_64):
    """The delta-shifted reference problem has the exact solution
    (delta*lambda1/(lambda1-J)) * phi1 at constant exponent 2, so the probe
    must converge and report the falsification rather than pass."""
    J = 0.5 * eig2_64.lambda1
    delta = 1e-3
    rep = nonexistence_probe(ctx2_64, eig2_64, J=J, delta=delta, attempts=10)
    converged = [a for a in rep.attempts if a.converged]
    assert rep.applicable
    assert rep.converged_count == len(converged) > 0
    assert not rep.passed
    assert rep.min_residual == min(a.residual for a in rep.attempts)
    c = delta * eig2_64.lambda1 / (eig2_64.lambda1 - J)
    predicted_norm = c * np.sqrt(eig2_64.lambda1)
    norms = [a.norm for a in converged]
    assert min(abs(n - predicted_norm) for n in norms) < 1e-6


def test_solve_coupled_residual_quality(system, ctx2_64, eig2_64):
    f, cfg = system
    seed = eig2_64.phi.with_values(2.0 * eig2_64.phi.values)
    rep = solve_coupled(ctx2_64, ctx2_64, f.f1, f.f2, seed, seed)
    assert rep.converged
    assert rep.residual <= 1e-9


def _ref_sobolev_norm_or_zero(u, ctx):
    if not np.any(u.values != 0.0):
        return 0.0
    return luxemburg_norm_of_qp(u.grad_magnitude_qp(), ctx.p.qp, u.mesh).norm


def _ref_pair_distance(a, b, ctx1, ctx2):
    d1 = GridFunction(ctx1.mesh, a[0].values - b[0].values)
    d2 = GridFunction(ctx2.mesh, a[1].values - b[1].values)
    return _ref_sobolev_norm_or_zero(d1, ctx1) + _ref_sobolev_norm_or_zero(d2, ctx2)


def _ref_dedup(pairs, norms, residuals, tags, ctx1, ctx2):
    """The former per-search clustering over four parallel lists."""
    order = sorted(
        range(len(pairs)),
        key=lambda k: (norms[k], tuple(pairs[k][0].values), tuple(pairs[k][1].values)),
    )
    reps, rep_norms, rep_res, rep_tags = [], [], [], []
    for k in order:
        dup = False
        for r in reps:
            if _ref_pair_distance(pairs[k], r, ctx1, ctx2) < DEDUP_DISTANCE:
                dup = True
                break
        if not dup:
            reps.append(pairs[k])
            rep_norms.append(norms[k])
            rep_res.append(residuals[k])
            rep_tags.append(tags[k])
    return reps, rep_norms, rep_res, rep_tags


def _ref_collect(seeds, solve, ctx1, ctx2):
    """The former collection loop that each search ran on its own: Picard
    norms when the report has them (the trace), else computed (the annulus)."""
    pairs, norms, residuals, tags = [], [], [], []
    for s1, s2, tag in seeds:
        try:
            rep = solve(s1, s2)
        except NumericalError:
            continue
        if rep.converged and rep.residual <= _SOLUTION_TOL:
            pairs.append((rep.u1, rep.u2))
            if rep.norms is not None:
                norms.append(rep.norms[0] + rep.norms[1])
            else:
                norms.append(
                    _ref_sobolev_norm_or_zero(rep.u1, ctx1) + _ref_sobolev_norm_or_zero(rep.u2, ctx2)
                )
            residuals.append(rep.residual)
            tags.append(tag)
    return len(pairs), _ref_dedup(pairs, norms, residuals, tags, ctx1, ctx2)


@pytest.mark.parametrize("search", ["trace", "annulus"])
def test_multistart_matches_reference_collection(system, ctx2_64, eig2_64, sys2_64, search):
    f, cfg = system
    phi = eig2_64.phi
    zero = GridFunction.zeros(ctx2_64.mesh)
    big = phi.with_values(2.0 * phi.values)
    failing = phi.with_values(0.7 * phi.values)
    unconverged = GridFunction.zeros(ctx2_64.mesh)
    seeds = [
        (unconverged, unconverged, "not converged"),
        (big, big, "eig x2"),
        (zero, zero, "zero"),
        (failing, failing, "failing"),
        (big, big, "eig x2 again"),
        (phi.with_values(0.5 * phi.values), phi.with_values(0.5 * phi.values), "eig x0.5"),
    ]
    outcomes = []

    def solve(s1, s2):
        if s1 is failing:
            outcomes.append("raised")
            raise NumericalError("seed rejected")
        if s1 is unconverged:
            # a small residual but no convergence flag: were the flag
            # ignored, this pair would be kept ahead of the "zero" one
            rep = dataclasses.replace(solve_coupled(ctx2_64, ctx2_64, f.f1, f.f2, s1, s2), converged=False)
        elif search == "trace":
            rep = solve_homotopy_system(cfg, 0.6, f, sys2_64, s1, s2)
        else:
            rep = solve_coupled(ctx2_64, ctx2_64, f.f1, f.f2, s1, s2, tol=_SOLUTION_TOL * 1e-2)
        outcomes.append(rep.converged)
        return rep

    kept = _multistart(seeds, solve, sys2_64)
    n_seeds = len(outcomes)
    n_found, (pairs, norms, residuals, tags) = _ref_collect(seeds, solve, ctx2_64, ctx2_64)
    # the seed list exercises every branch: a raise, a non-converged solve
    # and a duplicate that the clustering drops
    assert n_seeds == len(seeds) and outcomes[:n_seeds] == outcomes[n_seeds:]
    assert outcomes[0] is False and "raised" in outcomes
    assert len(pairs) < n_found
    assert [s.tag for s in kept] == tags
    for s, pair, norm, res in zip(kept, pairs, norms, residuals):
        assert s.u1.values.tobytes() == pair[0].values.tobytes()
        assert s.u2.values.tobytes() == pair[1].values.tobytes()
        assert (s.pair_norm, s.residual) == (norm, res)


# --- engineered two-solution benchmark (decoupled exponential growth) -----


@pytest.fixture(scope="module")
def bratu_system():
    mesh = build_interval_mesh(0.0, 1.0, 96)
    ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
    system = System.build(ctx, ctx)
    lam = 1.0

    def f_own(x, s_own, s_other):
        # cap keeps huge line-search trial states finite; inactive on the
        # solution range (max u ~ 4)
        return lam * np.exp(np.minimum(np.asarray(s_own, dtype=float), 50.0))

    f = Nonlinearity(
        f1=lambda x, s1, s2: f_own(x, s1, s2),
        f2=lambda x, s1, s2: f_own(x, s2, s1),
        eta1=1.0,
        eta2=1.0,
    )
    return mesh, system, f, lam


def test_bratu_oracle_enumeration(bratu_system):
    mesh, system, f, lam = bratu_system
    sols = bratu_solutions_by_shooting(lam)
    assert len(sols) == 2
    small, large = sols
    assert small[1] == pytest.approx(0.14, abs=0.02)
    assert large[1] > 2.0


def test_annulus_search_two_solutions(bratu_system):
    mesh, system, f, lam = bratu_system
    sols = bratu_solutions_by_shooting(lam)
    u_small_mid, u_large_mid = sols[0][1], sols[1][1]

    # box around the small solution: zero subsolution (f >= 0), slightly
    # inflated small profile as supersolution
    small_prof = bratu_profile(lam, sols[0][0], mesh.nodes[:, 0])
    sup = GridFunction(mesh, 1.05 * small_prof)
    box = OrderedBox(GridFunction.zeros(mesh), GridFunction.zeros(mesh), sup, sup)
    rep = verify_ordered_box(box, f, system)
    assert rep.passed
    pos = solve_in_box(box, f, system)
    assert pos.converged
    assert pos.u1.values[mesh.n_nodes // 2] == pytest.approx(u_small_mid, abs=1e-3)

    cfg = HomotopyConfig(R=50.0)
    report = annulus_search(cfg, f, system, box, (pos.u1, pos.u2))
    assert report.second_solution_found
    assert len(report.solutions) >= 2
    mids = sorted(s.u1.values[mesh.n_nodes // 2] for s in report.solutions)
    assert mids[0] == pytest.approx(u_small_mid, abs=1e-3)
    assert mids[-1] == pytest.approx(u_large_mid, abs=2e-2)
    inside = [s for s in report.solutions if s.inside_box]
    outside = [s for s in report.solutions if not s.inside_box]
    assert inside and outside
    assert all(s.pair_norm > report.R_hat or s.inside_box for s in report.solutions)
    # nodal separation between the distinct pairs
    assert all(s.distance_to_known > 1e-3 for s in outside)


def test_annulus_seed_permutation_invariance(bratu_system):
    mesh, system, f, lam = bratu_system
    small_prof = bratu_profile(lam, bratu_solutions_by_shooting(lam)[0][0], mesh.nodes[:, 0])
    sup = GridFunction(mesh, 1.05 * small_prof)
    box = OrderedBox(GridFunction.zeros(mesh), GridFunction.zeros(mesh), sup, sup)
    pos = solve_in_box(box, f, system)
    cfg = HomotopyConfig(R=50.0)
    base = annulus_search(cfg, f, system, box, (pos.u1, pos.u2))
    n_seeds = 12 + 8 + 2
    perm = list(reversed(range(n_seeds)))
    swapped = annulus_search(cfg, f, system, box, (pos.u1, pos.u2), seed_order=perm)
    assert len(base.solutions) == len(swapped.solutions)
    for a, b in zip(base.solutions, swapped.solutions):
        assert pair_distance((a.u1, a.u2), (b.u1, b.u2), system) < 1e-6


def test_annulus_zero_nonlinearity(ctx2_64, sys2_64):
    mesh = ctx2_64.mesh
    f0 = Nonlinearity(
        f1=lambda x, s1, s2: np.zeros(len(np.atleast_2d(x))),
        f2=lambda x, s1, s2: np.zeros(len(np.atleast_2d(x))),
        eta1=1.0,
        eta2=1.0,
    )
    bump = GridFunction(
        mesh, mesh.nodes[:, 0] * (1 - mesh.nodes[:, 0]) + 0.05
    )
    box = OrderedBox(GridFunction.zeros(mesh), GridFunction.zeros(mesh), bump, bump)
    zero = GridFunction.zeros(mesh)
    cfg = HomotopyConfig(R=10.0)
    report = annulus_search(cfg, f0, sys2_64, box, (zero, zero))
    assert not report.second_solution_found
    assert all(s.inside_box for s in report.solutions)
    assert all(s.pair_norm <= 1e-8 for s in report.solutions)
