import warnings

import numpy as np
import pytest

from oracles import constant_p_eigenvalue, variable_p_eigenpair_by_shooting
from pxlap import operator as operator_module
from pxlap.errors import NumericalError
from pxlap.eigen import (
    EIGEN_RESIDUAL_TOL,
    _MAX_SWEEPS,
    _RAYLEIGH_RTOL,
    _normalize_modular,
    _signed_power,
    dilated_mesh,
    enlarged_eigenpair,
    first_eigenpair,
    rayleigh_quotient,
)
from pxlap.existence import System
from pxlap.exponents import ExponentField
from pxlap.mesh import GridFunction, build_interval_mesh, build_rectangle_mesh, integrate
from pxlap.operator import (
    OperatorContext,
    assemble_residual,
    dirichlet_solve,
    dual_norm,
    linear_poisson_solve,
)
from conftest import random_dirichlet_field


def test_lambda1_p2(eig2_64):
    assert eig2_64.lambda1 == pytest.approx(np.pi**2, rel=1e-2)
    assert eig2_64.converged
    assert eig2_64.consistent


def test_lambda1_p3():
    mesh = build_interval_mesh(0.0, 1.0, 128)
    ctx = OperatorContext(mesh, ExponentField(mesh, 3.0))
    pair = first_eigenpair(ctx)
    assert pair.lambda1 == pytest.approx(constant_p_eigenvalue(3.0), rel=2e-2)


def test_eigen_invariants(eig2_64, ctx2_64, mesh64):
    assert eig2_64.lambda1 > 0
    assert np.all(eig2_64.phi.values[mesh64.interior_nodes] > 0)
    assert eig2_64.modular_residual <= 1e-10
    assert abs(rayleigh_quotient(ctx2_64, eig2_64.phi) - eig2_64.lambda1) <= 1e-8 * eig2_64.lambda1


def test_eigen_equation_residual(eig2_64, ctx2_64):
    p_qp = ctx2_64.p.qp
    phi_qp = eig2_64.phi.at_qp()
    rhs = eig2_64.lambda1 * np.abs(phi_qp) ** (p_qp - 2.0) * phi_qp
    res = dual_norm(ctx2_64.mesh, assemble_residual(ctx2_64, eig2_64.phi, rhs))
    assert res <= 1e-7


def test_scale_free_initial_guess(ctx2_64, eig2_64):
    seed = eig2_64.phi.with_values(10.0 * eig2_64.phi.values)
    pair = first_eigenpair(ctx2_64, initial=seed)
    assert pair.lambda1 == pytest.approx(eig2_64.lambda1, rel=1e-8)
    assert np.max(np.abs(pair.phi.values - eig2_64.phi.values)) < 1e-6


def test_rayleigh_lower_bound(ctx2_64, eig2_64, rng):
    for _ in range(100):
        v = random_dirichlet_field(ctx2_64.mesh, rng)
        assert rayleigh_quotient(ctx2_64, v) >= eig2_64.lambda1 - 1e-6


def test_rayleigh_lower_bound_variable(ctxvar_64, rng):
    pair = first_eigenpair(ctxvar_64)
    for _ in range(100):
        v = random_dirichlet_field(ctxvar_64.mesh, rng)
        assert rayleigh_quotient(ctxvar_64, v) >= pair.lambda1 - 1e-6


def test_boundary_adjacent_decay(eig2_64, mesh64):
    vals = eig2_64.phi.values
    # strictly positive next to the boundary and decreasing toward it
    assert vals[1] > 0 and vals[-2] > 0
    assert vals[2] > vals[1] and vals[-3] > vals[-2]


def _enlarged(ctx, margin):
    """:func:`enlarged_eigenpair` of ``ctx`` on its mesh dilated by ``margin``."""
    outer, _ = dilated_mesh(ctx.mesh, margin)
    return enlarged_eigenpair(ctx.on_mesh(outer), ctx.mesh)


def test_enlarged_eigenpair(ctx2_64):
    res = _enlarged(ctx2_64, margin=0.25)
    assert res.pair.lambda1 == pytest.approx(np.pi**2 / 1.5**2, rel=1e-2)
    assert res.tau > 0
    assert np.all(res.phi_restricted.values > res.tau)


@pytest.mark.parametrize(
    "mesh, margin, want",
    [
        (build_interval_mesh(0.0, 1.0, 16), None, 0.25),  # a quarter of the diameter
        (build_interval_mesh(0.0, 1.0, 16), 0.1, 0.125),  # rounded up to whole cells
        # cells 0.125 x 0.1875: the margin is a whole number of both
        (build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 8, 4), 0.2, 0.375),
    ],
)
def test_dilated_mesh_is_the_enlarged_domain(mesh, margin, want):
    outer, snapped = dilated_mesh(mesh, margin)
    assert snapped == want
    assert np.array_equal(outer.lo, mesh.lo - want) and np.array_equal(outer.hi, mesh.hi + want)
    assert np.allclose(outer.spacing, mesh.spacing, rtol=1e-12, atol=0.0)
    ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
    system = System.build(ctx, ctx, margin)
    res = system.enlarged[0]
    used = res.pair.phi.mesh
    assert system.margin == snapped
    assert np.array_equal(used.lo, outer.lo) and np.array_equal(used.hi, outer.hi)
    assert np.array_equal(used.cells, outer.cells)


def test_enlarged_domain_monotonicity(ctx2_64):
    lam_small = _enlarged(ctx2_64, margin=0.125).pair.lambda1
    lam_big = _enlarged(ctx2_64, margin=0.5).pair.lambda1
    assert lam_big < lam_small


def test_first_eigenpair_solves_a_nonmonotone_exponent(mesh64):
    # the direction-monotonicity gate is the CLI's pre-solve check
    # (tests/test_cli.py); the library call solves
    ctx = OperatorContext(mesh64, ExponentField(mesh64, "2 + 0.5*sin(4*pi*x)"))
    assert first_eigenpair(ctx).lambda1 > 0


def test_variable_exponent_consistency_reporting(ctxvar_64):
    pair = first_eigenpair(ctxvar_64)
    assert pair.residual >= 0
    assert isinstance(pair.consistent, bool)
    summary = pair.summary()
    assert set(summary) >= {"lambda1", "residual", "consistent"}


def test_mesh_refinement_consistency():
    lams = []
    for n in (64, 128):
        mesh = build_interval_mesh(0.0, 1.0, n)
        ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
        lams.append(first_eigenpair(ctx).lambda1)
    # both approximations above the continuum value and tightening
    assert lams[1] - np.pi**2 < lams[0] - np.pi**2
    assert lams[1] > np.pi**2 - 1e-10


def test_first_eigenpair_p_below_two_has_no_nan_warnings():
    # boundary-only corner triangles have u = 0 at their quadrature points,
    # where |u|^(p-2) u is 0^(-0.2) * 0 = NaN unless the zero is kept exact
    mesh = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 8, 8)
    ctx = OperatorContext(mesh, ExponentField(mesh, 1.8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair = first_eigenpair(ctx)
    assert pair.converged and np.isfinite(pair.lambda1)


def test_signed_power_is_the_plain_expression_off_zero():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((40, 7))
    s[::3, 2] = 0.0
    p = 1.5 + rng.random((40, 7))
    out = _signed_power(2.5, s, p)
    nonzero = s != 0.0
    assert np.all(out[~nonzero] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plain = 2.5 * np.abs(s) ** (p - 2.0) * s
    assert out[nonzero].tobytes() == plain[nonzero].tobytes()


def test_zero_initial_field_is_a_numerical_error(mesh64, ctx2_64):
    with pytest.raises(NumericalError, match="nonzero"):
        first_eigenpair(ctx2_64, initial=GridFunction.zeros(mesh64))


@pytest.mark.parametrize("mesh_args", [(0.0, 1.0, 256), (0.0, 0.0, 1.0, 1.0, 64, 64)])
@pytest.mark.parametrize("p", ["2 + 0.1*x", "1.5 + x", 3.0])
def test_rayleigh_quotient_is_the_ratio_of_modulars_bit_for_bit(mesh_args, p, rng):
    # the quadrature sums of |grad u|^p and |u|^p, as integrate() formed them
    mesh = (build_interval_mesh if len(mesh_args) == 3 else build_rectangle_mesh)(*mesh_args)
    ctx = OperatorContext(mesh, ExponentField(mesh, p))
    for _ in range(3):
        u = random_dirichlet_field(mesh, rng, scale=10.0 ** rng.uniform(-2, 2))
        num = integrate(u.grad_magnitude_qp() ** ctx.p.qp, mesh)
        den = integrate(np.abs(u.at_qp()) ** ctx.p.qp, mesh)
        assert rayleigh_quotient(ctx, u) == num / den


def test_rayleigh_quotient_of_zero_is_a_numerical_error(mesh64, ctx2_64):
    with pytest.raises(NumericalError, match="zero field"):
        rayleigh_quotient(ctx2_64, GridFunction.zeros(mesh64))


# -- the kept factor against the sweep loop it replaced ----------------------
#
# _ref_first_eigenpair is first_eigenpair as it stood before the sweeps shared
# one Jacobian factor: every sweep's Newton steps factor their own Jacobian.


def _ref_first_eigenpair(ctx):
    mesh = ctx.mesh
    vals = np.abs(linear_poisson_solve(mesh, 1.0).values)
    vals[mesh.boundary_nodes] = 0.0
    u = _normalize_modular(GridFunction(mesh, vals), ctx.p)
    p_qp = ctx.p.qp

    def sweep(u, R):
        rep = dirichlet_solve(ctx, _signed_power(R, u.at_qp(), p_qp), initial=u)
        if not rep.converged:
            return None, None
        v = rep.u
        if np.any(v.values[mesh.interior_nodes] <= 0):
            v = v.with_values(np.abs(v.values))
        v = _normalize_modular(v, ctx.p)
        return v, rayleigh_quotient(ctx, v)

    R = rayleigh_quotient(ctx, u)
    converged = False
    for it in range(1, _MAX_SWEEPS + 1):
        u, R_new = sweep(u, R)
        assert u is not None
        if abs(R_new - R) <= _RAYLEIGH_RTOL * abs(R_new):
            R, converged = R_new, True
            break
        R = R_new

    def equation_residual(field, value):
        rhs = _signed_power(value, field.at_qp(), p_qp)
        return dual_norm(mesh, assemble_residual(ctx, field, rhs))

    res = equation_residual(u, R)
    while res > 0.5 * EIGEN_RESIDUAL_TOL and it < _MAX_SWEEPS:
        u_new, R_new = sweep(u, R)
        if u_new is None:
            break
        res_new = equation_residual(u_new, R_new)
        it += 1
        if res_new >= 0.9 * res:
            if res_new < res:
                u, R, res = u_new, R_new, res_new
            break
        u, R, res = u_new, R_new, res_new
    return R, u, it, converged, bool(res <= EIGEN_RESIDUAL_TOL)


# (mesh, exponent, relative lambda1 bound).  For a variable exponent the
# sweeps' fixed point does not make the quotient stationary, so lambda1 moves
# at first order with the last sweeps' inner residuals, which chord steps
# leave just under newton_tol instead of far below it: 1.3e-12 at p < 2
_KEPT_FACTOR_CASES = {
    "interval256-p2.0": (lambda: build_interval_mesh(0.0, 1.0, 256), "2 + 0.1*x", 1e-12),
    "rect32-p2.0": (lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 32, 32), "2 + 0.1*x", 1e-12),
    "rect12-p1.8": (lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 12, 12), "1.8 + 0.1*x", 2e-12),
}


@pytest.fixture
def factor_calls(monkeypatch):
    calls = []
    factor = operator_module._factor

    def counted(A, what):
        calls.append(what)
        return factor(A, what)

    monkeypatch.setattr(operator_module, "_factor", counted)
    return calls


@pytest.mark.parametrize("case", list(_KEPT_FACTOR_CASES))
def test_kept_factor_matches_reference_sweeps(case, factor_calls):
    build, p_expr, rel = _KEPT_FACTOR_CASES[case]
    mesh = build()
    ctx = OperatorContext(mesh, ExponentField(mesh, p_expr))
    R, phi, iterations, converged, consistent = _ref_first_eigenpair(ctx)
    ref_factors = len(factor_calls)
    factor_calls.clear()
    pair = first_eigenpair(ctx)
    assert pair.lambda1 == pytest.approx(R, rel=rel, abs=0.0)
    assert (pair.iterations, pair.converged, pair.consistent) == (iterations, converged, consistent)
    # measured at most 1.4e-9 (rect32), against a maximum of phi near 2
    assert np.max(np.abs(pair.phi.values - phi.values)) <= 5e-9
    if case == "rect32-p2.0":
        # the Poisson seed and one Newton factor, against 24 fresh factors
        # (the seed and one per Newton step) without the holder
        assert len(factor_calls) <= 4
        assert ref_factors == 24


# relative lambda1 error and nodal max error of phi1 against the shooting
# oracle, measured at n = 128, 256 and 512; each bound is 1.25 times the
# measured value
_ORACLE_BOUNDS = {
    "2 + 0.1*x": ((6.5e-5, 9.8e-5), (1.7e-5, 2.6e-5), (4.1e-6, 6.5e-6)),
    "2 + x": ((1.15e-4, 2.5e-4), (3.2e-5, 8.0e-5), (6.2e-6, 1.9e-5)),
}


@pytest.mark.parametrize(
    "expr, p, mirror, want",
    [
        ("2 + 0.1*x", lambda x: 2.0 + 0.1 * x, lambda x: 2.1 - 0.1 * x, 10.4362893),
        ("2 + x", lambda x: 2.0 + x, lambda x: 3.0 - x, 15.7536783),
    ],
    ids=["2+0.1x", "2+x"],
)
def test_first_eigenpair_converges_to_the_shooting_oracle(expr, p, mirror, want):
    lam, phi = variable_p_eigenpair_by_shooting(p, 0.0, 1.0)
    # the oracle checks itself: the mirrored exponent has the same eigenvalue
    assert lam == pytest.approx(want, abs=5e-8)
    assert variable_p_eigenpair_by_shooting(mirror, 0.0, 1.0)[0] == pytest.approx(lam, rel=1e-11)
    errors = []
    for n, (lam_bound, phi_bound) in zip((128, 256, 512), _ORACLE_BOUNDS[expr]):
        mesh = build_interval_mesh(0.0, 1.0, n)
        pair = first_eigenpair(OperatorContext(mesh, ExponentField(mesh, expr)))
        errors.append(abs(pair.lambda1 - lam) / lam)
        assert errors[-1] <= lam_bound
        assert np.max(np.abs(pair.phi.values - phi(mesh.nodes[:, 0]))) <= phi_bound
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.8)


def test_enlarged_eigenpair_matches_the_shooting_oracle():
    # the README theorem1 config: n = 256, p = 2 + 0.1x, margin 0.25, so the
    # dilated interval is (-0.25, 1.25); measured 5.8e-6 (lambda) and 7.5e-6
    # (phi), bounded at 1.25 times that
    mesh = build_interval_mesh(0.0, 1.0, 256)
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + 0.1*x"))
    system = System.build(ctx, ctx, 0.25)
    lam, phi = variable_p_eigenpair_by_shooting(lambda x: 2.0 + 0.1 * x, -0.25, 1.25)
    assert lam == pytest.approx(4.5418730, abs=5e-8)
    pair = system.enlarged[0].pair
    assert abs(pair.lambda1 - lam) / lam <= 7.3e-6
    outer = pair.phi.mesh
    assert np.max(np.abs(pair.phi.values - phi(outer.nodes[:, 0]))) <= 9.5e-6
