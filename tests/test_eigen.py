import warnings

import numpy as np
import pytest

from oracles import constant_p_eigenvalue
from pxlap.errors import HypothesisError
from pxlap.eigen import _signed_power, enlarged_eigenpair, first_eigenpair, rayleigh_quotient
from pxlap.exponents import ExponentField
from pxlap.mesh import build_interval_mesh, build_rectangle_mesh
from pxlap.operator import OperatorContext, assemble_residual, dual_norm
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


def test_eigen_invariants(eig2_64, mesh64):
    assert eig2_64.lambda1 > 0
    assert np.all(eig2_64.phi.values[mesh64.interior_nodes] > 0)
    assert eig2_64.modular_residual <= 1e-10
    assert abs(eig2_64.rayleigh - eig2_64.lambda1) <= 1e-8 * eig2_64.lambda1


def test_eigen_equation_residual(eig2_64, ctx2_64):
    p_qp = ctx2_64.p.qp
    phi_qp = eig2_64.phi.at_qp()
    rhs = eig2_64.lambda1 * np.abs(phi_qp) ** (p_qp - 2.0) * phi_qp
    res = dual_norm(ctx2_64.mesh, assemble_residual(ctx2_64, eig2_64.phi, rhs, eps_reg=0.0))
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


def test_enlarged_eigenpair(ctx2_64):
    res = enlarged_eigenpair(ctx2_64, margin=0.25)
    assert res.pair.lambda1 == pytest.approx(np.pi**2 / 1.5**2, rel=1e-2)
    assert res.tau > 0
    assert np.all(res.phi_restricted.values > res.tau)


def test_enlarged_domain_monotonicity(ctx2_64):
    lam_small = enlarged_eigenpair(ctx2_64, margin=0.125).pair.lambda1
    lam_big = enlarged_eigenpair(ctx2_64, margin=0.5).pair.lambda1
    assert lam_big < lam_small


def test_hp_gate_blocks_nonmonotone(mesh64):
    ctx = OperatorContext(mesh64, ExponentField(mesh64, "2 + 0.5*sin(4*pi*x)"))
    with pytest.raises(HypothesisError):
        first_eigenpair(ctx)
    pair = first_eigenpair(ctx, allow_unchecked_exponent=True)
    assert pair.lambda1 > 0


def test_variable_exponent_consistency_reporting(ctxvar_64):
    pair = first_eigenpair(ctxvar_64)
    assert pair.residual >= 0
    assert isinstance(pair.consistent, bool)
    summary = pair.summary()
    assert set(summary) >= {"lambda1", "rayleigh", "residual", "consistent"}


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
