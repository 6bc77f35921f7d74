import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import luxemburg_by_bisection, luxemburg_constant_field
from pxlap.errors import MeshMismatchError
from pxlap.exponents import ExponentField
from pxlap.mesh import GridFunction, build_interval_mesh, build_rectangle_mesh
from pxlap.modular import (
    check_norm_modular,
    luxemburg_norm,
    luxemburg_norm_of_qp,
    modular,
    modular_of_qp,
    pair_norm,
    sobolev_norm,
)
from pxlap.operator import linear_poisson_solve
from conftest import random_dirichlet_field

# the module, not the ``pxlap.modular`` function the package exports
modular_module = importlib.import_module("pxlap.modular")


def test_modular_constant(mesh64, p2_64):
    u = GridFunction(mesh64, np.full(mesh64.n_nodes, 3.0))
    assert modular(u, p2_64) == pytest.approx(9.0, rel=1e-14)


def test_modular_zero(mesh64, p2_64):
    assert modular(GridFunction.zeros(mesh64), p2_64) == 0.0


def test_modular_linear_field(mesh64, p2_64):
    u = GridFunction.from_callable(mesh64, lambda pts: pts[:, 0])
    # x is P1-exact; quadrature integrates x^2 exactly
    assert modular(u, p2_64) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_modular_mesh_mismatch(mesh64, p2_64):
    other = build_interval_mesh(0.0, 1.0, 8)
    with pytest.raises(MeshMismatchError):
        modular(GridFunction.zeros(other), p2_64)


def test_luxemburg_zero(mesh64, pvar_64):
    rep = luxemburg_norm(GridFunction.zeros(mesh64), pvar_64)
    assert rep.norm == 0.0 and rep.residual == 0.0


def test_luxemburg_constant_exponent_reduction(mesh64, p2_64, rng):
    u = GridFunction(mesh64, np.ones(mesh64.n_nodes))
    assert luxemburg_norm(u, p2_64).norm == pytest.approx(1.0, abs=1e-10)
    v = random_dirichlet_field(mesh64, rng, scale=2.0)
    classical = np.sqrt(modular(v, p2_64))
    assert luxemburg_norm(v, p2_64).norm == pytest.approx(classical, rel=1e-9)


def test_luxemburg_variable_exponent_oracle(mesh64, pvar_64):
    # independent adaptive-quadrature + root-finder oracle
    expected = luxemburg_constant_field(2.0, lambda x: 2.0 + x)
    u = GridFunction(mesh64, np.full(mesh64.n_nodes, 2.0))
    rep = luxemburg_norm(u, pvar_64)
    assert rep.norm == pytest.approx(expected, abs=1e-9)
    assert rep.residual <= 1e-10


def test_norm_modular_unit_ball(mesh64, pvar_64, rng):
    v = random_dirichlet_field(mesh64, rng, scale=1.7)
    nrm = luxemburg_norm(v, pvar_64).norm
    unit = v.with_values(v.values / nrm)
    assert modular(unit, pvar_64) == pytest.approx(1.0, abs=1e-10)


def test_norm_modular_constant_exponent_bridge(mesh64, p2_64, rng):
    # at constant exponent both chains collapse to modular = norm^q
    v = random_dirichlet_field(mesh64, rng, scale=3.0)
    rep = check_norm_modular(v, p2_64)
    assert rep.ok
    assert rep.modular == pytest.approx(rep.norm**2, rel=1e-9)
    assert rep.lower <= rep.modular * (1 + 1e-9)
    assert rep.upper >= rep.modular * (1 - 1e-9)


def test_norm_modular_chains_random(mesh64, pvar_64, rng):
    for _ in range(50):
        v = random_dirichlet_field(mesh64, rng, scale=10.0 ** rng.uniform(-2, 2))
        rep = check_norm_modular(v, pvar_64)
        assert rep.ok, rep


def test_sobolev_norm_zero(mesh64, p2_64):
    assert sobolev_norm(GridFunction.zeros(mesh64), p2_64) == 0.0


def test_sobolev_norm_hat(p2_64, mesh64):
    # hat peaking at 1 in the middle: |u'| = 2 on both halves, so the
    # classical H1_0 seminorm is sqrt(int 4) = 2
    x = mesh64.nodes[:, 0]
    u = GridFunction(mesh64, 1.0 - 2.0 * np.abs(x - 0.5))
    assert sobolev_norm(u, p2_64) == pytest.approx(2.0, abs=1e-9)


def test_sobolev_norm_requires_dirichlet(mesh64, p2_64):
    u = GridFunction(mesh64, np.ones(mesh64.n_nodes))
    with pytest.raises(MeshMismatchError):
        sobolev_norm(u, p2_64)


def test_sobolev_constant_exponent_reduction(mesh64, rng):
    p3 = ExponentField(mesh64, 3.0)
    v = random_dirichlet_field(mesh64, rng)
    grads = v.grad_magnitude_qp()
    from pxlap.mesh import integrate

    classical = integrate(grads**3, mesh64) ** (1.0 / 3.0)
    assert sobolev_norm(v, p3) == pytest.approx(classical, rel=1e-9)


def test_luxemburg_bracket_failure(mesh64, pvar_64):
    from pxlap.errors import NumericalError

    huge = GridFunction(mesh64, np.full(mesh64.n_nodes, 1e300))
    with pytest.raises(NumericalError):
        luxemburg_norm(huge, pvar_64)


def test_luxemburg_scaling(mesh64, pvar_64, rng):
    for _ in range(20):
        v = random_dirichlet_field(mesh64, rng)
        c = 10.0 ** rng.uniform(-3, 3)
        n1 = luxemburg_norm(v, pvar_64).norm
        n2 = luxemburg_norm(v.with_values(c * v.values), pvar_64).norm
        assert n2 == pytest.approx(c * n1, rel=1e-9)


def test_modular_monotonicity_nonnegative(mesh64, pvar_64, rng):
    # pointwise domination needs sign-aligned P1 fields; nonnegative nodal
    # fields give 0 <= u <= v everywhere
    for _ in range(20):
        base = np.abs(rng.standard_normal(mesh64.n_nodes))
        extra = np.abs(rng.standard_normal(mesh64.n_nodes))
        u = GridFunction(mesh64, base)
        v = GridFunction(mesh64, base + extra)
        assert modular(u, pvar_64) <= modular(v, pvar_64) + 1e-14
        assert (
            luxemburg_norm(u, pvar_64).norm
            <= luxemburg_norm(v, pvar_64).norm + 1e-9
        )


def test_pair_norm_triangle_inequality(mesh64, pvar_64, p2_64, rng):
    for _ in range(100):
        a1 = random_dirichlet_field(mesh64, rng)
        a2 = random_dirichlet_field(mesh64, rng)
        b1 = random_dirichlet_field(mesh64, rng)
        b2 = random_dirichlet_field(mesh64, rng)
        s1 = a1.with_values(a1.values + b1.values)
        s2 = a2.with_values(a2.values + b2.values)
        lhs = pair_norm(s1, p2_64, s2, pvar_64)
        rhs = pair_norm(a1, p2_64, a2, pvar_64) + pair_norm(b1, p2_64, b2, pvar_64)
        assert lhs <= rhs + 1e-8


# -- the Newton norm against bracketing plus bisection ----------------------


def _random_qp_field(mesh, seed, log_scale, p_a, p_b):
    """Values and exponents per quadrature point: a random Dirichlet field at
    scale 10^log_scale and exponents drawn uniformly between p_a and p_b."""
    rng = np.random.default_rng(seed)
    values = 10.0**log_scale * random_dirichlet_field(mesh, rng).at_qp()
    lo, hi = sorted((p_a, p_b))
    return values, rng.uniform(lo, hi, size=values.shape)


_exponents = st.floats(1.1, 8.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
    p_a=_exponents,
    p_b=_exponents,
    log_c=st.floats(-3.0, 3.0),
)
def test_newton_norm_properties(mesh64, seed, log_scale, p_a, p_b, log_c):
    values, p_qp = _random_qp_field(mesh64, seed, log_scale, p_a, p_b)
    rep = luxemburg_norm_of_qp(values, p_qp, mesh64)
    # the unit-ball identity the stop test asks for
    assert rep.residual <= 1e-10
    assert abs(modular_of_qp(values / rep.norm, p_qp, mesh64) - 1.0) <= 1e-10
    # the same root as bisection
    tau_ref, res_ref = luxemburg_by_bisection(values, p_qp, mesh64.quad_weights)
    assert res_ref <= 1e-10
    assert rep.norm == pytest.approx(tau_ref, rel=1e-9)
    # homogeneity: ||c v|| = c ||v||
    c = 10.0**log_c
    assert luxemburg_norm_of_qp(c * values, p_qp, mesh64).norm == pytest.approx(c * rep.norm, rel=1e-9)


def test_newton_norm_first_step_pulled_back_to_the_domain(mesh64):
    # at tau = 1 the p = 1.1 half dominates the modular, at the root the
    # p = 8 half does: the first Newton step lands below tau = 2^-200, where
    # the powers overflow, and the iteration still reaches the root
    values = np.full(mesh64.quad_weights.shape, 1e-10)
    p_qp = np.full(values.shape, 8.0)
    values[::2], p_qp[::2] = 1e-70, 1.1
    rep = luxemburg_norm_of_qp(values, p_qp, mesh64)
    tau_ref, _ = luxemburg_by_bisection(values, p_qp, mesh64.quad_weights)
    assert rep.residual <= 1e-10
    assert rep.norm == pytest.approx(tau_ref, rel=1e-9)


def test_luxemburg_tiny_norm_outside_domain_raises(mesh64, pvar_64):
    from pxlap.errors import NumericalError

    tiny = GridFunction(mesh64, np.full(mesh64.n_nodes, 1e-100))
    with pytest.raises(NumericalError):
        luxemburg_norm(tiny, pvar_64)


def test_luxemburg_norm_with_underflowing_powers_is_not_zero(mesh64):
    # every power (1e-50 sin)^8 underflows to 0 at tau = 1, and the norm
    # read 0.0 for this nonzero field; s now steps down by log 2 until the
    # powers are representable, and homogeneity gives the answer
    sine = GridFunction.from_callable(mesh64, lambda x: np.sin(np.pi * x[:, 0]))
    p8 = ExponentField(mesh64, 8.0)
    rep = luxemburg_norm(sine.scaled(1e-50), p8)
    assert rep.modular == 0.0 and rep.residual <= 1e-10
    assert rep.norm == pytest.approx(1e-50 * luxemburg_norm(sine, p8).norm, rel=1e-9, abs=0.0)


def test_luxemburg_norm_below_the_domain_with_underflowing_powers_raises(mesh64, p2_64):
    # the norm 1e-170 * ||sin|| lies below 2^-200; it read 0.0
    from pxlap.errors import NumericalError

    sine = GridFunction.from_callable(mesh64, lambda x: np.sin(np.pi * x[:, 0]))
    with pytest.raises(NumericalError, match=r"outside \[2\^-200, 2\^200\]"):
        luxemburg_norm(sine.scaled(1e-170), p2_64)


@pytest.fixture(scope="module")
def dome128():
    mesh = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 128, 128)
    return linear_poisson_solve(mesh, 1.0), ExponentField(mesh, "2 + 0.1*x")


def test_sobolev_norm_of_zero_field_evaluates_no_norm(monkeypatch, mesh64, pvar_64, rng):
    calls = []
    real = modular_module.luxemburg_norm_of_qp
    monkeypatch.setattr(
        modular_module, "luxemburg_norm_of_qp", lambda *a: calls.append(1) or real(*a)
    )
    assert sobolev_norm(GridFunction.zeros(mesh64), pvar_64) == 0.0
    assert calls == []
    assert sobolev_norm(random_dirichlet_field(mesh64, rng), pvar_64) > 0.0
    assert calls == [1]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("part", ["values", "gradient"])
def test_dome_norm_needs_at_most_six_modular_evaluations(monkeypatch, dome128, scale, part):
    dome, p = dome128
    field = dome.at_qp() if part == "values" else dome.grad_magnitude_qp()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return modular_of_qp(*args, **kwargs)

    monkeypatch.setattr(modular_module, "modular_of_qp", counted)
    rep = luxemburg_norm_of_qp(scale * field, p.qp, dome.mesh)
    assert rep.residual <= 1e-10
    assert 1 <= len(calls) <= 6
