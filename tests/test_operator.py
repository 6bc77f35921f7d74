import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import manufactured_load, torsion_exact, variable_p_torsion
from pxlap.errors import HypothesisError, NumericalError
from pxlap.exponents import ExponentField
from pxlap.existence import System, benchmark_family
from pxlap.mesh import GridFunction, build_interval_mesh, build_rectangle_mesh, dilate_domain
from pxlap import multiplicity
from pxlap.multiplicity import CoupledReport, solve_coupled
from pxlap import operator as operator_module
from pxlap.operator import (
    AssemblyPlan,
    BandLU,
    KeptFactor,
    OperatorContext,
    SolveReport,
    _flux_factor,
    _load_elements,
    _mass_block,
    _residual_full,
    _solve,
    assemble_jacobian,
    assemble_residual,
    assembly_plan,
    comparison_check,
    dirichlet_solve,
    dual_norm,
    linear_poisson_solve,
    load_vector,
    mean_value_constant,
    picone,
    semilinear_solve,
)
from conftest import _ref_matrix, load_at_qp, random_dirichlet_field


def test_residual_zero_state(ctx2_64, mesh64):
    r = assemble_residual(ctx2_64, GridFunction.zeros(mesh64), rhs=0.0)
    assert np.max(np.abs(r)) == 0.0


def test_residual_at_discrete_solution(ctx2_64, mesh64):
    # p = 2: the linear solve is the oracle; its residual must vanish
    u = linear_poisson_solve(mesh64, 1.0)
    r = assemble_residual(ctx2_64, u, rhs=1.0)
    assert np.max(np.abs(r)) < 1e-12


def test_residual_load_of_constant(ctx2_64, mesh64):
    # u = 0, rhs = 1: each interior entry is minus the hat integral -h
    r = assemble_residual(ctx2_64, GridFunction.zeros(mesh64), rhs=1.0)
    h = 1.0 / 64
    assert np.allclose(r, -h, atol=1e-15)


def test_dirichlet_solve_zero_rhs(ctx2_64):
    rep = dirichlet_solve(ctx2_64, 0.0)
    assert rep.converged
    assert np.max(np.abs(rep.u.values)) == 0.0


def test_dirichlet_solve_p2_closed_form(ctx2_64, mesh64):
    rep = dirichlet_solve(ctx2_64, 1.0)
    exact = mesh64.nodes[:, 0] * (1.0 - mesh64.nodes[:, 0]) / 2.0
    assert rep.converged
    # P1 on the linear problem is nodally exact up to round-off here
    assert np.max(np.abs(rep.u.values - exact)) < 1e-12


def test_dirichlet_solve_p3_oracle():
    mesh = build_interval_mesh(0.0, 1.0, 512)
    ctx = OperatorContext(mesh, ExponentField(mesh, 3.0))
    rep = dirichlet_solve(ctx, 1.0)
    assert rep.converged
    exact = torsion_exact(3.0, mesh.nodes[:, 0])
    assert np.max(np.abs(rep.u.values - exact)) < 1e-4


def test_dirichlet_solve_sublinear_exponent():
    mesh = build_interval_mesh(0.0, 1.0, 128)
    ctx = OperatorContext(mesh, ExponentField(mesh, 1.5))
    rep = dirichlet_solve(ctx, 1.0)
    assert rep.converged
    exact = torsion_exact(1.5, mesh.nodes[:, 0])
    assert np.max(np.abs(rep.u.values - exact)) < 1e-3


def test_variable_p_torsion_oracle_has_the_constant_p_closed_form():
    x = np.linspace(0.0, 1.0, 11)
    for p in (1.5, 3.0):
        assert np.max(np.abs(variable_p_torsion(lambda t: p, x) - torsion_exact(p, x))) < 1e-14


# nodal max error bounds at n = 128 and 256, about twice the errors measured
# there (9.1e-7/2.6e-7, 1.7e-6/3.0e-7 and 2.3e-5/7.5e-6)
@pytest.mark.parametrize(
    "expr, p, bounds",
    [
        ("2 + 0.1*x", lambda t: 2.0 + 0.1 * t, (2e-6, 6e-7)),
        ("1.5 + x", lambda t: 1.5 + t, (4e-6, 7e-7)),
        ("3 - x", lambda t: 3.0 - t, (5e-5, 1.5e-5)),
    ],
    ids=["2 + 0.1x", "1.5 + x", "3 - x"],
)
def test_dirichlet_solve_variable_p_torsion(expr, p, bounds):
    errors = []
    for n in (128, 256):
        mesh = build_interval_mesh(0.0, 1.0, n)
        rep = dirichlet_solve(OperatorContext(mesh, ExponentField(mesh, expr)), 1.0)
        assert rep.converged
        errors.append(np.max(np.abs(rep.u.values - variable_p_torsion(p, mesh.nodes[:, 0]))))
    assert errors[0] < bounds[0] and errors[1] < bounds[1]
    assert errors[1] < errors[0]


# nodal max error bounds at 16, 32, 64 and 128 cells per side, 1.5 times the
# errors measured there (2.926e-3, 7.554e-4, 1.888e-4 and 4.720e-5)
_MANUFACTURED_2D_BOUNDS = (4.4e-3, 1.14e-3, 2.84e-4, 7.1e-5)


def test_dirichlet_solve_variable_p_manufactured_2d():
    # u = sin(pi x) sin(pi y) solves -div(|grad u|^(p-2) grad u) = load with
    # zero trace; the load is passed at the quadrature points
    load = manufactured_load("sin(pi*x)*sin(pi*y)", "2 + 0.1*x")
    errors = []
    for n, bound in zip((16, 32, 64, 128), _MANUFACTURED_2D_BOUNDS):
        mesh = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, n, n)
        rhs = load(mesh.quad_points[..., 0], mesh.quad_points[..., 1])
        assert np.all(np.isfinite(rhs))
        rep = dirichlet_solve(OperatorContext(mesh, ExponentField(mesh, "2 + 0.1*x")), rhs)
        assert rep.converged
        exact = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
        errors.append(np.max(np.abs(rep.u.values - exact)))
        assert errors[-1] < bound
    # second order at every refinement (measured 1.95, 2.00, 2.00)
    assert all(np.log2(np.array(errors[:-1]) / errors[1:]) > 1.9)


def test_nonconvergence_is_reported_not_raised(mesh64, p2_64):
    ctx = OperatorContext(mesh64, p2_64, newton_max_iter=0)
    rep = dirichlet_solve(ctx, 1.0, initial=GridFunction.zeros(mesh64))
    assert not rep.converged
    assert rep.residual > 0


def test_comparison_equal_rhs(ctx2_64):
    rep = comparison_check(ctx2_64, 1.0, 1.0)
    assert rep.passed
    assert abs(rep.max_violation) < 1e-10


def test_comparison_p2_closed_forms(ctx2_64, mesh64):
    rep = comparison_check(ctx2_64, 1.0, 2.0)
    assert rep.passed
    x = mesh64.nodes[:, 0]
    gap = rep.report_high.u.values - rep.report_low.u.values
    assert np.max(np.abs(gap - x * (1 - x) / 2.0)) < 1e-12


def test_comparison_variable_exponent(ctxvar_64):
    rep = comparison_check(ctxvar_64, 1.0, load_at_qp(ctxvar_64.mesh, lambda pts: 1.0 + pts[:, 0]))
    assert rep.passed


def test_comparison_rejects_unordered(ctx2_64):
    with pytest.raises(ValueError):
        comparison_check(ctx2_64, 2.0, 1.0)


def test_mean_value_constant_recovers_constant(ctxvar_64, mesh64):
    phi = GridFunction(mesh64, mesh64.nodes[:, 0] * (1 - mesh64.nodes[:, 0]))
    khat = mean_value_constant(ctxvar_64, 1.4, 1.0, 2.0, h=1.0, phi=phi)
    assert khat == pytest.approx(1.4, abs=1e-12)


def test_mean_value_unit_power_multiplier(ctxvar_64, mesh64, eig2_64):
    # multiplier C^(p(x)-1) with C = 1 is identically one
    phi = eig2_64.phi
    k_qp = np.ones((mesh64.n_elements, mesh64.n_qp))
    khat = mean_value_constant(ctxvar_64, k_qp, 0.5, 1.5, h=1.0, phi=phi)
    assert khat == pytest.approx(1.0, abs=1e-12)


def test_mean_value_random_multipliers(ctxvar_64, mesh64, eig2_64, rng):
    phi = eig2_64.phi
    for _ in range(20):
        nodal = 1.0 + 0.98 * rng.random(mesh64.n_nodes) + 0.01
        k = GridFunction(mesh64, np.clip(nodal, 1.0 + 1e-6, 2.0 - 1e-6))
        khat = mean_value_constant(ctxvar_64, k.at_qp(), 1.0, 2.0, h=1.0, phi=phi)
        assert 1.0 < khat < 2.0


def test_mean_value_rejects_nonpositive_source(ctx2_64, mesh64):
    phi = GridFunction(mesh64, mesh64.nodes[:, 0] * (1 - mesh64.nodes[:, 0]))
    with pytest.raises(HypothesisError):
        mean_value_constant(ctx2_64, 1.5, 1.0, 2.0, h=-1.0, phi=phi)


def test_mean_value_rejects_a_test_function_with_nonzero_trace(ctx2_64, mesh64):
    x = mesh64.nodes[:, 0]
    phi = GridFunction(mesh64, x * (1 - x))
    phi.values[-1] = 1e-3
    assert not phi.dirichlet_zero
    with pytest.raises(HypothesisError, match="Dirichlet-zero"):
        mean_value_constant(ctx2_64, 1.5, 1.0, 2.0, h=1.0, phi=phi)


def test_picone_equal_arguments(mesh64, pvar_64, rng):
    # algebraic cancellation 1 + (p-1) - p = 0, up to round-off in the
    # |grad w|^p terms themselves
    w = GridFunction(mesh64, 0.5 + rng.random(mesh64.n_nodes))
    L1, L2 = picone(w, w, pvar_64)
    scale = np.maximum(w.grad_magnitude_qp() ** pvar_64.qp, 1.0)
    assert np.max(np.abs(L1) / scale) < 1e-12
    assert np.max(np.abs(L2) / scale) < 1e-12


def test_picone_zero_numerator(mesh64, pvar_64, rng):
    w2 = GridFunction(mesh64, 0.5 + rng.random(mesh64.n_nodes))
    L1, _ = picone(GridFunction.zeros(mesh64), w2, pvar_64)
    assert np.max(np.abs(L1)) < 1e-15


def test_picone_identity_and_sign(mesh64, pvar_64, rng):
    for _ in range(100):
        w1 = GridFunction(mesh64, np.abs(rng.standard_normal(mesh64.n_nodes)))
        w2 = GridFunction(mesh64, 0.3 + np.abs(rng.standard_normal(mesh64.n_nodes)))
        L1, L2 = picone(w1, w2, pvar_64)
        scale = np.maximum(np.abs(L1), 1.0)
        assert np.max(np.abs(L1 - L2) / scale) <= 1e-8
        assert np.min(L1) >= -1e-10


def test_picone_rejects_vanishing_denominator(mesh64, pvar_64):
    w1 = GridFunction(mesh64, np.ones(mesh64.n_nodes))
    w2 = GridFunction(mesh64, np.zeros(mesh64.n_nodes))
    with pytest.raises(HypothesisError):
        picone(w1, w2, pvar_64)


def _dense_fd_jacobian(ctx, values, rhs_qp, eps, step=1e-6):
    interior = ctx.mesh.interior_nodes
    load_el = _load_elements(ctx.mesh, rhs_qp)
    n = len(interior)
    J = np.zeros((n, n))
    for col, node in enumerate(interior):
        up = values.copy()
        up[node] += step
        dn = values.copy()
        dn[node] -= step
        ru = _residual_full(ctx, up, load_el, eps)[interior]
        rd = _residual_full(ctx, dn, load_el, eps)[interior]
        J[:, col] = (ru - rd) / (2.0 * step)
    return J


def test_jacobian_consistency(rng):
    mesh = build_interval_mesh(0.0, 1.0, 24)
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + x"), eps_reg=1e-6)
    rhs_qp = np.zeros((mesh.n_elements, mesh.n_qp))
    for _ in range(5):
        vals = np.zeros(mesh.n_nodes)
        vals[mesh.interior_nodes] = rng.standard_normal(len(mesh.interior_nodes))
        J = assembly_plan(mesh).matrix([[assemble_jacobian(ctx, vals, eps=1e-6)]]).toarray()
        J_fd = _dense_fd_jacobian(ctx, vals, rhs_qp, eps=1e-6)
        denom = max(np.max(np.abs(J)), 1.0)
        assert np.max(np.abs(J - J_fd)) / denom < 1e-5


def test_jacobian_overflow_is_not_hidden():
    # the 1e-12 floor on eps keeps every flux coefficient finite at grad u =
    # 0, so a non-finite one is an overflow and must reach the solver instead
    # of being zeroed into a tiny, finite Jacobian
    mesh = build_interval_mesh(0.0, 1.0, 16)
    ctx = OperatorContext(mesh, ExponentField(mesh, 12.0))
    values = np.zeros(mesh.n_nodes)
    values[mesh.interior_nodes] = 1e40
    with pytest.warns(RuntimeWarning, match="overflow"):
        K = assemble_jacobian(ctx, values, eps=0.0)
    assert not np.all(np.isfinite(K))


def test_monotone_operator_pairing(ctxvar_64, mesh64, rng):
    for _ in range(30):
        u = random_dirichlet_field(mesh64, rng)
        v = random_dirichlet_field(mesh64, rng)
        ru = assemble_residual(ctxvar_64, u, rhs=0.0)
        rv = assemble_residual(ctxvar_64, v, rhs=0.0)
        diff = (u.values - v.values)[mesh64.interior_nodes]
        assert np.dot(ru - rv, diff) >= -1e-12


def test_discrete_maximum_principle(ctx2_64, ctxvar_64, mesh64):
    for ctx in (ctx2_64, ctxvar_64):
        rep = dirichlet_solve(ctx, load_at_qp(mesh64, lambda pts: 1.0 + np.sin(3 * pts[:, 0]) ** 2))
        assert rep.converged
        assert np.all(rep.u.values[mesh64.interior_nodes] > 0)


def test_maximum_principle_2d():
    mesh = build_rectangle_mesh(0, 0, 1, 1, 8, 8)
    ctx = OperatorContext(mesh, ExponentField(mesh, 2.0))
    rep = dirichlet_solve(ctx, 1.0)
    assert np.all(rep.u.values[mesh.interior_nodes] > 0)


def test_dual_norm_scaling(mesh64):
    r = np.ones(len(mesh64.interior_nodes))
    assert dual_norm(mesh64, r) == pytest.approx(
        np.sqrt(1.0 / 64) * np.linalg.norm(r)
    )


# -- assembly plan and sparse solve against the COO / np.add.at reference ----


def _coo_interior(mesh, K):
    """Reference scatter: COO -> CSC, then the interior rows and columns."""
    conn = mesh.elements
    nloc = conn.shape[1]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    mat = sp.coo_matrix((K.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)).tocsc()
    idx = mesh.interior_nodes
    return mat[idx][:, idx].tocsc()


def _reference_jacobian(ctx, values, eps, rhs_slope_qp=None):
    mesh = ctx.mesh
    grads = np.einsum("ead,ea->ed", mesh.basis_grads, values[mesh.elements])
    grad_sq = np.einsum("ed,ed->e", grads, grads)
    p_qp = ctx.p.qp
    g = grad_sq[:, None] + eps * eps
    with np.errstate(divide="ignore", invalid="ignore"):
        a = g ** ((p_qp - 2.0) / 2.0)
        b = (p_qp - 2.0) * g ** ((p_qp - 4.0) / 2.0)
    a = np.where(np.isfinite(a), a, 0.0)
    b = np.where(np.isfinite(b), b, 0.0)
    aw = np.sum(mesh.quad_weights * a, axis=1)
    bw = np.sum(mesh.quad_weights * b, axis=1)
    d = np.einsum("ead,ed->ea", mesh.basis_grads, grads)
    K = aw[:, None, None] * np.einsum("ead,ebd->eab", mesh.basis_grads, mesh.basis_grads)
    K += bw[:, None, None] * d[:, :, None] * d[:, None, :]
    if rhs_slope_qp is not None:
        K -= np.einsum("eq,qa,qb->eab", mesh.quad_weights * rhs_slope_qp, mesh.basis, mesh.basis)
    return _coo_interior(mesh, K)


def _reference_residual(ctx, values, rhs_qp, eps):
    mesh = ctx.mesh
    grads = np.einsum("ead,ea->ed", mesh.basis_grads, values[mesh.elements])
    grad_sq = np.einsum("ed,ed->e", grads, grads)
    awsum = np.sum(mesh.quad_weights * _flux_factor(grad_sq, ctx.p.qp, eps), axis=1)
    r_el = awsum[:, None] * np.einsum("ead,ed->ea", mesh.basis_grads, grads)
    r_el -= np.einsum("eq,qa->ea", mesh.quad_weights * rhs_qp, mesh.basis)
    r = np.zeros(mesh.n_nodes)
    np.add.at(r, mesh.elements, r_el)
    return r


def _reference_load(mesh, rhs_qp):
    l_el = np.einsum("eq,qa->ea", mesh.quad_weights * rhs_qp, mesh.basis)
    l = np.zeros(mesh.n_nodes)
    np.add.at(l, mesh.elements, l_el)
    return l[mesh.interior_nodes]


_PLAN_MESHES = {
    "interval64": lambda: build_interval_mesh(0.0, 1.0, 64),
    "rect16x12": lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12),
    "dilated": lambda: dilate_domain(build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 8, 6), 0.25),
}


def _assert_same_csc(A, B, rtol):
    assert A.format == B.format == "csc"
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.max(np.abs(A.data - B.data)) <= rtol * np.max(np.abs(B.data))


@pytest.mark.parametrize("mesh_name", list(_PLAN_MESHES))
@pytest.mark.parametrize("p_expr", ["1.6 + 0.2*x", "2.5 + 0.5*x"])
@pytest.mark.parametrize("eps", [1e-2, 1e-12])
@pytest.mark.parametrize("with_slope", [False, True])
def test_plan_jacobian_matches_coo_reference(mesh_name, p_expr, eps, with_slope):
    mesh = _PLAN_MESHES[mesh_name]()
    ctx = OperatorContext(mesh, ExponentField(mesh, p_expr))
    rng = np.random.default_rng(7)
    values = random_dirichlet_field(mesh, rng).values
    slope = rng.standard_normal((mesh.n_elements, mesh.n_qp)) if with_slope else None
    K = assemble_jacobian(ctx, values, eps=eps)
    if with_slope:
        K = K - _mass_block(mesh, slope)
    nloc = mesh.elements.shape[1]
    assert K.shape == (mesh.n_elements, nloc, nloc)
    J = assembly_plan(mesh).matrix([[K]])
    _assert_same_csc(J, _reference_jacobian(ctx, values, eps, slope), 1e-14)


@pytest.mark.parametrize("mesh_name", list(_PLAN_MESHES))
def test_plan_scatter_and_mass_block_match_coo_reference(mesh_name):
    mesh = _PLAN_MESHES[mesh_name]()
    rng = np.random.default_rng(3)
    # a nonsymmetric element array catches a transposed pattern
    nloc = mesh.elements.shape[1]
    K = rng.standard_normal((mesh.n_elements, nloc, nloc))
    plan = assembly_plan(mesh)
    A = plan.matrix([[K]])
    _assert_same_csc(A, _coo_interior(mesh, K), 1e-14)
    assert A.data.tobytes() == plan.data(K).tobytes()
    coeff = rng.standard_normal((mesh.n_elements, mesh.n_qp))
    M = np.einsum("eq,qa,qb->eab", mesh.quad_weights * coeff, mesh.basis, mesh.basis)
    _assert_same_csc(plan.matrix([[_mass_block(mesh, coeff)]]), _coo_interior(mesh, M), 1e-14)
    # each block lands at its own offset of the stacked matrix
    stacked = plan.matrix([[K, np.zeros_like(K)], [M, 2.0 * K]]).toarray()
    n = plan.n
    for block, X in ((stacked[:n, :n], K), (stacked[:n, n:], 0.0 * K), (stacked[n:, :n], M), (stacked[n:, n:], 2.0 * K)):
        ref = _coo_interior(mesh, X).toarray()
        assert np.max(np.abs(block - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1.0)


@pytest.mark.parametrize("mesh_name", list(_PLAN_MESHES))
@pytest.mark.parametrize("eps", [1e-2, 0.0])
def test_bincount_scatter_is_bit_identical_to_add_at(mesh_name, eps):
    mesh = _PLAN_MESHES[mesh_name]()
    ctx = OperatorContext(mesh, ExponentField(mesh, "1.6 + 0.8*x"))
    rng = np.random.default_rng(11)
    values = random_dirichlet_field(mesh, rng).values
    values[mesh.elements[0]] = 0.0  # one element with zero gradient
    rhs_qp = rng.standard_normal((mesh.n_elements, mesh.n_qp))
    r = _residual_full(ctx, values, _load_elements(mesh, rhs_qp), eps)
    assert np.array_equal(r, _reference_residual(ctx, values, rhs_qp, eps))
    assert np.array_equal(load_vector(mesh, rhs_qp), _reference_load(mesh, rhs_qp))


def _masked_flux_factor(grad_sq, p_qp):
    """The unregularized flux factor as boolean fancy indexing formed it."""
    out = np.zeros_like(grad_sq[:, None] + p_qp)
    pos = np.broadcast_to(grad_sq[:, None] > 0.0, out.shape)
    base = np.broadcast_to(grad_sq[:, None], out.shape)
    expo = np.broadcast_to((p_qp - 2.0) / 2.0, out.shape)
    out[pos] = base[pos] ** expo[pos]
    return out


@pytest.mark.parametrize("mesh_name", list(_PLAN_MESHES))
def test_quadrature_kernels_are_bit_identical_to_their_references(mesh_name):
    mesh = _PLAN_MESHES[mesh_name]()
    rng = np.random.default_rng(13)
    shape = (mesh.n_elements, mesh.n_qp)
    terms = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    assert np.array_equal(operator_module._qp_sum(terms), np.sum(terms, axis=1))
    # p < 2 on part of the domain, so 0^(p-2) would be inf at the element of
    # zero gradient; pyproject makes any RuntimeWarning an error
    p = ExponentField(mesh, "1.6 + 0.8*x")
    values = random_dirichlet_field(mesh, rng).values
    values[mesh.elements[0]] = 0.0
    grads = np.einsum("ead,ea->ed", mesh.basis_grads, values[mesh.elements])
    grad_sq = np.einsum("ed,ed->e", grads, grads)
    assert grad_sq[0] == 0.0
    a = _flux_factor(grad_sq, p.qp, 0.0)
    assert np.array_equal(a, _masked_flux_factor(grad_sq, p.qp))
    assert np.all(a[0] == 0.0)


@pytest.mark.parametrize("mesh_name", list(_PLAN_MESHES))
def test_plan_pattern_matches_unique_and_searchsorted(mesh_name):
    mesh = _PLAN_MESHES[mesh_name]()
    plan = assembly_plan(mesh)
    n = len(mesh.interior_nodes)
    dof = np.full(mesh.n_nodes, -1)
    dof[mesh.interior_nodes] = np.arange(n)
    local = dof[mesh.elements]
    keep = np.flatnonzero((local[:, :, None] >= 0) & (local[:, None, :] >= 0))
    key = (local[:, None, :] * n + local[:, :, None]).ravel()[keep]
    slots = np.unique(key)
    assert np.array_equal(plan.scatter, np.searchsorted(slots, key))
    assert np.array_equal(plan.indptr, np.searchsorted(slots, n * np.arange(n + 1)))
    assert np.array_equal(plan.indices, slots % n)


@pytest.fixture
def load_integrals(monkeypatch):
    """Count the load integrals and the residual assemblies of the solvers."""
    calls = Counter()
    for name in ("_load_elements", "_residual_full"):
        original = getattr(operator_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(operator_module, name, counted)
    return calls


def test_fixed_load_is_integrated_once_per_solve(ctxvar_64, mesh64, load_integrals):
    # with no initial field the plain-Laplacian seed integrates the load as well
    seed = linear_poisson_solve(mesh64, 1.0)
    load_integrals.clear()
    rep = dirichlet_solve(ctxvar_64, load_at_qp(mesh64, _dirichlet_rhs), initial=seed)
    assert rep.converged
    assert load_integrals["_load_elements"] == 1
    assert load_integrals["_residual_full"] >= 3


def test_state_load_is_integrated_once_per_residual(ctxvar_64, mesh64, load_integrals):
    rep = semilinear_solve(ctxvar_64, lambda pts, s: 1.0 + 0.5 * np.sin(s), GridFunction.zeros(mesh64))
    assert rep.converged
    assert load_integrals["_residual_full"] >= 3
    assert load_integrals["_load_elements"] == load_integrals["_residual_full"]


def _coupled_jacobian(mesh, rng):
    """The 2 x 2 grid of element arrays of a random coupled Jacobian."""
    ctx1 = OperatorContext(mesh, ExponentField(mesh, "2.5 + 0.5*x"))
    ctx2 = OperatorContext(mesh, ExponentField(mesh, "1.6 + 0.2*x"))
    shape = (mesh.n_elements, mesh.n_qp)
    J11 = assemble_jacobian(ctx1, random_dirichlet_field(mesh, rng).values, 1e-2)
    J11 = J11 - _mass_block(mesh, rng.random(shape))
    J22 = assemble_jacobian(ctx2, random_dirichlet_field(mesh, rng).values, 1e-2)
    J22 = J22 - _mass_block(mesh, rng.random(shape))
    J12 = -_mass_block(mesh, rng.random(shape))
    J21 = -_mass_block(mesh, 2.0 * rng.random(shape))
    return [[J11, J12], [J21, J22]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_interval_mesh(0.0, 1.0, 256),
        lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 32, 32),
        lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12),
    ],
    ids=["interval256", "rect32", "rect16x12"],
)
def test_poisson_matrix_is_the_p2_jacobian_at_zero(build, monkeypatch):
    mesh = build()
    ctx = OperatorContext(mesh, ExponentField(mesh, 2.0), eps_reg=0.0)
    factored = []
    factor = AssemblyPlan.factor
    monkeypatch.setattr(
        AssemblyPlan, "factor", lambda plan, blocks, what: factored.append(blocks) or factor(plan, blocks, what)
    )
    linear_poisson_solve(mesh, 1.0)
    (((A,),),) = factored
    K = assemble_jacobian(ctx, np.zeros(mesh.n_nodes), eps=0.0)
    assert A.tobytes() == K.tobytes()


def test_sparse_solve_matches_spsolve():
    # the plan factors by LAPACK dgbtrf on the intervals and by SuperLU on
    # the rectangle
    rng = np.random.default_rng(5)
    meshes = (
        build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 24, 20),
        build_interval_mesh(0.0, 1.0, 32),
        build_interval_mesh(0.0, 1.0, 256),
    )
    for mesh in meshes:
        ctx = OperatorContext(mesh, ExponentField(mesh, "2.5 + 0.5*x"))
        scalar = assemble_jacobian(ctx, random_dirichlet_field(mesh, rng).values, eps=1e-4)
        plan = assembly_plan(mesh)
        for blocks in ([[scalar]], _coupled_jacobian(mesh, rng)):
            lu = plan.factor(blocks, "test")
            assert isinstance(lu, BandLU) == (mesh.dimension == 1)
            A = _ref_matrix(mesh, blocks)
            b = rng.standard_normal(A.shape[0])
            x = _solve(lu, b, "test")
            ref = spla.spsolve(A, b)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sparse_solve_failures_are_numerical_errors():
    # on a rectangle plan (SuperLU) and an interval plan (dgbtrf) alike, a
    # coupled Jacobian whose second block row is zero is exactly singular,
    # and a NaN load gives a NaN solution
    for mesh in (build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 4, 4), build_interval_mesh(0.0, 1.0, 8)):
        K = assemble_jacobian(OperatorContext(mesh, ExponentField(mesh, 2.0)), np.zeros(mesh.n_nodes), eps=0.0)
        zero = np.zeros_like(K)
        plan = assembly_plan(mesh)
        with pytest.raises(NumericalError, match="test linear solve failed"):
            plan.factor([[K, zero], [zero, zero]], "test")
        rhs = np.ones(plan.n)
        rhs[3] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            _solve(plan.factor([[K]], "test"), rhs, "test")


_PATTERN_CASES = {
    "interval4": (lambda: build_interval_mesh(0.0, 1.0, 4), True),
    "interval64": (lambda: build_interval_mesh(0.0, 1.0, 64), True),
    "dilated-interval": (lambda: dilate_domain(build_interval_mesh(0.0, 1.0, 64), 0.25), True),
    "rect3": (lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 3, 3), False),
    "rect8": (lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 8, 8), False),
    "rect16x12": (lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12), False),
}


def _seed_newton_and_coupled_solves(mesh):
    """The Poisson seed and Newton of a dirichlet_solve, then a coupled solve."""
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + 0.1*x"))
    assert dirichlet_solve(ctx, 1.0).converged
    seed = random_dirichlet_field(mesh, np.random.default_rng(5), scale=0.05)
    rep = solve_coupled(
        ctx, ctx, lambda pts, s1, s2: 1.0 + 0.5 * np.tanh(s2), lambda pts, s1, s2: 2.0 + 0.3 * np.tanh(s1), seed, seed
    )
    assert rep.converged and rep.iterations > 0


@pytest.mark.parametrize("case", list(_PATTERN_CASES))
def test_banded_lu_serves_tridiagonal_plans_only(case, monkeypatch):
    build, tridiagonal = _PATTERN_CASES[case]
    mesh = build()
    assert assembly_plan(mesh).tridiagonal is tridiagonal
    splu_calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: splu_calls.append(a) or splu(*a, **kw))
    _seed_newton_and_coupled_solves(mesh)
    assert (len(splu_calls) == 0) is tridiagonal


def test_interval_solves_build_no_sparse_matrix(monkeypatch):
    # an interval plan keeps index arrays only and factors band storage
    built = []
    csc_matrix = sp.csc_matrix
    monkeypatch.setattr(sp, "csc_matrix", lambda *a, **kw: built.append(a) or csc_matrix(*a, **kw))
    _seed_newton_and_coupled_solves(build_interval_mesh(0.0, 1.0, 64))
    assert built == []


def test_contexts_on_one_mesh_share_one_plan():
    mesh = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 8, 8)
    ctx1 = OperatorContext(mesh, ExponentField(mesh, 2.0))
    ctx2 = OperatorContext(mesh, ExponentField(mesh, "2 + x"))
    # building a context does not build the plan; the first assembly does
    assert getattr(mesh, "_assembly_plan", None) is None
    values = np.zeros(mesh.n_nodes)
    assemble_jacobian(ctx1, values, eps=1e-2)
    plan = assembly_plan(mesh)
    assemble_jacobian(ctx2, values, eps=1e-2)
    _mass_block(mesh, np.ones((mesh.n_elements, mesh.n_qp)))
    assert assembly_plan(ctx2.mesh) is plan
    assert assembly_plan(dilate_domain(mesh, 0.25)) is not plan


# -- the damped-Newton driver against the two solvers it replaced -----------
#
# The _ref_* functions are the scalar and the coupled Newton solvers as they
# stood before one driver served both, with one change: a load that does not
# depend on u is solved at the target eps first, and along the ladder only
# when that fails (``_ref_dirichlet_solve``).  ``stats`` counts their eps
# rungs and line-search trials, which fixes how many residuals the driver may
# assemble.


def _ref_newton_at_eps(ctx, rhs_fn, rhs_slope_fn, u, eps, tol, max_iter, stats):
    mesh = ctx.mesh
    interior = mesh.interior_nodes
    stats["rungs"] += 1

    def res_norm(vals):
        return dual_norm(mesh, _residual_full(ctx, vals, _load_elements(mesh, rhs_fn(vals)), eps)[interior])

    r = _residual_full(ctx, u, _load_elements(mesh, rhs_fn(u)), eps)[interior]
    rn = dual_norm(mesh, r)
    history = [rn]
    converged = rn <= tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        slope = rhs_slope_fn(u) if rhs_slope_fn is not None else None
        J = assemble_jacobian(ctx, u, eps=max(eps, 1e-12))
        if slope is not None:
            J = J - _mass_block(mesh, slope)
        delta = _solve(assembly_plan(mesh).factor([[J]], "Newton"), -r, "Newton")

        step = 1.0
        accepted = False
        for _ in range(operator_module._MAX_HALVINGS + 1):
            stats["trials"] += 1
            trial = u.copy()
            trial[interior] += step * delta
            trial_rn = res_norm(trial)
            if trial_rn <= (1.0 - 1e-4 * step) * rn:
                u, rn = trial, trial_rn
                accepted = True
                break
            step *= 0.5
        history.append(rn)
        if not accepted:
            break
        r = _residual_full(ctx, u, _load_elements(mesh, rhs_fn(u)), eps)[interior]
        rn = dual_norm(mesh, r)
        if rn <= tol:
            converged = True
    return u, rn, it, converged, history


def _ref_newton(ctx, rhs_fn, rhs_slope_fn, initial_values, tol, max_iter, stats):
    mesh = ctx.mesh
    u = initial_values.copy()
    u[mesh.boundary_nodes] = 0.0
    total_iters = 0
    history = []
    for eps in (e for e in (1e-2, 1e-4, 1e-6) if e > ctx.eps_reg):
        u, _, it, _, hist = _ref_newton_at_eps(
            ctx, rhs_fn, rhs_slope_fn, u, eps, max(tol, 1e-9), max_iter, stats
        )
        total_iters += it
        history.extend(hist)
    u, rn, it, converged, hist = _ref_newton_at_eps(
        ctx, rhs_fn, rhs_slope_fn, u, ctx.eps_reg, tol, max_iter, stats
    )
    total_iters += it
    history.extend(hist)
    rn0 = dual_norm(mesh, _residual_full(ctx, u, _load_elements(mesh, rhs_fn(u)), 0.0)[mesh.interior_nodes])
    return SolveReport(
        u=GridFunction(mesh, u),
        residual=rn0,
        iterations=total_iters,
        converged=bool(converged and rn0 <= tol),
        history=history,
    )


def _ref_dirichlet_solve(ctx, rhs, stats):
    mesh = ctx.mesh
    rhs_qp = load_at_qp(mesh, rhs)
    initial = linear_poisson_solve(mesh, rhs_qp)
    u = initial.values.copy()
    u[mesh.boundary_nodes] = 0.0
    tol, max_iter = ctx.newton_tol, ctx.newton_max_iter
    u, _, it, converged, history = _ref_newton_at_eps(
        ctx, lambda vals: rhs_qp, None, u, ctx.eps_reg, tol, max_iter, stats
    )
    if not converged:
        # the fallback: the whole ladder from the same initial values
        ladder = _ref_newton(ctx, lambda vals: rhs_qp, None, initial.values, tol, max_iter, stats)
        ladder.iterations += it
        ladder.history[:0] = history
        return ladder
    rn0 = dual_norm(mesh, _residual_full(ctx, u, _load_elements(mesh, rhs_qp), 0.0)[mesh.interior_nodes])
    return SolveReport(
        u=GridFunction(mesh, u),
        residual=rn0,
        iterations=it,
        converged=bool(rn0 <= tol),
        history=history,
    )


def _ref_semilinear_solve(ctx, rhs_state, initial, stats):
    mesh = ctx.mesh
    pts = mesh.quad_points.reshape(-1, mesh.dimension)
    shape = (mesh.n_elements, mesh.n_qp)

    def values_at_qp(vals):
        return np.einsum("qa,ea->eq", mesh.basis, vals[mesh.elements])

    def rhs_fn(vals):
        s = values_at_qp(vals).ravel()
        return np.asarray(rhs_state(pts, s), dtype=float).reshape(shape)

    def slope_fn(vals):
        s = values_at_qp(vals).ravel()
        h = 1e-6 * (1.0 + np.abs(s))
        up = np.asarray(rhs_state(pts, s + h), dtype=float)
        dn = np.asarray(rhs_state(pts, s - h), dtype=float)
        return ((up - dn) / (2.0 * h)).reshape(shape)

    return _ref_newton(
        ctx, rhs_fn, slope_fn, initial.values, ctx.newton_tol, ctx.newton_max_iter, stats
    )


def _ref_state_qp(mesh, values):
    return np.einsum("qa,ea->eq", mesh.basis, values[mesh.elements]).ravel()


def _ref_coupled_newton_once(ctx1, ctx2, g1, g2, v1, v2, eps, tol, max_iter, stats):
    mesh = ctx1.mesh
    pts = mesh.quad_points.reshape(-1, mesh.dimension)
    shape = (mesh.n_elements, mesh.n_qp)
    interior = mesh.interior_nodes
    n_int = len(interior)
    stats["rungs"] += 1

    def residuals(a1, a2):
        s1, s2 = _ref_state_qp(mesh, a1), _ref_state_qp(mesh, a2)
        rhs1 = np.asarray(g1(pts, s1, s2)).reshape(shape)
        rhs2 = np.asarray(g2(pts, s1, s2)).reshape(shape)
        r1 = _residual_full(ctx1, a1, _load_elements(mesh, rhs1), eps)[interior]
        r2 = _residual_full(ctx2, a2, _load_elements(mesh, rhs2), eps)[interior]
        return r1, r2

    def combined_norm(r1, r2):
        return float(np.hypot(dual_norm(mesh, r1), dual_norm(mesh, r2)))

    def slopes(a1, a2):
        s1, s2 = _ref_state_qp(mesh, a1), _ref_state_qp(mesh, a2)
        out = {}
        for (name, g) in (("1", g1), ("2", g2)):
            for (arg, sa, sb_fixed) in (("1", s1, s2), ("2", s2, s1)):
                h = 1e-6 * (1.0 + np.abs(sa))
                if arg == "1":
                    up = np.asarray(g(pts, sa + h, sb_fixed))
                    dn = np.asarray(g(pts, sa - h, sb_fixed))
                else:
                    up = np.asarray(g(pts, sb_fixed, sa + h))
                    dn = np.asarray(g(pts, sb_fixed, sa - h))
                out[name + arg] = ((up - dn) / (2.0 * h)).reshape(shape)
        return out

    r1, r2 = residuals(v1, v2)
    rn = combined_norm(r1, r2)
    converged = rn <= tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        sl = slopes(v1, v2)
        J11 = assemble_jacobian(ctx1, v1, eps=max(eps, 1e-12)) - _mass_block(mesh, sl["11"])
        J22 = assemble_jacobian(ctx2, v2, eps=max(eps, 1e-12)) - _mass_block(mesh, sl["22"])
        J12 = -_mass_block(mesh, sl["12"])
        J21 = -_mass_block(mesh, sl["21"])
        lu = assembly_plan(mesh).factor([[J11, J12], [J21, J22]], "coupled Newton")
        delta = _solve(lu, -np.concatenate([r1, r2]), "coupled Newton")
        d1, d2 = delta[:n_int], delta[n_int:]

        step, accepted = 1.0, False
        for _ in range(operator_module._MAX_HALVINGS + 1):
            stats["trials"] += 1
            t1, t2 = v1.copy(), v2.copy()
            t1[interior] += step * d1
            t2[interior] += step * d2
            tr1, tr2 = residuals(t1, t2)
            trn = combined_norm(tr1, tr2)
            if trn <= (1.0 - 1e-4 * step) * rn:
                v1, v2, r1, r2, rn = t1, t2, tr1, tr2, trn
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        if rn <= tol:
            converged = True
    return v1, v2, rn, it, converged


def _ref_solve_coupled(ctx1, ctx2, g1, g2, seed1, seed2, stats):
    mesh = ctx1.mesh
    tol = max(ctx1.newton_tol, ctx2.newton_tol)
    v1 = seed1.values.copy()
    v2 = seed2.values.copy()
    v1[mesh.boundary_nodes] = 0.0
    v2[mesh.boundary_nodes] = 0.0
    ladder = [e for e in (1e-2, 1e-4, 1e-6) if e > max(ctx1.eps_reg, ctx2.eps_reg)]
    total = 0
    for eps in ladder:
        v1, v2, _, it, _ = _ref_coupled_newton_once(
            ctx1, ctx2, g1, g2, v1, v2, eps, max(tol, 1e-9),
            ctx1.newton_max_iter, stats,
        )
        total += it
    v1, v2, rn, it, converged = _ref_coupled_newton_once(
        ctx1, ctx2, g1, g2, v1, v2, max(ctx1.eps_reg, ctx2.eps_reg), tol,
        ctx1.newton_max_iter, stats,
    )
    total += it
    pts = mesh.quad_points.reshape(-1, mesh.dimension)
    shape = (mesh.n_elements, mesh.n_qp)
    s1, s2 = _ref_state_qp(mesh, v1), _ref_state_qp(mesh, v2)
    r1 = _residual_full(ctx1, v1, _load_elements(mesh, np.asarray(g1(pts, s1, s2)).reshape(shape)), 0.0)
    r2 = _residual_full(ctx2, v2, _load_elements(mesh, np.asarray(g2(pts, s1, s2)).reshape(shape)), 0.0)
    interior = mesh.interior_nodes
    rn0 = float(np.hypot(dual_norm(mesh, r1[interior]), dual_norm(mesh, r2[interior])))
    return CoupledReport(
        u1=GridFunction(mesh, v1),
        u2=GridFunction(mesh, v2),
        residual=rn0,
        iterations=total,
        picard_sweeps=0,
        converged=bool(converged and rn0 <= tol),
    )


@pytest.fixture
def residual_calls(monkeypatch):
    """Count the driver's residual assemblies; the references call the original."""
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return _residual_full(*args)

    monkeypatch.setattr(operator_module, "_residual_full", counted)
    return calls


def _logged(name, g, log):
    """g, recording the order of its calls and the bits of its state arguments."""

    def wrapped(points, *states):
        log.append((name, tuple(np.asarray(s).tobytes() for s in states)))
        return g(points, *states)

    return wrapped


def _without_repeats(log):
    return [entry for k, entry in enumerate(log) if k == 0 or entry != log[k - 1]]


def _assert_same_solve(rep, ref):
    assert np.array_equal(rep.u.values, ref.u.values)
    assert rep.residual == ref.residual
    assert rep.iterations == ref.iterations
    assert rep.converged == ref.converged
    assert rep.history == ref.history


def _dirichlet_rhs(pts):
    return 1.0 + np.sin(3.0 * pts[:, 0]) ** 2


_DRIVER_CASES = {
    "interval-p1.6": (lambda: build_interval_mesh(0.0, 1.0, 64), 1.6, {}),
    "interval-p2.5": (lambda: build_interval_mesh(0.0, 1.0, 64), 2.5, {}),
    "rect16x12": (lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12), "2.5 + 0.5*x", {}),
    "capped": (lambda: build_interval_mesh(0.0, 1.0, 64), 1.3, {"newton_max_iter": 2}),
    "no-halving": (lambda: build_interval_mesh(0.0, 1.0, 64), 1.3, {}),
}


@pytest.mark.parametrize("case", list(_DRIVER_CASES))
def test_dirichlet_solve_matches_reference_newton(case, residual_calls, monkeypatch):
    build, p, settings = _DRIVER_CASES[case]
    if case == "no-halving":
        monkeypatch.setattr(operator_module, "_MAX_HALVINGS", 0)
    mesh = build()
    ctx = OperatorContext(mesh, ExponentField(mesh, p), **settings)
    stats = Counter()
    ref = _ref_dirichlet_solve(ctx, _dirichlet_rhs, stats)
    rep = dirichlet_solve(ctx, load_at_qp(mesh, _dirichlet_rhs))
    _assert_same_solve(rep, ref)
    # one residual per rung and per line-search trial, one for the recheck
    assert len(residual_calls) == stats["rungs"] + stats["trials"] + 1
    assert residual_calls[-1] == 0.0
    fallback = case in ("capped", "no-halving")
    # the target eps alone, or that attempt and then the four-rung ladder
    assert stats["rungs"] == (5 if fallback else 1)
    assert residual_calls[0] == ctx.eps_reg
    if case == "capped":
        assert not rep.converged
    if case == "no-halving":
        # a rejected step ends its rung and repeats the residual in the history
        assert any(a == b for a, b in zip(rep.history, rep.history[1:]))
    else:
        assert case == "capped" or rep.converged


_SAME_SOLUTION_CASES = {
    "interval-p1.3": (lambda: build_interval_mesh(0.0, 1.0, 64), 1.3),
    "interval-p1.6": (lambda: build_interval_mesh(0.0, 1.0, 64), 1.6),
    "interval-p2.5": (lambda: build_interval_mesh(0.0, 1.0, 64), 2.5),
    "rect16x12": (lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12), "2.5 + 0.5*x"),
}


@pytest.mark.parametrize("case", list(_SAME_SOLUTION_CASES))
def test_target_eps_first_reaches_the_ladder_solution(case):
    # -Delta_p(x) u = h has one solution, so skipping the ladder changes the
    # path and not the answer
    build, p = _SAME_SOLUTION_CASES[case]
    mesh = build()
    ctx = OperatorContext(mesh, ExponentField(mesh, p))
    rhs_qp = load_at_qp(mesh, _dirichlet_rhs)
    initial = linear_poisson_solve(mesh, rhs_qp)
    ladder = _ref_newton(
        ctx, lambda vals: rhs_qp, None, initial.values, ctx.newton_tol, ctx.newton_max_iter, Counter()
    )
    rep = dirichlet_solve(ctx, rhs_qp)
    # one rung: the target eps converged without the fallback
    assert len(rep.history) == rep.iterations + 1 and rep.history[-1] <= ctx.newton_tol
    assert rep.converged == ladder.converged
    assert np.max(np.abs(rep.u.values - ladder.u.values)) <= ctx.newton_tol


def test_semilinear_solve_matches_reference_newton(ctxvar_64, eig2_64, residual_calls):
    # the probe's shifted reference load, with p(x) = 2 + x
    core = multiplicity._reference_load(ctxvar_64, 0.5 * eig2_64.lambda1, 1.0)
    pm1 = ctxvar_64.p.qp.ravel() - 1.0
    shift = 1e-2 * eig2_64.lambda1 * eig2_64.phi.eval(ctxvar_64.mesh.quad_points_flat) ** pm1

    def g(points, s):
        return core(s) + shift

    seed = eig2_64.phi.with_values(0.5 * eig2_64.phi.values)
    stats, ref_log, log = Counter(), [], []
    ref = _ref_semilinear_solve(ctxvar_64, _logged("g", g, ref_log), seed, stats)
    rep = semilinear_solve(ctxvar_64, _logged("g", g, log), seed)
    _assert_same_solve(rep, ref)
    assert rep.converged and rep.iterations > 0
    assert len(residual_calls) == stats["rungs"] + stats["trials"] + 1
    # g runs once per residual and twice per slope, in the reference's order;
    # the reference also ran it again on every accepted trial state
    assert len(log) == len(residual_calls) + 2 * rep.iterations
    assert _without_repeats(log) == _without_repeats(ref_log)


@pytest.fixture(scope="module")
def f_mixed(ctx2_64, ctxvar_64):
    """The benchmark f of the system of p = 2 and p = 2 + x, its eigenpairs
    solved before any test counts residual calls."""
    return benchmark_family(System.build(ctx2_64, ctxvar_64))


@pytest.mark.parametrize("seed_scale", [0.0, 1.0])
def test_solve_coupled_matches_reference_newton(ctx2_64, ctxvar_64, eig2_64, f_mixed, seed_scale, residual_calls):
    f = f_mixed
    seed = eig2_64.phi.with_values(seed_scale * eig2_64.phi.values)
    stats, ref_log, log = Counter(), [], []
    ref = _ref_solve_coupled(
        ctx2_64, ctxvar_64, _logged("f1", f.f1, ref_log), _logged("f2", f.f2, ref_log), seed, seed, stats
    )
    rep = solve_coupled(ctx2_64, ctxvar_64, _logged("f1", f.f1, log), _logged("f2", f.f2, log), seed, seed)
    assert np.array_equal(rep.u1.values, ref.u1.values)
    assert np.array_equal(rep.u2.values, ref.u2.values)
    assert (rep.residual, rep.iterations, rep.converged) == (ref.residual, ref.iterations, ref.converged)
    assert rep.converged
    assert (rep.iterations > 0) == (seed_scale > 0)
    assert log == ref_log
    # two residual blocks per evaluation
    assert len(residual_calls) == 2 * (stats["rungs"] + stats["trials"] + 1)


def test_block_norm_is_numpy_hypot(monkeypatch, mesh64, ctx2_64):
    # block-norm pairs, led by those on which math.hypot rounds differently
    # from np.hypot (115 of these 20,000 with glibc on x86-64)
    a, b = np.random.default_rng(0).random((2, 20_000))
    target = np.hypot(a, b)
    odd = [k for k in range(len(a)) if math.hypot(a[k], b[k]) != target[k]]
    odd = (odd + list(range(5)))[:5]
    norms = iter(x for k in odd for x in (a[k], b[k]))
    monkeypatch.setattr(operator_module, "dual_norm", lambda mesh, r: float(next(norms)))
    ctx = OperatorContext(mesh64, ctx2_64.p, newton_max_iter=0)
    zeros = np.zeros(mesh64.n_nodes)
    rhs = np.zeros((mesh64.n_elements, mesh64.n_qp))
    # no iterations: four rungs (eps 1e-2, 1e-4, 1e-6, 1e-10) and the recheck;
    # callable loads, as every coupled solve has, keep the ladder
    def load(points, s1, s2):
        return np.zeros(len(points))

    _, residual, _, _, history = operator_module._newton([ctx, ctx], [load, load], [zeros, zeros], 1e-10)
    assert history == [float(target[k]) for k in odd[:4]]
    assert residual == float(target[odd[4]])
    # one block: the norm is the block's dual norm itself; an array load
    # tries eps 1e-10 first, then the four rungs, then the recheck
    norms = iter(a[:6])
    _, residual, _, _, history = operator_module._newton([ctx], rhs, [zeros], 1e-10)
    assert history == [float(x) for x in a[:5]]
    assert residual == float(a[5])


# -- chord steps with a kept factor ------------------------------------------


def _kept_factor_ctx(p="2.5 + 0.5*x"):
    mesh = build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12)
    return OperatorContext(mesh, ExponentField(mesh, p))


class _UnusableFactor:
    def solve(self, rhs):
        raise AssertionError("a factor built at another eps was solved with")


class _NonFiniteFactor:
    def __init__(self, value):
        self.value = value

    def solve(self, rhs):
        return np.full_like(rhs, self.value)


def _assert_converged(rep, ctx):
    assert rep.converged and rep.residual <= ctx.newton_tol
    assert np.all(np.isfinite(rep.u.values))


def test_kept_factor_at_another_eps_is_never_solved_with():
    ctx = _kept_factor_ctx()
    kept = KeptFactor(eps=1e-2, lu=_UnusableFactor())
    rep = dirichlet_solve(ctx, load_at_qp(ctx.mesh, _dirichlet_rhs), kept=kept)
    _assert_converged(rep, ctx)
    assert kept.eps == ctx.eps_reg and not isinstance(kept.lu, _UnusableFactor)


def test_kept_factor_from_a_distant_state_is_replaced():
    ctx = _kept_factor_ctx()
    plain = dirichlet_solve(ctx, load_at_qp(ctx.mesh, _dirichlet_rhs))
    distant = assembly_plan(ctx.mesh).factor([[assemble_jacobian(ctx, 10.0 * plain.u.values, ctx.eps_reg)]], "test")
    kept = KeptFactor(eps=ctx.eps_reg, lu=distant)
    rep = dirichlet_solve(ctx, load_at_qp(ctx.mesh, _dirichlet_rhs), kept=kept)
    _assert_converged(rep, ctx)
    # its chord step cuts the residual by less than _CHORD_RATE, so the
    # first iteration is the plain Newton step from a fresh factor
    assert rep.history[:2] == plain.history[:2]
    assert kept.lu is not distant


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_chord_step_is_rejected(value):
    # at p < 2 a residual at an infinite state would multiply 0 by inf
    ctx = _kept_factor_ctx("1.6 + 0.2*x")
    kept = KeptFactor(eps=ctx.eps_reg, lu=_NonFiniteFactor(value))
    rep = dirichlet_solve(ctx, load_at_qp(ctx.mesh, _dirichlet_rhs), kept=kept)
    _assert_converged(rep, ctx)
    assert np.all(np.isfinite(rep.history))


def test_old_factor_is_released_before_each_factorization(monkeypatch):
    ctx = _kept_factor_ctx()
    kept = KeptFactor()
    factor = AssemblyPlan.factor
    entries = []

    def checked(plan, blocks, what):
        assert kept.lu is None
        entries.append(what)
        return factor(plan, blocks, what)

    monkeypatch.setattr(AssemblyPlan, "factor", checked)
    u = linear_poisson_solve(ctx.mesh, 1.0)
    entries.clear()
    # loads far apart, so that the kept factor stops contracting
    for scale in (1.0, 30.0, 900.0):
        rep = dirichlet_solve(ctx, scale * load_at_qp(ctx.mesh, _dirichlet_rhs), initial=u, kept=kept)
        _assert_converged(rep, ctx)
        u = rep.u
    assert len(entries) >= 3


def test_kept_factor_needs_one_block_without_slope(mesh64, ctx2_64):
    zeros = np.zeros(mesh64.n_nodes)
    rhs = np.zeros((mesh64.n_elements, mesh64.n_qp))

    def load(points, s):
        return np.zeros(len(points))

    with pytest.raises(ValueError, match="kept factor needs a load that does not depend on u"):
        operator_module._newton([ctx2_64], [load], [zeros], 1e-10, KeptFactor())
    with pytest.raises(ValueError, match="serves one block"):
        operator_module._newton([ctx2_64, ctx2_64], rhs, [zeros, zeros], 1e-10, KeptFactor())


def test_array_load_for_two_blocks_is_rejected_up_front(mesh64, ctx2_64, monkeypatch):
    # such a load once passed the guard and crashed in the first Jacobian
    zeros = np.zeros(mesh64.n_nodes)
    rhs = np.ones((mesh64.n_elements, mesh64.n_qp))

    def no_assembly(*args):
        raise AssertionError("a residual was assembled")

    monkeypatch.setattr(operator_module, "_residual_full", no_assembly)
    with pytest.raises(ValueError, match="a load that does not depend on u serves one block"):
        operator_module._newton([ctx2_64, ctx2_64], rhs, [zeros, zeros], 1e-10)
