import numpy as np
import pytest

from pxlap.eigen import first_eigenpair
from pxlap.errors import DomainError, HypothesisError
from pxlap.exponents import ExponentField, check_Hp
from pxlap.mesh import GridFunction, build_interval_mesh, build_rectangle_mesh, dilate_domain
from pxlap.modular import luxemburg_norm, sobolev_norm
from pxlap.operator import OperatorContext, dirichlet_solve


def test_bounds_constant(mesh64):
    p = ExponentField(mesh64, 2.0)
    assert (p.p_min, p.p_max) == (2.0, 2.0)


def test_bounds_linear(mesh64):
    p = ExponentField(mesh64, "2 + x")
    lo, hi = p.p_min, p.p_max
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(3.0, abs=1e-12)


def test_bounds_rejects_p_one(mesh64):
    with pytest.raises(HypothesisError):
        ExponentField(mesh64, 1.0)
    with pytest.raises(HypothesisError):
        ExponentField(mesh64, "1 + 0.5*x")


def test_conjugate_values(mesh64):
    assert ExponentField(mesh64, 2.0).conjugate().evaluate(np.array([[0.3]]))[0] == pytest.approx(2.0)
    assert ExponentField(mesh64, 3.0).conjugate().evaluate(np.array([[0.3]]))[0] == pytest.approx(1.5)
    p = ExponentField(mesh64, "2 + x")
    val = p.conjugate().evaluate(np.array([[0.5]]))[0]
    assert val == pytest.approx(2.5 / 1.5, abs=1e-14)


def test_conjugate_involution(mesh64, rng):
    p = ExponentField(mesh64, "2 + 0.7*x")
    pcc = p.conjugate().conjugate()
    pts = rng.random((50, 1))
    assert np.max(np.abs(pcc.evaluate(pts) - p.evaluate(pts))) < 1e-13


def test_conjugate_bounds_swap(mesh64):
    p = ExponentField(mesh64, "2 + x")
    pc = p.conjugate()
    assert pc.p_min == pytest.approx(p.p_max / (p.p_max - 1.0), abs=1e-13)
    assert pc.p_max == pytest.approx(p.p_min / (p.p_min - 1.0), abs=1e-13)


def test_check_hp_constant_passes(mesh64):
    assert check_Hp(ExponentField(mesh64, 2.0), mesh64).passed


def test_check_hp_linear_passes(mesh64):
    assert check_Hp(ExponentField(mesh64, "2 + x"), mesh64).passed


def test_check_hp_sine_fails(mesh64):
    p = ExponentField(mesh64, "2 + 0.5*sin(4*pi*x)")
    report = check_Hp(p, mesh64)
    assert not report.passed
    assert report.checks[0].witness is not None


def test_check_hp_refinement_invariant():
    # linear exponents keep their verdict under grid refinement
    for n in (16, 64, 256):
        m = build_interval_mesh(0.0, 1.0, n)
        assert check_Hp(ExponentField(m, "2 + x"), m).passed
        assert not check_Hp(ExponentField(m, "2 + 0.5*sin(4*pi*x)"), m).passed


def test_check_hp_2d_directions():
    m = build_rectangle_mesh(0, 0, 1, 1, 6, 6)
    p = ExponentField(m, "2 + x")  # monotone in x, constant in y
    report = check_Hp(p, m)
    assert report.passed
    p_bump = ExponentField(m, "2 + 0.4*sin(3*pi*x)*sin(3*pi*y)")
    assert not check_Hp(p_bump, m).passed


def test_check_hp_rays_from_exterior_point(mesh64):
    from pxlap.exponents import check_Hp_rays

    # rays from a point left of (0,1) run in the +x direction
    p = ExponentField(mesh64, "2 + x")
    assert check_Hp_rays(p, mesh64, exterior_point=(-2.0,)).passed
    p_bump = ExponentField(mesh64, "2 + 0.5*sin(4*pi*x)")
    assert not check_Hp_rays(p_bump, mesh64, exterior_point=(-2.0,)).passed
    with pytest.raises(ValueError):
        check_Hp_rays(p, mesh64, exterior_point=(0.5,))


def test_check_hp_rays_2d():
    from pxlap.exponents import check_Hp_rays

    m = build_rectangle_mesh(0, 0, 1, 1, 6, 6)
    # distance-like exponent decreases along every ray from the far corner
    p = ExponentField(m, "2 + 0.4*exp(-((x+3)**2 + (y+3)**2)/20)")
    assert check_Hp_rays(p, m, exterior_point=(-3.0, -3.0)).passed


def test_embedding_warning_recorded(mesh64):
    p = ExponentField(mesh64, 2.0)
    assert p.embedding_warning is not None  # p_max >= 1 always in 1D


@pytest.mark.parametrize("rule", ["2 + 1/x", "2 + 1/(x - 0.5)**2", np.inf])
def test_non_finite_exponent_rejected(mesh64, rule):
    # an infinite p passed the p_min > 1 check and failed later, in a solve
    with pytest.raises(HypothesisError, match="exponent must be finite, sampled maximum inf"):
        ExponentField(mesh64, rule)


def test_bounds_on_larger_mesh_can_violate(mesh64):
    # valid on its own mesh, but dips to 0.75 on the dilated domain
    from pxlap.mesh import dilate_domain

    p = ExponentField(mesh64, "1.5 + x")
    big = dilate_domain(mesh64, 0.75)
    with pytest.raises(HypothesisError):
        p.on_mesh(big)


def test_nodal_table_exponent(mesh64):
    from pxlap.mesh import GridFunction

    table = GridFunction.from_callable(mesh64, lambda pts: 2.0 + pts[:, 0])
    p = ExponentField(mesh64, table)
    assert p.p_min == pytest.approx(2.0, abs=1e-12)
    assert p.p_max == pytest.approx(3.0, abs=1e-12)
    # a table moves to a mesh inside its own by interpolation, and to no other
    inner = build_interval_mesh(0.25, 0.75, 8)
    moved = p.on_mesh(inner)
    assert np.allclose(moved.qp, 2.0 + inner.quad_points[:, :, 0], rtol=0.0, atol=1e-14)
    assert moved.on_mesh(inner).qp.tobytes() == moved.qp.tobytes()
    with pytest.raises(DomainError, match="nodal-table exponent is defined on its mesh"):
        p.on_mesh(dilate_domain(mesh64, 0.25))


@pytest.mark.parametrize(
    "mesh_name, rule",
    [
        ("mesh64", 2.5),
        ("mesh64", "2 + x"),
        ("mesh64", lambda pts: 2.0 + pts[:, 0] ** 2),
        ("mesh64", "table"),
        ("mesh2d", "2 + x*y"),
    ],
)
def test_qp_values_are_cached_read_only(mesh_name, rule, request):
    mesh = request.getfixturevalue(mesh_name)
    if rule == "table":
        rule = GridFunction(mesh, 2.0 + mesh.nodes[:, 0] ** 3)
    p = ExponentField(mesh, rule)
    assert p.qp.shape == (mesh.n_elements, mesh.n_qp)
    assert p.qp.tobytes() == p.evaluate(mesh.quad_points_flat).tobytes()
    assert not p.qp.flags.writeable
    with pytest.raises(ValueError):
        p.qp[0, 0] = 3.0


def test_norms_solves_and_eigenpairs_evaluate_no_exponent(mesh64, monkeypatch):
    p = ExponentField(mesh64, "2 + 0.1*x")
    ctx = OperatorContext(mesh64, p)
    vals = np.sin(np.pi * mesh64.nodes[:, 0])
    vals[mesh64.boundary_nodes] = 0.0
    u = GridFunction(mesh64, vals)
    calls = []
    evaluate = ExponentField.evaluate

    def counted(self, points):
        calls.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(ExponentField, "evaluate", counted)
    luxemburg_norm(u, p)
    sobolev_norm(u, p)
    assert dirichlet_solve(ctx, 1.0).converged
    # the default Poisson seed needs no exponent
    first_eigenpair(ctx)
    assert calls == []
