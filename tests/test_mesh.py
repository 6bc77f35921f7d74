import numpy as np
import pytest

from pxlap import mesh as mesh_module
from pxlap.errors import DomainError, MeshMismatchError
from pxlap.operator import assembly_plan
from pxlap.mesh import (
    GridFunction,
    Mesh,
    build_interval_mesh,
    build_rectangle_mesh,
    dilate_domain,
    integrate,
    load_grid_function_csv,
    restrict,
    snap_margin,
)


def test_interval_mesh_basic():
    m = build_interval_mesh(0.0, 1.0, 4)
    assert m.n_nodes == 5
    assert np.allclose(m.nodes[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert list(m.boundary_nodes) == [0, 4]


def test_interval_mesh_fine():
    m = build_interval_mesh(0.0, 1.0, 256)
    assert m.n_nodes == 257
    assert np.allclose(m.element_measures, 1.0 / 256)


def test_interval_mesh_degenerate():
    with pytest.raises(DomainError):
        build_interval_mesh(1.0, 0.0, 4)
    with pytest.raises(DomainError):
        build_interval_mesh(0.0, 1.0, 3)


def test_rectangle_mesh_counts():
    m = build_rectangle_mesh(0, 0, 1, 1, 2, 2)
    assert m.n_nodes == 9
    assert m.n_elements == 8
    assert len(m.boundary_nodes) == 8
    m16 = build_rectangle_mesh(0, 0, 1, 1, 16, 16)
    assert m16.n_nodes == 289


def test_rectangle_mesh_degenerate():
    with pytest.raises(DomainError):
        build_rectangle_mesh(0, 0, 0, 1, 2, 2)


def test_dilate_interval():
    m = build_interval_mesh(0.0, 1.0, 10)
    big = dilate_domain(m, 0.1)
    assert big.nodes[0, 0] == pytest.approx(-0.1)
    assert big.nodes[-1, 0] == pytest.approx(1.1)
    # density preserved
    assert big.element_measures.mean() == pytest.approx(0.1, rel=1e-12)


def test_dilate_rectangle():
    m = build_rectangle_mesh(0, 0, 1, 1, 4, 4)
    big = dilate_domain(m, 0.25)
    assert np.allclose(big.lo, [-0.25, -0.25])
    assert np.allclose(big.hi, [1.25, 1.25])


def test_dilate_zero_margin_rejected():
    m = build_interval_mesh(0.0, 1.0, 10)
    with pytest.raises(DomainError):
        dilate_domain(m, 0.0)


def test_integrate_polynomials():
    m = build_interval_mesh(0.0, 1.0, 8)
    ones = np.ones((m.n_elements, m.n_qp))
    assert integrate(ones, m) == pytest.approx(1.0, abs=1e-15)
    x = m.quad_points[:, :, 0]
    assert integrate(x, m) == pytest.approx(0.5, abs=1e-14)
    # frozen from the antiderivative x^3/3
    assert integrate(x**2, m) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert integrate(x**5, m) == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_integrate_2d_polynomials():
    m = build_rectangle_mesh(0, 0, 1, 1, 4, 4)
    x = m.quad_points[:, :, 0]
    y = m.quad_points[:, :, 1]
    assert integrate(x * y, m) == pytest.approx(0.25, abs=1e-14)
    assert integrate(x**2 * y**3, m) == pytest.approx(1.0 / 12.0, abs=1e-14)


def test_integrate_linearity(rng):
    m = build_interval_mesh(0.0, 1.0, 16)
    f = rng.standard_normal((m.n_elements, m.n_qp))
    g = rng.standard_normal((m.n_elements, m.n_qp))
    a, b = 2.7, -1.3
    lhs = integrate(a * f + b * g, m)
    rhs = a * integrate(f, m) + b * integrate(g, m)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_integrate_convergence_order():
    # degree-5 Gauss rule: error O(h^6) on smooth integrands
    errs = []
    for n in (8, 16):
        m = build_interval_mesh(0.0, 1.0, n)
        x = m.quad_points[:, :, 0]
        val = integrate(np.sin(3.0 * x) * np.exp(x), m)
        exact = (np.exp(1) * (np.sin(3) - 3 * np.cos(3)) + 3) / 10.0
        errs.append(abs(val - exact))
    assert errs[1] < errs[0] / 40.0


def test_gridfunction_dirichlet_flag():
    # the zero trace is read from the boundary values
    m = build_interval_mesh(0.0, 1.0, 4)
    assert GridFunction.zeros(m).dirichlet_zero
    assert not GridFunction(m, np.ones(m.n_nodes)).dirichlet_zero
    interior = np.zeros(m.n_nodes)
    interior[m.interior_nodes] = 1.0
    assert GridFunction(m, interior).dirichlet_zero
    for value in (1e-300, -0.5, np.nan):
        boundary = interior.copy()
        boundary[m.boundary_nodes[-1]] = value
        assert not GridFunction(m, boundary).dirichlet_zero


def test_gridfunction_eval_reproduces_linears():
    m = build_interval_mesh(0.0, 1.0, 8)
    u = GridFunction.from_callable(m, lambda pts: 3.0 * pts[:, 0] - 1.0)
    pts = np.linspace(0.05, 0.95, 17)[:, None]
    assert np.allclose(u.eval(pts), 3.0 * pts[:, 0] - 1.0, atol=1e-14)


def test_gridfunction_eval_2d_linears():
    m = build_rectangle_mesh(0, 0, 1, 1, 4, 4)
    u = GridFunction.from_callable(m, lambda pts: pts[:, 0] + 2.0 * pts[:, 1])
    rng = np.random.default_rng(3)
    pts = rng.random((40, 2))
    assert np.allclose(u.eval(pts), pts[:, 0] + 2.0 * pts[:, 1], atol=1e-13)


def test_points_with_the_wrong_coordinate_count_are_rejected():
    m = build_rectangle_mesh(0, 0, 1, 1, 6, 6)
    u = GridFunction.from_callable(m, lambda pts: pts[:, 0] + 10.0 * pts[:, 1])
    # one-column points on a rectangle were read as the diagonal (5.5, 2.2)
    with pytest.raises(MeshMismatchError):
        u.eval([[0.5], [0.2]])
    with pytest.raises(MeshMismatchError):
        m.locate(np.zeros((3, 3)))
    assert mesh_module.as_points((0.5, 0.2), 2).shape == (1, 2)
    line = build_interval_mesh(0.0, 1.0, 8)
    with pytest.raises(MeshMismatchError):
        line.contains(np.array([0.5, 0.2]))


def test_restrict_constants_and_linears():
    fine = build_interval_mesh(-0.25, 1.25, 24)
    coarse = build_interval_mesh(0.0, 1.0, 16)
    const = GridFunction.from_callable(fine, lambda pts: np.ones(len(pts)))
    assert np.allclose(restrict(const, coarse).values, 1.0, atol=0.0)
    lin = GridFunction.from_callable(fine, lambda pts: pts[:, 0])
    assert np.allclose(restrict(lin, coarse).values, coarse.nodes[:, 0], atol=1e-14)


def test_restrict_containment_violation():
    small = build_interval_mesh(0.0, 1.0, 8)
    big = build_interval_mesh(-1.0, 2.0, 8)
    u = GridFunction.zeros(small)
    with pytest.raises(DomainError):
        restrict(u, big)


def test_csv_roundtrip(tmp_path):
    m = build_interval_mesh(0.0, 1.0, 8)
    u = GridFunction.from_callable(m, lambda pts: np.pi * pts[:, 0] ** 2)
    path = tmp_path / "u.csv"
    u.save_csv(path)
    v = load_grid_function_csv(path, m)
    assert np.array_equal(u.values, v.values)  # 17 significant digits roundtrip


def test_csv_roundtrip_2d(tmp_path):
    m = build_rectangle_mesh(0, 0, 1, 1, 3, 3)
    u = GridFunction.from_callable(m, lambda pts: np.e * pts[:, 0] - pts[:, 1] ** 3)
    path = tmp_path / "u2.csv"
    u.save_csv(path)
    assert path.read_text().splitlines()[0] == "x,y,value"
    v = load_grid_function_csv(path, m)
    assert np.array_equal(u.values, v.values)


def test_mesh_arrays_are_readonly():
    m = build_interval_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 7.0


# -- reference: the per-kind geometry code the per-axis Mesh replaced ---------
# Each _ref_* function works on the geometry record the builders used to keep
# ({"kind": "interval", a, b, n} or {"kind": "rectangle", ax, ay, bx, by, nx,
# ny}); the per-axis code must reproduce them bit for bit.  _ref_interval and
# _ref_rectangle also return the per-kind element data (measures, quadrature
# points and weights, basis, gradients) that the one simplex formula replaced.


def _ref_interval(a, b, n):
    nodes = np.linspace(a, b, n + 1)[:, None]
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    x = mesh_module._GL3_X
    coords = nodes[elements]
    x0 = coords[:, 0, 0]
    h = coords[:, 1, 0] - x0
    quad = (
        np.abs(h),
        (x0[:, None] + np.outer(h, x))[:, :, None],
        np.outer(np.abs(h), mesh_module._GL3_W),
        np.stack([1.0 - x, x], axis=1),
        np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None],
    )
    return nodes, elements, [0, n], {"kind": "interval", "a": a, "b": b, "n": n}, quad


def _ref_triangle_quadrature(coords):
    v0 = coords[:, 0, :]
    e1 = coords[:, 1, :] - v0
    e2 = coords[:, 2, :] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = np.abs(det) / 2.0
    lam = mesh_module._TRI7_BARY
    qp = (
        lam[None, :, 0, None] * coords[:, None, 0, :]
        + lam[None, :, 1, None] * coords[:, None, 1, :]
        + lam[None, :, 2, None] * coords[:, None, 2, :]
    )
    # grad N_ref = [[-1,-1],[1,0],[0,1]];  grad N = grad N_ref @ J^{-1}
    inv = np.empty((len(coords), 2, 2))
    inv[:, 0, 0] = e2[:, 1] / det
    inv[:, 0, 1] = -e2[:, 0] / det
    inv[:, 1, 0] = -e1[:, 1] / det
    inv[:, 1, 1] = e1[:, 0] / det
    ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.einsum("ad,edk->eak", ref, inv)
    return area, qp, np.outer(area, mesh_module._TRI7_W), lam.copy(), grads


def _ref_rectangle(ax, ay, bx, by, nx, ny):
    xs = np.linspace(ax, bx, nx + 1)
    ys = np.linspace(ay, by, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    def nid(i, j):
        return j * (nx + 1) + i

    elements = []
    for j in range(ny):
        for i in range(nx):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            elements.append([n00, n10, n01])
            elements.append([n11, n01, n10])
    boundary = [
        nid(i, j)
        for j in range(ny + 1)
        for i in range(nx + 1)
        if i in (0, nx) or j in (0, ny)
    ]
    s = {"kind": "rectangle", "ax": ax, "ay": ay, "bx": bx, "by": by, "nx": nx, "ny": ny}
    elements = np.array(elements)
    return nodes, elements, boundary, s, _ref_triangle_quadrature(nodes[elements])


def _ref_locate(s, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if s["kind"] == "interval":
        a, b, n = s["a"], s["b"], s["n"]
        h = (b - a) / n
        x = np.clip(points[:, 0], a, b)
        e = np.clip(((x - a) / h).astype(int), 0, n - 1)
        t = (x - (a + e * h)) / h
        return e, np.stack([1.0 - t, t], axis=1)
    ax, ay, bx, by = s["ax"], s["ay"], s["bx"], s["by"]
    nx, ny = s["nx"], s["ny"]
    hx = (bx - ax) / nx
    hy = (by - ay) / ny
    x = np.clip(points[:, 0], ax, bx)
    y = np.clip(points[:, 1], ay, by)
    i = np.clip(((x - ax) / hx).astype(int), 0, nx - 1)
    j = np.clip(((y - ay) / hy).astype(int), 0, ny - 1)
    r = (x - (ax + i * hx)) / hx
    t = (y - (ay + j * hy)) / hy
    lower = r + t <= 1.0
    cell = 2 * (j * nx + i)
    e = np.where(lower, cell, cell + 1)
    w = np.where(
        lower[:, None],
        np.stack([1.0 - r - t, r, t], axis=1),
        np.stack([r + t - 1.0, 1.0 - r, 1.0 - t], axis=1),
    )
    return e, w


def _ref_dilate(s, margin):
    if s["kind"] == "interval":
        h = (s["b"] - s["a"]) / s["n"]
        a2, b2 = s["a"] - margin, s["b"] + margin
        n2 = max(int(round((b2 - a2) / h)), s["n"] + 2)
        return _ref_interval(a2, b2, n2)
    hx = (s["bx"] - s["ax"]) / s["nx"]
    hy = (s["by"] - s["ay"]) / s["ny"]
    ax2, bx2 = s["ax"] - margin, s["bx"] + margin
    ay2, by2 = s["ay"] - margin, s["by"] + margin
    nx2 = max(int(round((bx2 - ax2) / hx)), s["nx"] + 2)
    ny2 = max(int(round((by2 - ay2) / hy)), s["ny"] + 2)
    return _ref_rectangle(ax2, ay2, bx2, by2, nx2, ny2)


def _ref_snap(s, margin):
    if s["kind"] == "interval":
        h = (s["b"] - s["a"]) / s["n"]
    else:
        h = max((s["bx"] - s["ax"]) / s["nx"], (s["by"] - s["ay"]) / s["ny"])
    return max(1, int(np.ceil(margin / h - 1e-12))) * h


_REFERENCE_MESHES = [
    ("interval", (0.0, 1.0, 4)),
    ("interval", (0.0, 1.0, 257)),
    ("interval", (-0.7, 2.3, 1000)),
    ("rectangle", (0.0, 0.0, 1.0, 1.0, 2, 2)),
    ("rectangle", (0.0, 0.0, 1.0, 0.75, 16, 12)),
    ("rectangle", (-0.3, 0.2, 0.9, 1.7, 7, 13)),
    ("rectangle", (0.0, 0.0, 1.0, 1.0, 128, 128)),
]


def _probe_points(mesh, rng):
    """Random points, nodes, points on cell edges and on cell diagonals,
    and points just outside the box."""
    lo, hi, h = mesh.lo, mesh.hi, mesh.spacing
    pts = [lo + (hi - lo) * rng.random((500, mesh.dimension)), mesh.nodes]
    edge = lo + (hi - lo) * rng.random((200, mesh.dimension))
    axis = rng.integers(0, mesh.dimension, 200)
    k = rng.integers(0, mesh.cells[axis] + 1)
    edge[np.arange(200), axis] = lo[axis] + k * h[axis]
    pts.append(edge)
    if mesh.dimension == 2:
        el = mesh.elements[rng.integers(0, mesh.n_elements, 200)]
        s = rng.random(200)[:, None]
        pts.append(s * mesh.nodes[el[:, 1]] + (1 - s) * mesh.nodes[el[:, 2]])
    pts.append(np.array([lo - 1e-13, hi + 1e-13]))
    return np.concatenate(pts)


@pytest.mark.parametrize("kind, args", _REFERENCE_MESHES)
def test_box_mesh_matches_per_kind_reference(kind, args):
    build, ref = {
        "interval": (build_interval_mesh, _ref_interval),
        "rectangle": (build_rectangle_mesh, _ref_rectangle),
    }[kind]
    m = build(*args)
    nodes, elements, boundary, s, quad = ref(*args)
    assert np.array_equal(m.nodes, nodes)
    assert np.array_equal(m.elements, elements)
    assert np.array_equal(m.boundary_nodes, np.sort(boundary))

    measures, qp, weights, basis, grads = quad
    assert np.array_equal(m.element_measures, measures)
    assert np.array_equal(m.quad_weights, weights)
    assert np.array_equal(m.basis, basis)
    if kind == "interval":
        assert np.array_equal(m.quad_points, qp)
        assert np.array_equal(m.basis_grads, grads)
    else:
        # v0 + l1 leg replaces l0 c0 + l1 c1 + l2 c2: at most 1 ulp of the
        # axis's largest coordinate, more ulps of a point near 0
        assert np.all(np.abs(m.quad_points - qp) <= np.spacing(np.abs(nodes).max(axis=0)))
        assert np.max(np.abs(m.basis_grads - grads)) <= 4e-15

    pts = _probe_points(m, np.random.default_rng(len(m.nodes)))
    e, w = m.locate(pts)
    e_ref, w_ref = _ref_locate(s, pts)
    assert np.array_equal(e, e_ref) and np.array_equal(w, w_ref)

    for margin in (0.1, 0.25, 0.37):
        big = dilate_domain(m, margin)
        nodes2, elements2, boundary2, *_ = _ref_dilate(s, margin)
        assert np.array_equal(big.nodes, nodes2)
        assert np.array_equal(big.elements, elements2)
        assert np.array_equal(big.boundary_nodes, np.sort(boundary2))
        if kind == "interval" or m.spacing[0] == m.spacing[1]:
            assert snap_margin(m, margin) == _ref_snap(s, margin)


@pytest.mark.parametrize("nx, ny", [(10, 16), (32, 20)])
def test_snapped_dilation_nests_non_square_cells(nx, ny):
    # snapping to the larger spacing alone used to give 0.4 here: the
    # dilated grid then neither kept hy nor contained the base nodes
    m = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, nx, ny)
    margin = snap_margin(m, 0.25 * m.diameter)
    big = dilate_domain(m, margin)
    for d, h in enumerate((1.0 / nx, 1.0 / ny)):
        assert np.allclose(np.diff(np.unique(big.nodes[:, d])), h, rtol=1e-12, atol=0.0)
    gap = np.linalg.norm(m.nodes[:, None, :] - big.nodes[None, :, :], axis=2).min(axis=1)
    assert gap.max() <= 1e-12


def test_snap_margin_without_common_multiple_rejected():
    m = build_rectangle_mesh(0.0, 0.0, 1.0, np.sqrt(2.0), 4, 4)
    with pytest.raises(DomainError, match="whole number of cells"):
        snap_margin(m, 0.25)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_interval_mesh(0.0, 1.0, 10**9),
        lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 10**7, 10),
        # 1.6e19 cells wrapped in the int64 cast, and a 10-cell mesh came back
        lambda: dilate_domain(build_interval_mesh(0.0, 1.0, 8), 1e18),
    ],
    ids=["interval", "rectangle", "dilation"],
)
def test_mesh_beyond_the_node_bound_is_rejected_before_allocating(no_large_linspace, build):
    with pytest.raises(DomainError, match="nodes a mesh can hold"):
        build()


@pytest.mark.parametrize("args", [(0.0, 1.0, 16), (0.0, 0.0, 1.0, 1.0, 6, 5)])
def test_two_block_pattern_fits_the_node_bound(args):
    # the bound counts at most 7 entries per column of a block (the node
    # star) and 4 blocks, so 28 n_nodes entries, below 2^31 for _MAX_NODES
    m = (build_interval_mesh if len(args) == 3 else build_rectangle_mesh)(*args)
    plan = assembly_plan(m)
    assert np.diff(plan.indptr).max() <= 7
    K = np.zeros((m.n_elements, m.dimension + 1, m.dimension + 1))
    assert plan.matrix([[K, K], [K, K]]).nnz <= 28 * m.n_nodes
    assert 28 * mesh_module._MAX_NODES < 2**31


def test_scaled_equals_with_values_bit_for_bit(mesh64):
    rng = np.random.default_rng(22)
    u = GridFunction(mesh64, rng.standard_normal(mesh64.n_nodes))
    v = GridFunction.zeros(mesh64).with_values(np.r_[0.0, rng.standard_normal(63), 0.0])
    for field in (u, v):
        for c in (0.5, -1.0, 1.0 / 3.0, 2.0**-39, 1e300):
            got = field.scaled(c)
            assert got.values.tobytes() == field.with_values(c * field.values).values.tobytes()
            assert got.dirichlet_zero == field.dirichlet_zero
    assert v.scaled(-1.0).dirichlet_zero


@pytest.mark.parametrize("margin", [1e20, 1e300, float("inf"), float("nan")])
@pytest.mark.parametrize("dims", [(8,), (4, 4)])
def test_snap_margin_rejects_margins_beyond_the_cell_count(dims, margin):
    # 1e20 / h overflowed int64 into an object array, and the caller failed
    # with a TypeError; inf and nan failed in int()
    m = Mesh([0.0] * len(dims), [1.0] * len(dims), dims)
    with pytest.raises(DomainError, match="more cells per axis"):
        snap_margin(m, margin)
