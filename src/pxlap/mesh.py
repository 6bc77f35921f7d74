"""Uniform interval and structured-triangle meshes with P1 elements.

The two mesh factories (:func:`build_interval_mesh`, :func:`build_rectangle_mesh`)
cover every experiment in the toolkit; both build a :class:`Mesh` from its
box and cell count per axis.  A mesh carries its quadrature data
(Gauss rules with degree-5 exactness per element, enough for integrands with
non-integer powers), the P1 basis values at the quadrature points and the
per-element basis gradients, so downstream modules only ever loop over
``(element, quadrature point)`` arrays.

Meshes are immutable after construction; all stored arrays are marked
read-only so they can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MeshMismatchError

_CONTAINS_TOL = 1e-12  # bounding-box padding of Mesh.contains, relative to the diameter
_COORD_TOL = 1e-9  # node-coordinate mismatch that load_grid_function_csv accepts
# the assembly plan indexes its CSC pattern with int32, and a two-block pattern
# holds up to 4 x 7 x n_nodes entries (7 is the largest node star, 3 in 1D), so
# no larger mesh can be assembled
_MAX_NODES = (2**31 - 1) // 28


def _within_node_bound(cells) -> bool:
    """Whether cell counts per axis (floats allowed; NaN is not) give at most
    _MAX_NODES nodes, checked without overflow."""
    cells = np.asarray(cells, dtype=float)
    return bool(np.all(cells < _MAX_NODES) and np.prod(cells + 1.0) <= _MAX_NODES)


# degree-5 Gauss-Legendre rule on [0, 1]
_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)
_GL3_X = (_GL3_X + 1.0) / 2.0
_GL3_W = _GL3_W / 2.0

# degree-5 seven-point rule on the reference triangle, barycentric weights sum to 1
_TRI7_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [0.05971587178976982, 0.47014206410511508, 0.47014206410511508],
        [0.47014206410511508, 0.05971587178976982, 0.47014206410511508],
        [0.47014206410511508, 0.47014206410511508, 0.05971587178976982],
        [0.79742698535308731, 0.10128650732345633, 0.10128650732345633],
        [0.10128650732345633, 0.79742698535308731, 0.10128650732345633],
        [0.10128650732345633, 0.10128650732345633, 0.79742698535308731],
    ]
)
_TRI7_W = np.array(
    [0.225]
    + [0.13239415278850618] * 3
    + [0.12593918054482715] * 3
)

# per dimension: barycentric coordinates of the quadrature points, weights
_RULES = {1: (np.stack([1.0 - _GL3_X, _GL3_X], axis=1), _GL3_W), 2: (_TRI7_BARY, _TRI7_W)}


def as_points(points, dimension: int) -> np.ndarray:
    """``points`` as a float array of shape (n, dimension); one point may be a
    flat sequence.  Any other number of coordinates is a MeshMismatchError."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != dimension:
        raise MeshMismatchError(
            f"points of shape {points.shape} do not have {dimension} coordinate(s) each"
        )
    return points


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class Mesh:
    """P1 mesh of the box [lo, hi] split into ``cells`` equal cells per axis.

    Nodes are numbered with x fastest.  In 1D each cell is one element; in 2D
    each cell is split along its anti-diagonal into a lower-left and an
    upper-right triangle, stored in that order.

    Attributes
    ----------
    lo, hi : ndarray, shape (dimension,)
        Corners of the box.
    cells : ndarray, shape (dimension,)
        Cell count per axis.
    spacing : ndarray, shape (dimension,)
        Cell width per axis, ``(hi - lo) / cells``.
    dimension : int
        1 (intervals) or 2 (triangles).
    nodes : ndarray, shape (n_nodes, dimension)
        Node coordinates.
    elements : ndarray, shape (n_elements, dimension + 1)
        Node indices per element.
    boundary_nodes, interior_nodes : ndarray
        Index sets partitioning the nodes.
    quad_points : ndarray, shape (n_elements, n_qp, dimension)
        Physical quadrature point coordinates.
    quad_points_flat : ndarray, shape (n_elements * n_qp, dimension)
        The same coordinates as one point list; point-wise loads are
        evaluated on this array.
    quad_weights : ndarray, shape (n_elements, n_qp)
        Quadrature weights, element measure included.
    basis : ndarray, shape (n_qp, nodes_per_element)
        P1 shape function values at the quadrature points.
    basis_grads : ndarray, shape (n_elements, nodes_per_element, dimension)
        Elementwise-constant shape function gradients.
    dual_scale : float
        sqrt of the mean element measure, the scale of the discrete dual norm.
    """

    def __init__(self, lo, hi, cells):
        self.lo = _freeze(np.asarray(lo, dtype=float))
        self.hi = _freeze(np.asarray(hi, dtype=float))
        if not _within_node_bound(cells):
            raise DomainError(
                f"{np.asarray(cells).tolist()} cells need more than the {_MAX_NODES} nodes "
                "a mesh can hold"
            )
        self.cells = _freeze(np.asarray(cells, dtype=int))
        self.dimension = len(self.cells)
        self.spacing = _freeze((self.hi - self.lo) / self.cells)
        axes = [np.linspace(a, b, n + 1) for a, b, n in zip(self.lo, self.hi, self.cells)]
        self.nodes = _freeze(np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=1))
        ids = np.arange(self.n_nodes).reshape(self.cells[::-1] + 1)
        if self.dimension == 1:
            elements = np.stack([ids[:-1], ids[1:]], axis=1)
        else:
            n00, n10, n01, n11 = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
            elements = np.stack([n00, n10, n01, n11, n01, n10], axis=-1).reshape(-1, 3)
        self.elements = _freeze(elements)
        face = np.ones(ids.shape, dtype=bool)
        face[(slice(1, -1),) * self.dimension] = False
        self.boundary_nodes = _freeze(ids[face])
        self.interior_nodes = _freeze(ids[~face])

        if self.interior_nodes.size < 1:
            raise DomainError("mesh must have at least one interior node")

        self._build_quadrature()
        self.quad_points_flat = _freeze(self.quad_points.reshape(-1, self.dimension))

        if np.any(self.element_measures <= 0):
            raise DomainError("mesh contains an element with non-positive measure")
        self.dual_scale = np.sqrt(self.element_measures.mean())

    # -- construction helpers -------------------------------------------------

    def _build_quadrature(self):
        # every element is a right simplex whose edges from vertex 0 run along
        # the axes, so its edge matrix is diagonal; its entries are the legs
        bary, weights = _RULES[self.dimension]
        coords = self.nodes[self.elements]  # (n_el, dimension + 1, dimension)
        v0 = coords[:, 0, :]
        legs = np.einsum("ekk->ek", coords[:, 1:, :] - v0[:, None, :])
        self.element_measures = _freeze(np.abs(np.prod(legs, axis=1)) / math.factorial(self.dimension))
        self.quad_points = _freeze(v0[:, None, :] + bary[None, :, 1:] * legs[:, None, :])
        self.quad_weights = _freeze(np.outer(self.element_measures, weights))
        self.basis = _freeze(bary)
        ref = np.vstack([-np.ones(self.dimension), np.eye(self.dimension)])
        self.basis_grads = _freeze(ref[None, :, :] / legs[:, None, :])

    # -- basic queries ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_qp(self) -> int:
        return self.quad_weights.shape[1]

    @property
    def diameter(self) -> float:
        return float(np.sqrt((self.hi - self.lo) @ (self.hi - self.lo)))

    def contains(self, points: np.ndarray) -> bool:
        points = as_points(points, self.dimension)
        pad = _CONTAINS_TOL * max(self.diameter, 1.0)
        return bool(np.all(points >= self.lo - pad) and np.all(points <= self.hi + pad))

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Element index and barycentric weights of each point.

        Points are clipped to the box to absorb boundary round-off; the cell
        index and the fraction across it come per axis from the spacing.
        """
        points = as_points(points, self.dimension)
        h = self.spacing
        x = np.clip(points, self.lo, self.hi)
        k = np.clip(((x - self.lo) / h).astype(int), 0, self.cells - 1)
        frac = (x - (self.lo + k * h)) / h
        cell = k @ np.cumprod(np.r_[1, self.cells[:-1]])
        # a 1D fraction can round above 1 (1.0000000000000004 at n = 12), so
        # the triangle test r + t <= 1 below would misplace it
        if self.dimension == 1:
            return cell, np.stack([1.0 - frac[:, 0], frac[:, 0]], axis=1)
        r, t = frac.T
        lower = r + t <= 1.0
        # lower triangle (i,j)-(i+1,j)-(i,j+1): bary = (1-r-t, r, t)
        # upper triangle (i+1,j+1)-(i,j+1)-(i+1,j): bary = (r+t-1, 1-r, 1-t)
        e = np.where(lower, 2 * cell, 2 * cell + 1)
        w = np.where(
            lower[:, None],
            np.stack([1.0 - r - t, r, t], axis=1),
            np.stack([r + t - 1.0, 1.0 - r, 1.0 - t], axis=1),
        )
        return e, w

    def __repr__(self):
        return (
            f"Mesh(dim={self.dimension}, nodes={self.n_nodes}, "
            f"elements={self.n_elements})"
        )


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Uniform 1D mesh of (a, b) with n elements."""
    if not b > a:
        raise DomainError(f"degenerate interval: need a < b, got ({a}, {b})")
    if n < 4:
        raise DomainError(f"need at least 4 elements, got {n}")
    return Mesh([a], [b], [n])


def build_rectangle_mesh(
    ax: float, ay: float, bx: float, by: float, nx: int, ny: int
) -> Mesh:
    """Structured triangulation of (ax,bx) x (ay,by); each cell split in two."""
    if not (bx > ax and by > ay):
        raise DomainError(
            f"degenerate rectangle: ({ax},{ay})-({bx},{by}) has no interior"
        )
    if nx < 2 or ny < 2:
        raise DomainError(f"need at least 2 cells per direction, got {nx}x{ny}")
    return Mesh([ax, ay], [bx, by], [nx, ny])


def dilate_domain(mesh: Mesh, margin: float) -> Mesh:
    """Mesh of the enlarged domain: the box grown by ``margin`` per side.

    The new mesh keeps the original grid spacing (cell counts are rounded to
    preserve density); a margin from :func:`snap_margin` keeps it exactly.
    """
    if margin <= 0:
        raise DomainError(f"margin must be positive, got {margin}")
    lo, hi = mesh.lo - margin, mesh.hi + margin
    return Mesh(lo, hi, np.maximum(np.round((hi - lo) / mesh.spacing), mesh.cells + 2))


def snap_margin(mesh: Mesh, margin: float) -> float:
    """Round ``margin`` up to a whole number of cells on every axis of ``mesh``.

    Used when the enlarged-domain mesh must nest the original grid exactly
    (nodes of the inner mesh then coincide with nodes of the outer one).  The
    result is the smallest multiple of the largest spacing that is also a
    whole number of cells on every axis, to 1e-9 relative.
    """
    if margin <= 0:
        raise DomainError(f"margin must be positive, got {margin}")
    h = mesh.spacing.max()
    # candidates stay below margin + diameter + 2h; a dilation adds two per axis
    cells = mesh.cells + 2.0 * (margin + mesh.diameter + 2.0 * h) / mesh.spacing
    if not _within_node_bound(cells):
        raise DomainError(f"margin {margin} needs more cells per axis than a mesh can count")
    first = max(1, int(np.ceil(margin / h - 1e-12)))
    m = np.arange(first, first + int(mesh.diameter / h) + 2)
    counts = np.outer(m * h, 1.0 / mesh.spacing)
    whole = np.all(np.abs(counts - np.round(counts)) <= 1e-9 * counts, axis=1)
    if not whole.any():
        raise DomainError(f"no margin near {margin} is a whole number of cells on every axis")
    return m[whole][0] * h


@dataclass
class GridFunction:
    """Nodal scalar field on a mesh (P1, continuous, piecewise linear)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise MeshMismatchError(
                f"value array length {self.values.shape} does not match "
                f"{self.mesh.n_nodes} mesh nodes"
            )

    @property
    def dirichlet_zero(self) -> bool:
        """Whether the field vanishes at every boundary node (zero trace)."""
        return not np.any(self.values[self.mesh.boundary_nodes] != 0.0)

    @classmethod
    def zeros(cls, mesh: Mesh) -> "GridFunction":
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def from_callable(cls, mesh: Mesh, fn) -> "GridFunction":
        vals = np.asarray(fn(mesh.nodes), dtype=float)
        return cls(mesh, np.broadcast_to(vals, (mesh.n_nodes,)).copy())

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.mesh, values)

    def scaled(self, c) -> "GridFunction":
        """The field times the constant ``c``."""
        return self.with_values(c * self.values)

    def at_qp(self) -> np.ndarray:
        """Values at all quadrature points, shape (n_elements, n_qp)."""
        local = self.values[self.mesh.elements]  # (n_el, nloc)
        return np.einsum("qa,ea->eq", self.mesh.basis, local)

    def gradients(self) -> np.ndarray:
        """Elementwise-constant gradient, shape (n_elements, dimension)."""
        local = self.values[self.mesh.elements]
        return np.einsum("ead,ea->ed", self.mesh.basis_grads, local)

    def grad_magnitude_qp(self) -> np.ndarray:
        """|grad u| at quadrature points (constant within each element)."""
        g = np.sqrt(np.sum(np.square(self.gradients()), axis=1))
        return np.broadcast_to(g[:, None], (self.mesh.n_elements, self.mesh.n_qp))

    def eval(self, points: np.ndarray) -> np.ndarray:
        """P1 interpolation at arbitrary points inside the domain."""
        points = as_points(points, self.mesh.dimension)
        if not self.mesh.contains(points):
            raise DomainError("evaluation points outside the mesh domain")
        e, w = self.mesh.locate(points)
        local = self.values[self.mesh.elements[e]]
        return np.einsum("pa,pa->p", w, local)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def save_csv(self, path) -> None:
        """Write ``x[,y],value`` rows with 17 significant digits."""
        cols = [self.mesh.nodes[:, d] for d in range(self.mesh.dimension)]
        cols.append(self.values)
        header = ",".join(["x", "y"][: self.mesh.dimension] + ["value"])
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        rows = "".join(row % tuple(r) for r in np.stack(cols, axis=1).tolist())
        with open(path, "w") as fh:
            fh.write(header + "\n" + rows)


def load_grid_function_csv(path, mesh: Mesh) -> GridFunction:
    """Read a nodal CSV written by :meth:`GridFunction.save_csv`; a
    non-finite entry is a ValueError."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (mesh.n_nodes, mesh.dimension + 1):
        raise MeshMismatchError(
            f"CSV shape {data.shape} does not match mesh "
            f"({mesh.n_nodes} nodes, {mesh.dimension}D)"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError("CSV holds a non-finite number")
    if np.max(np.abs(data[:, : mesh.dimension] - mesh.nodes)) > _COORD_TOL:
        raise MeshMismatchError("CSV node coordinates do not match the mesh")
    return GridFunction(mesh, data[:, -1])


def restrict(fine: GridFunction, target: Mesh) -> GridFunction:
    """Interpolate a field from an enclosing mesh onto ``target`` nodes; a
    node outside the source domain is a DomainError."""
    return GridFunction(target, fine.eval(target.nodes))


def integrate(field: np.ndarray, mesh: Mesh) -> float:
    """Quadrature value of the integral of a per-quadrature-point field.

    The reduction order is fixed (elements in storage order), so repeated
    calls are bit-identical.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != mesh.quad_weights.shape:
        raise MeshMismatchError(
            f"field shape {field.shape} does not match quadrature layout "
            f"{mesh.quad_weights.shape}"
        )
    return float(np.sum(mesh.quad_weights * field))
