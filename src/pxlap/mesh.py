"""Uniform interval and structured-triangle meshes with P1 elements.

The two mesh factories (:func:`build_interval_mesh`, :func:`build_rectangle_mesh`)
cover every experiment in the toolkit.  A mesh carries its quadrature data
(Gauss rules with degree-5 exactness per element, enough for integrands with
non-integer powers), the P1 basis values at the quadrature points and the
per-element basis gradients, so downstream modules only ever loop over
``(element, quadrature point)`` arrays.

Meshes are immutable after construction; all stored arrays are marked
read-only so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MeshMismatchError

_CONTAINS_TOL = 1e-12  # bounding-box padding of Mesh.contains, relative to the diameter
_COORD_TOL = 1e-9  # node-coordinate mismatch that load_grid_function_csv accepts

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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class Mesh:
    """Discretized domain with P1 elements and per-element quadrature.

    Attributes
    ----------
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
        evaluated on this very array, so builders may recognize it.
    quad_weights : ndarray, shape (n_elements, n_qp)
        Quadrature weights, element measure included.
    basis : ndarray, shape (n_qp, nodes_per_element)
        P1 shape function values at the quadrature points.
    basis_grads : ndarray, shape (n_elements, nodes_per_element, dimension)
        Elementwise-constant shape function gradients.
    dual_scale : float
        sqrt of the mean element measure, the scale of the discrete dual norm.
    """

    def __init__(self, dimension, nodes, elements, boundary_nodes, structure):
        nodes = np.asarray(nodes, dtype=float)
        elements = np.asarray(elements, dtype=int)
        self.dimension = int(dimension)
        self.nodes = _freeze(nodes)
        self.elements = _freeze(elements)
        self.boundary_nodes = _freeze(np.sort(np.asarray(boundary_nodes, dtype=int)))
        mask = np.ones(len(nodes), dtype=bool)
        mask[self.boundary_nodes] = False
        self.interior_nodes = _freeze(np.nonzero(mask)[0])
        self.structure = structure  # geometry metadata for O(1) point location

        if self.interior_nodes.size < 1:
            raise DomainError("mesh must have at least one interior node")

        self._build_quadrature()
        self.quad_points_flat = _freeze(self.quad_points.reshape(-1, self.dimension))

        if np.any(self.element_measures <= 0):
            raise DomainError("mesh contains an element with non-positive measure")
        self.dual_scale = np.sqrt(self.element_measures.mean())

    # -- construction helpers -------------------------------------------------

    def _build_quadrature(self):
        conn = self.elements
        coords = self.nodes[conn]  # (n_el, nloc, dim)
        if self.dimension == 1:
            x0 = coords[:, 0, 0]
            h = coords[:, 1, 0] - x0
            self.element_measures = _freeze(np.abs(h))
            qp = x0[:, None] + np.outer(h, _GL3_X)
            self.quad_points = _freeze(qp[:, :, None])
            self.quad_weights = _freeze(np.outer(np.abs(h), _GL3_W))
            self.basis = _freeze(np.stack([1.0 - _GL3_X, _GL3_X], axis=1))
            grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]
            self.basis_grads = _freeze(grads)
        else:
            v0 = coords[:, 0, :]
            e1 = coords[:, 1, :] - v0
            e2 = coords[:, 2, :] - v0
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            area = np.abs(det) / 2.0
            self.element_measures = _freeze(area)
            lam = _TRI7_BARY
            qp = (
                lam[None, :, 0, None] * coords[:, None, 0, :]
                + lam[None, :, 1, None] * coords[:, None, 1, :]
                + lam[None, :, 2, None] * coords[:, None, 2, :]
            )
            self.quad_points = _freeze(qp)
            self.quad_weights = _freeze(np.outer(area, _TRI7_W))
            self.basis = _freeze(lam.copy())
            # grad N_ref = [[-1,-1],[1,0],[0,1]];  grad N = grad N_ref @ J^{-1}
            inv = np.empty((len(conn), 2, 2))
            inv[:, 0, 0] = e2[:, 1] / det
            inv[:, 0, 1] = -e2[:, 0] / det
            inv[:, 1, 0] = -e1[:, 1] / det
            inv[:, 1, 1] = e1[:, 0] / det
            ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            self.basis_grads = _freeze(np.einsum("ad,edk->eak", ref, inv))

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
    def bbox(self) -> np.ndarray:
        return np.stack([self.nodes.min(axis=0), self.nodes.max(axis=0)])

    @property
    def diameter(self) -> float:
        lo, hi = self.bbox
        return float(np.linalg.norm(hi - lo))

    def contains(self, points: np.ndarray) -> bool:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = self.bbox
        pad = _CONTAINS_TOL * max(self.diameter, 1.0)
        return bool(
            np.all(points >= lo[None, :] - pad) and np.all(points <= hi[None, :] + pad)
        )

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Element index and barycentric weights of each point.

        Relies on the structured layout recorded at construction; points are
        clipped to the bounding box to absorb boundary round-off.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s = self.structure
        if self.dimension == 1:
            a, b, n = s["a"], s["b"], s["n"]
            h = (b - a) / n
            x = np.clip(points[:, 0], a, b)
            e = np.clip(((x - a) / h).astype(int), 0, n - 1)
            t = (x - (a + e * h)) / h
            w = np.stack([1.0 - t, t], axis=1)
            return e, w
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
        # lower triangle (i,j)-(i+1,j)-(i,j+1): bary = (1-r-t, r, t)
        # upper triangle (i+1,j+1)-(i,j+1)-(i+1,j): bary = (r+t-1, 1-r, 1-t)
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
    nodes = np.linspace(a, b, n + 1)[:, None]
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    return Mesh(
        1, nodes, elements, [0, n], {"kind": "interval", "a": a, "b": b, "n": n}
    )


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
            elements.append([n00, n10, n01])  # lower-left triangle
            elements.append([n11, n01, n10])  # upper-right triangle
    boundary = [
        nid(i, j)
        for j in range(ny + 1)
        for i in range(nx + 1)
        if i in (0, nx) or j in (0, ny)
    ]
    return Mesh(
        2,
        nodes,
        elements,
        boundary,
        {"kind": "rectangle", "ax": ax, "ay": ay, "bx": bx, "by": by, "nx": nx, "ny": ny},
    )


def dilate_domain(mesh: Mesh, margin) -> Mesh:
    """Mesh of the enlarged domain: the box grown by ``margin`` per side.

    The new mesh keeps the original grid spacing (element counts are rounded
    to preserve density).  ``margin`` may be a scalar or, in 2D, a pair
    (margin_x, margin_y).
    """
    margin = np.broadcast_to(np.asarray(margin, dtype=float), (mesh.dimension,))
    if np.any(margin <= 0):
        raise DomainError(f"margin must be positive, got {margin}")
    s = mesh.structure
    if s["kind"] == "interval":
        h = (s["b"] - s["a"]) / s["n"]
        a2, b2 = s["a"] - margin[0], s["b"] + margin[0]
        n2 = max(int(round((b2 - a2) / h)), s["n"] + 2)
        return build_interval_mesh(a2, b2, n2)
    hx = (s["bx"] - s["ax"]) / s["nx"]
    hy = (s["by"] - s["ay"]) / s["ny"]
    ax2, bx2 = s["ax"] - margin[0], s["bx"] + margin[0]
    ay2, by2 = s["ay"] - margin[1], s["by"] + margin[1]
    nx2 = max(int(round((bx2 - ax2) / hx)), s["nx"] + 2)
    ny2 = max(int(round((by2 - ay2) / hy)), s["ny"] + 2)
    return build_rectangle_mesh(ax2, ay2, bx2, by2, nx2, ny2)


def snap_margin(mesh: Mesh, margin: float) -> float:
    """Round ``margin`` up to a whole number of cells of ``mesh``.

    Used when the enlarged-domain mesh must nest the original grid exactly
    (nodes of the inner mesh then coincide with nodes of the outer one).
    """
    if margin <= 0:
        raise DomainError(f"margin must be positive, got {margin}")
    s = mesh.structure
    if s["kind"] == "interval":
        h = (s["b"] - s["a"]) / s["n"]
        return max(1, int(np.ceil(margin / h - 1e-12))) * h
    hx = (s["bx"] - s["ax"]) / s["nx"]
    hy = (s["by"] - s["ay"]) / s["ny"]
    h = max(hx, hy)
    return max(1, int(np.ceil(margin / h - 1e-12))) * h


@dataclass
class GridFunction:
    """Nodal scalar field on a mesh (P1, continuous, piecewise linear).

    ``dirichlet_zero`` marks fields that vanish on the boundary; it is
    validated at construction.
    """

    mesh: Mesh
    values: np.ndarray
    dirichlet_zero: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise MeshMismatchError(
                f"value array length {self.values.shape} does not match "
                f"{self.mesh.n_nodes} mesh nodes"
            )
        if self.dirichlet_zero and np.any(self.values[self.mesh.boundary_nodes] != 0.0):
            raise MeshMismatchError(
                "field flagged Dirichlet-zero has nonzero boundary values"
            )

    @classmethod
    def zeros(cls, mesh: Mesh) -> "GridFunction":
        return cls(mesh, np.zeros(mesh.n_nodes), dirichlet_zero=True)

    @classmethod
    def from_callable(cls, mesh: Mesh, fn) -> "GridFunction":
        vals = np.asarray(fn(mesh.nodes), dtype=float)
        return cls(mesh, np.broadcast_to(vals, (mesh.n_nodes,)).copy())

    def with_values(self, values, dirichlet_zero=None) -> "GridFunction":
        if dirichlet_zero is None:
            dirichlet_zero = self.dirichlet_zero
        return GridFunction(self.mesh, values, dirichlet_zero=dirichlet_zero)

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
        g = np.linalg.norm(self.gradients(), axis=1)
        return np.broadcast_to(g[:, None], (self.mesh.n_elements, self.mesh.n_qp))

    def eval(self, points: np.ndarray) -> np.ndarray:
        """P1 interpolation at arbitrary points inside the domain."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
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
        data = np.stack(cols, axis=1)
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def load_grid_function_csv(path, mesh: Mesh) -> GridFunction:
    """Read a nodal CSV written by :meth:`GridFunction.save_csv`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (mesh.n_nodes, mesh.dimension + 1):
        raise MeshMismatchError(
            f"CSV shape {data.shape} does not match mesh "
            f"({mesh.n_nodes} nodes, {mesh.dimension}D)"
        )
    if np.max(np.abs(data[:, : mesh.dimension] - mesh.nodes)) > _COORD_TOL:
        raise MeshMismatchError("CSV node coordinates do not match the mesh")
    vals = data[:, -1]
    dz = bool(np.all(vals[mesh.boundary_nodes] == 0.0))
    return GridFunction(mesh, vals, dirichlet_zero=dz)


def restrict(fine: GridFunction, target: Mesh) -> GridFunction:
    """Interpolate a field from an enclosing mesh onto ``target`` nodes."""
    if not fine.mesh.contains(target.nodes):
        raise DomainError(
            "target mesh is not geometrically contained in the source domain"
        )
    vals = fine.eval(target.nodes)
    return GridFunction(target, vals)


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
