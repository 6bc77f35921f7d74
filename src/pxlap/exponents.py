"""Variable exponents p(x): evaluation, bounds, conjugates, monotonicity checks.

An :class:`ExponentField` wraps either a coordinate expression/callable or a
nodal table and caches its values at the quadrature points of its mesh and
the bounds (p_min, p_max) obtained by sampling every quadrature point and
node.  Construction enforces 1 < p_min and p_max < inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisError
from .expressions import coordinate_expression
from .mesh import GridFunction, Mesh, _freeze, as_points

_SAMPLES_PER_LINE = 64  # points on each sampled line of the monotonicity checks
_MONOTONE_TOL = 1e-12  # a step of p against the trend up to this still counts as monotone


class ExponentField:
    """A continuous exponent p(x) with cached quadrature values and bounds.

    ``qp`` holds p at the mesh's quadrature points, shape (n_elements, n_qp),
    read-only; every norm and assembly on the mesh reads it.

    Parameters
    ----------
    mesh : Mesh
        Mesh whose quadrature points and nodes define the cached bounds.
    rule : float | str | callable | GridFunction
        Constant value, expression in ``x``/``y``, callable of a point array,
        or nodal table (interpolated piecewise-linearly), defined on the
        domain of its own mesh only.
    """

    def __init__(self, mesh: Mesh, rule):
        self.mesh = mesh
        if isinstance(rule, GridFunction):
            if rule.mesh is not mesh:
                if not rule.mesh.contains(mesh.nodes):
                    box = f"{rule.mesh.lo.tolist()} to {rule.mesh.hi.tolist()}"
                    raise DomainError(f"a nodal-table exponent is defined on its mesh, {box}, only")
                rule = GridFunction(mesh, rule.eval(mesh.nodes))
            self._rule_fn = rule.eval
            self.description = "nodal table"
        elif isinstance(rule, str):
            self._rule_fn = coordinate_expression(rule, mesh.dimension)
            self.description = rule
        elif callable(rule):
            self._rule_fn = rule
            self.description = getattr(rule, "expression", "callable")
        else:
            value = float(rule)
            self._rule_fn = lambda points: value
            self.description = repr(value)
        self._rule = rule

        # a NaN or an infinity fails a bound check below, with no warning
        with np.errstate(all="ignore"):
            qp = self.evaluate(mesh.quad_points_flat)
            nodal = self.evaluate(mesh.nodes)
        self.qp = _freeze(qp.reshape(mesh.n_elements, mesh.n_qp))
        self.p_min = float(np.minimum(self.qp.min(), nodal.min()))
        self.p_max = float(np.maximum(self.qp.max(), nodal.max()))
        if not self.p_min > 1.0:
            raise HypothesisError(
                f"exponent must satisfy p_min > 1, sampled minimum {self.p_min}"
            )
        if not self.p_max < np.inf:
            raise HypothesisError(f"exponent must be finite, sampled maximum {self.p_max}")
        # p_max < dimension is a Sobolev-embedding hypothesis; it cannot hold
        # in 1D desk experiments, so it is recorded rather than enforced.
        self.embedding_warning = None
        if self.p_max >= mesh.dimension:
            self.embedding_warning = (
                f"p_max = {self.p_max:.6g} >= spatial dimension "
                f"{mesh.dimension}; Sobolev-embedding-based statements are "
                "formal only"
            )

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """p at each point of an (n, dimension) array, shape (n,)."""
        points = as_points(points, self.mesh.dimension)
        return np.broadcast_to(np.asarray(self._rule_fn(points), dtype=float), (len(points),))

    def on_mesh(self, mesh: Mesh) -> "ExponentField":
        """Re-bind the same rule to another mesh (e.g. the enlarged domain); a
        nodal table transfers only to a mesh inside its own mesh's box."""
        return ExponentField(mesh, self._rule)

    def conjugate(self) -> "ExponentField":
        """Pointwise Holder conjugate p/(p - 1)."""

        def conj(points):
            p = self.evaluate(points)
            return p / (p - 1.0)

        out = ExponentField(self.mesh, conj)
        out.description = f"conjugate({self.description})"
        return out

    def __repr__(self):
        return (
            f"ExponentField({self.description}, bounds=({self.p_min:.6g}, "
            f"{self.p_max:.6g}))"
        )


@dataclass
class HpReport:
    """Result of the direction-monotonicity check.

    ``witnesses`` holds one entry per family of sampled lines: None when p is
    monotone on every line of the family, else the first turn of p on the
    first line where it turns (its base point, three parameters t and the
    values of p there).  ``passed`` is true when some family has no turn.  A
    failing report is a legitimate outcome, not an error.
    """

    witnesses: list
    passed: bool


def _first_turn(p, mesh, x0, direction) -> dict | None:
    """Witness of the first line ``x0[i] + t*direction[i]`` (rows of two
    (lines, dimension) arrays) on which p, sampled inside the box, is not
    monotone; None if there is none.  Lines that miss the box interior are
    skipped; p is evaluated once, on every sample of every line."""
    lo, hi = mesh.lo, mesh.hi
    along = np.abs(direction) >= 1e-15
    step = np.where(along, direction, 1.0)
    t1, t2 = (lo - x0) / step, (hi - x0) / step
    tmin = np.max(np.where(along, np.minimum(t1, t2), -np.inf), axis=1)
    tmax = np.min(np.where(along, np.maximum(t1, t2), np.inf), axis=1)
    keep = tmax > tmin
    x0, direction = x0[keep], direction[keep]
    ts = np.linspace(tmin[keep], tmax[keep], _SAMPLES_PER_LINE, axis=1)
    pts = np.clip(x0[:, None, :] + ts[:, :, None] * direction[:, None, :], lo, hi)
    vals = p.evaluate(pts.reshape(-1, mesh.dimension)).reshape(ts.shape)
    diffs = np.diff(vals, axis=1)
    monotone = np.all(diffs >= -_MONOTONE_TOL, axis=1) | np.all(diffs <= _MONOTONE_TOL, axis=1)
    if monotone.all():
        return None
    i = int(np.argmin(monotone))
    k = int(np.argmax(np.abs(np.diff(np.sign(diffs[i])))))
    return {
        "base_point": x0[i].tolist(),
        "t": ts[i, k : k + 3].tolist(),
        "p": vals[i, k : k + 3].tolist(),
    }


def _base_points(mesh) -> np.ndarray:
    step = max(1, mesh.n_nodes // 33)
    return mesh.nodes[::step]


def check_Hp(p: ExponentField, mesh: Mesh) -> HpReport:
    """Sample p along lines through the domain and test monotonicity.

    For each coordinate direction l, lines x0 + t*l through a grid of base
    points are sampled inside the bounding box; a direction passes when every
    sampled restriction is monotone (non-increasing or non-decreasing up to
    _MONOTONE_TOL).
    """
    x0 = _base_points(mesh)
    witnesses = [
        _first_turn(p, mesh, x0, np.broadcast_to(l, x0.shape)) for l in np.eye(mesh.dimension)
    ]
    return HpReport(witnesses, any(w is None for w in witnesses))


def check_Hp_rays(p: ExponentField, mesh: Mesh, exterior_point) -> HpReport:
    """Ray variant: monotonicity along every sampled ray from an exterior
    point through the domain.  All rays must be monotone for a pass."""
    x_ext = as_points(exterior_point, mesh.dimension)
    if mesh.contains(x_ext):
        raise ValueError("ray base point must lie outside the closed domain")
    rays = _base_points(mesh) - x_ext
    # lengths as dot products, bit for bit np.linalg.norm of each ray
    unit = rays / np.sqrt(rays[:, None, :] @ rays[:, :, None])[:, 0]
    witness = _first_turn(p, mesh, np.broadcast_to(x_ext, rays.shape), unit)
    return HpReport([witness], witness is None)
