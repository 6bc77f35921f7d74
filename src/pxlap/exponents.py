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
from .mesh import GridFunction, Mesh, _freeze

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
            self._evaluate = rule.eval
            self.description = "nodal table"
        elif isinstance(rule, str):
            self._evaluate = coordinate_expression(rule, mesh.dimension)
            self.description = rule
        elif callable(rule):
            self._evaluate = lambda pts: np.broadcast_to(
                np.asarray(rule(np.atleast_2d(pts)), dtype=float),
                (len(np.atleast_2d(pts)),),
            )
            self.description = getattr(rule, "expression", "callable")
        else:
            value = float(rule)
            self._evaluate = lambda pts: np.full(len(np.atleast_2d(pts)), value)
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
        return np.asarray(self._evaluate(points), dtype=float)

    def on_mesh(self, mesh: Mesh) -> "ExponentField":
        """Re-bind the same rule to another mesh (e.g. the enlarged domain); a
        nodal table transfers only to a mesh inside its own mesh's box."""
        return ExponentField(mesh, self._rule)

    def conjugate(self) -> "ExponentField":
        """Pointwise Holder conjugate p/(p - 1)."""
        inner = self._evaluate

        def conj(points):
            p = np.asarray(inner(points), dtype=float)
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
class LineCheck:
    passed: bool
    witness: dict | None = None


@dataclass
class HpReport:
    """Result of the direction-monotonicity check.

    ``passed`` is true when some direction has every sampled line restriction
    monotone.  A failing report is a legitimate outcome, not an error.
    """

    checks: list
    passed: bool


def _line_monotone(p, mesh, x0, direction):
    """Sample p along the in-box segment through x0; None if degenerate."""
    lo, hi = mesh.lo, mesh.hi
    tmin, tmax = -np.inf, np.inf
    for d in range(mesh.dimension):
        if abs(direction[d]) < 1e-15:
            continue
        t1 = (lo[d] - x0[d]) / direction[d]
        t2 = (hi[d] - x0[d]) / direction[d]
        tmin = max(tmin, min(t1, t2))
        tmax = min(tmax, max(t1, t2))
    if not tmax > tmin:
        return None
    ts = np.linspace(tmin, tmax, _SAMPLES_PER_LINE)
    pts = x0[None, :] + ts[:, None] * direction[None, :]
    pts = np.clip(pts, lo[None, :], hi[None, :])
    vals = p.evaluate(pts)
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs >= -_MONOTONE_TOL) or np.all(diffs <= _MONOTONE_TOL))
    witness = None
    if not monotone:
        k = int(np.argmax(np.abs(np.diff(np.sign(diffs)))))
        witness = {
            "base_point": x0.tolist(),
            "t": ts[k : k + 3].tolist(),
            "p": vals[k : k + 3].tolist(),
        }
    return monotone, witness


def _base_points(mesh) -> np.ndarray:
    step = max(1, mesh.n_nodes // 33)
    return mesh.nodes[::step]


def _check_lines(p, mesh, lines) -> LineCheck:
    """Test p along every ``(x0, unit direction)`` line; degenerate lines are
    skipped and the first non-monotone one is the witness."""
    for x0, direction in lines:
        result = _line_monotone(p, mesh, x0, direction)
        if result is not None and not result[0]:
            return LineCheck(False, result[1])
    return LineCheck(True)


def check_Hp(p: ExponentField, mesh: Mesh) -> HpReport:
    """Sample p along lines through the domain and test monotonicity.

    For each coordinate direction l, lines x0 + t*l through a grid of base
    points are sampled inside the bounding box; a direction passes when every
    sampled restriction is monotone (non-increasing or non-decreasing up to
    _MONOTONE_TOL).
    """
    checks = [
        _check_lines(p, mesh, ((x0, l) for x0 in _base_points(mesh)))
        for l in np.eye(mesh.dimension)
    ]
    return HpReport(checks, any(c.passed for c in checks))


def check_Hp_rays(p: ExponentField, mesh: Mesh, exterior_point) -> HpReport:
    """Ray variant: monotonicity along every sampled ray from an exterior
    point through the domain.  All rays must be monotone for a pass."""
    x_ext = np.asarray(exterior_point, dtype=float)
    if mesh.contains(x_ext[None, :]):
        raise ValueError("ray base point must lie outside the closed domain")
    rays = (target - x_ext for target in _base_points(mesh))
    lines = ((x_ext, w / n) for w in rays if (n := np.linalg.norm(w)) != 0)
    check = _check_lines(p, mesh, lines)
    return HpReport([check], check.passed)
