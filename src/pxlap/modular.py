"""Modular and Luxemburg norm for variable-exponent Lebesgue spaces.

The modular of a field u is the quadrature value of the integral of
|u(x)|^p(x); the Luxemburg norm is the unique tau > 0 with
modular(u / tau) = 1 (u nonzero), found by bracketing plus bisection on the
residual |modular(u/tau) - 1|, which stays robust when p_max is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshMismatchError, NumericalError
from .exponents import ExponentField
from .mesh import GridFunction, Mesh

NORM_RESIDUAL_TOL = 1e-10


@dataclass
class ModularReport:
    """Modular + Luxemburg norm of one field, with solver diagnostics."""

    modular: float
    norm: float
    iterations: int
    residual: float


def _check_same_mesh(u: GridFunction, p: ExponentField):
    if u.mesh is not p.mesh:
        raise MeshMismatchError("field and exponent live on different meshes")


def modular_of_qp(values_qp: np.ndarray, p_qp: np.ndarray, mesh: Mesh) -> float:
    """Quadrature value of the integral of |v|^p, summed as :func:`integrate` sums."""
    with np.errstate(over="ignore"):  # inf is meaningful: drives bracketing
        field = np.abs(values_qp) ** p_qp
        if field.shape != mesh.quad_weights.shape:
            raise MeshMismatchError(
                f"field shape {field.shape} does not match quadrature layout "
                f"{mesh.quad_weights.shape}"
            )
        return float(np.add.reduce(mesh.quad_weights * field, axis=None))


def modular(u: GridFunction, p: ExponentField) -> float:
    """Integral of |u|^p(x) over the domain."""
    _check_same_mesh(u, p)
    return modular_of_qp(u.at_qp(), p.qp, u.mesh)


def luxemburg_norm_of_qp(
    values_qp: np.ndarray, p_qp: np.ndarray, mesh: Mesh
) -> ModularReport:
    """Luxemburg norm of a per-quadrature-point field."""
    values_qp = np.abs(np.asarray(values_qp, dtype=float))
    rho0 = modular_of_qp(values_qp, p_qp, mesh)
    if rho0 == 0.0 or not np.any(values_qp > 0):
        return ModularReport(modular=rho0, norm=0.0, iterations=0, residual=0.0)

    def rho(tau):
        return modular_of_qp(values_qp / tau, p_qp, mesh)

    # bracket: rho is continuous and strictly decreasing in tau for u != 0
    lo = hi = 1.0
    r = rho(1.0)
    iters = 0
    if r >= 1.0:
        while r > 1.0:
            lo = hi
            hi *= 2.0
            r = rho(hi)
            iters += 1
            if iters > 200:
                raise NumericalError("Luxemburg bracketing failed after 200 doublings")
    else:
        while r < 1.0:
            hi = lo
            lo /= 2.0
            r = rho(lo)
            iters += 1
            if iters > 200:
                raise NumericalError("Luxemburg bracketing failed after 200 halvings")

    tau, res = hi, abs(rho(hi) - 1.0)
    for _ in range(400):
        if res <= NORM_RESIDUAL_TOL:
            break
        mid = 0.5 * (lo + hi)
        rm = rho(mid)
        if rm >= 1.0:
            lo = mid
        else:
            hi = mid
        iters += 1
        if abs(rm - 1.0) < res:
            tau, res = mid, abs(rm - 1.0)
    if res > NORM_RESIDUAL_TOL:
        raise NumericalError(
            f"Luxemburg bisection stalled at residual {res:.3e}; "
            "the exponent field is numerically pathological"
        )
    return ModularReport(modular=rho0, norm=tau, iterations=iters, residual=res)


def luxemburg_norm(u: GridFunction, p: ExponentField) -> ModularReport:
    """Luxemburg norm of a nodal field."""
    _check_same_mesh(u, p)
    return luxemburg_norm_of_qp(u.at_qp(), p.qp, u.mesh)


def sobolev_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of |grad u| (the zero-trace Sobolev norm)."""
    _check_same_mesh(u, p)
    if not u.dirichlet_zero:
        raise MeshMismatchError(
            "sobolev_norm requires a Dirichlet-zero field (zero-trace space)"
        )
    return luxemburg_norm_of_qp(u.grad_magnitude_qp(), p.qp, u.mesh).norm


def pair_norm(u1: GridFunction, p1: ExponentField, u2: GridFunction, p2: ExponentField) -> float:
    """Product-space norm: sum of the component Sobolev norms."""
    return sobolev_norm(u1, p1) + sobolev_norm(u2, p2)


@dataclass
class NormModularReport:
    norm: float
    modular: float
    lower: float
    upper: float
    chain: str
    chain_ok: bool
    chain_margin: float
    unit_residual: float
    unit_ok: bool

    @property
    def ok(self) -> bool:
        return self.chain_ok and self.unit_ok


def check_norm_modular(u: GridFunction, p: ExponentField) -> NormModularReport:
    """Verify the norm-modular inequality chains and the unit-ball identity.

    For ||u|| > 1:  ||u||^p_min <= modular(u) <= ||u||^p_max; for ||u|| <= 1
    the exponents swap.  In both cases modular(u / ||u||) must equal 1.
    Failures are reported with the violating margin, never raised.
    """
    _check_same_mesh(u, p)
    if not np.any(u.values != 0.0):
        raise ValueError("check_norm_modular requires u != 0")
    rep = luxemburg_norm(u, p)
    rho = rep.modular
    nrm = rep.norm
    if nrm > 1.0:
        lower, upper = nrm**p.p_min, nrm**p.p_max
        chain = "norm>1"
    else:
        lower, upper = nrm**p.p_max, nrm**p.p_min
        chain = "norm<=1"
    margin = min(rho - lower, upper - rho)
    unit_res = abs(modular_of_qp(u.at_qp() / nrm, p.qp, u.mesh) - 1.0)
    # when p_min = p_max both chains collapse to an equality, which can only
    # hold to the accuracy the norm itself was computed to
    slack = 1e-12 * max(1.0, rho) + 3.0 * rep.residual * max(1.0, rho)
    return NormModularReport(
        norm=nrm,
        modular=rho,
        lower=lower,
        upper=upper,
        chain=chain,
        chain_ok=bool(margin >= -slack),
        chain_margin=float(margin),
        unit_residual=float(unit_res),
        unit_ok=bool(unit_res <= NORM_RESIDUAL_TOL),
    )
