"""Modular and Luxemburg norm for variable-exponent Lebesgue spaces.

The modular of a field u is the quadrature value of the integral of
|u(x)|^p(x); the Luxemburg norm is the unique tau > 0 with
modular(u / tau) = 1 (u nonzero).  It is found by Newton's method on
F(s) = log modular(u / e^s), a log-sum-exp of functions affine in s = log tau:
F is convex and decreasing, so after the first step every iterate lies left
of the root and rises to it monotonically, and no bracket is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshMismatchError, NumericalError
from .exponents import ExponentField
from .mesh import GridFunction, Mesh
from .report import Report

NORM_RESIDUAL_TOL = 1e-10


@dataclass
class ModularReport(Report):
    """Modular + Luxemburg norm of one field, with solver diagnostics."""

    modular: float
    norm: float
    iterations: int
    residual: float


def _check_same_mesh(u: GridFunction, p: ExponentField):
    if u.mesh is not p.mesh:
        raise MeshMismatchError("field and exponent live on different meshes")


def modular_of_qp(values_qp: np.ndarray, p_qp: np.ndarray, mesh: Mesh, moment: bool = False):
    """Quadrature value of the integral of |v|^p, summed as :func:`integrate` sums.

    With ``moment`` the pair (integral of |v|^p, integral of p |v|^p) is
    returned, both from the same powers.
    """
    with np.errstate(over="ignore"):  # inf is meaningful: the norm steps past it
        field = np.abs(values_qp) ** p_qp
        if field.shape != mesh.quad_weights.shape:
            raise MeshMismatchError(
                f"field shape {field.shape} does not match quadrature layout "
                f"{mesh.quad_weights.shape}"
            )
        field *= mesh.quad_weights
        rho = float(np.add.reduce(field, axis=None))
        if not moment:
            return rho
        field *= p_qp
        return rho, float(np.add.reduce(field, axis=None))


def modular(u: GridFunction, p: ExponentField) -> float:
    """Integral of |u|^p(x) over the domain."""
    _check_same_mesh(u, p)
    return modular_of_qp(u.at_qp(), p.qp, u.mesh)


# Newton for the norm works on s = log tau, kept to |s| <= _LOG_TAU_LIMIT
_LN2 = math.log(2.0)
_LOG_TAU_LIMIT = 200.0 * _LN2
_NORM_MAX_STEPS = 500  # 400 steps of log 2 span the domain, plus 100 Newton steps


def luxemburg_norm_of_qp(
    values_qp: np.ndarray, p_qp: np.ndarray, mesh: Mesh
) -> ModularReport:
    """Luxemburg norm of a per-quadrature-point field.

    Newton on F(s) = log rho(e^s), with rho(tau) the modular of v / tau and
    dF/ds = -(integral of p |v/tau|^p) / rho.  It starts at tau = 1 and steps
    s up by log 2 while rho or that integral overflows, and down by log 2
    while rho underflows to 0, so a nonzero field never has norm 0.
    """
    values_qp = np.abs(np.asarray(values_qp, dtype=float))
    rho0, moment = modular_of_qp(values_qp, p_qp, mesh, moment=True)
    if not np.any(values_qp > 0):
        return ModularReport(modular=rho0, norm=0.0, iterations=0, residual=0.0)

    s, tau, r = 0.0, 1.0, rho0
    steps = 0
    while not abs(r - 1.0) <= NORM_RESIDUAL_TOL:
        # the Newton step -F/F' is log(rho) / (moment / rho); where the
        # powers overflow (all underflow to 0), tau is far below (above) the
        # root and s moves up (down) by log 2
        if r == 0.0 or not math.isfinite(moment):
            step = _LN2 if r else -_LN2
        else:
            step = math.log(r) / (moment / r)
        # only the first step can overshoot (to the left of the root); a
        # landing past the limit is pulled back to it
        s_next = max(s + step, -_LOG_TAU_LIMIT)
        if s_next > _LOG_TAU_LIMIT or s_next == s:
            raise NumericalError(
                f"Luxemburg norm outside [2^-200, 2^200] (log tau {s + step:.4g})"
            )
        steps += 1
        if steps > _NORM_MAX_STEPS:
            raise NumericalError(
                f"Luxemburg Newton stalled at residual {abs(r - 1.0):.3e}; "
                "the exponent field is numerically pathological"
            )
        s, tau = s_next, math.exp(s_next)
        r, moment = modular_of_qp(values_qp / tau, p_qp, mesh, moment=True)
    return ModularReport(modular=rho0, norm=tau, iterations=steps, residual=abs(r - 1.0))


def luxemburg_norm(u: GridFunction, p: ExponentField) -> ModularReport:
    """Luxemburg norm of a nodal field."""
    _check_same_mesh(u, p)
    return luxemburg_norm_of_qp(u.at_qp(), p.qp, u.mesh)


def sobolev_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of |grad u| (the zero-trace Sobolev norm); 0.0 for
    the zero field, without a norm evaluation."""
    _check_same_mesh(u, p)
    if not u.dirichlet_zero:
        raise MeshMismatchError(
            "sobolev_norm requires a Dirichlet-zero field (zero-trace space)"
        )
    if not np.any(u.values != 0.0):
        return 0.0
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
