"""First eigenpair of -Delta_p(x) by inverse-power-type iteration.

Starting from a positive field, each sweep solves
    -Delta_p(x) u_{k+1} = R(u_k) |u_k|^(p(x)-2) u_k,
renormalizes to modular 1, and stops when the Rayleigh quotient
R(u) = int |grad u|^p / int |u|^p settles.  For constant exponents this is
plain inverse power iteration and the limit solves the eigenvalue equation
exactly; for genuinely variable exponents the minimizer of the quotient need
not solve the equation with the same constant, so the pair records both the
quotient and the equation residual and flags a disagreement instead of
hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError
from .exponents import ExponentField
from .mesh import GridFunction, Mesh, dilate_domain, restrict, snap_margin
from .modular import luxemburg_norm, modular_of_qp
from .operator import (
    KeptFactor,
    OperatorContext,
    assemble_residual,
    dirichlet_solve,
    dual_norm,
    linear_poisson_solve,
)
from .report import HIDDEN, Report

EIGEN_RESIDUAL_TOL = 1e-7
_RAYLEIGH_RTOL = 1e-9  # relative change of the quotient that ends the sweeps
_MAX_SWEEPS = 500


def _signed_power(c, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c |s|^(p-2) s, exactly 0 where s = 0.

    Where p < 2 the power alone is 0^(p-2) = inf at s = 0, and inf * 0 is
    NaN; every other entry is the plain expression, bit for bit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c * np.abs(s) ** (p - 2.0) * s
    return np.where(s == 0.0, 0.0, out)


def rayleigh_quotient(ctx: OperatorContext, u: GridFunction, u_qp: np.ndarray) -> float:
    """int |grad u|^p(x) / int |u|^p(x) with the unregularized gradient;
    ``u_qp`` is ``u.at_qp()``."""
    num = modular_of_qp(u.grad_magnitude_qp(), ctx.p.qp, ctx.mesh)
    den = modular_of_qp(u_qp, ctx.p.qp, ctx.mesh)
    if den == 0.0:
        raise NumericalError("Rayleigh quotient of the zero field")
    return num / den


@dataclass
class EigenPair(Report):
    """(lambda1, phi1) with normalization and consistency diagnostics.

    lambda1 is the converged Rayleigh quotient; ``residual`` is the dual
    norm of the eigenvalue equation tested against interior hat functions;
    ``consistent`` records whether that residual is below the tolerance that
    constant exponents achieve.
    """

    lambda1: float
    phi: GridFunction = field(metadata=HIDDEN)
    residual: float
    modular_residual: float
    iterations: int
    converged: bool
    consistent: bool


def _normalize_modular(u: GridFunction, p: ExponentField) -> tuple[GridFunction, np.ndarray]:
    """u scaled to modular 1, and its values at the quadrature points."""
    # modular(u / c) = 1 exactly at c = Luxemburg norm of u
    c = luxemburg_norm(u, p).norm
    if c == 0.0:
        raise NumericalError("cannot normalize the zero field")
    u = u.with_values(u.values / c)
    return u, u.at_qp()


def first_eigenpair(ctx: OperatorContext, initial: GridFunction | None = None) -> EigenPair:
    """Minimize the Rayleigh quotient over Dirichlet-zero fields; the CLI
    checks the exponent with :func:`pxlap.exponents.check_Hp` beforehand."""
    mesh = ctx.mesh
    if initial is None:
        # smoothed positive dome: one plain-Laplacian solve of unit load
        initial = linear_poisson_solve(mesh, 1.0)
    vals = np.abs(initial.values)
    vals[mesh.boundary_nodes] = 0.0
    u = GridFunction(mesh, vals)
    if not np.any(u.values > 0):
        raise NumericalError("initial field must be nonzero")
    # each normalized field is evaluated at the quadrature points once: u_qp
    # serves its Rayleigh quotient, its equation residual, the next sweep's
    # load and the final modular check
    u, u_qp = _normalize_modular(u, ctx.p)

    p_qp = ctx.p.qp
    # one Jacobian factor serves every sweep's chord steps until one of them
    # stops contracting; late sweeps move u so little that it rarely does
    kept = KeptFactor()

    def sweep(u, u_qp, R):
        """One inverse-power step: solve with the load R |u|^(p-2) u, restore
        positivity, renormalize.  Returns (report, u_new, u_new_qp, R_new),
        the last three None when the inner solve fails."""
        rep = dirichlet_solve(ctx, _signed_power(R, u_qp, p_qp), initial=u, kept=kept)
        if not rep.converged:
            return rep, None, None, None
        v = rep.u
        if np.any(v.values[mesh.interior_nodes] <= 0):
            # positivity restart: the ground state is signless
            v = v.with_values(np.abs(v.values))
        v, v_qp = _normalize_modular(v, ctx.p)
        return rep, v, v_qp, rayleigh_quotient(ctx, v, v_qp)

    R = rayleigh_quotient(ctx, u, u_qp)
    converged = False
    stagnant = 0
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        rep, u, u_qp, R_new = sweep(u, u_qp, R)
        if u is None:
            raise NumericalError(
                f"inner Dirichlet solve failed at outer sweep {it} "
                f"(residual {rep.residual:.3e})"
            )
        if abs(R_new - R) <= _RAYLEIGH_RTOL * abs(R_new):
            R = R_new
            converged = True
            break
        if R_new > R * (1.0 + 1e-12):
            stagnant += 1
            if stagnant >= 25:
                raise NumericalError(
                    "Rayleigh quotient stopped decreasing before convergence "
                    f"(R = {R_new}); iteration is stagnating"
                )
        else:
            stagnant = 0
        R = R_new
    if not converged:
        raise NumericalError(
            f"eigen iteration did not settle within {_MAX_SWEEPS} sweeps"
        )

    def equation_residual(field, field_qp, value):
        rhs = _signed_power(value, field_qp, p_qp)
        return dual_norm(mesh, assemble_residual(ctx, field, rhs))

    # polish: the quotient settles before the equation residual does; keep
    # sweeping while the residual still improves (variable exponents plateau
    # at a nonzero value, which the consistency flag reports)
    res = equation_residual(u, u_qp, R)
    while res > 0.5 * EIGEN_RESIDUAL_TOL and it < _MAX_SWEEPS:
        _, u_new, u_new_qp, R_new = sweep(u, u_qp, R)
        if u_new is None:
            break
        res_new = equation_residual(u_new, u_new_qp, R_new)
        it += 1
        if res_new >= 0.9 * res:
            if res_new < res:
                u, u_qp, R, res = u_new, u_new_qp, R_new, res_new
            break
        u, u_qp, R, res = u_new, u_new_qp, R_new, res_new

    mod_res = abs(modular_of_qp(u_qp, p_qp, mesh) - 1.0)

    pair = EigenPair(
        lambda1=R,
        phi=u,
        residual=res,
        modular_residual=mod_res,
        iterations=it,
        converged=converged,
        consistent=bool(res <= EIGEN_RESIDUAL_TOL),
    )
    _validate_pair(pair)
    return pair


def _validate_pair(pair: EigenPair):
    mesh = pair.phi.mesh
    if pair.lambda1 <= 0:
        raise NumericalError(f"first eigenvalue must be positive, got {pair.lambda1}")
    if np.any(pair.phi.values[mesh.interior_nodes] <= 0):
        raise NumericalError("eigenfunction is not interior-positive")
    if pair.modular_residual > 1e-10:
        raise NumericalError(
            f"eigenfunction normalization residual {pair.modular_residual:.3e}"
        )


@dataclass
class EnlargedEigenResult:
    """Eigenpair on the dilated domain plus its restriction data."""

    pair: EigenPair
    phi_restricted: GridFunction
    tau: float
    sup_phi_tilde: float


def dilated_mesh(mesh: Mesh, margin: float | None = None) -> tuple[Mesh, float]:
    """The mesh of the dilated domain and the margin it is grown by.

    ``margin`` defaults to a quarter of the domain diameter and is rounded up
    to whole cells, so the inner grid nests in the outer one and restriction
    is exact nodal pickup.
    """
    margin = snap_margin(mesh, 0.25 * mesh.diameter if margin is None else margin)
    return dilate_domain(mesh, margin), margin


def enlarged_eigenpair(dilated: OperatorContext, mesh: Mesh) -> EnlargedEigenResult:
    """First eigenpair of a context on the :func:`dilated_mesh` domain, restricted to ``mesh``.

    Returns tau = half the minimum of the restricted eigenfunction over all
    base-mesh nodes; tau > 0 certifies the strict interior bound.
    """
    pair = first_eigenpair(dilated)
    phi_r = restrict(pair.phi, mesh)
    tau = 0.5 * float(np.min(phi_r.values))
    if tau <= 0:
        raise DomainError(
            "restricted eigenfunction is not strictly positive on the base "
            "domain; the dilation margin is too small for this mesh"
        )
    return EnlargedEigenResult(
        pair=pair,
        phi_restricted=phi_r,
        tau=tau,
        sup_phi_tilde=pair.phi.max_abs(),
    )
