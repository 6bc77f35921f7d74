"""Discrete p(x)-Laplacian: assembly, damped-Newton Dirichlet solves,
comparison principle, mean-value constant and the Picone identity fields.

The weak operator is assembled with the regularized flux
(|grad u|^2 + eps_reg^2)^((p(x)-2)/2) grad u during Newton iterations only;
converged residuals are re-checked with eps_reg = 0, and every evaluation
feeding a lemma (Picone, mean value, Rayleigh quotients) uses the
unregularized flux.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import HypothesisError, MeshMismatchError, NumericalError
from .exponents import ExponentField
from .mesh import GridFunction, Mesh, _freeze, integrate
from .report import HIDDEN, Report

_COMPARISON_TOL = 1e-8  # nodal excess u_low - u_high that comparison_check passes
_PICONE_FLOOR = 1e-14  # picone needs w2 above this at every quadrature point
_MAX_HALVINGS = 30  # Armijo step halvings before a Newton step is rejected


@dataclass
class OperatorContext:
    """Mesh + exponent + Newton settings for one operator -Delta_p(x).

    eps_reg regularizes the gradient magnitude inside the p(x)-2 power while
    Newton iterates (the unregularized Jacobian is singular at critical
    points when p(x) < 2); it is switched off for converged-residual checks.
    """

    mesh: Mesh
    p: ExponentField
    eps_reg: float = 1e-10
    newton_max_iter: int = 80
    newton_tol: float = 1e-10

    def __post_init__(self):
        if self.eps_reg < 0 or self.newton_tol <= 0:
            raise ValueError("eps_reg must be >= 0 and newton_tol > 0")
        if self.p.mesh is not self.mesh:
            raise MeshMismatchError("exponent field lives on a different mesh")

    def on_mesh(self, mesh: Mesh) -> "OperatorContext":
        """The same settings with the exponent rule re-bound to ``mesh``."""
        return replace(self, mesh=mesh, p=self.p.on_mesh(mesh))


@dataclass
class SolveReport(Report):
    """Outcome of one nonlinear Dirichlet solve."""

    u: GridFunction = field(metadata=HIDDEN)
    residual: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list, metadata=HIDDEN)


def dual_norm(mesh: Mesh, r: np.ndarray) -> float:
    """Discrete dual norm: Euclidean norm scaled by sqrt(mean element measure)."""
    # einsum, not np.linalg.norm: the BLAS dot wakes a second OpenBLAS thread
    # on large residuals, which busy-waits and makes the sum depend on the
    # thread count
    return float(mesh.dual_scale * np.sqrt(np.einsum("i,i->", r, r)))


@dataclass(frozen=True)
class AssemblyPlan:
    """Interior CSC pattern of the P1 element matrices of one mesh.

    An element-matrix array has shape (n_elements, nloc, nloc).  ``keep``
    lists its flat positions ``(e, a, b)`` whose two nodes are interior, and
    ``scatter`` gives the slot in ``data`` that each of them adds into.
    ``grad_dots`` holds grad phi_a . grad phi_b per element, the stiffness
    part of every Jacobian.  ``matrix`` stacks k x k element arrays on this
    pattern into one CSC matrix that the plan keeps per k.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    keep: np.ndarray
    scatter: np.ndarray
    grad_dots: np.ndarray
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, mesh: Mesh) -> "AssemblyPlan":
        n = len(mesh.interior_nodes)
        dof = np.full(mesh.n_nodes, -1)
        dof[mesh.interior_nodes] = np.arange(n)
        local = dof[mesh.elements]  # -1 marks a boundary node
        inside = (local[:, :, None] >= 0) & (local[:, None, :] >= 0)
        keep = np.flatnonzero(inside)
        # entry (a, b) sits at row a, column b; the key col * n + row sorts
        # the slots in CSC order
        key = (local[:, None, :] * n + local[:, :, None]).ravel()[keep]
        slots = np.unique(key)
        scatter = np.searchsorted(slots, key)
        indptr = np.searchsorted(slots, n * np.arange(n + 1))  # first slot of each column
        grad_dots = np.einsum("ead,ebd->eab", mesh.basis_grads, mesh.basis_grads)
        arrays = (indptr.astype(np.int32), (slots % n).astype(np.int32), keep, scatter, grad_dots)
        return cls(n, *map(_freeze, arrays))

    def data(self, K: np.ndarray) -> np.ndarray:
        """CSC data of the interior matrix of the element matrices ``K``."""
        return np.bincount(self.scatter, weights=K.ravel()[self.keep], minlength=len(self.indices))

    def matrix(self, blocks) -> sp.csc_matrix:
        """CSC matrix of the k x k grid ``blocks`` of element arrays.

        Block (i, j) fills rows i*n.. and columns j*n.. on this pattern,
        explicit zeros included.  No sparse constructor runs after the first
        call: the plan keeps one matrix per k, with int32 indices and the
        permutation from the row-major concatenation of the blocks' data to
        CSC order, and overwrites its ``data``.  The result is valid until
        the next call with the same k.
        """
        k = len(blocks)
        if k not in self._blocks:
            cols = np.repeat(np.arange(self.n), np.diff(self.indptr))
            block_rows = np.concatenate([self.indices + i * self.n for i in range(k) for _ in range(k)])
            block_cols = np.concatenate([cols + j * self.n for _ in range(k) for j in range(k)])
            order = np.lexsort((block_rows, block_cols))  # by column, then row
            indptr = np.searchsorted(block_cols[order], np.arange(k * self.n + 1)).astype(np.int32)
            matrix = sp.csc_matrix(
                (np.zeros(len(order)), block_rows[order].astype(np.int32), indptr),
                shape=(k * self.n, k * self.n),
            )
            self._blocks[k] = (matrix, _freeze(order))
        matrix, order = self._blocks[k]
        matrix.data[:] = np.concatenate([self.data(K) for row in blocks for K in row])[order]
        return matrix


def assembly_plan(mesh: Mesh) -> AssemblyPlan:
    """The mesh's assembly plan, built at its first assembly and kept on the mesh."""
    plan = getattr(mesh, "_assembly_plan", None)
    if plan is None:
        plan = mesh._assembly_plan = AssemblyPlan.build(mesh)
    return plan


def _factor(A: sp.csc_matrix, what: str):
    """SuperLU factor with minimum-degree ordering on A^T + A.

    A singular factor is a NumericalError.
    """
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factorization
        raise NumericalError(f"{what} linear solve failed: {exc}") from exc


def _solve(lu, rhs: np.ndarray, what: str) -> np.ndarray:
    """``lu.solve(rhs)``; a non-finite solution is a NumericalError."""
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{what} linear solve gave a non-finite solution")
    return x


@dataclass
class KeptFactor:
    """A Jacobian factor that outlives one Newton solve.

    ``lu`` is the SuperLU factor of a one-block Jacobian at regularization
    ``eps``, or None.  Passed to ``dirichlet_solve``, it lets Newton take
    chord steps with that factor instead of factoring every step.
    """

    eps: float = 0.0
    lu: object = None


def _flux_factor(grad_sq: np.ndarray, p_qp: np.ndarray, eps: float) -> np.ndarray:
    """(|grad u|^2 + eps^2)^((p-2)/2) per (element, qp); safe at grad u = 0."""
    g = grad_sq[:, None] + eps * eps
    if eps > 0.0:
        return g ** ((p_qp - 2.0) / 2.0)
    out = np.zeros_like(g + p_qp)
    pos = np.broadcast_to(grad_sq[:, None] > 0.0, out.shape)
    base = np.broadcast_to(g, out.shape)
    expo = np.broadcast_to((p_qp - 2.0) / 2.0, out.shape)
    out[pos] = base[pos] ** expo[pos]
    return out


def _rhs_at_qp(mesh: Mesh, rhs) -> np.ndarray:
    """The load ``rhs``, a constant or an (n_elements, n_qp) array, as that array."""
    shape = (mesh.n_elements, mesh.n_qp)
    if np.isscalar(rhs):
        return np.full(shape, float(rhs))
    arr = np.asarray(rhs, dtype=float)
    if arr.shape != shape:
        raise MeshMismatchError(f"rhs array shape {arr.shape}, expected {shape}")
    return arr


def _residual_full(ctx: OperatorContext, values: np.ndarray, rhs_qp: np.ndarray, eps: float) -> np.ndarray:
    mesh = ctx.mesh
    local = values[mesh.elements]
    grads = np.einsum("ead,ea->ed", mesh.basis_grads, local)
    grad_sq = np.einsum("ed,ed->e", grads, grads)
    a = _flux_factor(grad_sq, ctx.p.qp, eps)  # (n_el, n_qp)
    awsum = np.sum(mesh.quad_weights * a, axis=1)  # (n_el,)
    d = np.einsum("ead,ed->ea", mesh.basis_grads, grads)  # grad u . grad phi_a
    r_el = awsum[:, None] * d
    r_el -= np.einsum("eq,qa->ea", mesh.quad_weights * rhs_qp, mesh.basis)
    return np.bincount(mesh.elements.ravel(), weights=r_el.ravel(), minlength=mesh.n_nodes)


def assemble_residual(ctx: OperatorContext, u: GridFunction, rhs) -> np.ndarray:
    """Weak residual against every interior basis function.

    Entry k is the unregularized flux integral against hat function k minus
    the load integral; Dirichlet rows are dropped.
    """
    if u.mesh is not ctx.mesh:
        raise MeshMismatchError("field and context meshes differ")
    rhs_qp = _rhs_at_qp(ctx.mesh, rhs)
    return _residual_full(ctx, u.values, rhs_qp, 0.0)[ctx.mesh.interior_nodes]


def _mass_block(mesh: Mesh, coeff_qp: np.ndarray) -> np.ndarray:
    """Element mass matrices weighted by ``coeff_qp`` at quadrature points."""
    return np.einsum("eq,qa,qb->eab", mesh.quad_weights * coeff_qp, mesh.basis, mesh.basis)


def assemble_jacobian(
    ctx: OperatorContext,
    values: np.ndarray,
    eps: float,
    rhs_slope_qp: np.ndarray | None = None,
) -> np.ndarray:
    """Element matrices (n_elements, nloc, nloc) of the residual's Jacobian;
    ``assembly_plan(mesh).matrix`` turns them into the interior matrix.

    eps is floored at 1e-12, so the flux coefficients are finite where grad
    u = 0 for every p; a non-finite one is an overflow.  rhs_slope_qp, when
    given, holds d(rhs)/d(u) at each quadrature point and contributes the
    mass-weighted semilinear block.
    """
    mesh = ctx.mesh
    eps = max(eps, 1e-12)
    local = values[mesh.elements]
    grads = np.einsum("ead,ea->ed", mesh.basis_grads, local)
    grad_sq = np.einsum("ed,ed->e", grads, grads)
    p_qp = ctx.p.qp
    g = grad_sq[:, None] + eps * eps
    a = g ** ((p_qp - 2.0) / 2.0)
    b = (p_qp - 2.0) * g ** ((p_qp - 4.0) / 2.0)
    aw = np.sum(mesh.quad_weights * a, axis=1)
    bw = np.sum(mesh.quad_weights * b, axis=1)
    d = np.einsum("ead,ed->ea", mesh.basis_grads, grads)
    K = aw[:, None, None] * assembly_plan(mesh).grad_dots
    K += bw[:, None, None] * d[:, :, None] * d[:, None, :]
    if rhs_slope_qp is not None:
        K -= _mass_block(mesh, rhs_slope_qp)
    return K


def load_vector(mesh: Mesh, rhs_qp: np.ndarray) -> np.ndarray:
    """Interior load vector of a per-quadrature-point rhs."""
    l_el = np.einsum("eq,qa->ea", mesh.quad_weights * rhs_qp, mesh.basis)
    l = np.bincount(mesh.elements.ravel(), weights=l_el.ravel(), minlength=mesh.n_nodes)
    return l[mesh.interior_nodes]


def linear_poisson_solve(mesh: Mesh, rhs) -> GridFunction:
    """P1 solve of the plain Laplacian Dirichlet problem (used for seeding)."""
    plan = assembly_plan(mesh)
    # a one-off matrix, not the plan's kept one: allocating that before the
    # seed's factor raises the peak memory of large meshes
    K = plan.data(mesh.quad_weights.sum(axis=1)[:, None, None] * plan.grad_dots)
    A = sp.csc_matrix((K, plan.indices, plan.indptr), shape=(plan.n, plan.n))
    rhs_qp = _rhs_at_qp(mesh, rhs)
    sol = _solve(_factor(A, "Poisson"), load_vector(mesh, rhs_qp), "Poisson")
    vals = np.zeros(mesh.n_nodes)
    vals[mesh.interior_nodes] = sol
    return GridFunction(mesh, vals)


# regularization ladder: Newton is run at decreasing eps, each rung
# warm-starting the next, which keeps the Jacobian well conditioned far from
# the solution of the degenerate problem
_EPS_LADDER = (1e-2, 1e-4, 1e-6)
# relative step of the central differences that differentiate a
# state-dependent load: h = _FD_STEP * (1 + |s|)
_FD_STEP = 1e-6
# a chord step with a kept factor must cut the residual norm by this factor
_CHORD_RATE = 0.1


def _state_loads(mesh: Mesh, loads):
    """(rhs_fn, slope_fn) of state-dependent loads g_i(points, *states).

    This is the only evaluator of a load: it calls each g_i at
    ``mesh.quad_points_flat`` with the states there, so a load need be
    defined at those points only.  rhs_fn maps the nodal values of every
    block to the loads at the quadrature points; slope_fn gives the grid
    d g_i / d s_j by central differences.
    """
    pts = mesh.quad_points_flat
    shape = (mesh.n_elements, mesh.n_qp)

    def states(values):
        return [np.einsum("qa,ea->eq", mesh.basis, v[mesh.elements]).ravel() for v in values]

    def rhs_fn(values):
        s = states(values)
        return [np.asarray(g(pts, *s), dtype=float).reshape(shape) for g in loads]

    def slope_fn(values):
        s = states(values)
        steps = [_FD_STEP * (1.0 + np.abs(sj)) for sj in s]

        def slope(g, j, h):
            up = np.asarray(g(pts, *s[:j], s[j] + h, *s[j + 1:]), dtype=float)
            dn = np.asarray(g(pts, *s[:j], s[j] - h, *s[j + 1:]), dtype=float)
            return ((up - dn) / (2.0 * h)).reshape(shape)

        # the load calls run g_0 first and each g_i's arguments in order,
        # up before down, as the solvers this replaced did
        return [[slope(g, j, h) for j, h in enumerate(steps)] for g in loads]

    return rhs_fn, slope_fn


def _newton(ctxs, rhs_fn, slope_fn, values, tol: float, kept: KeptFactor | None = None):
    """Damped Newton with eps continuation on k Dirichlet problems on one mesh.

    rhs_fn maps the nodal values of every block to their rhs at the
    quadrature points; slope_fn returns the k x k grid of d rhs_i / d u_j
    there, or is None for one block whose rhs does not depend on u.  Such a
    block is solved at the target eps_reg first and, only if that fails,
    along the eps ladder from the same initial values; with a slope_fn the
    ladder always runs.  Every setting other than the regularization comes
    from the first context.  Each step's Jacobian is the plan's block
    matrix, refilled and factored at once.

    ``kept``, allowed only for one block without a slope_fn, makes each
    iteration first try the full chord step with the kept factor (Kelley,
    Iterative Methods for Linear and Nonlinear Equations, 1995, sec. 5.4).
    The step counts as the iteration when it is finite and cuts the residual
    to at most _CHORD_RATE times its value; otherwise the old factor is
    released, the Jacobian at the current iterate is factored into ``kept``
    and the usual Armijo step follows.  Returns (values, residual,
    iterations, converged, history), the residual being the unregularized
    one.
    """
    mesh = ctxs[0].mesh
    interior = mesh.interior_nodes
    k = len(ctxs)
    if kept is not None and (k != 1 or slope_fn is not None):
        raise ValueError("a kept factor serves one block whose load does not depend on u")
    eps_reg = max(ctx.eps_reg for ctx in ctxs)
    max_iter = ctxs[0].newton_max_iter
    values = [v.copy() for v in values]
    for v in values:
        v[mesh.boundary_nodes] = 0.0

    def residual(vals, eps):
        r = [_residual_full(ctx, v, g, eps)[interior] for ctx, v, g in zip(ctxs, vals, rhs_fn(vals))]
        return r, float(np.hypot.reduce([dual_norm(mesh, ri) for ri in r]))

    def jacobian(vals, eps):
        slopes = slope_fn(vals) if slope_fn is not None else [[None]]
        blocks = [
            [
                assemble_jacobian(ctx, v, eps, rhs_slope_qp=slopes[i][i])
                if i == j
                else -_mass_block(mesh, slopes[i][j])
                for j in range(k)
            ]
            for i, (ctx, v) in enumerate(zip(ctxs, vals))
        ]
        return assembly_plan(mesh).matrix(blocks)

    def chord_step(values, r, rn, eps):
        """(values, r, rn) after the full step with the kept factor, or None
        when it has no factor at eps or the step fails the contraction test."""
        if kept.lu is None or kept.eps != eps:
            return None
        delta = kept.lu.solve(-r[0])
        if not np.all(np.isfinite(delta)):
            return None
        trial = values[0].copy()
        trial[interior] += delta
        trial_r, trial_rn = residual([trial], eps)
        return ([trial], trial_r, trial_rn) if trial_rn <= _CHORD_RATE * rn else None

    def descend(values, eps, rung_tol):
        """Armijo-damped Newton at one eps: (values, iterations, converged)."""
        r, rn = residual(values, eps)
        history.append(rn)
        converged = rn <= rung_tol
        it = 0
        while not converged and it < max_iter:
            it += 1
            if kept is None:
                J = jacobian(values, eps)
                delta = np.split(_solve(_factor(J, "Newton"), -np.concatenate(r), "Newton"), k)
            else:
                chord = chord_step(values, r, rn, eps)
                if chord is not None:
                    values, r, rn = chord
                    history.append(rn)
                    converged = rn <= rung_tol
                    continue
                # release the old factor before the new one is built, so
                # that two never live at once
                kept.lu = None
                kept.eps, kept.lu = eps, _factor(jacobian(values, eps), "Newton")
                delta = [_solve(kept.lu, -r[0], "Newton")]
            step = 1.0
            accepted = False
            for _ in range(_MAX_HALVINGS + 1):
                trial = [v.copy() for v in values]
                for t, d in zip(trial, delta):
                    t[interior] += step * d
                trial_r, trial_rn = residual(trial, eps)
                if trial_rn <= (1.0 - 1e-4 * step) * rn:
                    values, r, rn = trial, trial_r, trial_rn
                    accepted = True
                    break
                step *= 0.5
            history.append(rn)
            if not accepted:
                break
            converged = rn <= rung_tol
        return values, it, converged

    total_iters = 0
    history = []
    ladder = [(eps, max(tol, 1e-9)) for eps in _EPS_LADDER if eps > eps_reg] + [(eps_reg, tol)]
    # a load that does not depend on u has exactly one solution, the operator
    # being strictly monotone, so the ladder can only lengthen the path to
    # it; with a load that does, the ladder decides which of several
    # solutions Newton finds
    attempts = [ladder[-1:], ladder] if slope_fn is None and len(ladder) > 1 else [ladder]
    start = values
    for rungs in attempts:
        values = start
        for eps, rung_tol in rungs:
            values, it, converged = descend(values, eps, rung_tol)
            total_iters += it
        if converged:
            break

    # converged residuals are re-checked without regularization; the flag
    # honors the invariant converged => residual <= tolerance
    _, rn0 = residual(values, 0.0)
    return values, rn0, total_iters, bool(converged and rn0 <= tol), history


def _scalar_report(ctx: OperatorContext, rhs_fn, slope_fn, initial: GridFunction, kept=None) -> SolveReport:
    (u,), *outcome = _newton([ctx], rhs_fn, slope_fn, [initial.values], ctx.newton_tol, kept)
    return SolveReport(GridFunction(ctx.mesh, u), *outcome)


def dirichlet_solve(
    ctx: OperatorContext,
    rhs,
    initial: GridFunction | None = None,
    kept: KeptFactor | None = None,
) -> SolveReport:
    """Solve -Delta_p(x) u = rhs, u = 0 on the boundary, by damped Newton.

    The rhs does not depend on u: it is a constant or an array of shape
    (n_elements, n_qp) of its values at the quadrature points.  When no
    initial iterate is given the plain-Laplacian solution of the same rhs
    seeds the iteration.
    ``kept`` carries a Jacobian factor from one solve to the next and lets
    Newton take chord steps with it (see ``_newton``).
    """
    rhs_qp = _rhs_at_qp(ctx.mesh, rhs)
    if initial is None:
        initial = linear_poisson_solve(ctx.mesh, rhs_qp)
    return _scalar_report(ctx, lambda values: [rhs_qp], None, initial, kept)


def semilinear_solve(ctx: OperatorContext, rhs_state, initial: GridFunction) -> SolveReport:
    """Solve -Delta_p(x) u = g(x, u) with g differentiated by finite differences.

    rhs_state(points, s) evaluates g at flat coordinate/state arrays.
    """
    return _scalar_report(ctx, *_state_loads(ctx.mesh, [rhs_state]), initial)


@dataclass
class ComparisonReport:
    """Outcome of the weak-comparison check for an ordered rhs pair."""

    max_violation: float
    passed: bool
    conclusive: bool
    report_low: SolveReport
    report_high: SolveReport


def comparison_check(ctx: OperatorContext, h1, h2) -> ComparisonReport:
    """Solve with ordered right-hand sides and check nodal ordering u1 <= u2."""
    h1_qp = _rhs_at_qp(ctx.mesh, h1)
    h2_qp = _rhs_at_qp(ctx.mesh, h2)
    if np.any(h1_qp > h2_qp + 1e-13 * (1.0 + np.abs(h2_qp))):
        raise ValueError("comparison_check requires h1 <= h2 at quadrature points")
    rep1 = dirichlet_solve(ctx, h1_qp)
    rep2 = dirichlet_solve(ctx, h2_qp)
    conclusive = rep1.converged and rep2.converged
    viol = float(np.max(rep1.u.values - rep2.u.values))
    return ComparisonReport(
        max_violation=viol,
        passed=bool(conclusive and viol <= _COMPARISON_TOL),
        conclusive=conclusive,
        report_low=rep1,
        report_high=rep2,
    )


def mean_value_constant(
    ctx: OperatorContext,
    k,
    m: float,
    M: float,
    h,
    phi: GridFunction,
) -> float:
    """Weighted-to-plain flux ratio k_hat for a positive-source solve.

    With u solving -Delta_p(x) u = h (h > 0) and phi >= 0 a zero-trace test
    function, returns
        k_hat = int k |grad u|^(p-2) grad u . grad phi / int |grad u|^(p-2) grad u . grad phi
    and asserts the denominator is positive and m < k_hat < M.
    """
    mesh = ctx.mesh
    h_qp = _rhs_at_qp(mesh, h)
    if np.any(h_qp <= 0):
        raise HypothesisError("mean_value_constant requires h > 0 on the domain")
    if np.any(phi.values < 0) or not np.any(phi.values > 0):
        raise HypothesisError("test function must be nonnegative and nonzero")
    if not phi.dirichlet_zero:
        raise HypothesisError("test function must be Dirichlet-zero")
    k_qp = _rhs_at_qp(mesh, k)
    if np.any(k_qp <= m) or np.any(k_qp >= M):
        raise HypothesisError(f"multiplier leaves the declared bounds ({m}, {M})")

    rep = dirichlet_solve(ctx, h_qp)
    if not rep.converged:
        raise NumericalError("Dirichlet solve did not converge in mean_value_constant")
    grads = rep.u.gradients()
    grad_sq = np.einsum("ed,ed->e", grads, grads)
    a = _flux_factor(grad_sq, ctx.p.qp, 0.0)
    gphi = phi.gradients()
    dot = np.einsum("ed,ed->e", grads, gphi)  # grad u . grad phi per element
    den = integrate(a * dot[:, None], mesh)
    num = integrate(k_qp * a * dot[:, None], mesh)
    if den <= 0:
        raise NumericalError(
            "flux pairing is non-positive; the discrete positivity step failed"
        )
    k_hat = num / den
    if not (m < k_hat < M):
        raise NumericalError(
            f"mean-value constant {k_hat} escaped the bounds ({m}, {M})"
        )
    return float(k_hat)


def picone(
    w1: GridFunction,
    w2: GridFunction,
    p: ExponentField,
) -> tuple[np.ndarray, np.ndarray]:
    """Both Picone fields at every quadrature point.

    L1 combines the gradients and the ratio w1/w2 directly; L2 dots the
    w2-flux with the gradient of w1^p / w2^(p-1), expanded by the chain rule
    with p frozen at each quadrature point.
    """
    mesh = w1.mesh
    if w2.mesh is not mesh or p.mesh is not mesh:
        raise MeshMismatchError("picone arguments live on different meshes")
    if np.any(w1.values < 0):
        raise HypothesisError("picone requires w1 >= 0")
    w1_qp = w1.at_qp()
    w2_qp = w2.at_qp()
    if np.min(w2_qp) <= _PICONE_FLOOR:
        raise HypothesisError("picone requires w2 bounded away from zero")

    p_qp = p.qp
    g1 = w1.gradients()
    g2 = w2.gradients()
    n1 = np.linalg.norm(g1, axis=1)
    n2 = np.linalg.norm(g2, axis=1)
    # within |grad w2| |grad w1| also where a norm underflows to 0 (|grad| < 1e-154)
    dot12 = np.clip(np.einsum("ed,ed->e", g2, g1), -n1 * n2, n1 * n2)
    t = np.clip(w1_qp, 0.0, None) / w2_qp

    n1_p = np.where(n1[:, None] > 0, n1[:, None] ** p_qp, 0.0)
    n2_p = np.where(n2[:, None] > 0, n2[:, None] ** p_qp, 0.0)
    with np.errstate(divide="ignore"):  # 0^(p-2) for p < 2, dropped by the where
        n2_pm2 = np.where(n2[:, None] > 0, n2[:, None] ** (p_qp - 2.0), 0.0)

    L1 = n1_p + (p_qp - 1.0) * n2_p * t**p_qp
    L1 -= p_qp * n2_pm2 * dot12[:, None] * t ** (p_qp - 1.0)

    # grad(w1^p / w2^(p-1)) per qp, p frozen pointwise
    coef1 = p_qp * t ** (p_qp - 1.0)  # multiplies grad w1
    coef2 = (p_qp - 1.0) * t**p_qp  # multiplies grad w2
    gF_dot_g2 = coef1 * dot12[:, None] - coef2 * (n2**2)[:, None]
    L2 = n1_p - n2_pm2 * gF_dot_g2
    return L1, L2
