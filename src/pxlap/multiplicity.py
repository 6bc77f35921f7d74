"""Computable ingredients of the degree argument: the reference problem,
continuation, boundedness/nonexistence/triviality probes, annulus multi-start.

Integer degree values are never computed.  Their witnesses are: a
boundedness probe over the recorded continuation trace, a multi-start
nonexistence probe for the delta-shifted reference problem, a triviality
probe for the plain reference problem, and a multi-start search in the
annulus between the ordered box and the outer radius.  A converged solution
in the nonexistence probe is reported as a falsification event rather than
an error.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eigen import EigenPair
from .errors import ConfigError, NumericalError
from .existence import Nonlinearity, OrderedBox, System
from .mesh import GridFunction
from .modular import luxemburg_norm_of_qp, sobolev_norm
from .operator import OperatorContext, semilinear_solve
from .operator import _newton  # the damped-Newton driver, the only evaluator of a load
from .report import HIDDEN, Report

DEDUP_DISTANCE = 1e-4
_PICARD_RTOL = 1e-8
_PICARD_MAX = 20
# residual a continuation or annulus solution must reach to be recorded
_SOLUTION_TOL = 1e-8
# seeds of the continuation steps and of the annulus search
_CONTINUATION_EIG_SCALES = (0.5, 2.0)
_ANNULUS_EIG_SEEDS = 12
_ANNULUS_RANDOM_SEEDS = 8


def spectral_bound(ctx: OperatorContext, eig: EigenPair) -> float:
    """lambda1 * min(1, p_min - 1): the reference coefficient J must lie in
    (0, bound) for the reference problem to have no nontrivial solution."""
    return eig.lambda1 * min(1.0, ctx.p.p_min - 1.0)


@dataclass
class HomotopyConfig:
    """The reference problem of the homotopy and of the nonexistence probe.

    J_i is ``J_fraction`` of :func:`spectral_bound`, so a fraction in (0, 1)
    satisfies the gate 0 < J_i < bound by construction.  The probe adds the
    shift ``delta`` * lambda1 * phi1^(p-1) to the reference load; the
    homotopy does not.  The t-grid is ``t_steps`` uniform points of [0, 1].
    Radii may be left None for auto-sizing.
    """

    J_fraction: float = 0.5
    delta: float = 1e-3
    t_steps: int = 11
    R: float | None = None
    R_hat: float | None = None
    rng_seed: int = 42

    def __post_init__(self):
        errors = []
        if not 0.0 < self.J_fraction < 1.0:
            errors.append(f"J_fraction must lie in (0, 1), got {self.J_fraction}")
        if self.t_steps < 2:
            errors.append(f"the t-grid needs at least 2 steps, got {self.t_steps}")
        if not self.delta > 0:
            errors.append(f"the probe's shift needs delta > 0, got {self.delta}")
        if self.R is not None and self.R_hat is not None and not self.R_hat < self.R:
            errors.append("radii must satisfy R_hat < R")
        if errors:
            raise ConfigError(errors)

    @property
    def t_grid(self) -> tuple:
        return tuple(float(t) for t in np.round(np.linspace(0.0, 1.0, self.t_steps), 12))

    def J(self, ctx: OperatorContext, eig: EigenPair) -> float:
        """J_i of the component with context ``ctx`` and eigenpair ``eig``."""
        return self.J_fraction * spectral_bound(ctx, eig)


def _reference_load(ctx, J, den):
    """The reference load s -> J (s+)^(p-1) / den^(p-1).

    Defined at the quadrature points ``ctx.mesh.quad_points_flat`` only,
    where :func:`pxlap.operator._newton` evaluates every load: p is
    ``ctx.p.qp`` and ``s`` is the flat state at those points.
    """
    pm1 = ctx.p.qp.ravel() - 1.0
    den_pm1 = den**pm1
    return lambda s: J * np.clip(s, 0.0, None) ** pm1 / den_pm1


def _homotopy_loads(cfg, t, dens, f, system):
    """Loads (g1, g2) of the homotopy at parameter t.

    Component i is t f_i + (1 - t) times the reference load of
    :func:`_reference_load`, so it is defined at the quadrature points only.
    The caller freezes the denominators ``dens`` = max{1, ||u_i||}
    (component Sobolev norms), so the loads depend on fresh state values
    only, which is what the outer-Picard / inner-Newton split needs.
    """
    def make(i, ctx, eig):
        fi = f.component(i)
        core = _reference_load(ctx, cfg.J(ctx, eig), dens[i - 1])

        def g(points, s1, s2):
            return t * np.asarray(fi(points, s1, s2)) + (1.0 - t) * core((s1, s2)[i - 1])

        return g

    return tuple(make(i, ctx, eig) for i, ctx, eig in zip((1, 2), system.ctxs, system.eigs))


# ---------------------------------------------------------------------------
# coupled damped Newton with frozen-norm Picard sweeps


@dataclass
class CoupledReport:
    u1: GridFunction
    u2: GridFunction
    residual: float
    iterations: int
    converged: bool
    # Picard sweeps and component Sobolev norms of (u1, u2), when the Picard
    # loop ran
    picard_sweeps: int = 0
    norms: tuple | None = None


def solve_coupled(
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    g1,
    g2,
    seed1: GridFunction,
    seed2: GridFunction,
    tol: float | None = None,
) -> CoupledReport:
    """Damped Newton on the coupled pair system with state-dependent rhs."""
    mesh = ctx1.mesh
    tol = tol if tol is not None else max(ctx1.newton_tol, ctx2.newton_tol)
    (v1, v2), residual, iterations, converged, _ = _newton(
        [ctx1, ctx2], [g1, g2], [seed1.values, seed2.values], tol
    )
    return CoupledReport(
        u1=GridFunction(mesh, v1),
        u2=GridFunction(mesh, v2),
        residual=residual,
        iterations=iterations,
        converged=converged,
    )


def _picard(ctxs, solve, seeds):
    """Outer Picard on the frozen norm denominators max{1, ||u_i||}.

    ``solve(dens, fields)`` runs one inner solve from ``fields`` with the
    denominators ``dens`` and returns its report and solution fields; the
    norms of each sweep's solutions freeze the next sweep's denominators.
    Stops when every norm moves by at most _PICARD_RTOL relative to
    max{1, new norm}, or after _PICARD_MAX sweeps.  Returns the last report,
    the sweep count and the norms of its solutions.
    """
    fields = seeds
    prev = [sobolev_norm(u, ctx.p) for u, ctx in zip(fields, ctxs)]
    for sweeps in range(1, _PICARD_MAX + 1):
        rep, fields = solve([max(1.0, n) for n in prev], fields)
        cur = [sobolev_norm(u, ctx.p) for u, ctx in zip(fields, ctxs)]
        change = max(abs(c - p) / max(1.0, c) for c, p in zip(cur, prev))
        prev = cur
        if change <= _PICARD_RTOL:
            break
    return rep, sweeps, tuple(prev)


def solve_homotopy_system(
    cfg: HomotopyConfig,
    t: float,
    f: Nonlinearity,
    system: System,
    seed1: GridFunction,
    seed2: GridFunction,
) -> CoupledReport:
    """Outer Picard on the norm denominators, inner coupled Newton; the
    report carries the sweep count and the norms of its solutions."""

    def sweep(dens, fields):
        rep = solve_coupled(*system.ctxs, *_homotopy_loads(cfg, t, dens, f, system), *fields)
        return rep, (rep.u1, rep.u2)

    rep, sweeps, norms = _picard(system.ctxs, sweep, (seed1, seed2))
    return dataclasses.replace(rep, picard_sweeps=sweeps, norms=norms)


# ---------------------------------------------------------------------------
# trace and probes


class Solution(NamedTuple):
    """One recorded solution pair of a multi-start search."""

    u1: GridFunction
    u2: GridFunction
    pair_norm: float
    residual: float
    tag: str  # the seed it was reached from


@dataclass
class TraceStep:
    t: float
    solutions: list  # of Solution, in the order of :func:`_multistart`


@dataclass
class HomotopyTrace:
    steps: list = field(default_factory=list)

    def max_pair_norm(self) -> float:
        return max((s.pair_norm for st in self.steps for s in st.solutions), default=0.0)

    def summary(self) -> dict:
        return {
            "max_pair_norm": self.max_pair_norm(),
            "steps": [
                {
                    "t": st.t,
                    "solutions": len(st.solutions),
                    "pair_norms": [float(s.pair_norm) for s in st.solutions],
                    "residuals": [float(s.residual) for s in st.solutions],
                    "tags": [s.tag for s in st.solutions],
                }
                for st in self.steps
            ],
        }


def pair_distance(a, b, system: System) -> float:
    d1, d2 = (GridFunction(system.mesh, a[i].values - b[i].values) for i in (0, 1))
    return system.pair_norm(d1, d2)


def _multistart(seeds, solve, system: System) -> list:
    """Solve from every ``(seed1, seed2, tag)`` and keep the distinct solutions.

    ``solve(seed1, seed2)`` returns a :class:`CoupledReport`.  A seed is
    dropped when its solve raises :class:`NumericalError`, does not converge
    or stops above _SOLUTION_TOL.  The pair norm is the report's Picard norms
    when it carries them.  Canonical order is ascending pair norm, ties by
    nodal lexicographic order, so the result does not depend on seed order;
    a solution within DEDUP_DISTANCE of an earlier one is a duplicate.
    """
    found = []
    for s1, s2, tag in seeds:
        try:
            rep = solve(s1, s2)
        except NumericalError:
            continue
        if rep.converged and rep.residual <= _SOLUTION_TOL:
            norm = sum(rep.norms) if rep.norms else system.pair_norm(rep.u1, rep.u2)
            found.append(Solution(rep.u1, rep.u2, norm, rep.residual, tag))
    found.sort(key=lambda s: (s.pair_norm, tuple(s.u1.values), tuple(s.u2.values)))
    kept = []
    for s in found:
        if not any(pair_distance(s, k, system) < DEDUP_DISTANCE for k in kept):
            kept.append(s)
    return kept


def continuation(cfg: HomotopyConfig, f: Nonlinearity, system: System) -> HomotopyTrace:
    """March the t-grid recording every converged, deduplicated solution.

    Each step is seeded from the previous step's solutions plus the zero
    pair and scaled eigenfunction pairs (the trivial branch persists along
    the whole homotopy whenever f vanishes at zero, so fresh seeds are
    what pick up nontrivial branches).  Per-step non-convergence is recorded
    in the trace, never fatal.
    """
    mesh = system.mesh
    eig1, eig2 = system.eigs
    trace = HomotopyTrace()

    previous = []
    for t in cfg.t_grid:
        seeds = [(GridFunction.zeros(mesh), GridFunction.zeros(mesh), "zero")]
        seeds += [(s.u1, s.u2, "continued") for s in previous]
        seeds += [
            (eig1.phi.scaled(c), eig2.phi.scaled(c), f"eig x{c}") for c in _CONTINUATION_EIG_SCALES
        ]
        solve = functools.partial(solve_homotopy_system, cfg, t, f, system)
        previous = _multistart(seeds, solve, system)
        trace.steps.append(TraceStep(t=float(t), solutions=previous))
    return trace


@dataclass
class BoundednessReport(Report):
    max_pair_norm: float
    radius: float | None
    passed: bool
    suggested_radius: float
    witness_t: float | None


def boundedness_probe(trace: HomotopyTrace, R: float | None = None) -> BoundednessReport:
    """Check every recorded solution stays inside the ball of radius R."""
    if not trace.steps:
        raise ValueError("boundedness probe needs a nonempty trace")
    max_norm = trace.max_pair_norm()
    witness = None
    if R is not None and max_norm >= R:
        for st in trace.steps:
            if any(s.pair_norm >= R for s in st.solutions):
                witness = st.t
                break
    return BoundednessReport(
        max_pair_norm=max_norm,
        radius=R,
        passed=bool(R is None or max_norm < R),
        suggested_radius=2.0 * (max_norm + 1.0),
        witness_t=witness,
    )


def _random_interior(mesh, rng) -> np.ndarray:
    """Nodal values: standard normal at the interior nodes, zero on the boundary."""
    vals = np.zeros(mesh.n_nodes)
    vals[mesh.interior_nodes] = rng.standard_normal(len(mesh.interior_nodes))
    return vals


@dataclass
class AttemptRecord:
    tag: str
    converged: bool
    residual: float
    norm: float


@dataclass
class NonexistenceReport(Report):
    """Multi-start outcome for the delta-shifted scalar reference problem."""

    applicable: bool
    reason: str
    attempts: list = field(default_factory=list, metadata=HIDDEN)
    tolerance: float = 1e-8
    rng_seed: int = 42
    J: float = 0.0
    delta: float = 0.0

    @property
    def min_residual(self) -> float:
        # inf first, so a NaN residual is passed over as the attempt loop did
        return min([np.inf, *(a.residual for a in self.attempts)])

    @property
    def converged_count(self) -> int:
        return sum(a.converged for a in self.attempts)

    @property
    def passed(self) -> bool:
        return (
            self.applicable
            and self.converged_count == 0
            and self.min_residual >= 10.0 * self.tolerance
        )

    def summary(self) -> dict:
        norms = [a.norm for a in self.attempts if np.isfinite(a.norm)]
        return {
            **super().summary(),
            "attempts": len(self.attempts),
            "max_iterate_norm": float(max(norms)) if norms else 0.0,
        }


def nonexistence_probe(
    ctx: OperatorContext,
    eig: EigenPair,
    J: float,
    delta: float,
    attempts: int = 50,
    tolerance: float = 1e-8,
    rng_seed: int = 42,
) -> NonexistenceReport:
    """Multi-start damped Newton on the delta-shifted scalar problem.

    Seeds cover scaled eigenfunctions of both signs, random Dirichlet-zero
    fields and zero.  The probe passes when no attempt reaches the residual
    tolerance; any converged solution is recorded as a falsification event
    for investigation, not raised.
    """
    if delta <= 0:
        raise ConfigError(["the nonexistence probe requires delta > 0"])
    if attempts < 1:
        # no attempt would make ``passed`` true without any evidence
        raise ConfigError([f"the nonexistence probe needs at least one attempt, got {attempts}"])
    bound = spectral_bound(ctx, eig)
    applicable = 0.0 < J < bound
    reason = "spectral gate satisfied" if applicable else (
        f"J = {J} violates the spectral gate 0 < J < "
        f"lambda1 * min(1, p_min - 1) = {bound}; the probe does not apply"
    )
    report = NonexistenceReport(
        applicable, reason, tolerance=tolerance, rng_seed=rng_seed, J=J, delta=delta
    )
    if not applicable:
        return report

    mesh = ctx.mesh
    rng = np.random.default_rng(rng_seed)
    seeds = [(GridFunction.zeros(mesh), "zero")]
    n_eig = max(1, (attempts - 1) // 2)
    scales = np.logspace(-3, 1, n_eig)
    for k, c in enumerate(scales):
        sign = 1.0 if k % 2 == 0 else -1.0
        seeds.append((eig.phi.scaled(sign * c), f"eig x{sign * c:.3g}"))
    while len(seeds) < attempts:
        vals = _random_interior(mesh, rng)
        scale = 10.0 ** rng.uniform(-2, 1)
        nrm = sobolev_norm(GridFunction(mesh, vals), ctx.p)
        seeds.append((GridFunction(mesh, scale * vals / max(nrm, 1e-30)), f"random x{scale:.3g}"))

    # the shift delta * lambda1 * phi1^(p-1), at the quadrature points
    phi_qp = eig.phi.eval(mesh.quad_points_flat)
    shift = delta * eig.lambda1 * phi_qp ** (ctx.p.qp.ravel() - 1.0)

    def sweep(dens, fields):
        core = _reference_load(ctx, J, dens[0])
        rep = semilinear_solve(ctx, lambda points, s: core(s) + shift, initial=fields[0])
        return rep, (rep.u,)

    for seed, tag in seeds[:attempts]:
        rep, _, (norm,) = _picard((ctx,), sweep, (seed,))
        conv = bool(rep.converged and rep.residual <= tolerance)
        report.attempts.append(AttemptRecord(tag, conv, float(rep.residual), norm))
    return report


@dataclass
class AnnulusSolution(Report):
    u1: GridFunction = field(metadata=HIDDEN)
    u2: GridFunction = field(metadata=HIDDEN)
    pair_norm: float
    residual: float
    inside_box: bool
    distance_to_known: float


@dataclass
class AnnulusReport(Report):
    solutions: list  # of AnnulusSolution
    R_hat: float
    R: float
    second_solution_found: bool
    rng_seed: int


def annulus_search(
    cfg: HomotopyConfig,
    f: Nonlinearity,
    system: System,
    box: OrderedBox,
    u_plus: tuple[GridFunction, GridFunction],
    seed_order: list | None = None,
) -> AnnulusReport:
    """Multi-start damped Newton on the original (t = 1) system from seeds
    with pair norm inside the annulus (R_hat, R).

    R_hat defaults to 1.5x the pair norm of the supersolution pair; R to
    2 * (R_hat + 1) when the config leaves it unset.  Converged solutions
    are deduplicated, classified inside/outside the box, and the second
    solution flag fires when some solution sits beyond R_hat at nodal
    distance > 1e-3 from the known pair.  An empty outside-box list is a
    reported outcome: the seeds are not guaranteed to land in every basin.
    """
    mesh = system.mesh
    eig1, eig2 = system.eigs
    # the supersolution pair has nonzero trace; size R_hat by its gradient
    # Luxemburg seminorm
    sup_pair_norm = sum(
        luxemburg_norm_of_qp(u.grad_magnitude_qp(), ctx.p.qp, mesh).norm
        for u, ctx in zip((box.u_sup1, box.u_sup2), system.ctxs)
    )
    R_hat = cfg.R_hat if cfg.R_hat is not None else 1.5 * sup_pair_norm
    R = cfg.R if cfg.R is not None else 2.0 * (R_hat + 1.0)
    if not R_hat < R:
        raise ConfigError([f"radii must satisfy R_hat < R, got {R_hat} >= {R}"])

    eig_pair_norm = system.pair_norm(eig1.phi, eig2.phi)
    rng = np.random.default_rng(cfg.rng_seed)
    seeds = []
    for target in np.geomspace(R_hat * 1.05, R * 0.95, _ANNULUS_EIG_SEEDS):
        c = target / eig_pair_norm
        seeds.append((eig1.phi.scaled(c), eig2.phi.scaled(c), f"eig@{target:.3g}"))
    for _ in range(_ANNULUS_RANDOM_SEEDS):
        target = float(rng.uniform(R_hat * 1.05, R * 0.95))
        comps = [GridFunction(mesh, np.abs(_random_interior(mesh, rng))) for _ in range(2)]
        total = system.pair_norm(*comps)
        seeds.append(
            (*(g.with_values(g.values * target / total) for g in comps), f"random@{target:.3g}")
        )
    # inside-box seeds: these converge back to the known solution and must
    # deduplicate with it
    seeds.append((u_plus[0], u_plus[1], "known"))
    seeds.append((u_plus[0].scaled(0.5), u_plus[1].scaled(0.5), "half-known"))

    if seed_order is not None:
        seeds = [seeds[k] for k in seed_order]

    solve = functools.partial(solve_coupled, *system.ctxs, f.f1, f.f2, tol=_SOLUTION_TOL * 1e-2)
    found = _multistart(seeds, solve, system)
    solutions = [
        AnnulusSolution(
            u1=s.u1,
            u2=s.u2,
            pair_norm=s.pair_norm,
            residual=s.residual,
            inside_box=box.contains(s.u1, s.u2),
            distance_to_known=max(
                float(np.max(np.abs(s.u1.values - u_plus[0].values))),
                float(np.max(np.abs(s.u2.values - u_plus[1].values))),
            ),
        )
        for s in found
    ]
    return AnnulusReport(
        solutions=solutions,
        R_hat=float(R_hat),
        R=float(R),
        second_solution_found=any(
            s.pair_norm > R_hat and s.distance_to_known > 1e-3 for s in solutions
        ),
        rng_seed=cfg.rng_seed,
    )
