"""Constant-sign solutions via sub/supersolution construction and monotone
iteration.

Pipeline: probe the structural hypotheses on the nonlinearity pair, build
the supersolution from the enlarged-domain eigenfunctions (scaled by 1/eps),
build the subsolution from the base eigenfunctions (scaled by eps_sub),
re-verify every weak inequality by direct assembly, then run the truncated
Gauss-Seidel monotone iteration inside the ordered box.  The negative pair
comes from solving the reflected system in the same box and negating.

f is bounded over sampled states by :func:`_f_range` alone.  NaN rule: every
reduction of sampled f values lets NaN through (numpy min/max, never Python
max/min), and every accept test fails on NaN (``np.all(v <= bound)``).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, HypothesisError, MeshMismatchError
from .eigen import EigenPair, _signed_power, dilated_mesh, enlarged_eigenpair, first_eigenpair
from .mesh import GridFunction
from .modular import pair_norm
from .operator import (
    OperatorContext,
    assemble_residual,
    dirichlet_solve,
    dual_norm,
    load_vector,
)
from .report import HIDDEN, Report


@dataclass
class Nonlinearity:
    """Right-hand-side pair f1(x, s1, s2), f2(x, s1, s2).

    The callables take a flat point array (n, dim) and state arrays of
    length n, and must be pointwise: output entry j depends only on row j of
    the points and on entry j of each state array.  :func:`_f_on_states`
    relies on this to evaluate many states in one call.  eta1/eta2 are the
    declared small-argument growth constants;
    they certify a lower bound on f_i / s_i^(p_i_min - 1) near zero and must
    beat the eigenvalue threshold for the construction to work.  A NaN at a
    sampled state fails the bound that samples it.
    """

    f1: object
    f2: object
    eta1: float
    eta2: float

    def component(self, i: int):
        return self.f1 if i == 1 else self.f2

    def own_first(self, i: int):
        """f_i as a callable of (x, own state s_i, partner state)."""
        return self.f1 if i == 1 else lambda x, own, part: self.f2(x, part, own)

    def reflected(self) -> "Nonlinearity":
        """Sign-flipped pair whose positive solutions are the negated
        negative solutions of the original system."""
        def flip(fi):
            return lambda x, s1, s2: -np.asarray(fi(x, -np.asarray(s1), -np.asarray(s2)))

        return Nonlinearity(flip(self.f1), flip(self.f2), self.eta1, self.eta2)


def _shared(solve, a, b) -> tuple:
    """(solve(a), solve(b)), solved once when a == b: equal contexts (one
    mesh, one exponent field, equal settings) share one result."""
    first = solve(a)
    return first, first if b == a else solve(b)


@dataclass(frozen=True, eq=False)
class System:
    """The coupled problem on one mesh: both operator contexts, their twins
    on the dilated domain with the margin it is grown by, and the base and
    enlarged eigenpairs, each solved on first use and only once.

    :meth:`build` dilates the contexts; the CLI passes the ``dilated``
    contexts it has checked before any solve.
    """

    ctx1: OperatorContext
    ctx2: OperatorContext
    dilated: tuple  # (ctx1, ctx2) on the dilated domain
    margin: float  # as :func:`pxlap.eigen.dilated_mesh` snapped it

    def __post_init__(self):
        for a, b in (self.ctxs, self.dilated):
            if a.mesh is not b.mesh:
                raise MeshMismatchError("both components must share one mesh")

    @classmethod
    def build(cls, ctx1: OperatorContext, ctx2: OperatorContext, margin: float | None = None):
        """The system of two contexts on the :func:`dilated_mesh` domain of
        their mesh (``margin`` None = a quarter of its diameter)."""
        outer, margin = dilated_mesh(ctx1.mesh, margin)
        return cls(ctx1, ctx2, _shared(lambda c: c.on_mesh(outer), ctx1, ctx2), margin)

    @property
    def mesh(self):
        return self.ctx1.mesh

    @property
    def ctxs(self) -> tuple:
        return self.ctx1, self.ctx2

    @functools.cached_property
    def eigs(self) -> tuple:
        """The first :class:`EigenPair` of both components."""
        return _shared(first_eigenpair, self.ctx1, self.ctx2)

    @functools.cached_property
    def enlarged(self) -> tuple:
        """The first eigenpairs on the dilated domain, restricted to the mesh
        (:class:`pxlap.eigen.EnlargedEigenResult`)."""
        return _shared(lambda d: enlarged_eigenpair(d, self.mesh), *self.dilated)

    def pair_norm(self, u1: GridFunction, u2: GridFunction) -> float:
        """:func:`pxlap.modular.pair_norm` of a pair under the components' exponents."""
        return pair_norm(u1, self.ctx1.p, u2, self.ctx2.p)


def eta_threshold(eig: EigenPair, p) -> float:
    """Smallest admissible growth constant: lambda1 * sup|phi1|^(p_max - 1)."""
    return eig.lambda1 * eig.phi.max_abs() ** (p.p_max - 1.0)


# the benchmark amplitudes and declared eta_i over the eigenvalue threshold
_AMPLITUDE_FACTOR = 2.5
_ETA_FACTOR = 1.1


def benchmark_family(system: System) -> Nonlinearity:
    """Bounded-growth benchmark pair used across the test experiments.

        f_i(x, s1, s2) = A_i |s_i|^(p_i_min - 2) s_i / (1 + |s_i|)
                         * (1 + s_j^2 / (1 + s_j^2))

    Odd in its own argument with an even coupling factor, so the negative
    solution is exactly the negated positive one.  The ratio against
    s_i^(p_i_min - 1) tends to A_i * (coupling) near zero and to zero at
    infinity; amplitudes sit ``_AMPLITUDE_FACTOR`` above the eigenvalue
    threshold while the declared eta_i sit at ``_ETA_FACTOR`` above it.
    """
    thr1, thr2 = (eta_threshold(eig, ctx.p) for eig, ctx in zip(system.eigs, system.ctxs))
    A1, A2 = _AMPLITUDE_FACTOR * thr1, _AMPLITUDE_FACTOR * thr2

    def make(A, pmin):
        def f(x, s1_or_s2, partner):
            s = np.asarray(s1_or_s2, dtype=float)
            t = np.asarray(partner, dtype=float)
            own = _signed_power(1.0, s, pmin) / (1.0 + np.abs(s))
            coupling = 1.0 + t**2 / (1.0 + t**2)
            return A * own * coupling

        return f

    f2_core = make(A2, system.ctx2.p.p_min)
    return Nonlinearity(
        f1=make(A1, system.ctx1.p.p_min),
        f2=lambda x, s1, s2: f2_core(x, s2, s1),
        eta1=_ETA_FACTOR * thr1,
        eta2=_ETA_FACTOR * thr2,
    )


# ---------------------------------------------------------------------------
# hypothesis probing


# probe grids of the growth hypotheses: own states near zero (H2) and at
# infinity (H3, one per decade), partner states near zero, the radii tried
# for rho_hat, the sample-point count, and the factor by which the H3 decade
# maxima must fall from the first decade to the last
_SMALL_S = (1e-2, 1e-3, 1e-4)
_LARGE_S = (1e2, 1e3, 1e4)
_PARTNER_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
_RHO_HAT_GRID = tuple(np.logspace(-4, 2, 49))
_N_X_SAMPLES = 64
_H3_DECAY_FACTOR = 0.1


@dataclass
class HypothesesReport(Report):
    """Pass/fail per hypothesis with witnessing samples.

    A liminf/limsup can only be falsified, never verified, by finite
    sampling; ``note`` records the probed ranges so that limitation is
    explicit in every report.
    """

    thresholds: tuple
    eta_declared: tuple
    eta_above_threshold: bool
    small_growth_positive: bool
    small_growth_negative: bool
    decay_at_infinity: bool
    bounded_on_boxes: bool
    rho_hat: float | None
    rho_hat_reflected: float | None
    witnesses: dict = field(default_factory=dict, metadata=HIDDEN)
    note: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.eta_above_threshold
            and self.small_growth_positive
            and self.small_growth_negative
            and self.decay_at_infinity
            and self.bounded_on_boxes
            and self.rho_hat is not None
        )


def _x_samples(ctx: OperatorContext, n: int) -> np.ndarray:
    pts = ctx.mesh.quad_points_flat
    step = max(1, len(pts) // n)
    return pts[::step]


# points per f call; larger calls cost memory without saving much more time
# (100 constant states on the 64 probe samples)
_BATCH_POINTS = 6400


def _f_on_states(fi, x, own, part) -> np.ndarray:
    """fi at the points x for each of k state pairs, shape (k, len(x)).

    A state is a constant, when ``own``/``part`` has shape (k,), or varies
    by point, when it has shape (k, len(x)).  Row j equals
    ``fi(x, own_j, part_j)`` with constants filled to len(x): the pairs are
    stacked into calls of at most ``_BATCH_POINTS`` points (at least one
    pair per call), which relies on fi being pointwise.
    """
    n = len(x)
    own, part = (np.asarray(s, dtype=float) for s in (own, part))
    k = len(own)
    own, part = (np.broadcast_to(s.reshape(k, -1), (k, n)) for s in (own, part))
    step = max(1, _BATCH_POINTS // n)
    rows = []
    for lo in range(0, k, step):
        m = len(own[lo:lo + step])
        xs = x if m == 1 else np.tile(x, (m, 1))
        vals = np.asarray(fi(xs, own[lo:lo + step].ravel(), part[lo:lo + step].ravel()))
        rows.append(np.broadcast_to(vals, (m * n,)).reshape(m, n))
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _f_range(fi, x, s1, s2) -> tuple[np.ndarray, np.ndarray]:
    """Per-point min and max of fi(x, a, b) over every state a of s1 and b of s2.

    A state is a constant (shape (k,)) or varies by point (shape
    (k, len(x))).  Each s1 state meets all s2 states in one
    :func:`_f_on_states` stack.  A NaN at any state is kept.
    """
    s2 = np.asarray(s2, dtype=float)
    lo, hi = np.inf, -np.inf
    for a in np.asarray(s1, dtype=float):
        vals = _f_on_states(fi, x, np.broadcast_to(a, s2.shape[:1] + a.shape), s2)
        lo = np.minimum(lo, np.min(vals, axis=0))
        hi = np.maximum(hi, np.max(vals, axis=0))
    return lo, hi


# states per component sampled between two fields (box section, partner range)
_BOX_SUBGRID = 5


def _states_between(lo: GridFunction, hi: GridFunction) -> np.ndarray:
    """_BOX_SUBGRID states evenly from lo to hi at the quadrature points."""
    lo, hi = lo.at_qp().ravel(), hi.at_qp().ravel()
    return lo + np.linspace(0.0, 1.0, _BOX_SUBGRID)[:, None] * (hi - lo)


def _state_pairs(own, part) -> tuple[np.ndarray, np.ndarray]:
    """Every (own, partner) pair of two grids of constant states, own-major."""
    return np.repeat(own, len(part)), np.tile(part, len(own))


def _growth_ratios(fi, x, own, part, pmin) -> np.ndarray:
    """f_i / (|s|^(pmin-2) s) at x over the :func:`_state_pairs` of own and
    partner states, one row per pair; each denominator is a scalar power."""
    own, part = _state_pairs(own, part)
    denom = np.array([np.abs(s) ** (pmin - 2.0) * s for s in own])
    return _f_on_states(fi, x, own, part) / denom[:, None]


def _min_ratio_small(fi, x, pmin, sign):
    """min over probes of f_i / (|s_i|^(p-2) s_i) near zero, on one branch."""
    own = tuple(sign * s for s in _SMALL_S)
    part = tuple(sign * s for s in _PARTNER_GRID)
    row_min = np.min(_growth_ratios(fi, x, own, part, pmin), axis=1)
    j = int(np.argmin(row_min))  # the first NaN row, if there is one
    worst = float(row_min[j])
    a, b = divmod(j, len(part))
    return worst, {"s_own": own[a], "s_partner": part[b], "ratio": worst}


def check_hypotheses(f: Nonlinearity, system: System) -> HypothesesReport:
    """Numerically probe the growth hypotheses on both components.

    Small-argument growth is sampled on both sign branches at the probe
    points (the ratio must stay above the declared eta_i, which in turn must
    exceed the eigenvalue threshold); decay at infinity is accepted when the
    per-decade ratio maxima shrink by ``_H3_DECAY_FACTOR``; boundedness is
    checked for finite values on the sampled boxes.
    """
    x = _x_samples(system.ctx1, _N_X_SAMPLES)
    thr = tuple(eta_threshold(eig, ctx.p) for eig, ctx in zip(system.eigs, system.ctxs))
    etas = (f.eta1, f.eta2)
    eta_ok = etas[0] > thr[0] and etas[1] > thr[1]

    witnesses = {}
    pos_ok = neg_ok = True
    decay_ok = bounded_ok = True
    for i, ctx, eta in zip((1, 2), system.ctxs, etas):
        pmin = ctx.p.p_min
        fi = f.own_first(i)
        m_pos, w_pos = _min_ratio_small(fi, x, pmin, +1.0)
        m_neg, w_neg = _min_ratio_small(fi, x, pmin, -1.0)
        witnesses[f"H2_positive_{i}"] = w_pos
        witnesses[f"H2_negative_{i}"] = w_neg
        pos_ok &= m_pos >= eta
        neg_ok &= m_neg >= eta

        signed = [v for s in _LARGE_S for v in (s, -s)]
        ratios = _growth_ratios(fi, x, signed, [-1e4, -1.0, 1e-2, 1.0, 1e4], pmin)
        decade_max = np.max(np.abs(ratios).reshape(len(_LARGE_S), -1), axis=1).tolist()
        witnesses[f"H3_decades_{i}"] = decade_max
        decay_ok &= all(b < a for a, b in zip(decade_max, decade_max[1:]))
        decay_ok &= decade_max[-1] <= _H3_DECAY_FACTOR * np.maximum(decade_max[0], 1e-300)

        box = np.array([-max(_LARGE_S), -1.0, 0.0, 1.0, max(_LARGE_S)])
        own, part = _state_pairs(box, box)
        finite = np.all(np.isfinite(_f_on_states(fi, x, own, part)), axis=1)
        for sa, sb in zip(own[~finite], part[~finite]):
            bounded_ok = False
            witnesses["H1_violation"] = {"s_own": sa, "s_partner": sb}

    grid = np.asarray(_RHO_HAT_GRID)
    floor1 = np.array([f.eta1 * s ** (system.ctx1.p.p_min - 1.0) for s in _RHO_HAT_GRID])
    floor2 = np.array([f.eta2 * s ** (system.ctx2.p.p_min - 1.0) for s in _RHO_HAT_GRID])

    def rho_hat_for(g1, g2):
        """Largest r whose square [grid <= r]^2 has g_i >= eta_i s_i^(p_i_min - 1)
        everywhere; the square grows one border (row k and column k) at a time."""
        best = None
        for k, r in enumerate(_RHO_HAT_GRID):
            i1 = np.r_[np.full(k + 1, k), np.arange(k)]
            i2 = np.r_[np.arange(k + 1), np.full(k, k)]
            lhs1 = _f_on_states(g1, x, grid[i1], grid[i2])
            lhs2 = _f_on_states(g2, x, grid[i1], grid[i2])
            if not (np.all(lhs1 >= floor1[i1, None]) and np.all(lhs2 >= floor2[i2, None])):
                break
            best = float(r)
        return best

    rf = f.reflected()
    rho_hat = rho_hat_for(f.f1, f.f2)
    rho_hat_neg = rho_hat_for(rf.f1, rf.f2)

    return HypothesesReport(
        thresholds=thr,
        eta_declared=etas,
        eta_above_threshold=bool(eta_ok),
        small_growth_positive=bool(pos_ok),
        small_growth_negative=bool(neg_ok),
        decay_at_infinity=bool(decay_ok),
        bounded_on_boxes=bool(bounded_ok),
        rho_hat=rho_hat,
        rho_hat_reflected=rho_hat_neg,
        witnesses=witnesses,
        note=(
            "limits probed on finite grids: small |s| in "
            f"{_SMALL_S}, large |s| in {_LARGE_S}; a pass certifies "
            "the sampled range only"
        ),
    )


# ---------------------------------------------------------------------------
# construction


@dataclass
class SupersolutionResult:
    u_sup1: GridFunction
    u_sup2: GridFunction
    constants: dict


def _tail_constants(f: Nonlinearity, x, eta_bar: float, pmin) -> tuple[float, float]:
    """Tail threshold rho and the bound c_rho of |f_i| on the box |s| <= rho.

    rho is the first scan value s0 such that |f_i| <= eta_bar |s_i|^(p_min - 1)
    at every sampled state with |s_i| = s >= s0 (partner over a fixed set);
    the scan runs downward from the top and stops at the first violation.
    """
    scan = np.logspace(-2, 8, 81)
    partner = np.array([-1e8, -1.0, 0.0, 1.0, 1e8])
    own_fns = (f.own_first(1), f.own_first(2))

    def violated(s):
        own, part = _state_pairs([s, -s], partner)
        return not all(
            np.all(np.abs(_f_on_states(fi, x, own, part)) <= eta_bar * s ** (pm - 1.0))
            for fi, pm in zip(own_fns, pmin)
        )

    k = len(scan)
    while k > 0 and not violated(scan[k - 1]):
        k -= 1
    if k == len(scan):
        raise ConstructionError(
            "no tail threshold found: |f_i| is not eventually dominated by "
            "eta_bar |s_i|^(p_min - 1) on the scanned range (decay hypothesis "
            "fails numerically)"
        )
    rho = float(scan[k])

    box = np.concatenate([-scan[scan <= rho][::-1], [0.0], scan[scan <= rho]])
    ranges = [_f_range(fi, x, box, box) for fi in (f.f1, f.f2)]
    return rho, float(np.max(np.abs(ranges)))


def _dyadic_eps(accept, what: str) -> float:
    """The first eps = 1/2, 1/4, ... that ``accept`` takes; the last tried is
    2^-39, after which ConstructionError(``what``) is raised."""
    eps = 0.5
    while not accept(eps):
        eps *= 0.5
        if eps < 1e-12:
            raise ConstructionError(what)
    return eps


def construct_supersolution(f: Nonlinearity, system: System) -> SupersolutionResult:
    """Supersolution pair eps^-1 * (restricted enlarged eigenfunctions).

    The constants are produced in the order the construction needs them:
    tau (strict interior bound of the enlarged eigenfunctions), eta_bar
    (0.99 of the admissible growth bound), then rho / c_rho from scanning f,
    and finally eps by halving until the load-domination inequality holds.
    """
    enl1, enl2 = system.enlarged
    tau = min(enl1.tau, enl2.tau)

    lam = (enl1.pair.lambda1, enl2.pair.lambda1)
    sup_phi = (enl1.sup_phi_tilde, enl2.sup_phi_tilde)
    pmin = tuple(ctx.p.p_min for ctx in system.ctxs)
    pmax = tuple(ctx.p.p_max for ctx in system.ctxs)
    eta_bar = 0.99 * min(
        0.5 * lam[i] * tau ** (pmax[i] - 1.0) * sup_phi[i] ** (-(pmin[i] - 1.0))
        for i in range(2)
    )

    x = _x_samples(system.ctx1, _N_X_SAMPLES)
    rho, c_rho = _tail_constants(f, x, eta_bar, pmin)
    eps = _dyadic_eps(
        lambda eps: all(
            eps ** (-(pmin[i] - 1.0)) * 0.5 * lam[i] * tau ** (pmax[i] - 1.0) >= c_rho
            for i in range(2)
        ),
        "eps underflow while enforcing the load-domination inequality "
        "eps^-(p_min-1) * lambda_tilde/2 * tau^(p_max-1) >= c_rho",
    )
    # eps is a power of two, so scaling by 1/eps divides exactly
    u_sup1 = enl1.phi_restricted.scaled(1.0 / eps)
    u_sup2 = enl2.phi_restricted.scaled(1.0 / eps)
    constants = {
        "eps_super": eps,
        "tau": tau,
        "eta_bar": eta_bar,
        "rho": rho,
        "c_rho": c_rho,
        "margin": system.margin,
        "lambda_tilde": list(lam),
        "sup_phi_tilde": list(sup_phi),
    }
    return SupersolutionResult(u_sup1, u_sup2, constants)


def construct_subsolution(
    f: Nonlinearity,
    system: System,
    hyp: HypothesesReport,
    u_sup: tuple[GridFunction, GridFunction],
) -> tuple[GridFunction, GridFunction, float]:
    """Subsolution pair eps_sub * (phi1, phi2) with eps_sub halved from 1/2.

    eps_sub must bring the pair under the small-growth threshold rho_hat,
    below the supersolution nodewise, and satisfy the defining discrete weak
    inequality: the flux pairing of eps*phi_i stays below the load of f_i
    frozen at the pair (partner ranging over the box) for every interior hat
    function.  The scaled-eigen-pairing chain through the declared eta is
    exact for constant exponents but is only a diagnostic for genuinely
    variable ones (its mean-value factoring does not survive
    discretization), so it gates in the constant case only.
    """
    if hyp.rho_hat is None:
        raise ConstructionError("no small-growth threshold rho_hat available")
    eigs, ctxs = system.eigs, system.ctxs
    mesh = system.mesh
    pts = mesh.quad_points_flat

    def accept(eps):
        cands = [e.phi.scaled(eps) for e in eigs]
        for i in range(2):
            ctx, eig, eta = ctxs[i], eigs[i], (f.eta1, f.eta2)[i]
            phi = eig.phi
            if eps * phi.max_abs() > hyp.rho_hat:
                return False
            cand = cands[i]
            diff = u_sup[i].values - cand.values
            if np.any(diff < 0) or np.any(diff[ctx.mesh.interior_nodes] <= 0):
                return False

            # defining inequality: flux pairing <= load of the boxwise
            # f-minimum with the own argument frozen at the candidate
            own = cand.at_qp().reshape(1, -1)
            partner = _states_between(cands[1 - i], u_sup[1 - i])
            fmin, _ = _f_range(f.own_first(i + 1), pts, own, partner)
            lhs = assemble_residual(ctx, cand, 0.0)
            rhs_f = load_vector(mesh, fmin.reshape(mesh.n_elements, mesh.n_qp))
            noise = eps ** (ctx.p.p_min - 1.0) * 10.0 * eig.residual / mesh.dual_scale
            if not np.all(lhs <= rhs_f + noise + 1e-14):
                return False

            # eta chain: exact (up to eigen residual) only at constant p
            if ctx.p.p_max - ctx.p.p_min < 1e-12:
                pmin = ctx.p.p_min
                phi_qp = phi.at_qp()
                mid = eps ** (pmin - 1.0) * eig.lambda1 * load_vector(
                    mesh, phi_qp ** (ctx.p.qp - 1.0)
                )
                rhs = eta * load_vector(mesh, (eps * phi_qp) ** (pmin - 1.0))
                if np.any(lhs > mid + noise + 1e-14) or np.any(rhs - mid < -1e-14):
                    return False
        return True

    eps = _dyadic_eps(
        accept, "eps_sub underflow while enforcing the discrete subsolution inequalities"
    )
    return eigs[0].phi.scaled(eps), eigs[1].phi.scaled(eps), eps


# ---------------------------------------------------------------------------
# the ordered box and its verification


@dataclass
class BoxVerification(Report):
    worst_sub_margin: tuple
    worst_sup_margin: tuple
    slack: float
    passed: bool


@dataclass
class OrderedBox:
    """Sub/supersolution quadruple with its certificate constants."""

    u_sub1: GridFunction
    u_sub2: GridFunction
    u_sup1: GridFunction
    u_sup2: GridFunction
    constants: dict = field(default_factory=dict)
    verification: BoxVerification | None = None

    @property
    def sections(self) -> tuple:
        """((u_sub1, u_sup1), (u_sub2, u_sup2)): each component's bounds."""
        return (self.u_sub1, self.u_sup1), (self.u_sub2, self.u_sup2)

    def __post_init__(self):
        for lo, hi in self.sections:
            mesh = lo.mesh
            if np.any(lo.values > hi.values):
                raise ConstructionError("box ordering violated at some node")
            if np.any(lo.values[mesh.interior_nodes] >= hi.values[mesh.interior_nodes]):
                raise ConstructionError("box ordering must be strict at interior nodes")

    def contains(self, u1: GridFunction, u2: GridFunction, tol: float = 1e-8) -> bool:
        return all(
            np.all(u.values >= lo.values - tol) and np.all(u.values <= hi.values + tol)
            for u, (lo, hi) in zip((u1, u2), self.sections)
        )

    def clip(self, i: int, values: np.ndarray) -> np.ndarray:
        lo, hi = self.sections[i - 1]
        return np.clip(values, lo.values, hi.values)


# the sign violation of a weak inequality the box verification tolerates
_BOX_SLACK = 1e-10


def verify_ordered_box(box: OrderedBox, f: Nonlinearity, system: System) -> BoxVerification:
    """Re-check the weak sub/super inequalities by direct assembly.

    For every interior hat function the subsolution flux pairing must not
    exceed the load of the boxwise f-minimum, and the supersolution pairing
    must not fall below the load of the boxwise f-maximum, both up to
    ``_BOX_SLACK``.  The report is returned, not stored: ``box.verification``
    stays the record of the f the box was built for.
    """
    mesh = system.mesh
    shape = (mesh.n_elements, mesh.n_qp)
    section = [_states_between(lo, hi) for lo, hi in box.sections]
    worst_sub = []
    worst_sup = []
    for ctx, fi, (sub_u, sup_u) in zip(system.ctxs, (f.f1, f.f2), box.sections):
        fmin, fmax = _f_range(fi, mesh.quad_points_flat, *section)
        sub_margin = assemble_residual(ctx, sub_u, fmin.reshape(shape))
        sup_margin = assemble_residual(ctx, sup_u, fmax.reshape(shape))
        worst_sub.append(float(np.max(sub_margin)))  # must be <= 0 (+slack)
        worst_sup.append(float(np.min(sup_margin)))  # must be >= 0 (-slack)
    passed = all(w <= _BOX_SLACK for w in worst_sub) and all(w >= -_BOX_SLACK for w in worst_sup)
    return BoxVerification(
        worst_sub_margin=tuple(worst_sub),
        worst_sup_margin=tuple(worst_sup),
        slack=_BOX_SLACK,
        passed=bool(passed),
    )


def build_ordered_box(
    f: Nonlinearity, system: System, hyp: HypothesesReport | None = None
) -> OrderedBox:
    """Full construction: probe hypotheses, build both sides, verify."""
    if hyp is None:
        hyp = check_hypotheses(f, system)
    if not hyp.passed:
        raise HypothesisError(
            f"hypothesis probe failed: {hyp.summary()}"
        )
    sup = construct_supersolution(f, system)
    u1, u2, eps_sub = construct_subsolution(f, system, hyp, u_sup=(sup.u_sup1, sup.u_sup2))
    constants = dict(sup.constants)
    constants["eps_sub"] = eps_sub
    constants["rho_hat"] = hyp.rho_hat
    box = OrderedBox(u1, u2, sup.u_sup1, sup.u_sup2, constants=constants)
    interior = system.mesh.interior_nodes
    for lo, hi in box.sections:
        if np.any(lo.values[interior] <= 0) or np.any(hi.values <= 0):
            raise ConstructionError(
                "constructed box lost positivity (subsolution interior / "
                "supersolution everywhere)"
            )
    box.verification = verify_ordered_box(box, f, system)
    return box


# ---------------------------------------------------------------------------
# monotone iteration


@dataclass
class BoxSolveResult(Report):
    u1: GridFunction = field(metadata=HIDDEN)
    u2: GridFunction = field(metadata=HIDDEN)
    converged: bool
    iterations: int
    residuals: tuple
    pretruncation_violation: float
    interior_positive: bool


def _f_at_state(fi, mesh, u1: GridFunction, u2: GridFunction) -> np.ndarray:
    states = (u.at_qp().reshape(1, -1) for u in (u1, u2))
    return _f_on_states(fi, mesh.quad_points_flat, *states).reshape(mesh.n_elements, mesh.n_qp)


_BOX_MAX_SWEEPS = 200
_INCREMENT_TOL = 1e-9  # nodal increment of a sweep that, with small residuals, ends it


def solve_in_box(
    box: OrderedBox,
    f: Nonlinearity,
    system: System,
    start: str = "sub",
    residual_tol: float = 1e-8,
) -> BoxSolveResult:
    """Truncated Gauss-Seidel monotone iteration inside the ordered box.

    Each sweep solves component 1 with the pair frozen at the previous
    iterate, truncates nodally into the box, then solves component 2 against
    the fresh component 1 (fixed update order keeps runs deterministic).
    Stops when both nodal increments and both system residuals are small;
    hitting the sweep cap returns a non-converged report, never raises.
    """
    mesh = system.mesh
    fs = (f.f1, f.f2)
    u = []
    for i, (lo, hi) in enumerate(box.sections, start=1):
        vals = (lo if start == "sub" else hi).values.copy()
        vals[mesh.boundary_nodes] = 0.0
        u.append(GridFunction(mesh, box.clip(i, vals)))

    res = (np.inf, np.inf)
    pretrunc = 0.0
    converged = False
    it = 0
    for it in range(1, _BOX_MAX_SWEEPS + 1):
        new = list(u)  # component 2 sees the fresh component 1
        for i, (ctx, fi, (lo, hi)) in enumerate(zip(system.ctxs, fs, box.sections)):
            raw = dirichlet_solve(ctx, _f_at_state(fi, mesh, *new), initial=u[i]).u.values
            pretrunc = max(
                pretrunc,
                float(np.max(lo.values - raw, initial=0.0)),
                float(np.max(raw - hi.values, initial=0.0)),
            )
            new[i] = GridFunction(mesh, box.clip(i + 1, raw))
        inc = max(float(np.max(np.abs(a.values - b.values))) for a, b in zip(new, u))
        u = new
        res = tuple(
            dual_norm(mesh, assemble_residual(ctx, ui, _f_at_state(fi, mesh, *u)))
            for ctx, fi, ui in zip(system.ctxs, fs, u)
        )
        if inc <= _INCREMENT_TOL and all(r <= residual_tol for r in res):
            converged = True
            break

    u1, u2 = u
    interior_positive = all(bool(np.all(ui.values[mesh.interior_nodes] > 0)) for ui in u)
    return BoxSolveResult(
        u1=u1,
        u2=u2,
        converged=converged,
        iterations=it,
        residuals=res,
        pretruncation_violation=pretrunc,
        interior_positive=interior_positive,
    )


def negative_solutions(
    box: OrderedBox,
    f: Nonlinearity,
    system: System,
    hyp: HypothesesReport | None = None,
    **solve_kwargs,
) -> BoxSolveResult:
    """Negative pair from the reflected system solved in the same box.

    v solves the reflected problem inside [u_sub, u_sup] exactly when
    u = -v solves the original one inside [-u_sup, -u_sub].
    """
    if hyp is not None and not hyp.small_growth_negative:
        raise HypothesisError(
            "the negative small-argument growth branch failed its probe"
        )
    res = solve_in_box(box, f.reflected(), system, **solve_kwargs)
    # the reflected pair is interior-positive exactly when the negated pair
    # is strictly negative inside, so ``interior_positive`` carries over
    return dataclasses.replace(res, u1=res.u1.scaled(-1.0), u2=res.u2.scaled(-1.0))
