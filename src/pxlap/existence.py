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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, HypothesisError, MeshMismatchError
from .eigen import EigenPair, EnlargedEigenResult, enlarged_eigenpair
from .mesh import GridFunction
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
        f1, f2 = self.f1, self.f2
        return Nonlinearity(
            f1=lambda x, s1, s2: -np.asarray(f1(x, -np.asarray(s1), -np.asarray(s2))),
            f2=lambda x, s1, s2: -np.asarray(f2(x, -np.asarray(s1), -np.asarray(s2))),
            eta1=self.eta1,
            eta2=self.eta2,
        )


def eta_threshold(eig: EigenPair, p) -> float:
    """Smallest admissible growth constant: lambda1 * sup|phi1|^(p_max - 1)."""
    return eig.lambda1 * eig.phi.max_abs() ** (p.p_max - 1.0)


def benchmark_family(
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    eig1: EigenPair,
    eig2: EigenPair,
    amplitude_factor: float = 2.5,
    eta_factor: float = 1.1,
) -> Nonlinearity:
    """Bounded-growth benchmark pair used across the test experiments.

        f_i(x, s1, s2) = A_i |s_i|^(p_i_min - 2) s_i / (1 + |s_i|)
                         * (1 + s_j^2 / (1 + s_j^2))

    Odd in its own argument with an even coupling factor, so the negative
    solution is exactly the negated positive one.  The ratio against
    s_i^(p_i_min - 1) tends to A_i * (coupling) near zero and to zero at
    infinity; amplitudes sit ``amplitude_factor`` above the eigenvalue
    threshold while the declared eta_i sit at ``eta_factor`` above it.
    """
    thr1 = eta_threshold(eig1, ctx1.p)
    thr2 = eta_threshold(eig2, ctx2.p)
    A1, A2 = amplitude_factor * thr1, amplitude_factor * thr2

    def make(A, pmin):
        def f(x, s1_or_s2, partner):
            s = np.asarray(s1_or_s2, dtype=float)
            t = np.asarray(partner, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                own = np.abs(s) ** (pmin - 2.0) * s / (1.0 + np.abs(s))
            own = np.where(s == 0.0, 0.0, own)  # |0|^(p-2)*0 is 0 for p > 1
            coupling = 1.0 + t**2 / (1.0 + t**2)
            return A * own * coupling

        return f

    f1_core = make(A1, ctx1.p.p_min)
    f2_core = make(A2, ctx2.p.p_min)
    return Nonlinearity(
        f1=lambda x, s1, s2: f1_core(x, s1, s2),
        f2=lambda x, s1, s2: f2_core(x, s2, s1),
        eta1=eta_factor * thr1,
        eta2=eta_factor * thr2,
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

    fi takes the (s1, s2) order of f.  A state is a constant (shape (k,)) or
    varies by point (shape (k, len(x))).  Each s1 state meets all s2 states
    in one :func:`_f_on_states` stack.  A NaN at any state is kept.
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


def _min_ratio_small(fi, x, s_own_grid, partner_grid, pmin, sign):
    """min over probes of f_i / (|s_i|^(p-2) s_i) near zero, on one branch."""
    pairs = [(sign * s, sign * sp) for s in s_own_grid for sp in partner_grid]
    own, part = zip(*pairs)
    denom = np.array([np.abs(s) ** (pmin - 2.0) * s for s in own])
    row_min = np.min(_f_on_states(fi, x, own, part) / denom[:, None], axis=1)
    j = int(np.argmin(row_min))  # the first NaN row, if there is one
    worst = float(row_min[j])
    return worst, {"s_own": own[j], "s_partner": part[j], "ratio": worst}


def check_hypotheses(
    f: Nonlinearity,
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    eig1: EigenPair,
    eig2: EigenPair,
) -> HypothesesReport:
    """Numerically probe the growth hypotheses on both components.

    Small-argument growth is sampled on both sign branches at the probe
    points (the ratio must stay above the declared eta_i, which in turn must
    exceed the eigenvalue threshold); decay at infinity is accepted when the
    per-decade ratio maxima shrink by ``_H3_DECAY_FACTOR``; boundedness is
    checked for finite values on the sampled boxes.
    """
    x = _x_samples(ctx1, _N_X_SAMPLES)
    thr = (eta_threshold(eig1, ctx1.p), eta_threshold(eig2, ctx2.p))
    etas = (f.eta1, f.eta2)
    eta_ok = etas[0] > thr[0] and etas[1] > thr[1]

    witnesses = {}
    pos_ok = neg_ok = True
    decay_ok = bounded_ok = True
    for i, ctx, eta in ((1, ctx1, f.eta1), (2, ctx2, f.eta2)):
        pmin = ctx.p.p_min
        fi = f.own_first(i)
        m_pos, w_pos = _min_ratio_small(fi, x, _SMALL_S, _PARTNER_GRID, pmin, +1.0)
        m_neg, w_neg = _min_ratio_small(fi, x, _SMALL_S, _PARTNER_GRID, pmin, -1.0)
        witnesses[f"H2_positive_{i}"] = w_pos
        witnesses[f"H2_negative_{i}"] = w_neg
        pos_ok &= m_pos >= eta
        neg_ok &= m_neg >= eta

        partner_large = np.array([-1e4, -1.0, 1e-2, 1.0, 1e4])
        decade_max = []
        for s in _LARGE_S:
            signed = (s, -s)
            own = np.repeat(signed, len(partner_large))
            part = np.tile(partner_large, 2)
            denom = np.repeat(
                [np.abs(v) ** (pmin - 2.0) * v for v in signed], len(partner_large)
            )
            ratios = _f_on_states(fi, x, own, part) / denom[:, None]
            decade_max.append(float(np.max(np.abs(ratios))))
        witnesses[f"H3_decades_{i}"] = decade_max
        decay_ok &= all(b < a for a, b in zip(decade_max, decade_max[1:]))
        decay_ok &= decade_max[-1] <= _H3_DECAY_FACTOR * np.maximum(decade_max[0], 1e-300)

        box = np.array([-max(_LARGE_S), -1.0, 0.0, 1.0, max(_LARGE_S)])
        own, part = np.repeat(box, len(box)), np.tile(box, len(box))
        finite = np.all(np.isfinite(_f_on_states(fi, x, own, part)), axis=1)
        for sa, sb in zip(own[~finite], part[~finite]):
            bounded_ok = False
            witnesses["H1_violation"] = {"s_own": sa, "s_partner": sb}

    grid = np.asarray(_RHO_HAT_GRID)
    floor1 = np.array([f.eta1 * s ** (ctx1.p.p_min - 1.0) for s in _RHO_HAT_GRID])
    floor2 = np.array([f.eta2 * s ** (ctx2.p.p_min - 1.0) for s in _RHO_HAT_GRID])

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
    enlarged1: EnlargedEigenResult
    enlarged2: EnlargedEigenResult


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
        own = np.repeat([s, -s], len(partner))
        part = np.tile(partner, 2)
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
    box = box[np.abs(box) <= rho]
    ranges = [_f_range(fi, x, box, box) for fi in (f.f1, f.f2)]
    return rho, float(np.max(np.abs(ranges)))


def construct_supersolution(
    f: Nonlinearity,
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    margin: float | None = None,
) -> SupersolutionResult:
    """Supersolution pair eps^-1 * (restricted enlarged eigenfunctions).

    The constants are produced in the order the construction needs them:
    tau (strict interior bound of the enlarged eigenfunctions), eta_bar
    (0.99 of the admissible growth bound), then rho / c_rho from scanning f,
    and finally eps by halving until the load-domination inequality holds.
    """
    if ctx1.mesh is not ctx2.mesh:
        raise MeshMismatchError("both components must share one mesh")
    enl1 = enlarged_eigenpair(ctx1, margin)
    # equal contexts (one mesh, one exponent field, equal settings) share it
    enl2 = enl1 if ctx2 == ctx1 else enlarged_eigenpair(ctx2, margin)
    tau = min(enl1.tau, enl2.tau)

    lam = (enl1.pair.lambda1, enl2.pair.lambda1)
    sup_phi = (enl1.sup_phi_tilde, enl2.sup_phi_tilde)
    pmin = (ctx1.p.p_min, ctx2.p.p_min)
    pmax = (ctx1.p.p_max, ctx2.p.p_max)
    eta_bar = 0.99 * min(
        0.5 * lam[i] * tau ** (pmax[i] - 1.0) * sup_phi[i] ** (-(pmin[i] - 1.0))
        for i in range(2)
    )

    x = _x_samples(ctx1, _N_X_SAMPLES)
    rho, c_rho = _tail_constants(f, x, eta_bar, pmin)
    eps = 0.5
    while True:
        if all(
            eps ** (-(pmin[i] - 1.0)) * 0.5 * lam[i] * tau ** (pmax[i] - 1.0) >= c_rho
            for i in range(2)
        ):
            break
        eps *= 0.5
        if eps < 1e-12:
            raise ConstructionError(
                "eps underflow while enforcing the load-domination inequality "
                "eps^-(p_min-1) * lambda_tilde/2 * tau^(p_max-1) >= c_rho"
            )

    u_sup1 = enl1.phi_restricted.with_values(enl1.phi_restricted.values / eps)
    u_sup2 = enl2.phi_restricted.with_values(enl2.phi_restricted.values / eps)
    constants = {
        "eps_super": eps,
        "tau": tau,
        "eta_bar": eta_bar,
        "rho": rho,
        "c_rho": c_rho,
        "margin": enl1.margin,
        "lambda_tilde": list(lam),
        "sup_phi_tilde": list(sup_phi),
    }
    return SupersolutionResult(u_sup1, u_sup2, constants, enl1, enl2)


def construct_subsolution(
    f: Nonlinearity,
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    eig1: EigenPair,
    eig2: EigenPair,
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
    eigs = (eig1, eig2)
    ctxs = (ctx1, ctx2)
    mesh = ctx1.mesh
    pts = mesh.quad_points_flat
    eps = 0.5
    while True:
        ok = True
        cands = [e.phi.with_values(eps * e.phi.values) for e in eigs]
        for i in range(2):
            ctx, eig, eta = ctxs[i], eigs[i], (f.eta1, f.eta2)[i]
            phi = eig.phi
            if eps * phi.max_abs() > hyp.rho_hat:
                ok = False
                break
            cand = cands[i]
            diff = u_sup[i].values - cand.values
            if np.any(diff < 0) or np.any(diff[ctx.mesh.interior_nodes] <= 0):
                ok = False
                break

            # defining inequality: flux pairing <= load of the boxwise
            # f-minimum with the own argument frozen at the candidate
            own = cand.at_qp().reshape(1, -1)
            partner = _states_between(cands[1 - i], u_sup[1 - i])
            states = (own, partner) if i == 0 else (partner, own)
            fmin, _ = _f_range(f.component(i + 1), pts, *states)
            lhs = assemble_residual(ctx, cand, rhs=None, eps_reg=0.0)
            rhs_f = load_vector(mesh, fmin.reshape(mesh.n_elements, mesh.n_qp))
            noise = eps ** (ctx.p.p_min - 1.0) * 10.0 * eig.residual / mesh.dual_scale
            if not np.all(lhs <= rhs_f + noise + 1e-14):
                ok = False
                break

            # eta chain: exact (up to eigen residual) only at constant p
            if ctx.p.p_max - ctx.p.p_min < 1e-12:
                pmin = ctx.p.p_min
                phi_qp = phi.at_qp()
                mid = eps ** (pmin - 1.0) * eig.lambda1 * load_vector(
                    mesh, phi_qp ** (ctx.p.qp - 1.0)
                )
                rhs = eta * load_vector(mesh, (eps * phi_qp) ** (pmin - 1.0))
                if np.any(lhs > mid + noise + 1e-14) or np.any(rhs - mid < -1e-14):
                    ok = False
                    break
        if ok:
            break
        eps *= 0.5
        if eps < 1e-12:
            raise ConstructionError(
                "eps_sub underflow while enforcing the discrete subsolution "
                "inequalities"
            )
    u1 = eig1.phi.with_values(eps * eig1.phi.values)
    u2 = eig2.phi.with_values(eps * eig2.phi.values)
    return u1, u2, eps


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

    def __post_init__(self):
        for lo, hi in [(self.u_sub1, self.u_sup1), (self.u_sub2, self.u_sup2)]:
            mesh = lo.mesh
            if np.any(lo.values > hi.values):
                raise ConstructionError("box ordering violated at some node")
            if np.any(lo.values[mesh.interior_nodes] >= hi.values[mesh.interior_nodes]):
                raise ConstructionError("box ordering must be strict at interior nodes")

    def contains(self, u1: GridFunction, u2: GridFunction, tol: float = 1e-8) -> bool:
        return bool(
            np.all(u1.values >= self.u_sub1.values - tol)
            and np.all(u1.values <= self.u_sup1.values + tol)
            and np.all(u2.values >= self.u_sub2.values - tol)
            and np.all(u2.values <= self.u_sup2.values + tol)
        )

    def clip(self, i: int, values: np.ndarray) -> np.ndarray:
        lo = (self.u_sub1, self.u_sub2)[i - 1].values
        hi = (self.u_sup1, self.u_sup2)[i - 1].values
        return np.clip(values, lo, hi)


# the sign violation of a weak inequality the box verification tolerates
_BOX_SLACK = 1e-10


def verify_ordered_box(
    box: OrderedBox,
    f: Nonlinearity,
    ctx1: OperatorContext,
    ctx2: OperatorContext,
) -> BoxVerification:
    """Re-check the weak sub/super inequalities by direct assembly.

    For every interior hat function the subsolution flux pairing must not
    exceed the load of the boxwise f-minimum, and the supersolution pairing
    must not fall below the load of the boxwise f-maximum, both up to
    ``_BOX_SLACK``.  The report is returned, not stored: ``box.verification``
    stays the record of the f the box was built for.
    """
    mesh = ctx1.mesh
    shape = (mesh.n_elements, mesh.n_qp)
    section = (_states_between(box.u_sub1, box.u_sup1), _states_between(box.u_sub2, box.u_sup2))
    worst_sub = []
    worst_sup = []
    for ctx, fi, sub_u, sup_u in zip(
        (ctx1, ctx2), (f.f1, f.f2), (box.u_sub1, box.u_sub2), (box.u_sup1, box.u_sup2)
    ):
        fmin, fmax = _f_range(fi, mesh.quad_points_flat, *section)
        sub_margin = assemble_residual(ctx, sub_u, rhs=fmin.reshape(shape), eps_reg=0.0)
        sup_margin = assemble_residual(ctx, sup_u, rhs=fmax.reshape(shape), eps_reg=0.0)
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
    f: Nonlinearity,
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    eig1: EigenPair,
    eig2: EigenPair,
    margin: float | None = None,
    hyp: HypothesesReport | None = None,
) -> OrderedBox:
    """Full construction: probe hypotheses, build both sides, verify."""
    if hyp is None:
        hyp = check_hypotheses(f, ctx1, ctx2, eig1, eig2)
    if not hyp.passed:
        raise HypothesisError(
            f"hypothesis probe failed: {hyp.summary()}"
        )
    sup = construct_supersolution(f, ctx1, ctx2, margin=margin)
    u1, u2, eps_sub = construct_subsolution(
        f, ctx1, ctx2, eig1, eig2, hyp, u_sup=(sup.u_sup1, sup.u_sup2)
    )
    constants = dict(sup.constants)
    constants["eps_sub"] = eps_sub
    constants["rho_hat"] = hyp.rho_hat
    box = OrderedBox(u1, u2, sup.u_sup1, sup.u_sup2, constants=constants)
    interior = ctx1.mesh.interior_nodes
    for lo, hi in ((u1, sup.u_sup1), (u2, sup.u_sup2)):
        if np.any(lo.values[interior] <= 0) or np.any(hi.values <= 0):
            raise ConstructionError(
                "constructed box lost positivity (subsolution interior / "
                "supersolution everywhere)"
            )
    box.verification = verify_ordered_box(box, f, ctx1, ctx2)
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


def system_residuals(
    f: Nonlinearity,
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    u1: GridFunction,
    u2: GridFunction,
) -> tuple[float, float]:
    """Dual norms of both component residuals at the current pair."""
    r1 = assemble_residual(ctx1, u1, rhs=_f_at_state(f.f1, ctx1.mesh, u1, u2), eps_reg=0.0)
    r2 = assemble_residual(ctx2, u2, rhs=_f_at_state(f.f2, ctx2.mesh, u1, u2), eps_reg=0.0)
    return dual_norm(ctx1.mesh, r1), dual_norm(ctx2.mesh, r2)


_BOX_MAX_SWEEPS = 200


def solve_in_box(
    box: OrderedBox,
    f: Nonlinearity,
    ctx1: OperatorContext,
    ctx2: OperatorContext,
    start: str = "sub",
    increment_tol: float = 1e-9,
    residual_tol: float = 1e-8,
) -> BoxSolveResult:
    """Truncated Gauss-Seidel monotone iteration inside the ordered box.

    Each sweep solves component 1 with the pair frozen at the previous
    iterate, truncates nodally into the box, then solves component 2 against
    the fresh component 1 (fixed update order keeps runs deterministic).
    Stops when both nodal increments and both system residuals are small;
    hitting the sweep cap returns a non-converged report, never raises.
    """
    mesh = ctx1.mesh
    bounds = ((box.u_sub1, box.u_sup1), (box.u_sub2, box.u_sup2))
    u = []
    for i, (lo, hi) in enumerate(bounds, start=1):
        vals = (lo if start == "sub" else hi).values.copy()
        vals[mesh.boundary_nodes] = 0.0
        u.append(GridFunction(mesh, box.clip(i, vals), dirichlet_zero=True))

    res = (np.inf, np.inf)
    pretrunc = 0.0
    converged = False
    it = 0
    for it in range(1, _BOX_MAX_SWEEPS + 1):
        new = list(u)  # component 2 sees the fresh component 1
        for i, (ctx, fi, (lo, hi)) in enumerate(zip((ctx1, ctx2), (f.f1, f.f2), bounds)):
            raw = dirichlet_solve(ctx, _f_at_state(fi, mesh, *new), initial=u[i]).u.values
            pretrunc = max(
                pretrunc,
                float(np.max(lo.values - raw, initial=0.0)),
                float(np.max(raw - hi.values, initial=0.0)),
            )
            new[i] = GridFunction(mesh, box.clip(i + 1, raw), dirichlet_zero=True)
        inc = max(float(np.max(np.abs(a.values - b.values))) for a, b in zip(new, u))
        u = new
        res = system_residuals(f, ctx1, ctx2, *u)
        if inc <= increment_tol and all(r <= residual_tol for r in res):
            converged = True
            break

    u1, u2 = u
    interior_positive = bool(
        np.all(u1.values[mesh.interior_nodes] > 0)
        and np.all(u2.values[mesh.interior_nodes] > 0)
    )
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
    ctx1: OperatorContext,
    ctx2: OperatorContext,
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
    res = solve_in_box(box, f.reflected(), ctx1, ctx2, **solve_kwargs)
    # the reflected pair is interior-positive exactly when the negated pair
    # is strictly negative inside, so ``interior_positive`` carries over
    return dataclasses.replace(
        res, u1=res.u1.with_values(-res.u1.values), u2=res.u2.with_values(-res.u2.values)
    )
