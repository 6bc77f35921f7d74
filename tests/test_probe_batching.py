"""The batched growth-hypothesis probe and tail scans against their loop forms.

``reference_check_hypotheses`` and ``reference_tail_constants`` keep the
original one-state-per-call loops (one f call per constant state pair, the
rho_hat square rescanned for every radius, the tail rescanned for every
candidate).  The batched library code must reproduce every report field,
witnesses included, and the rho / c_rho constants exactly, for f finite at
every probed state; the references skip NaN values, the library reports
them.  ``_ref_*`` keep the loops over point-varying states (the
box-verification subgrid and the subsolution partner range), which
``_f_range`` must match bit for bit.
"""

import numpy as np
import pytest

from pxlap import existence
from pxlap.eigen import first_eigenpair
from pxlap.errors import ConstructionError
from pxlap.existence import (
    _BATCH_POINTS,
    HypothesesReport,
    Nonlinearity,
    OrderedBox,
    _f_on_states,
    _f_range,
    _states_between,
    _tail_constants,
    _x_samples,
    benchmark_family,
    build_ordered_box,
    check_hypotheses,
    construct_supersolution,
    eta_threshold,
    solve_in_box,
)
from pxlap.expressions import state_expression
from pxlap.mesh import GridFunction

# ---------------------------------------------------------------------------
# reference loops

# the probe grids, kept here so that the reference does not take them from
# the code under test
SMALL_S = (1e-2, 1e-3, 1e-4)
LARGE_S = (1e2, 1e3, 1e4)
PARTNER_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
RHO_HAT_GRID = tuple(np.logspace(-4, 2, 49))
N_X_SAMPLES = 64
H3_DECAY_FACTOR = 0.1


def _reference_min_ratio_small(fi, x, s_own_grid, partner_grid, pmin, sign):
    worst = np.inf
    witness = None
    for s in s_own_grid:
        s_own = sign * s
        for sp in partner_grid:
            s_part = sign * sp
            own = np.full(len(x), s_own)
            part = np.full(len(x), s_part)
            denom = np.abs(s_own) ** (pmin - 2.0) * s_own
            vals = np.asarray(fi(x, own, part)) / denom
            m = float(np.min(vals))
            if m < worst:
                worst, witness = m, {"s_own": s_own, "s_partner": s_part, "ratio": m}
    return worst, witness


def reference_check_hypotheses(f, ctx1, ctx2, eig1, eig2):
    x = _x_samples(ctx1, N_X_SAMPLES)
    thr = (eta_threshold(eig1, ctx1.p), eta_threshold(eig2, ctx2.p))
    etas = (f.eta1, f.eta2)
    eta_ok = etas[0] > thr[0] and etas[1] > thr[1]

    witnesses = {}
    pos_ok = neg_ok = True
    decay_ok = bounded_ok = True
    for i, ctx, eta in ((1, ctx1, f.eta1), (2, ctx2, f.eta2)):
        pmin = ctx.p.p_min

        def fi(xx, own, part, i=i):
            if i == 1:
                return f.f1(xx, own, part)
            return f.f2(xx, part, own)

        m_pos, w_pos = _reference_min_ratio_small(fi, x, SMALL_S, PARTNER_GRID, pmin, +1.0)
        m_neg, w_neg = _reference_min_ratio_small(fi, x, SMALL_S, PARTNER_GRID, pmin, -1.0)
        witnesses[f"H2_positive_{i}"] = w_pos
        witnesses[f"H2_negative_{i}"] = w_neg
        pos_ok &= m_pos >= eta
        neg_ok &= m_neg >= eta

        partner_large = np.array([-1e4, -1.0, 1e-2, 1.0, 1e4])
        decade_max = []
        for s in LARGE_S:
            worst = 0.0
            for sgn in (+1.0, -1.0):
                for sp in partner_large:
                    own = np.full(len(x), sgn * s)
                    part = np.full(len(x), sp)
                    denom = np.abs(sgn * s) ** (pmin - 2.0) * (sgn * s)
                    vals = np.asarray(fi(x, own, part)) / denom
                    worst = max(worst, float(np.max(np.abs(vals))))
            decade_max.append(worst)
        witnesses[f"H3_decades_{i}"] = decade_max
        decay_ok &= all(b < a for a, b in zip(decade_max, decade_max[1:]))
        decay_ok &= decade_max[-1] <= H3_DECAY_FACTOR * max(decade_max[0], 1e-300)

        box = np.array([-max(LARGE_S), -1.0, 0.0, 1.0, max(LARGE_S)])
        for sa in box:
            for sb in box:
                vals = np.asarray(fi(x, np.full(len(x), sa), np.full(len(x), sb)))
                if not np.all(np.isfinite(vals)):
                    bounded_ok = False
                    witnesses["H1_violation"] = {"s_own": sa, "s_partner": sb}

    def rho_hat_for(g1, g2):
        best = None
        for r in RHO_HAT_GRID:
            grid = [s for s in RHO_HAT_GRID if s <= r]
            ok = True
            for s1 in grid:
                for s2 in grid:
                    a1 = np.full(len(x), s1)
                    a2 = np.full(len(x), s2)
                    lhs1 = np.asarray(g1(x, a1, a2))
                    lhs2 = np.asarray(g2(x, a1, a2))
                    if np.any(lhs1 < f.eta1 * s1 ** (ctx1.p.p_min - 1.0)) or np.any(
                        lhs2 < f.eta2 * s2 ** (ctx2.p.p_min - 1.0)
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = float(r)
            else:
                break
        return best

    rf = f.reflected()
    return HypothesesReport(
        thresholds=thr,
        eta_declared=etas,
        eta_above_threshold=bool(eta_ok),
        small_growth_positive=bool(pos_ok),
        small_growth_negative=bool(neg_ok),
        decay_at_infinity=bool(decay_ok),
        bounded_on_boxes=bool(bounded_ok),
        rho_hat=rho_hat_for(f.f1, f.f2),
        rho_hat_reflected=rho_hat_for(rf.f1, rf.f2),
        witnesses=witnesses,
        note=(
            "limits probed on finite grids: small |s| in "
            f"{SMALL_S}, large |s| in {LARGE_S}; a pass certifies "
            "the sampled range only"
        ),
    )


def reference_tail_constants(f, x, eta_bar, pmin):
    scan = np.logspace(-2, 8, 81)
    partner = np.array([-1e8, -1.0, 0.0, 1.0, 1e8])

    def tail_ok(fi, pm, lo):
        for s in scan[scan >= lo]:
            for sgn in (1.0, -1.0):
                for sp in partner:
                    vals = np.asarray(
                        fi(x, np.full(len(x), sgn * s), np.full(len(x), sp))
                    )
                    if np.any(np.abs(vals) > eta_bar * s ** (pm - 1.0)):
                        return False
        return True

    def f1_own(xx, own, part):
        return f.f1(xx, own, part)

    def f2_own(xx, own, part):
        return f.f2(xx, part, own)

    rho = None
    for candidate in scan:
        if tail_ok(f1_own, pmin[0], candidate) and tail_ok(f2_own, pmin[1], candidate):
            rho = float(candidate)
            break
    if rho is None:
        raise ConstructionError("no tail threshold found")

    box = np.concatenate([-scan[scan <= rho][::-1], [0.0], scan[scan <= rho]])
    box = box[np.abs(box) <= rho]
    c_rho = 0.0
    for sa in box:
        for sb in box:
            a1 = np.full(len(x), sa)
            a2 = np.full(len(x), sb)
            c_rho = max(
                c_rho,
                float(np.max(np.abs(f.f1(x, a1, a2)))),
                float(np.max(np.abs(f.f2(x, a1, a2)))),
            )
    return rho, c_rho


def _ref_box_extrema_qp(box, f, mesh):
    pts = mesh.quad_points_flat
    lo1, hi1 = box.u_sub1.at_qp().ravel(), box.u_sup1.at_qp().ravel()
    lo2, hi2 = box.u_sub2.at_qp().ravel(), box.u_sup2.at_qp().ravel()
    fracs = np.linspace(0.0, 1.0, 5)
    shape = (mesh.n_elements, mesh.n_qp)
    mins = [np.full(len(pts), np.inf), np.full(len(pts), np.inf)]
    maxs = [np.full(len(pts), -np.inf), np.full(len(pts), -np.inf)]
    for a in fracs:
        s1 = lo1 + a * (hi1 - lo1)
        for b in fracs:
            s2 = lo2 + b * (hi2 - lo2)
            for k, fi in enumerate((f.f1, f.f2)):
                vals = np.asarray(fi(pts, s1, s2))
                np.minimum(mins[k], vals, out=mins[k])
                np.maximum(maxs[k], vals, out=maxs[k])
    return [m.reshape(shape) for m in mins], [m.reshape(shape) for m in maxs]


def _ref_partner_min(f, i, pts, own_qp, other_lo, other_hi):
    fi = f.component(i)
    fmin = np.full(len(pts), np.inf)
    for frac in np.linspace(0.0, 1.0, 5):
        other = other_lo + frac * (other_hi - other_lo)
        args = (own_qp, other) if i == 1 else (other, own_qp)
        np.minimum(fmin, np.asarray(fi(pts, *args)), out=fmin)
    return fmin


# ---------------------------------------------------------------------------
# cases


@pytest.fixture(scope="module")
def eigvar_64(ctxvar_64):
    return first_eigenpair(ctxvar_64)


def _constant_f(ctx, eig):
    eta = 2.0 * eta_threshold(eig, ctx.p)
    one = lambda x, s1, s2: np.ones(len(np.atleast_2d(x)))  # noqa: E731
    return Nonlinearity(f1=one, f2=one, eta1=eta, eta2=eta)


def _eta_below(ctx, eig):
    thr = eta_threshold(eig, ctx.p)
    f = benchmark_family(ctx, ctx, eig, eig)
    return Nonlinearity(f1=f.f1, f2=f.f2, eta1=0.9 * thr, eta2=0.9 * thr)


def _sqrt_f(ctx, eig):
    # NaN at every point of every negative own state
    eta = 1.1 * eta_threshold(eig, ctx.p)
    return Nonlinearity(
        f1=state_expression("30*sqrt(s1)", 1),
        f2=state_expression("30*sqrt(s2) / (1 + s1**2)", 1),
        eta1=eta,
        eta2=eta,
    )


def _eta_above_amplitude(ctx, eig):
    # declared eta beats the amplitude, so the first rho_hat square fails
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(existence, "_ETA_FACTOR", 3.0)
        return benchmark_family(ctx, ctx, eig, eig)


def _linear_f(ctx, eig):
    # f_i / s_i = 30 >= eta_i on the whole rho_hat grid, and no tail exists
    eta = 1.1 * eta_threshold(eig, ctx.p)
    return Nonlinearity(
        f1=state_expression("30*s1 + 0*s2", 1),
        f2=state_expression("30*s2 + 0*s1", 1),
        eta1=eta,
        eta2=eta,
    )


def _asymmetric_f(ctx, eig):
    # only f2 falls below its floor, and only where s1 < s2, so rho_hat is
    # set by the column of a border, never by its row or diagonal
    eta = 1.1 * eta_threshold(eig, ctx.p)
    return Nonlinearity(
        f1=state_expression("30*s1 + 0*s2", 1),
        f2=state_expression("30*s2 * (1 + abs(s1)) / (1 + abs(s2))", 1),
        eta1=eta,
        eta2=eta,
    )


CASES = {
    "asymmetric": _asymmetric_f,
    "benchmark": lambda ctx, eig: benchmark_family(ctx, ctx, eig, eig),
    "constant": _constant_f,
    "eta_below": _eta_below,
    "sqrt_nan": _sqrt_f,
    "rho_hat_none": _eta_above_amplitude,
    "rho_hat_grid_max": _linear_f,
}


@pytest.fixture(scope="module")
def eta_bar_64(ctx2_64, eig2_64):
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    return construct_supersolution(f, ctx2_64, ctx2_64).constants["eta_bar"]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", sorted(CASES))
def test_hypotheses_match_reference(case, ctx2_64, eig2_64):
    f = CASES[case](ctx2_64, eig2_64)
    got = check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    want = reference_check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    if case == "sqrt_nan":
        # NaN at every negative own state: the reference skips it and passes
        # the negative branch with no witness, the library fails the flags
        # that sample it and names the first NaN state
        assert want.small_growth_negative and want.witnesses["H2_negative_1"] is None
        assert not (got.small_growth_negative or got.decay_at_infinity or got.bounded_on_boxes)
        for i in (1, 2):
            w = got.witnesses[f"H2_negative_{i}"]
            assert (w["s_own"], w["s_partner"]) == (-SMALL_S[0], -PARTNER_GRID[0])
            assert np.isnan(w["ratio"])
            assert all(np.isnan(got.witnesses[f"H3_decades_{i}"]))
        assert got.rho_hat_reflected is None
        # the finite positive branch still matches the reference
        assert got.small_growth_positive == want.small_growth_positive
        assert repr(got.rho_hat) == repr(want.rho_hat)
        for key in ("H2_positive_1", "H2_positive_2", "H1_violation"):
            assert repr(got.witnesses[key]) == repr(want.witnesses[key])
        return
    # repr compares every field, witnesses included, with exact digits and types
    assert repr(got) == repr(want)
    if case == "rho_hat_none":
        assert got.rho_hat is None
    if case == "asymmetric":
        assert RHO_HAT_GRID[0] < got.rho_hat < RHO_HAT_GRID[-1]
    if case == "rho_hat_grid_max":
        assert got.rho_hat == float(RHO_HAT_GRID[-1])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", sorted(CASES))
def test_tail_constants_match_reference(case, ctx2_64, eig2_64, eta_bar_64):
    f = CASES[case](ctx2_64, eig2_64)
    x = _x_samples(ctx2_64, N_X_SAMPLES)
    pmin = (ctx2_64.p.p_min, ctx2_64.p.p_min)
    if case == "sqrt_nan":
        # the reference skips the NaN states and finds a tail; a NaN fails
        # the tail bound at every scanned s
        reference_tail_constants(f, x, eta_bar_64, pmin)
        with pytest.raises(ConstructionError, match="no tail threshold"):
            _tail_constants(f, x, eta_bar_64, pmin)
        return
    try:
        want = reference_tail_constants(f, x, eta_bar_64, pmin)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            _tail_constants(f, x, eta_bar_64, pmin)
        assert case in ("asymmetric", "rho_hat_grid_max")
        return
    assert repr(_tail_constants(f, x, eta_bar_64, pmin)) == repr(want)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_inside_the_tail_box_fails_the_supersolution(ctx2_64, eig2_64, eta_bar_64):
    # c_rho skipped NaN values, so an f with a NaN state inside the box
    # |s| <= rho still got a finite bound and a supersolution
    base = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    f = Nonlinearity(
        f1=lambda x, s1, s2: np.where(np.asarray(s1) == 1.0, np.nan, base.f1(x, s1, s2)),
        f2=base.f2,
        eta1=base.eta1,
        eta2=base.eta2,
    )
    x = _x_samples(ctx2_64, N_X_SAMPLES)
    pmin = (ctx2_64.p.p_min, ctx2_64.p.p_min)
    rho, c_rho = _tail_constants(f, x, eta_bar_64, pmin)
    assert rho >= 1.0 and np.isnan(c_rho)
    with pytest.raises(ConstructionError, match="eps underflow"):
        construct_supersolution(f, ctx2_64, ctx2_64)


def test_benchmark_on_variable_exponent_matches_reference(ctxvar_64, eigvar_64):
    f = benchmark_family(ctxvar_64, ctxvar_64, eigvar_64, eigvar_64)
    got = check_hypotheses(f, ctxvar_64, ctxvar_64, eigvar_64, eigvar_64)
    want = reference_check_hypotheses(f, ctxvar_64, ctxvar_64, eigvar_64, eigvar_64)
    assert repr(got) == repr(want)

    sup = construct_supersolution(f, ctxvar_64, ctxvar_64)
    x = _x_samples(ctxvar_64, N_X_SAMPLES)
    pmin = (ctxvar_64.p.p_min, ctxvar_64.p.p_min)
    rho, c_rho = reference_tail_constants(f, x, sup.constants["eta_bar"], pmin)
    assert repr((sup.constants["rho"], sup.constants["c_rho"])) == repr((rho, c_rho))


def _log_sizes(f, sizes):
    """Make f's callables append the point count of every call to ``sizes``."""

    def counted(fi):
        def wrapper(x, s1, s2):
            sizes.append(len(np.atleast_2d(x)))
            return fi(x, s1, s2)

        return wrapper

    f.f1, f.f2 = counted(f.f1), counted(f.f2)


def test_probe_call_count_and_batch_size(ctx2_64, eig2_64):
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    sizes = []
    _log_sizes(f, sizes)
    check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    construct_supersolution(f, ctx2_64, ctx2_64)
    n_x = len(_x_samples(ctx2_64, N_X_SAMPLES))
    # the per-state loops made tens of thousands of calls
    assert len(sizes) <= 1000
    assert max(sizes) <= 100 * n_x


def test_f_on_states_rows_match_single_state_calls(ctx2_64, eig2_64):
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    x = _x_samples(ctx2_64, N_X_SAMPLES)
    rng = np.random.default_rng(7)
    own = rng.standard_normal(250)
    # a constant partner per state, then one that varies by point
    for part in (rng.standard_normal(250), rng.standard_normal((250, len(x)))):
        sizes = []

        def f1(xx, s1, s2):
            sizes.append(len(xx))
            return f.f1(xx, s1, s2)

        rows = _f_on_states(f1, x, own, part)
        assert rows.shape == (250, len(x))
        assert max(sizes) <= _BATCH_POINTS
        for j in range(250):
            want = f.f1(x, np.full(len(x), own[j]), np.full(len(x), part[j]))
            assert rows[j].tobytes() == want.tobytes()


def _random_box(mesh, seed):
    rng = np.random.default_rng(seed)
    lo = [rng.random(mesh.n_nodes) for _ in range(2)]
    hi = [v + 0.1 + rng.random(mesh.n_nodes) for v in lo]
    return OrderedBox(*(GridFunction(mesh, v) for v in (*lo, *hi)))


def _expression_f(dim):
    coord = "x" if dim == 1 else "x*y"
    return Nonlinearity(
        f1=state_expression(f"sin(3*{coord}) * abs(s1)**1.5 / (1 + s2**2)", dim),
        f2=state_expression(f"s2 * exp(-s1) + {coord}", dim),
        eta1=1.0,
        eta2=1.0,
    )


@pytest.mark.parametrize("which", ["benchmark", "expression"])
@pytest.mark.parametrize("mesh_name", ["mesh64", "mesh2d"])
def test_state_stacks_match_loops_bit_for_bit(which, mesh_name, request, ctx2_64, eig2_64):
    mesh = request.getfixturevalue(mesh_name)
    if which == "benchmark":
        # benchmark_family takes only constants from its contexts, so its f
        # serves any mesh
        f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    else:
        f = _expression_f(mesh.dimension)
    box = _random_box(mesh, 3)
    pts = mesh.quad_points_flat
    section = (_states_between(box.u_sub1, box.u_sup1), _states_between(box.u_sub2, box.u_sup2))
    mins, maxs = _ref_box_extrema_qp(box, f, mesh)
    for k, fi in enumerate((f.f1, f.f2)):
        lo, hi = _f_range(fi, pts, *section)
        assert lo.tobytes() == mins[k].ravel().tobytes()
        assert hi.tobytes() == maxs[k].ravel().tobytes()

    # the subsolution's partner range: one own state against five partners
    own = box.u_sub1.at_qp().ravel()
    partner = section[1]
    lo, hi = box.u_sub2.at_qp().ravel(), box.u_sup2.at_qp().ravel()
    for i, states in ((1, (own[None], partner)), (2, (partner, own[None]))):
        got, _ = _f_range(f.component(i), pts, *states)
        assert got.tobytes() == _ref_partner_min(f, i, pts, own, lo, hi).tobytes()

    # constant states, as c_rho takes them
    consts = np.array([-2.0, -0.5, 0.0, 0.3, 1.5])
    for fi in (f.f1, f.f2):
        want_lo, want_hi = np.full(len(pts), np.inf), np.full(len(pts), -np.inf)
        for a in consts:
            for b in consts:
                vals = np.asarray(fi(pts, np.full(len(pts), a), np.full(len(pts), b)))
                np.minimum(want_lo, vals, out=want_lo)
                np.maximum(want_hi, vals, out=want_hi)
        lo, hi = _f_range(fi, pts, consts, consts)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()

    # NaN at one sampled state at one point: NaN there, the finite range elsewhere
    j, state = len(pts) // 3, section[1][2]

    def f1_nan(x, s1, s2):
        hit = np.all(x == pts[j], axis=1) & (np.asarray(s2) == state[j])
        return np.where(hit, np.nan, f.f1(x, s1, s2))

    lo, hi = _f_range(f1_nan, pts, *section)
    mask = np.arange(len(pts)) == j
    assert np.isnan(lo[j]) and np.isnan(hi[j])
    assert np.all(np.isfinite(lo[~mask])) and np.all(np.isfinite(hi[~mask]))
    assert np.array_equal(lo[~mask], mins[0].ravel()[~mask])
    assert np.array_equal(hi[~mask], maxs[0].ravel()[~mask])


def test_no_f_call_exceeds_the_point_cap(ctx2_64, eig2_64):
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    sizes = []
    _log_sizes(f, sizes)
    box = build_ordered_box(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    solve_in_box(box, f, ctx2_64, ctx2_64)
    n_qp = len(ctx2_64.mesh.quad_points_flat)
    assert sizes and max(sizes) <= max(_BATCH_POINTS, n_qp)

    # a point set above the cap is evaluated one state per call
    x = np.linspace(0.0, 1.0, _BATCH_POINTS + 1)[:, None]
    sizes.clear()
    rows = _f_on_states(f.f1, x, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
    assert rows.shape == (3, len(x)) and sizes == [len(x)] * 3
