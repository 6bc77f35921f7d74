"""The batched growth-hypothesis probe and tail scans against their loop forms.

``reference_check_hypotheses`` and ``reference_tail_constants`` keep the
original one-state-per-call loops (one f call per constant state pair, the
rho_hat square rescanned for every radius, the tail rescanned for every
candidate).  The batched library code must reproduce every report field,
witnesses included, and the rho / c_rho constants exactly.
"""

import numpy as np
import pytest

from pxlap.eigen import first_eigenpair
from pxlap.errors import ConstructionError
from pxlap.existence import (
    HypothesesReport,
    Nonlinearity,
    ProbePlan,
    _f_on_states,
    _tail_constants,
    _x_samples,
    benchmark_family,
    check_hypotheses,
    construct_supersolution,
    eta_threshold,
)
from pxlap.expressions import state_expression

# ---------------------------------------------------------------------------
# reference loops


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


def reference_check_hypotheses(f, ctx1, ctx2, eig1, eig2, plan=None):
    plan = plan or ProbePlan()
    x = _x_samples(ctx1, plan.n_x_samples)
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

        m_pos, w_pos = _reference_min_ratio_small(
            fi, x, plan.small_s, plan.partner_grid, pmin, +1.0
        )
        m_neg, w_neg = _reference_min_ratio_small(
            fi, x, plan.small_s, plan.partner_grid, pmin, -1.0
        )
        witnesses[f"H2_positive_{i}"] = w_pos
        witnesses[f"H2_negative_{i}"] = w_neg
        pos_ok &= m_pos >= eta
        neg_ok &= m_neg >= eta

        partner_large = np.array([-1e4, -1.0, 1e-2, 1.0, 1e4])
        decade_max = []
        for s in plan.large_s:
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
        decay_ok &= decade_max[-1] <= plan.h3_decay_factor * max(decade_max[0], 1e-300)

        box = np.array([-max(plan.large_s), -1.0, 0.0, 1.0, max(plan.large_s)])
        for sa in box:
            for sb in box:
                vals = np.asarray(fi(x, np.full(len(x), sa), np.full(len(x), sb)))
                if not np.all(np.isfinite(vals)):
                    bounded_ok = False
                    witnesses["H1_violation"] = {"s_own": sa, "s_partner": sb}

    def rho_hat_for(g1, g2):
        best = None
        for r in plan.rho_hat_grid:
            grid = [s for s in plan.rho_hat_grid if s <= r]
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
            f"{plan.small_s}, large |s| in {plan.large_s}; a pass certifies "
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
    return benchmark_family(ctx, ctx, eig, eig, eta_factor=3.0)


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
    return construct_supersolution(f, ctx2_64, ctx2_64, eig2_64, eig2_64).constants["eta_bar"]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", sorted(CASES))
def test_hypotheses_match_reference(case, ctx2_64, eig2_64):
    f = CASES[case](ctx2_64, eig2_64)
    got = check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    want = reference_check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    # repr compares every field, witnesses included, with exact digits and types
    assert repr(got) == repr(want)
    if case == "rho_hat_none":
        assert got.rho_hat is None
    if case == "asymmetric":
        assert ProbePlan().rho_hat_grid[0] < got.rho_hat < ProbePlan().rho_hat_grid[-1]
    if case == "rho_hat_grid_max":
        assert got.rho_hat == float(ProbePlan().rho_hat_grid[-1])
    if case == "sqrt_nan":
        assert got.witnesses["H2_negative_1"] is None


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", sorted(CASES))
def test_tail_constants_match_reference(case, ctx2_64, eig2_64, eta_bar_64):
    f = CASES[case](ctx2_64, eig2_64)
    x = _x_samples(ctx2_64, ProbePlan().n_x_samples)
    pmin = (ctx2_64.p.p_min, ctx2_64.p.p_min)
    try:
        want = reference_tail_constants(f, x, eta_bar_64, pmin)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            _tail_constants(f, x, eta_bar_64, pmin)
        assert case in ("asymmetric", "rho_hat_grid_max")
        return
    assert repr(_tail_constants(f, x, eta_bar_64, pmin)) == repr(want)


def test_benchmark_on_variable_exponent_matches_reference(ctxvar_64, eigvar_64):
    f = benchmark_family(ctxvar_64, ctxvar_64, eigvar_64, eigvar_64)
    got = check_hypotheses(f, ctxvar_64, ctxvar_64, eigvar_64, eigvar_64)
    want = reference_check_hypotheses(f, ctxvar_64, ctxvar_64, eigvar_64, eigvar_64)
    assert repr(got) == repr(want)

    sup = construct_supersolution(f, ctxvar_64, ctxvar_64, eigvar_64, eigvar_64)
    x = _x_samples(ctxvar_64, ProbePlan().n_x_samples)
    pmin = (ctxvar_64.p.p_min, ctxvar_64.p.p_min)
    rho, c_rho = reference_tail_constants(f, x, sup.constants["eta_bar"], pmin)
    assert repr((sup.constants["rho"], sup.constants["c_rho"])) == repr((rho, c_rho))


def test_probe_call_count_and_batch_size(ctx2_64, eig2_64):
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    sizes = []

    def counted(fi):
        def wrapper(x, s1, s2):
            sizes.append(len(np.atleast_2d(x)))
            return fi(x, s1, s2)

        return wrapper

    f.f1, f.f2 = counted(f.f1), counted(f.f2)
    check_hypotheses(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    construct_supersolution(f, ctx2_64, ctx2_64, eig2_64, eig2_64)
    n_x = len(_x_samples(ctx2_64, ProbePlan().n_x_samples))
    # the per-state loops made tens of thousands of calls
    assert len(sizes) <= 1000
    assert max(sizes) <= 100 * n_x


def test_f_on_states_rows_match_single_state_calls(ctx2_64, eig2_64):
    f = benchmark_family(ctx2_64, ctx2_64, eig2_64, eig2_64)
    x = _x_samples(ctx2_64, ProbePlan().n_x_samples)
    rng = np.random.default_rng(7)
    own, part = rng.standard_normal(250), rng.standard_normal(250)
    sizes = []

    def f1(xx, s1, s2):
        sizes.append(len(xx))
        return f.f1(xx, s1, s2)

    rows = _f_on_states(f1, x, own, part)
    assert rows.shape == (250, len(x))
    assert max(sizes) <= 100 * len(x)
    for j in range(250):
        want = f.f1(x, np.full(len(x), own[j]), np.full(len(x), part[j]))
        assert np.array_equal(rows[j], want)
