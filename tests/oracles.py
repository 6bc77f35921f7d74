"""Independent oracles used to freeze expected values in the tests.

Everything here avoids the library's assembly/solver path: closed-form
antiderivatives, scipy adaptive quadrature with scalar root finding, and
shooting integrations of the underlying ODEs.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq


def torsion_exact(p: float, x: np.ndarray) -> np.ndarray:
    """Solution of -(|u'|^(p-2) u')' = 1 on (0,1), zero boundary (constant p).

    Integrating the flux from the symmetry point: |u'|^(p-2) u' = 1/2 - x,
    hence u(x) = (p-1)/p * ((1/2)^q - |x - 1/2|^q) with q = p/(p-1).
    """
    q = p / (p - 1.0)
    return (p - 1.0) / p * (0.5**q - np.abs(x - 0.5) ** q)


def constant_p_eigenvalue(p: float, length: float = 1.0) -> float:
    """First eigenvalue of the constant-p 1D problem on an interval."""
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def eigenvalue_by_shooting(p: float, length: float = 1.0) -> float:
    """Shooting oracle for the constant-p eigenvalue, independent of the
    closed form: integrate u' = |w|^(q-2) w, w' = -lam |u|^(p-2) u from
    u(0)=0, w(0)=1 and find lam making u vanish at the right endpoint while
    staying positive inside."""
    q = p / (p - 1.0)

    def endpoint_value(lam):
        def rhs(x, y):
            u, w = y
            du = np.abs(w) ** (q - 2.0) * w if w != 0 else 0.0
            dw = -lam * np.abs(u) ** (p - 2.0) * u if u != 0 else 0.0
            return [du, dw]

        sol = solve_ivp(
            rhs, (0.0, length), [0.0, 1.0], rtol=1e-10, atol=1e-12, dense_output=True
        )
        return sol.y[0, -1]

    guess = constant_p_eigenvalue(p, length)
    return brentq(endpoint_value, 0.5 * guess, 1.5 * guess, xtol=1e-10)


def luxemburg_constant_field(c: float, p_of_x, a: float = 0.0, b: float = 1.0) -> float:
    """Luxemburg norm of the constant field c on (a, b) by adaptive
    quadrature plus scalar root finding on tau."""

    def deficit(tau):
        val, _ = quad(lambda x: (c / tau) ** p_of_x(x), a, b, limit=200)
        return val - 1.0

    lo, hi = 1e-8, max(10.0 * c, 1.0)
    return brentq(deficit, lo, hi, xtol=1e-13)


def bratu_solutions_by_shooting(lam: float = 1.0) -> list:
    """Both positive solutions of -u'' = lam * exp(u) on (0,1) by shooting.

    Returns the list of (initial_slope, midpoint_value) sorted by size; the
    problem has exactly two solutions for lam below the fold point ~3.5138.
    """

    def endpoint(s):
        def rhs(x, y):
            return [y[1], -lam * np.exp(y[0])]

        sol = solve_ivp(rhs, (0.0, 1.0), [0.0, s], rtol=1e-10, atol=1e-12)
        return sol.y[0, -1]

    # bracket the two roots of endpoint(s): small-branch slope is near
    # lam/2, the large branch sits beyond the fold
    slopes = []
    grid = np.linspace(0.05, 30.0, 400)
    vals = [endpoint(s) for s in grid]
    for k in range(len(grid) - 1):
        if vals[k] == 0.0 or vals[k] * vals[k + 1] < 0:
            slopes.append(brentq(endpoint, grid[k], grid[k + 1], xtol=1e-12))
    out = []
    for s in slopes:
        def rhs(x, y):
            return [y[1], -lam * np.exp(y[0])]

        sol = solve_ivp(
            rhs, (0.0, 1.0), [0.0, s], rtol=1e-10, atol=1e-12, dense_output=True
        )
        out.append((s, float(sol.sol(0.5)[0])))
    return sorted(out, key=lambda t: t[1])


def bratu_profile(lam: float, slope: float, x: np.ndarray) -> np.ndarray:
    """Shooting profile of the Bratu problem for a given initial slope."""

    def rhs(t, y):
        return [y[1], -lam * np.exp(y[0])]

    sol = solve_ivp(
        rhs, (0.0, 1.0), [0.0, slope], rtol=1e-10, atol=1e-12, dense_output=True
    )
    return sol.sol(x)[0]


def luxemburg_by_bisection(values_qp, p_qp, weights, tol=1e-10):
    """Luxemburg norm of per-quadrature-point values by bracketing plus bisection.

    The modular is the weighted sum of |v / tau|^p; tau is bracketed by
    doubling or halving from 1 and then bisected until the modular is within
    ``tol`` of 1.  Returns (tau, |modular(v / tau) - 1|).
    """
    values = np.abs(np.asarray(values_qp, dtype=float))

    def rho(tau):
        with np.errstate(over="ignore"):
            return float(np.add.reduce(weights * (values / tau) ** p_qp, axis=None))

    lo = hi = 1.0
    r = rho(1.0)
    if r >= 1.0:
        while r > 1.0:
            lo, hi = hi, 2.0 * hi
            r = rho(hi)
    else:
        while r < 1.0:
            hi, lo = lo, 0.5 * lo
            r = rho(lo)
    tau, res = hi, abs(rho(hi) - 1.0)
    for _ in range(400):
        if res <= tol:
            break
        mid = 0.5 * (lo + hi)
        rm = rho(mid)
        if rm >= 1.0:
            lo = mid
        else:
            hi = mid
        if abs(rm - 1.0) < res:
            tau, res = mid, abs(rm - 1.0)
    return tau, res
