"""Independent oracles used to freeze expected values in the tests.

Everything here avoids the library's assembly/solver path: closed-form
antiderivatives, scipy adaptive quadrature with scalar root finding, and
shooting integrations of the underlying ODEs.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, root


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


def variable_p_eigenpair_by_shooting(p, a: float = 0.0, b: float = 1.0):
    """First eigenpair of -(|u'|^(p(x)-2) u')' = lam |u|^(p(x)-2) u on (a, b),
    u(a) = u(b) = 0, u > 0 inside, normalized by the modular int |u|^p = 1.

    For variable p the eigenvalue depends on that normalization.  With the
    flux w = |u'|^(p-2) u' the equation is the first-order system
        u' = sgn(w) |w|^(1/(p-1)),  w' = -lam |u|^(p-2) u,
    shot from u(a) = 0, w(a) = A with the modular m' = |u|^p alongside
    (DOP853, rtol 1e-12).  (A, lam) solves u(b) = 0 and m(b) = 1, by
    Powell's hybrid method from the constant-exponent pair at p((a + b) / 2);
    a zero of u inside (a, b) is an error.  ``p`` is a callable of a scalar
    x.  Returns lam and u as a callable of a point array.
    """

    def shoot(A, lam, dense=False):
        def rhs(x, y):
            u, w, _ = y
            px = p(x)
            return [
                math.copysign(abs(w) ** (1.0 / (px - 1.0)), w),
                -lam * math.copysign(abs(u) ** (px - 1.0), u),
                abs(u) ** px,
            ]

        return solve_ivp(
            rhs, (a, b), [0.0, A, 0.0], method="DOP853", rtol=1e-12, atol=1e-14,
            dense_output=dense,
        )

    # the constant-exponent start: u scales as A^(1/(p-1)), its modular as
    # A^(p/(p-1))
    p_mid = p(0.5 * (a + b))
    lam0 = constant_p_eigenvalue(p_mid, b - a)
    A0 = shoot(1.0, lam0).y[2, -1] ** (-(p_mid - 1.0) / p_mid)

    def ends(z):
        u_b, _, m_b = shoot(z[0], z[1]).y[:, -1]
        return [u_b, m_b - 1.0]

    found = root(ends, [A0, lam0], method="hybr", options={"xtol": 1e-13})
    if not np.max(np.abs(found.fun)) <= 1e-11:
        raise RuntimeError(f"shooting did not converge: {found.message}")
    A, lam = (float(z) for z in found.x)
    sol = shoot(A, lam, dense=True)
    inner = np.linspace(a, b, 2001)[1:-1]
    if not np.all(sol.sol(inner)[0] > 0):
        raise RuntimeError("the shot profile vanishes inside (a, b): not the first eigenpair")
    return lam, lambda x: sol.sol(np.asarray(x, dtype=float))[0]
