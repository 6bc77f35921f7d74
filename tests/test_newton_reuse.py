"""Work the Newton and Picard loops build once: the plan's block layout, the
point fields of the reference loads and the norms of the Picard sweeps; and
the one frozen-norm Picard loop that serves the coupled and the scalar solves.

Each test keeps the straightforward construction as its reference and asks
for bit-identical results.
"""

import numpy as np
import pytest

from pxlap.exponents import ExponentField
from pxlap.existence import System, benchmark_family
from pxlap.mesh import GridFunction, Mesh, build_interval_mesh, build_rectangle_mesh, dilate_domain
import pxlap.multiplicity as multiplicity
from pxlap.modular import sobolev_norm
from pxlap.multiplicity import (
    HomotopyConfig,
    _homotopy_loads,
    nonexistence_probe,
    solve_coupled,
    solve_homotopy_system,
)
from pxlap.operator import (
    OperatorContext,
    _mass_block,
    assemble_jacobian,
    assembly_plan,
    dirichlet_solve,
    semilinear_solve,
)
from conftest import _ref_matrix, load_at_qp, random_dirichlet_field

_MESHES = {
    "interval64": lambda: build_interval_mesh(0.0, 1.0, 64),
    "rect16x12": lambda: build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12),
    "dilated": lambda: dilate_domain(build_rectangle_mesh(0.0, 0.0, 1.0, 0.75, 16, 12), 0.25),
}


def _same_csc(a, b):
    return all(
        np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
        for name in ("indptr", "indices", "data")
    ) and a.shape == b.shape


@pytest.mark.parametrize("case", list(_MESHES))
def test_plan_matrix_equals_reference_bmat(case):
    mesh = _MESHES[case]()
    ctx = OperatorContext(mesh, ExponentField(mesh, "2.5 + 0.5*x"))
    rng = np.random.default_rng(3)
    shape = (mesh.n_elements, mesh.n_qp)
    v = random_dirichlet_field(mesh, rng).values
    J11 = assemble_jacobian(ctx, v, eps=1e-4) - _mass_block(mesh, rng.standard_normal(shape))
    J22 = assemble_jacobian(ctx, -v, eps=1e-2) - _mass_block(mesh, rng.standard_normal(shape))
    J12 = -_mass_block(mesh, rng.standard_normal(shape))
    J21 = -_mass_block(mesh, np.zeros(shape))  # explicit zeros stay in the pattern
    plan = assembly_plan(mesh)
    blocks = [[J11, J12], [J21, J22]]
    A = plan.matrix(blocks)
    assert _same_csc(A, _ref_matrix(mesh, blocks))
    assert A.nnz == 4 * len(plan.indices) and np.count_nonzero(A.data == 0.0) >= len(plan.indices)
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert _same_csc(plan.matrix([[J11]]), _ref_matrix(mesh, [[J11]]))
    swapped = [[J22, J21], [J12, J11]]
    assert _same_csc(plan.matrix(swapped), _ref_matrix(mesh, swapped))


def _interval_problem():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    return OperatorContext(mesh, ExponentField(mesh, "1.8 + 0.6*x"))


def _scalar_solve(ctx):
    return dirichlet_solve(ctx, load_at_qp(ctx.mesh, lambda pts: 1.0 + np.sin(3.0 * pts[:, 0]) ** 2))


def _coupled_solve(ctx):
    seed = random_dirichlet_field(ctx.mesh, np.random.default_rng(5), scale=0.05)

    def g1(pts, s1, s2):
        return 1.0 + 0.5 * np.tanh(s2)

    def g2(pts, s1, s2):
        return 2.0 + 0.3 * np.tanh(s1) * pts[:, 0]

    return solve_coupled(ctx, ctx, g1, g2, seed, seed)


def _outcome(rep):
    fields = [rep.u] if hasattr(rep, "u") else [rep.u1, rep.u2]
    return [f.values.tobytes() for f in fields], rep.residual, rep.iterations, rep.converged


def test_interleaved_block_counts_match_fresh_meshes():
    shared = _interval_problem()
    for solve in (_scalar_solve, _coupled_solve, _scalar_solve, _coupled_solve):
        rep = solve(shared)
        assert rep.converged and rep.iterations > 0
        assert _outcome(rep) == _outcome(solve(_interval_problem()))
    assert set(assembly_plan(shared.mesh)._blocks) == {1, 2}


@pytest.fixture(scope="module")
def var_problem():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    ctx = OperatorContext(mesh, ExponentField(mesh, "2 + 0.1*x"))
    system = System.build(ctx, ctx)
    return ctx, system.eigs[0], system


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_nonexistence_probe_locates_a_few_times(var_problem, monkeypatch):
    ctx, eig, system = var_problem
    locates = _count_calls(monkeypatch, Mesh, "locate")
    report = nonexistence_probe(ctx, eig, J=0.3 * eig.lambda1, delta=1e-3, attempts=10)
    assert report.applicable and len(report.attempts) == 10
    assert len(locates) <= 5


def test_homotopy_system_reports_the_norms_of_its_solution(var_problem):
    ctx, eig, system = var_problem
    f = benchmark_family(system)
    cfg = HomotopyConfig()
    seed = eig.phi.with_values(2.0 * eig.phi.values)
    rep = solve_homotopy_system(cfg, 0.5, f, system, seed, seed)
    assert rep.picard_sweeps > 1
    assert rep.norms == (sobolev_norm(rep.u1, ctx.p), sobolev_norm(rep.u2, ctx.p))


# ---------------------------------------------------------------------------
# the two Picard loops that `multiplicity._picard` replaced


def _ref_solve_homotopy_system(cfg, t, f, system, seed1, seed2, picard_max=20, picard_rtol=1e-8):
    ctx1, ctx2 = system.ctxs
    u1, u2 = seed1, seed2
    rep = None
    prev = (sobolev_norm(u1, ctx1.p), sobolev_norm(u2, ctx2.p))
    for sweeps in range(1, picard_max + 1):
        dens = (max(1.0, prev[0]), max(1.0, prev[1]))
        g1, g2 = _homotopy_loads(cfg, t, dens, f, system)
        rep = solve_coupled(ctx1, ctx2, g1, g2, u1, u2)
        u1, u2 = rep.u1, rep.u2
        cur = (sobolev_norm(u1, ctx1.p), sobolev_norm(u2, ctx2.p))
        change = max(
            abs(cur[0] - prev[0]) / max(1.0, cur[0]),
            abs(cur[1] - prev[1]) / max(1.0, cur[1]),
        )
        prev = cur
        if change <= picard_rtol:
            break
    rep.picard_sweeps = sweeps
    rep.norms = prev
    return rep


def _ref_solve_scalar_reference(ctx, eig, J, delta, seed, picard_max=20, picard_rtol=1e-8):
    """The old scalar loop on the closed-form load J (s+)^(p-1) / den^(p-1)
    + delta lambda1 phi1^(p-1); also returns its sweep count, which it never
    kept."""
    pm1 = ctx.p.qp.ravel() - 1.0
    shift = delta * eig.lambda1 * eig.phi.eval(ctx.mesh.quad_points_flat) ** pm1
    u = seed
    rep = None
    prev = sobolev_norm(u, ctx.p)
    sweeps = 0
    for _ in range(picard_max):
        sweeps += 1
        den_pm1 = max(1.0, prev) ** pm1

        def g(points, s):
            return J * np.clip(s, 0.0, None) ** pm1 / den_pm1 + shift

        rep = semilinear_solve(ctx, g, initial=u)
        u = rep.u
        cur = sobolev_norm(u, ctx.p)
        if abs(cur - prev) <= picard_rtol * max(1.0, cur):
            prev = cur
            break
        prev = cur
    return rep, sweeps, prev


def _coupled_outcome(rep):
    return (
        rep.u1.values.tobytes(), rep.u2.values.tobytes(), rep.residual,
        rep.iterations, rep.converged, rep.picard_sweeps, rep.norms,
    )


def test_homotopy_system_matches_reference_loop(var_problem):
    ctx, eig, system = var_problem
    f = benchmark_family(system)
    cfg = HomotopyConfig()
    rng = np.random.default_rng(17)
    random = random_dirichlet_field(ctx.mesh, rng, scale=0.5)
    seeds = [GridFunction.zeros(ctx.mesh), eig.phi.with_values(2.0 * eig.phi.values), random]
    sweeps = set()
    for t in (0.0, 0.5, 1.0):
        for seed in seeds:
            got = solve_homotopy_system(cfg, t, f, system, seed, random)
            want = _ref_solve_homotopy_system(cfg, t, f, system, seed, random)
            assert _coupled_outcome(got) == _coupled_outcome(want)
            sweeps.add(got.picard_sweeps)
    assert max(sweeps) > 1


# at delta = 0.5 the solutions have norm about 1.9, so the max{1, ||u||} cap
# is active and the loop runs a dozen sweeps
@pytest.mark.parametrize("delta", [1e-2, 0.5])
def test_nonexistence_probe_attempts_match_reference_loop(var_problem, delta, monkeypatch):
    ctx, eig, system = var_problem
    J = 0.3 * eig.lambda1
    runs = []
    picard = multiplicity._picard

    def recorded(ctxs, solve, seeds):
        out = picard(ctxs, solve, seeds)
        runs.append((seeds[0], out))
        return out

    monkeypatch.setattr(multiplicity, "_picard", recorded)
    report = nonexistence_probe(ctx, eig, J=J, delta=delta, attempts=7)
    monkeypatch.undo()
    tags = [a.tag.split()[0] for a in report.attempts]
    assert tags == ["zero", "eig", "eig", "eig", "random", "random", "random"]
    for attempt, (seed, (rep, sweeps, (norm,))) in zip(report.attempts, runs, strict=True):
        want, want_sweeps, want_norm = _ref_solve_scalar_reference(ctx, eig, J, delta, seed)
        assert _outcome(rep) == _outcome(want)
        assert (sweeps, norm) == (want_sweeps, want_norm)
        assert attempt.residual == want.residual and attempt.norm == want_norm
    assert max(sweeps for _, (_, sweeps, _) in runs) > 1
