"""Command-line front end: config parsing, run orchestration, report emission.

Every run writes a deterministic ``summary.json`` (schema-versioned, sorted
keys, effective config embedded) plus solution CSVs; volatile metadata such
as timestamps goes to a separate ``runmeta.json`` so repeated runs with the
same config and seed are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 solver non-convergence,
3 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, PxlapError
from .eigen import enlarged_eigenpair, first_eigenpair
from .existence import (
    Nonlinearity,
    benchmark_family,
    build_ordered_box,
    check_hypotheses,
    negative_solutions,
    solve_in_box,
)
from .exponents import ExponentField
from .expressions import coordinate_expression, state_expression
from .mesh import (
    GridFunction,
    build_interval_mesh,
    build_rectangle_mesh,
    load_grid_function_csv,
)
from .modular import check_norm_modular, luxemburg_norm
from .multiplicity import (
    HomotopyConfig,
    annulus_search,
    boundedness_probe,
    continuation,
    nonexistence_probe,
)
from .operator import OperatorContext, comparison_check, dirichlet_solve, mean_value_constant, picone

SCHEMA_VERSION = 1

# key -> (type, default, help); a 0 default on radii/margin means auto-size
_SCHEMA = {
    "mesh.kind": (str, "interval", "interval | rectangle"),
    "mesh.a": (float, 0.0, "interval left endpoint"),
    "mesh.b": (float, 1.0, "interval right endpoint"),
    "mesh.n": (int, 256, "interval element count"),
    "mesh.ax": (float, 0.0, "rectangle corner"),
    "mesh.ay": (float, 0.0, "rectangle corner"),
    "mesh.bx": (float, 1.0, "rectangle corner"),
    "mesh.by": (float, 1.0, "rectangle corner"),
    "mesh.nx": (int, 16, "rectangle cells in x"),
    "mesh.ny": (int, 16, "rectangle cells in y"),
    "p1.expr": (str, "2", "first exponent expression"),
    "p2.expr": (str, "2", "second exponent expression"),
    "p1.table": (str, "", "CSV nodal table overriding p1.expr"),
    "p2.table": (str, "", "CSV nodal table overriding p2.expr"),
    "f1.expr": (str, "", "f1(x[,y],s1,s2) expression"),
    "f2.expr": (str, "", "f2(x[,y],s1,s2) expression"),
    "f.benchmark": (bool, True, "use the built-in benchmark family"),
    "f.amplitude_factor": (float, 2.5, "benchmark amplitude over threshold"),
    "f.eta_factor": (float, 1.1, "declared eta over threshold"),
    "eta1": (float, 0.0, "declared growth constant (with f1.expr)"),
    "eta2": (float, 0.0, "declared growth constant (with f2.expr)"),
    "margin": (float, 0.0, "domain dilation margin; 0 = default quarter diameter"),
    "solver.tol": (float, 1e-10, "Newton residual tolerance"),
    "solver.max_iter": (int, 80, "Newton iteration cap"),
    "solver.eps_reg": (float, 1e-10, "gradient regularization"),
    "tol.increment": (float, 1e-9, "monotone-iteration increment tolerance"),
    "tol.residual": (float, 1e-8, "system residual tolerance"),
    "homotopy.family": (str, "tilde", "tilde (the only family the trace runs)"),
    "homotopy.J_fraction": (float, 0.5, "J_i as a fraction of the spectral bound"),
    "homotopy.delta": (float, 1e-3, "shift of the nonexistence probe"),
    "homotopy.t_steps": (int, 11, "number of t-grid points"),
    "homotopy.R": (float, 0.0, "outer radius; 0 = auto"),
    "homotopy.R_tilde": (float, 0.0, "trace radius; 0 = auto"),
    "homotopy.R_hat": (float, 0.0, "box radius; 0 = auto"),
    "homotopy.seeds": (int, 50, "multi-start attempt count"),
    "homotopy.rng_seed": (int, 42, "random seed recorded in reports"),
    "output.dir": (str, ".", "artifact directory"),
    "output.formats": (str, "json,csv", "emitted artifact kinds: json, optionally csv"),
    "verify.samples": (int, 100, "random samples per lemma in `verify`"),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def effective(self) -> dict:
        return dict(sorted(self.values.items()))


def _coerce(raw, typ):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    value = typ(raw)
    # NaN passes every range check of _validate, and inf most of them
    if typ is float and not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def parse_config(path) -> RunConfig:
    """Parse a flat dotted-key config file, reporting every error at once."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    values = {k: d for k, (_, d, _) in _SCHEMA.items()}
    errors = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            errors.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        typ = _SCHEMA[key][0]
        try:
            values[key] = _coerce(raw, typ)
        except ValueError as exc:
            errors.append(f"{path}:{lineno}: bad value for {key}: {exc}")
    cfg = RunConfig(values)
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def default_config() -> RunConfig:
    return RunConfig({k: d for k, (_, d, _) in _SCHEMA.items()})


def _probe_points(v: dict, dim: int) -> np.ndarray:
    """A 9-point (1D) or 9x9 (2D) grid over the configured domain, on which
    every expression is evaluated once during validation."""
    if dim == 1:
        return np.linspace(v["mesh.a"], v["mesh.b"], 9)[:, None]
    gx, gy = np.meshgrid(
        np.linspace(v["mesh.ax"], v["mesh.bx"], 9), np.linspace(v["mesh.ay"], v["mesh.by"], 9)
    )
    return np.column_stack([gx.ravel(), gy.ravel()])


def _validate(cfg: RunConfig) -> list:
    errors = []
    v = cfg.values
    if v["mesh.kind"] not in ("interval", "rectangle"):
        errors.append(f"mesh.kind must be interval or rectangle, got {v['mesh.kind']!r}")
    for key in ("solver.tol", "tol.increment", "tol.residual"):
        if v[key] <= 0:
            errors.append(f"{key} must be positive")
    if v["homotopy.family"] != "tilde":
        errors.append(
            f"homotopy.family must be tilde, got {v['homotopy.family']!r}: the "
            "trivial_at_t0 witness needs the tilde family, and the delta shift "
            "enters only through the nonexistence probe (homotopy.delta)"
        )
    formats = {entry.strip() for entry in v["output.formats"].split(",")}
    if "json" not in formats or not formats <= {"json", "csv"}:
        errors.append(
            f"output.formats must list json and optionally csv, got "
            f"{v['output.formats']!r}: summary.json is always written"
        )
    if v["homotopy.t_steps"] < 2:
        errors.append("homotopy.t_steps must be at least 2")
    # a probe or lemma suite of zero samples would pass without evidence, and
    # a Newton solve of zero iterations would return its seed
    for key in ("homotopy.seeds", "verify.samples", "solver.max_iter"):
        if v[key] < 1:
            errors.append(f"{key} must be at least 1")
    # a negative eps_reg would fail later with a traceback, and a negative
    # margin or radius would silently mean auto-size, as 0 does
    for key in ("solver.eps_reg", "margin", "homotopy.R", "homotopy.R_hat", "homotopy.R_tilde"):
        if v[key] < 0:
            errors.append(f"{key} must be >= 0")
    if not 0.0 < v["homotopy.J_fraction"] < 1.0:
        errors.append("homotopy.J_fraction must lie in (0, 1)")
    dim = 1 if v["mesh.kind"] == "interval" else 2
    # evaluate every expression once: an exponent must be finite on the
    # domain, an f expression must at least not raise
    pts = _probe_points(v, dim)
    probes = [(key, coordinate_expression, (pts,), True) for key in ("p1.expr", "p2.expr")]
    probes += [
        (key, state_expression, (pts, 1.0, 1.0), False)
        for key in ("f1.expr", "f2.expr")
        if v[key]
    ]
    for key, build, args, need_finite in probes:
        try:
            fn = build(v[key], dim)
            with np.errstate(all="ignore"):
                values = fn(*args)
        except ConfigError as exc:
            errors.extend(f"{key}: {e}" for e in exc.errors)
        except (ArithmeticError, TypeError, ValueError) as exc:
            errors.append(f"{key}: evaluation failed: {exc}")
        else:
            if need_finite and not np.all(np.isfinite(values)):
                errors.append(f"{key}: not finite at every probe point of the domain")
    if (v["f1.expr"] == "") != (v["f2.expr"] == ""):
        errors.append("f1.expr and f2.expr must be given together")
    if v["f1.expr"] and v["f.benchmark"]:
        errors.append("set f.benchmark = false when giving explicit f expressions")
    if v["f1.expr"] and (v["eta1"] <= 0 or v["eta2"] <= 0):
        errors.append("explicit nonlinearities need positive eta1 and eta2")
    return errors


# ---------------------------------------------------------------------------
# problem assembly from a config


def build_mesh(cfg: RunConfig):
    v = cfg.values
    if v["mesh.kind"] == "interval":
        return build_interval_mesh(v["mesh.a"], v["mesh.b"], v["mesh.n"])
    return build_rectangle_mesh(
        v["mesh.ax"], v["mesh.ay"], v["mesh.bx"], v["mesh.by"], v["mesh.nx"], v["mesh.ny"]
    )


def build_contexts(cfg: RunConfig):
    mesh = build_mesh(cfg)
    v = cfg.values
    fields = []
    for i in (1, 2):
        table = v[f"p{i}.table"]
        if i == 2 and table == v["p1.table"] and v["p2.expr"] == v["p1.expr"]:
            fields.append(fields[0])  # identical spec: share the field
        elif table:
            gf = load_grid_function_csv(table, mesh)
            fields.append(ExponentField(mesh, gf))
        else:
            fields.append(ExponentField(mesh, v[f"p{i}.expr"]))
    ctxs = [
        OperatorContext(
            mesh,
            p,
            eps_reg=v["solver.eps_reg"],
            newton_max_iter=v["solver.max_iter"],
            newton_tol=v["solver.tol"],
        )
        for p in fields
    ]
    return mesh, ctxs[0], ctxs[1]


def build_nonlinearity(cfg: RunConfig, ctx1, ctx2, eig1, eig2) -> Nonlinearity:
    v = cfg.values
    if v["f1.expr"]:
        dim = ctx1.mesh.dimension
        return Nonlinearity(
            f1=state_expression(v["f1.expr"], dim),
            f2=state_expression(v["f2.expr"], dim),
            eta1=v["eta1"],
            eta2=v["eta2"],
            name="config",
        )
    return benchmark_family(
        ctx1, ctx2, eig1, eig2,
        amplitude_factor=v["f.amplitude_factor"],
        eta_factor=v["f.eta_factor"],
    )


# ---------------------------------------------------------------------------
# artifact helpers


def _write_json(outdir: Path, name: str, payload: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)
    (outdir / name).write_text(text + "\n")


def _emit(outdir: Path, command: str, cfg: RunConfig, payload: dict, quiet: bool):
    effective = cfg.effective()
    effective.pop("output.dir", None)  # per-run path, lives in runmeta
    summary = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "effective_config": effective,
    }
    summary.update(payload)
    _write_json(outdir, "summary.json", summary)
    _write_json(
        outdir,
        "runmeta.json",
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "version": __version__,
            "output_dir": str(outdir),
        },
    )
    if not quiet:
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=True))


def _seeded(cfg: RunConfig, override):
    seed = cfg.values["homotopy.rng_seed"] if override is None else override
    cfg.values["homotopy.rng_seed"] = int(seed)
    return int(seed)


# ---------------------------------------------------------------------------
# commands


def _exponent_warnings(*ctxs) -> list:
    seen = []
    for ctx in ctxs:
        w = ctx.p.embedding_warning
        if w and w not in seen:
            seen.append(w)
    return seen


def cmd_eig(cfg: RunConfig, outdir: Path, quiet: bool, margin: float | None) -> int:
    mesh, ctx1, _ = build_contexts(cfg)
    pair = first_eigenpair(ctx1, allow_unchecked_exponent=False)
    payload = {"eigen": pair.summary(), "warnings": _exponent_warnings(ctx1)}
    if margin is not None:
        enl = enlarged_eigenpair(ctx1, margin)
        payload["enlarged"] = {
            "lambda1": enl.pair.lambda1,
            "tau": enl.tau,
            "margin": enl.margin,
        }
    if _csv(cfg):
        outdir.mkdir(parents=True, exist_ok=True)
        pair.phi.save_csv(outdir / "eigenfunction.csv")
        if margin is not None:
            enl.phi_restricted.save_csv(outdir / "eigenfunction_enlarged.csv")
    _emit(outdir, "eig", cfg, payload, quiet)
    return 0


def _csv(cfg: RunConfig) -> bool:
    return "csv" in cfg.values["output.formats"]


def cmd_norm(cfg: RunConfig, outdir: Path, quiet: bool, input_csv: str) -> int:
    mesh, ctx1, _ = build_contexts(cfg)
    u = load_grid_function_csv(input_csv, mesh)
    rep = luxemburg_norm(u, ctx1.p)
    payload = {
        "norm": {
            "modular": rep.modular,
            "norm": rep.norm,
            "residual": rep.residual,
            "iterations": rep.iterations,
        }
    }
    _emit(outdir, "norm", cfg, payload, quiet)
    return 0


def cmd_solve(cfg: RunConfig, outdir: Path, quiet: bool, rhs_expr: str) -> int:
    mesh, ctx1, _ = build_contexts(cfg)
    rhs = coordinate_expression(rhs_expr, mesh.dimension)
    # evaluated once where the solve uses it: a rhs that raises or is not
    # finite at a quadrature point is a config error, not a NaN load
    try:
        with np.errstate(all="ignore"):
            rhs_qp = rhs(mesh.quad_points_flat)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError([f"--rhs {rhs_expr!r}: evaluation failed: {exc}"]) from exc
    if not np.all(np.isfinite(rhs_qp)):
        raise ConfigError([f"--rhs {rhs_expr!r}: not finite at every quadrature point"])
    rep = dirichlet_solve(ctx1, rhs_qp.reshape(mesh.n_elements, mesh.n_qp))
    payload = {
        "solve": {
            "converged": rep.converged,
            "residual": rep.residual,
            "iterations": rep.iterations,
        }
    }
    if _csv(cfg):
        outdir.mkdir(parents=True, exist_ok=True)
        rep.u.save_csv(outdir / "solution.csv")
    _emit(outdir, "solve", cfg, payload, quiet)
    return 0 if rep.converged else 2


def _prepare_system(cfg: RunConfig):
    mesh, ctx1, ctx2 = build_contexts(cfg)
    eig1 = first_eigenpair(ctx1)
    eig2 = eig1 if ctx2.p is ctx1.p else first_eigenpair(ctx2)
    f = build_nonlinearity(cfg, ctx1, ctx2, eig1, eig2)
    return mesh, ctx1, ctx2, eig1, eig2, f


def cmd_theorem1(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    v = cfg.values
    mesh, ctx1, ctx2, eig1, eig2, f = _prepare_system(cfg)
    hyp = check_hypotheses(f, ctx1, ctx2, eig1, eig2)
    margin = v["margin"] if v["margin"] > 0 else None
    box = build_ordered_box(f, ctx1, ctx2, eig1, eig2, margin=margin, hyp=hyp)
    pos = solve_in_box(
        box, f, ctx1, ctx2,
        increment_tol=v["tol.increment"], residual_tol=v["tol.residual"],
    )
    neg = negative_solutions(
        box, f, ctx1, ctx2, hyp=hyp,
        increment_tol=v["tol.increment"], residual_tol=v["tol.residual"],
    )
    payload = {
        "hypotheses": hyp.summary(),
        "constants": box.constants,
        "box_verification": box.verification.summary(),
        "positive": pos.summary(),
        "negative": neg.summary(),
        "warnings": _exponent_warnings(ctx1, ctx2),
    }
    if _csv(cfg):
        outdir.mkdir(parents=True, exist_ok=True)
        pos.u1.save_csv(outdir / "u1_positive.csv")
        pos.u2.save_csv(outdir / "u2_positive.csv")
        neg.u1.save_csv(outdir / "u1_negative.csv")
        neg.u2.save_csv(outdir / "u2_negative.csv")
    _emit(outdir, "theorem1", cfg, payload, quiet)
    if not (pos.converged and neg.converged):
        return 2
    return 0


def _homotopy_config(cfg: RunConfig, ctx1, ctx2, eig1, eig2) -> HomotopyConfig:
    v = cfg.values
    kwargs = {
        "family": v["homotopy.family"],
        "t_grid": tuple(np.round(np.linspace(0.0, 1.0, v["homotopy.t_steps"]), 12)),
        "rng_seed": v["homotopy.rng_seed"],
    }
    for key, name in (("homotopy.R", "R"), ("homotopy.R_hat", "R_hat")):
        if v[key] > 0:
            kwargs[name] = v[key]
    return HomotopyConfig.for_problem(
        ctx1, ctx2, eig1, eig2, J_fraction=v["homotopy.J_fraction"], **kwargs
    )


def cmd_theorem2(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    v = cfg.values
    mesh, ctx1, ctx2, eig1, eig2, f = _prepare_system(cfg)
    hyp = check_hypotheses(f, ctx1, ctx2, eig1, eig2)
    box = build_ordered_box(
        f, ctx1, ctx2, eig1, eig2,
        margin=v["margin"] if v["margin"] > 0 else None, hyp=hyp,
    )
    pos = solve_in_box(
        box, f, ctx1, ctx2,
        increment_tol=v["tol.increment"], residual_tol=v["tol.residual"],
    )
    if not pos.converged:
        _emit(outdir, "theorem2", cfg, {"error": "base solution did not converge"}, quiet)
        return 2

    hcfg = _homotopy_config(cfg, ctx1, ctx2, eig1, eig2)
    trace = continuation(hcfg, f, ctx1, ctx2, eig1, eig2)
    bnd = boundedness_probe(trace, R=v["homotopy.R_tilde"] if v["homotopy.R_tilde"] > 0 else None)
    probe = nonexistence_probe(
        ctx1, eig1,
        J=0.5 * eig1.lambda1 * (ctx1.p.p_min - 1.0),
        delta=v["homotopy.delta"],
        attempts=v["homotopy.seeds"],
        rng_seed=v["homotopy.rng_seed"],
    )
    triviality = all(s.pair_norm <= 1e-8 for s in trace.at_t(0.0).solutions)
    ann = annulus_search(hcfg, f, ctx1, ctx2, box, (pos.u1, pos.u2), eig1, eig2)

    payload = {
        "trace": trace.summary(),
        "boundedness": bnd.summary(),
        "nonexistence_probe": probe.summary(),
        "trivial_at_t0": triviality,
        "annulus": ann.summary(),
        "conventions": {
            "reference_exponent": "p_i(x) - 1 in every reference term",
            "norm_denominator": "component zero-trace Sobolev norm, both families",
        },
        "warnings": _exponent_warnings(ctx1, ctx2),
    }
    if _csv(cfg):
        outdir.mkdir(parents=True, exist_ok=True)
        for k, s in enumerate(ann.solutions):
            s.u1.save_csv(outdir / f"annulus_u1_{k}.csv")
            s.u2.save_csv(outdir / f"annulus_u2_{k}.csv")
        # plot data: one row per continuation step
        with open(outdir / "trace.csv", "w") as fh:
            fh.write("t,solutions,max_pair_norm,max_residual\n")
            for st in trace.steps:
                fh.write(
                    f"{st.t:.12g},{len(st.solutions)},"
                    f"{max((s.pair_norm for s in st.solutions), default=0.0):.17g},"
                    f"{max((s.residual for s in st.solutions), default=0.0):.17g}\n"
                )
    _emit(outdir, "theorem2", cfg, payload, quiet)
    return 0


def cmd_probe_l9(cfg: RunConfig, outdir: Path, quiet: bool, J_fraction: float, delta: float | None) -> int:
    v = cfg.values
    mesh, ctx1, _ = build_contexts(cfg)
    eig = first_eigenpair(ctx1)
    J = J_fraction * eig.lambda1 * (ctx1.p.p_min - 1.0)
    probe = nonexistence_probe(
        ctx1, eig, J=J,
        delta=delta if delta is not None else v["homotopy.delta"],
        attempts=v["homotopy.seeds"],
        rng_seed=v["homotopy.rng_seed"],
    )
    _emit(outdir, "probe-L9", cfg, {"nonexistence_probe": probe.summary()}, quiet)
    return 0


def cmd_verify(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    """Lemma suite on the configured problem; exit 1 on any failure."""
    v = cfg.values
    mesh, ctx1, ctx2 = build_contexts(cfg)
    rng = np.random.default_rng(v["homotopy.rng_seed"])
    n = v["verify.samples"]
    results = {}

    # norm-modular inequality chains + unit-ball identity
    failures = 0
    worst = np.inf
    for _ in range(n):
        vals = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-2, 2)
        rep = check_norm_modular(GridFunction(mesh, vals), ctx1.p)
        worst = min(worst, rep.chain_margin)
        if not rep.ok:
            failures += 1
    results["norm_modular"] = {"samples": n, "failures": failures, "worst_margin": worst}

    # Picone fields
    fail_p = 0
    worst_gap = 0.0
    worst_neg = 0.0
    for _ in range(n):
        w1 = GridFunction(mesh, np.abs(rng.standard_normal(mesh.n_nodes)))
        w2 = GridFunction(mesh, 0.5 + np.abs(rng.standard_normal(mesh.n_nodes)))
        L1, L2 = picone(w1, w2, ctx1.p)
        scale = np.maximum(np.abs(L1), 1.0)
        gap = float(np.max(np.abs(L1 - L2) / scale))
        neg = float(np.min(L1))
        worst_gap = max(worst_gap, gap)
        worst_neg = min(worst_neg, neg)
        if gap > 1e-8 or neg < -1e-10:
            fail_p += 1
    results["picone"] = {
        "samples": n, "failures": fail_p,
        "worst_relative_gap": worst_gap, "worst_negative": worst_neg,
    }

    # mean-value constant
    fail_m = 0
    phi = linear_hat(mesh)
    for k in range(max(10, n // 10)):
        nodal = 1.0 + 1e-6 + 0.97 * rng.random(mesh.n_nodes)
        kfun = GridFunction(mesh, nodal)
        try:
            khat = mean_value_constant(ctx1, kfun.at_qp(), 1.0, 2.0, h=1.0, phi=phi)
        except PxlapError:
            fail_m += 1
            continue
        if not 1.0 < khat < 2.0:
            fail_m += 1
    results["mean_value"] = {"samples": max(10, n // 10), "failures": fail_m}

    # comparison principle
    fail_c = 0
    for k in range(5):
        base = 0.5 + rng.random()
        rep = comparison_check(ctx1, base, base + rng.random())
        if not rep.passed:
            fail_c += 1
    results["comparison"] = {"samples": 5, "failures": fail_c}

    ok = all(r["failures"] == 0 for r in results.values())
    _emit(outdir, "verify", cfg, {"lemmas": results, "passed": ok}, quiet)
    return 0 if ok else 1


def linear_hat(mesh) -> GridFunction:
    """Nonnegative zero-trace test profile (distance-to-boundary shaped)."""
    lo, hi = mesh.bbox
    vals = np.ones(mesh.n_nodes)
    for d in range(mesh.dimension):
        x = mesh.nodes[:, d]
        vals *= np.minimum(x - lo[d], hi[d] - x)
    vals[mesh.boundary_nodes] = 0.0
    return GridFunction(mesh, vals, dirichlet_zero=True)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pxlap",
        description="Numerics for quasilinear systems driven by the p(x)-Laplacian",
    )
    parser.add_argument("--version", action="version", version=f"pxlap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="config file (flat dotted keys)")
        sp.add_argument("--output-dir", default=None, help="artifact directory")
        sp.add_argument("--quiet", action="store_true")
        sp.add_argument("--seed", type=int, default=None, help="override RNG seed")

    sp = sub.add_parser("eig", help="first eigenpair of -Delta_p(x)")
    common(sp)
    sp.add_argument("--p", default=None, help="exponent expression, e.g. '2 + x'")
    sp.add_argument("--mesh", default=None, help="mesh spec, e.g. n=256")
    sp.add_argument("--margin", type=float, default=None, help="also solve on the dilated domain")

    sp = sub.add_parser("norm", help="modular and Luxemburg norm of a nodal CSV")
    common(sp)
    sp.add_argument("--input", required=True, help="nodal CSV (x[,y],value)")
    sp.add_argument("--p", default=None, help="exponent expression")
    sp.add_argument("--mesh", default=None)

    sp = sub.add_parser("solve", help="Dirichlet solve of -Delta_p(x) u = rhs")
    common(sp)
    sp.add_argument("--p", default=None)
    sp.add_argument("--rhs", required=True, help="rhs expression in x[,y]")
    sp.add_argument("--mesh", default=None)

    for name, helptext in (
        ("theorem1", "sub/supersolution construction + monotone iteration"),
        ("theorem2", "homotopy trace, probes and annulus search"),
        ("verify", "lemma verification suite"),
    ):
        sp = sub.add_parser(name, help=helptext)
        common(sp)

    sp = sub.add_parser("probe-L9", help="scalar nonexistence probe")
    common(sp)
    sp.add_argument("--J-fraction", type=float, default=0.5, help="J over the spectral bound")
    sp.add_argument("--delta", type=float, default=None)
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "p", None):
        cfg.values["p1.expr"] = args.p
        cfg.values["p2.expr"] = args.p
        cfg.values["p1.table"] = ""
        cfg.values["p2.table"] = ""
    mesh_spec = getattr(args, "mesh", None)
    if mesh_spec:
        for item in mesh_spec.split(","):
            key, _, raw = item.partition("=")
            key = f"mesh.{key.strip()}"
            if key not in _SCHEMA:
                raise ConfigError([f"unknown mesh key in --mesh: {item!r}"])
            try:
                cfg.values[key] = _coerce(raw, _SCHEMA[key][0])
            except ValueError as exc:
                raise ConfigError([f"bad value in --mesh for {key}: {exc}"]) from None
    if args.output_dir:
        cfg.values["output.dir"] = args.output_dir
    errors = _validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        _seeded(cfg, args.seed)
        cfg = _apply_overrides(cfg, args)
        outdir = Path(cfg.values["output.dir"])
        quiet = bool(args.quiet)
        if args.command == "eig":
            return cmd_eig(cfg, outdir, quiet, args.margin)
        if args.command == "norm":
            return cmd_norm(cfg, outdir, quiet, args.input)
        if args.command == "solve":
            return cmd_solve(cfg, outdir, quiet, args.rhs)
        if args.command == "theorem1":
            return cmd_theorem1(cfg, outdir, quiet)
        if args.command == "theorem2":
            return cmd_theorem2(cfg, outdir, quiet)
        if args.command == "probe-L9":
            return cmd_probe_l9(cfg, outdir, quiet, args.J_fraction, args.delta)
        if args.command == "verify":
            return cmd_verify(cfg, outdir, quiet)
        raise ConfigError([f"unknown command {args.command!r}"])
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 3
    except PxlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
