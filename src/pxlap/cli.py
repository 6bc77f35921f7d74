"""Command-line front end: config parsing, run orchestration, report emission.

Every run writes a deterministic ``summary.json`` (schema-versioned, sorted
keys, effective config embedded) plus solution CSVs; volatile metadata such
as timestamps goes to a separate ``runmeta.json`` so repeated runs with the
same config and seed are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 solver non-convergence,
3 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, HypothesisError, MeshMismatchError, PxlapError
from .eigen import dilated_mesh, enlarged_eigenpair, first_eigenpair
from .existence import (
    Nonlinearity,
    benchmark_family,
    build_ordered_box,
    check_hypotheses,
    negative_solutions,
    solve_in_box,
)
from .exponents import ExponentField, check_Hp
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
    "eta1": (float, 0.0, "declared growth constant (with f1.expr)"),
    "eta2": (float, 0.0, "declared growth constant (with f2.expr)"),
    "margin": (float, 0.0, "domain dilation margin; 0 = default quarter diameter"),
    "solver.tol": (float, 1e-10, "Newton residual tolerance"),
    "solver.max_iter": (int, 80, "Newton iteration cap"),
    "solver.eps_reg": (float, 1e-10, "gradient regularization"),
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


def parse_config(path=None, overrides=()) -> dict:
    """The settings of a run: the defaults, then the lines of the flat
    dotted-key config file at ``path``, then the ``(where, key, raw)``
    command-line overrides.  Every setting is coerced the same way, and
    every error is reported at once."""
    entries, errors = [], []
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                errors.append(f"{path}:{lineno}: expected `key = value`, got {line!r}")
                continue
            key, raw = (part.strip() for part in stripped.split("=", 1))
            entries.append((f"{path}:{lineno}", key, raw))
    v = {k: d for k, (_, d, _) in _SCHEMA.items()}
    for where, key, raw in [*entries, *overrides]:
        if key not in _SCHEMA:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        try:
            v[key] = _coerce(raw, _SCHEMA[key][0])
        except ValueError as exc:
            errors.append(f"{where}: bad value for {key}: {exc}")
    errors.extend(_validate(v))
    if errors:
        raise ConfigError(errors)
    return v


def _probe_points(v: dict, dim: int) -> np.ndarray:
    """A 9-point (1D) or 9x9 (2D) grid over the configured domain, on which
    every expression is evaluated once during validation."""
    if dim == 1:
        return np.linspace(v["mesh.a"], v["mesh.b"], 9)[:, None]
    gx, gy = np.meshgrid(
        np.linspace(v["mesh.ax"], v["mesh.bx"], 9), np.linspace(v["mesh.ay"], v["mesh.by"], 9)
    )
    return np.column_stack([gx.ravel(), gy.ravel()])


def _validate(v: dict) -> list:
    errors = []
    if v["mesh.kind"] not in ("interval", "rectangle"):
        errors.append(f"mesh.kind must be interval or rectangle, got {v['mesh.kind']!r}")
    for key in ("solver.tol", "tol.residual"):
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
    # a probe or lemma suite of zero samples would pass without evidence, and
    # a Newton solve of zero iterations would return its seed
    for key in ("homotopy.seeds", "verify.samples", "solver.max_iter"):
        if v[key] < 1:
            errors.append(f"{key} must be at least 1")
    # a negative eps_reg or rng_seed would fail later with a traceback, and a
    # negative margin or radius would silently mean auto-size, as 0 does
    for key in (
        "solver.eps_reg", "homotopy.rng_seed",
        "margin", "homotopy.R", "homotopy.R_hat", "homotopy.R_tilde",
    ):
        if v[key] < 0:
            errors.append(f"{key} must be >= 0")
    try:
        build_homotopy(v)
    except ConfigError as exc:
        errors.extend(f"homotopy: {e}" for e in exc.errors)
    dim = 1 if v["mesh.kind"] == "interval" else 2
    # evaluate every expression once: an exponent must be finite on the
    # domain, an f expression must at least not raise
    pts = _probe_points(v, dim)
    # --p sets p1.expr and p2.expr alike; report such an expression once
    keys = ["p1.expr"] + (["p2.expr"] if v["p2.expr"] != v["p1.expr"] else [])
    probes = [(key, coordinate_expression, (pts,), True) for key in keys]
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
    if not (v["f1.expr"] or v["f.benchmark"]):
        errors.append("f.benchmark = false needs f1.expr and f2.expr")
    if v["f1.expr"] and (v["eta1"] <= 0 or v["eta2"] <= 0):
        errors.append("explicit nonlinearities need positive eta1 and eta2")
    return errors


# ---------------------------------------------------------------------------
# problem assembly from a config


def build_mesh(v: dict):
    """The configured mesh; a box or cell count the mesh factories reject
    is a config error of the mesh settings."""
    if v["mesh.kind"] == "interval":
        build, keys = build_interval_mesh, ("mesh.a", "mesh.b", "mesh.n")
    else:
        build = build_rectangle_mesh
        keys = ("mesh.ax", "mesh.ay", "mesh.bx", "mesh.by", "mesh.nx", "mesh.ny")
    try:
        return build(*(v[k] for k in keys))
    except DomainError as exc:
        raise ConfigError([f"{', '.join(keys)}: {exc}"]) from exc


def _load_csv(what: str, path, mesh) -> GridFunction:
    """The nodal CSV at ``path``; a file that cannot be read, holds no
    numeric table or was written on another mesh is a config error of the
    setting ``what``."""
    try:
        return load_grid_function_csv(path, mesh)
    except (OSError, ValueError, MeshMismatchError) as exc:
        raise ConfigError([f"{what}: cannot read nodal CSV {path}: {exc}"]) from exc


def _exponent_key(v: dict, i: int) -> str:
    """The setting exponent ``i`` comes from: its table, if one is given."""
    return f"p{i}.table" if v[f"p{i}.table"] else f"p{i}.expr"


def build_contexts(v: dict):
    mesh = build_mesh(v)
    fields = []
    for i in (1, 2):
        table = v[f"p{i}.table"]
        if i == 2 and table == v["p1.table"] and v["p2.expr"] == v["p1.expr"]:
            fields.append(fields[0])  # identical spec: share the field
            continue
        key = _exponent_key(v, i)
        rule = _load_csv(key, table, mesh) if table else v[key]
        # p_min > 1 is checked at the mesh's points, so only once it exists
        try:
            fields.append(ExponentField(mesh, rule))
        except HypothesisError as exc:
            raise ConfigError([f"{key}: {exc}"]) from exc
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


def check_exponents(v: dict, *ctxs, mesh=None, where: str = ""):
    """Build each context's exponent on ``mesh`` (default: its own) and run
    :func:`check_Hp` on it, before any solve: an exponent that is not
    admissible or fails the check is a config error, one line each."""
    mesh = mesh or ctxs[0].mesh
    errors = []
    for i, ctx in enumerate(ctxs, start=1):
        if i == 2 and ctx.p is ctxs[0].p:
            continue  # one field serves both components
        try:
            p = ctx.p if mesh is ctx.mesh else ctx.p.on_mesh(mesh)
        except (DomainError, HypothesisError) as exc:
            errors.append(f"{_exponent_key(v, i)}: {where}{exc}")
            continue
        if not check_Hp(p, mesh).passed:
            errors.append(
                f"{_exponent_key(v, i)}: {where}exponent fails the direction-monotonicity "
                "check in every coordinate direction"
            )
    if errors:
        raise ConfigError(errors)


def check_dilated(v: dict, *ctxs):
    """:func:`check_exponents` on the dilated domain of
    :func:`enlarged_eigenpair`; a margin the mesh cannot hold is a config
    error too."""
    try:
        outer, _ = dilated_mesh(ctxs[0].mesh, v["margin"] or None)
    except DomainError as exc:
        raise ConfigError([f"margin: {exc}"]) from exc
    check_exponents(v, *ctxs, mesh=outer, where="on the dilated domain: ")


def build_nonlinearity(v: dict, ctx1, ctx2, eig1, eig2) -> Nonlinearity:
    if v["f1.expr"]:
        dim = ctx1.mesh.dimension
        return Nonlinearity(
            f1=state_expression(v["f1.expr"], dim),
            f2=state_expression(v["f2.expr"], dim),
            eta1=v["eta1"],
            eta2=v["eta2"],
        )
    return benchmark_family(ctx1, ctx2, eig1, eig2)


# ---------------------------------------------------------------------------
# artifact helpers


def _write_json(outdir: Path, name: str, payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)
    (outdir / name).write_text(text + "\n")


def _emit(outdir: Path, command: str, v: dict, payload: dict, quiet: bool):
    effective = dict(sorted(v.items()))
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


def _write_csvs(outdir: Path, fields: dict):
    """Write each ``name -> GridFunction or CSV text`` entry to ``outdir``."""
    for name, content in fields.items():
        if isinstance(content, str):
            (outdir / name).write_text(content)
        else:
            content.save_csv(outdir / name)


# ---------------------------------------------------------------------------
# commands: each takes the settings and the parsed arguments and returns
# (summary payload, CSV fields, exit code)


def _exponent_warnings(*ctxs) -> list:
    seen = []
    for ctx in ctxs:
        w = ctx.p.embedding_warning
        if w and w not in seen:
            seen.append(w)
    return seen


def cmd_eig(v: dict, args):
    mesh, ctx1, _ = build_contexts(v)
    check_exponents(v, ctx1)
    if v["margin"] > 0:
        check_dilated(v, ctx1)
    pair = first_eigenpair(ctx1)
    payload = {"eigen": pair.summary(), "warnings": _exponent_warnings(ctx1)}
    fields = {"eigenfunction.csv": pair.phi}
    if v["margin"] > 0:
        enl = enlarged_eigenpair(ctx1, v["margin"])
        payload["enlarged"] = {"lambda1": enl.pair.lambda1, "tau": enl.tau, "margin": enl.margin}
        fields["eigenfunction_enlarged.csv"] = enl.phi_restricted
    return payload, fields, 0


def cmd_norm(v: dict, args):
    mesh, ctx1, _ = build_contexts(v)
    u = _load_csv("--input", args.input, mesh)
    return {"norm": luxemburg_norm(u, ctx1.p).summary()}, {}, 0


def cmd_solve(v: dict, args):
    mesh, ctx1, _ = build_contexts(v)
    rhs = coordinate_expression(args.rhs, mesh.dimension)
    # evaluated once where the solve uses it: a rhs that raises or is not
    # finite at a quadrature point is a config error, not a NaN load
    try:
        with np.errstate(all="ignore"):
            rhs_qp = rhs(mesh.quad_points_flat)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError([f"--rhs {args.rhs!r}: evaluation failed: {exc}"]) from exc
    if not np.all(np.isfinite(rhs_qp)):
        raise ConfigError([f"--rhs {args.rhs!r}: not finite at every quadrature point"])
    rep = dirichlet_solve(ctx1, rhs_qp.reshape(mesh.n_elements, mesh.n_qp))
    return {"solve": rep.summary()}, {"solution.csv": rep.u}, 0 if rep.converged else 2


def _positive_pair(v: dict):
    """The start shared by theorem1 and theorem2: eigenpairs, f, hypotheses,
    the ordered box (``margin`` 0 = auto) and the positive solution in it."""
    mesh, ctx1, ctx2 = build_contexts(v)
    check_exponents(v, ctx1, ctx2)
    check_dilated(v, ctx1, ctx2)
    eig1 = first_eigenpair(ctx1)
    eig2 = eig1 if ctx2 == ctx1 else first_eigenpair(ctx2)
    f = build_nonlinearity(v, ctx1, ctx2, eig1, eig2)
    hyp = check_hypotheses(f, ctx1, ctx2, eig1, eig2)
    box = build_ordered_box(f, ctx1, ctx2, eig1, eig2, margin=v["margin"] or None, hyp=hyp)
    pos = solve_in_box(box, f, ctx1, ctx2, residual_tol=v["tol.residual"])
    return ctx1, ctx2, eig1, eig2, f, hyp, box, pos


def build_homotopy(v: dict) -> HomotopyConfig:
    """The reference problem of theorem2 and probe-L9 (0 radii = auto)."""
    return HomotopyConfig(
        J_fraction=v["homotopy.J_fraction"],
        delta=v["homotopy.delta"],
        t_steps=v["homotopy.t_steps"],
        R=v["homotopy.R"] or None,
        R_hat=v["homotopy.R_hat"] or None,
        rng_seed=v["homotopy.rng_seed"],
    )


def cmd_theorem1(v: dict, args):
    ctx1, ctx2, eig1, eig2, f, hyp, box, pos = _positive_pair(v)
    neg = negative_solutions(box, f, ctx1, ctx2, hyp=hyp, residual_tol=v["tol.residual"])
    payload = {
        "hypotheses": hyp.summary(),
        "constants": box.constants,
        "box_verification": box.verification.summary(),
        "positive": pos.summary(),
        "negative": neg.summary(),
        "warnings": _exponent_warnings(ctx1, ctx2),
    }
    fields = {
        "u1_positive.csv": pos.u1,
        "u2_positive.csv": pos.u2,
        "u1_negative.csv": neg.u1,
        "u2_negative.csv": neg.u2,
    }
    return payload, fields, 0 if pos.converged and neg.converged else 2


def cmd_theorem2(v: dict, args):
    ctx1, ctx2, eig1, eig2, f, hyp, box, pos = _positive_pair(v)
    if not pos.converged:
        return {"error": "base solution did not converge"}, {}, 2

    hcfg = build_homotopy(v)
    trace = continuation(hcfg, f, ctx1, ctx2, eig1, eig2)
    bnd = boundedness_probe(trace, R=v["homotopy.R_tilde"] or None)
    probe = nonexistence_probe(
        ctx1, eig1, hcfg.J(ctx1, eig1), hcfg.delta, v["homotopy.seeds"], rng_seed=hcfg.rng_seed
    )
    triviality = all(s.pair_norm <= 1e-8 for s in trace.steps[0].solutions)
    ann = annulus_search(hcfg, f, ctx1, ctx2, box, (pos.u1, pos.u2), eig1, eig2)

    payload = {
        "trace": trace.summary(),
        "boundedness": bnd.summary(),
        "nonexistence_probe": probe.summary(),
        "trivial_at_t0": triviality,
        "annulus": ann.summary(),
        "warnings": _exponent_warnings(ctx1, ctx2),
    }
    fields = {}
    for k, s in enumerate(ann.solutions):
        fields[f"annulus_u1_{k}.csv"] = s.u1
        fields[f"annulus_u2_{k}.csv"] = s.u2
    # plot data: one row per continuation step
    fields["trace.csv"] = "t,solutions,max_pair_norm,max_residual\n" + "".join(
        f"{st.t:.12g},{len(st.solutions)},"
        f"{max((s.pair_norm for s in st.solutions), default=0.0):.17g},"
        f"{max((s.residual for s in st.solutions), default=0.0):.17g}\n"
        for st in trace.steps
    )
    return payload, fields, 0


def cmd_probe_l9(v: dict, args):
    hcfg = build_homotopy(v)
    mesh, ctx1, _ = build_contexts(v)
    check_exponents(v, ctx1)
    eig1 = first_eigenpair(ctx1)
    probe = nonexistence_probe(
        ctx1, eig1, hcfg.J(ctx1, eig1), hcfg.delta, v["homotopy.seeds"], rng_seed=hcfg.rng_seed
    )
    return {"nonexistence_probe": probe.summary()}, {}, 0


def cmd_verify(v: dict, args):
    """Lemma suite on the configured problem; exit 1 on any failure."""
    mesh, ctx1, ctx2 = build_contexts(v)
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
    return {"lemmas": results, "passed": ok}, {}, 0 if ok else 1


def linear_hat(mesh) -> GridFunction:
    """Nonnegative zero-trace test profile (distance-to-boundary shaped)."""
    lo, hi = mesh.lo, mesh.hi
    vals = np.ones(mesh.n_nodes)
    for d in range(mesh.dimension):
        x = mesh.nodes[:, d]
        vals *= np.minimum(x - lo[d], hi[d] - x)
    vals[mesh.boundary_nodes] = 0.0
    return GridFunction(mesh, vals)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors (exit code 3); ``--help`` and
    ``--version`` still exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError([f"{self.prog}: {message}"])


class _Setting(argparse.Action):
    """A flag that is a string alias of config keys: ``const(raw)`` lists the
    ``(key, raw)`` pairs it sets, which parse_config reads like config lines."""

    def __call__(self, parser, namespace, raw, option_string=None):
        pairs = [(option_string, key, value) for key, value in self.const(raw)]
        namespace.overrides = [*namespace.overrides, *pairs]


def _key(key):
    return lambda raw: [(key, raw)]


def _exponent_pairs(raw):
    return [("p1.expr", raw), ("p2.expr", raw), ("p1.table", ""), ("p2.table", "")]


def _mesh_pairs(raw):
    items = (item.partition("=") for item in raw.split(","))
    return [(f"mesh.{key.strip()}", value.strip()) for key, _, value in items]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pxlap",
        description="Numerics for quasilinear systems driven by the p(x)-Laplacian",
    )
    parser.add_argument("--version", action="version", version=f"pxlap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(sp, flag, pairs, helptext):
        sp.add_argument(flag, action=_Setting, const=pairs, help=helptext)

    def command(name, run, helptext):
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(run=run, overrides=[])
        sp.add_argument("--config", help="config file (flat dotted keys)")
        setting(sp, "--output-dir", _key("output.dir"), "artifact directory; sets output.dir")
        sp.add_argument("--quiet", action="store_true")
        setting(sp, "--seed", _key("homotopy.rng_seed"), "random seed; sets homotopy.rng_seed")
        return sp

    def grid(sp):
        setting(sp, "--p", _exponent_pairs, "exponent of both components, e.g. '2 + x'; "
                "sets p1.expr and p2.expr and clears p1.table and p2.table")
        setting(sp, "--mesh", _mesh_pairs, "mesh keys, e.g. n=256 or kind=rectangle,nx=32; "
                "k=v sets mesh.k")

    sp = command("eig", cmd_eig, "first eigenpair of -Delta_p(x)")
    grid(sp)
    setting(sp, "--margin", _key("margin"),
            "if > 0, also solve on the domain dilated by it; sets margin")

    sp = command("norm", cmd_norm, "modular and Luxemburg norm of a nodal CSV")
    sp.add_argument("--input", required=True, help="nodal CSV (x[,y],value)")
    grid(sp)

    sp = command("solve", cmd_solve, "Dirichlet solve of -Delta_p(x) u = rhs")
    sp.add_argument("--rhs", required=True, help="rhs expression in x[,y]")
    grid(sp)

    command("theorem1", cmd_theorem1, "sub/supersolution construction + monotone iteration")
    command("theorem2", cmd_theorem2, "homotopy trace, probes and annulus search")
    command("verify", cmd_verify, "lemma verification suite")

    sp = command("probe-L9", cmd_probe_l9, "scalar nonexistence probe")
    setting(sp, "--J-fraction", _key("homotopy.J_fraction"),
            "J over the spectral bound; sets homotopy.J_fraction")
    setting(sp, "--delta", _key("homotopy.delta"), "shift of the probe; sets homotopy.delta")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        v = parse_config(args.config, args.overrides)
        # made before any solve, so an unusable path fails at once
        outdir = Path(v["output.dir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError([f"output.dir: cannot create directory {outdir}: {exc}"]) from exc
        payload, fields, code = args.run(v, args)
        if "csv" in v["output.formats"]:
            _write_csvs(outdir, fields)
        _emit(outdir, args.command, v, payload, args.quiet)
        return code
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 3
    except PxlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
