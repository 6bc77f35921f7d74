"""In-process span tracer for the pxlap benchmark.

The tracer lives in the benchmark's own files: it wraps the calls into each
pxlap module from outside.  ``Tracer.install`` replaces every target function
in each ``pxlap.*`` namespace that bound it (``assemble_jacobian``, for
example, is bound in ``operator`` and ``multiplicity``), the
``scipy.sparse.linalg`` solver entry points, and the ``Nonlinearity``
callables returned by ``benchmark_family``.

Each call is one span: name, start, end and the span that caused it.  A span's
self time is its duration minus the time covered by its child spans.  Spans
stay in memory and are written out by ``Tracer.dump`` at the end of the run.
Work counts come from the returned reports (``SolveReport``,
``EigenPair.iterations``, ``BoxSolveResult.iterations``,
``CoupledReport.converged``).  A target that no longer exists is recorded as
missing, and every metric built on it is reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

F_SPAN = "existence.f"  # the Nonlinearity callables of benchmark_family
LAYERS = ("mesh", "exponents", "modular", "operator", "eigen", "existence", "multiplicity", "cli")

# scipy.sparse.linalg entry points a pxlap solver may call.  pxlap calls only
# spsolve today; the others are wrapped already so that a later change of
# solver is still counted by an unchanged benchmark.
LINSOLVE_ENTRY_POINTS = ("spsolve", "splu", "spilu", "factorized", "cg", "gmres", "minres", "bicgstab")


# observers: called with the tracer and the value a traced call returned


def _count_solve_report(tracer, rep):
    tracer.counts["operator.newton_iters"] += rep.iterations
    tracer.counts["operator.newton_converged"] += int(bool(rep.converged))


def _count_eigenpair(tracer, pair):
    tracer.counts["eigen.sweeps"] += pair.iterations


def _count_box_solve(tracer, res):
    tracer.counts["existence.gs_sweeps"] += res.iterations


def _count_coupled(tracer, rep):
    tracer.counts["multiplicity.coupled_converged"] += int(bool(rep.converged))


def _count_f_points(tracer, values):
    tracer.counts["existence.f_points"] += getattr(values, "size", 1)


def _trace_nonlinearity(tracer, f):
    f.f1 = tracer.wrap(F_SPAN, f.f1, _count_f_points)
    f.f2 = tracer.wrap(F_SPAN, f.f2, _count_f_points)


# (layer, module, attribute path, observer of the returned value)
TARGETS = (
    ("mesh", "pxlap.mesh", "build_interval_mesh", None),
    ("mesh", "pxlap.mesh", "build_rectangle_mesh", None),
    ("mesh", "pxlap.mesh", "dilate_domain", None),
    ("mesh", "pxlap.mesh", "Mesh.locate", None),
    ("mesh", "pxlap.mesh", "GridFunction.eval", None),
    ("exponents", "pxlap.exponents", "ExponentField.evaluate", None),
    ("exponents", "pxlap.exponents", "check_Hp", None),
    ("modular", "pxlap.modular", "modular_of_qp", None),
    ("modular", "pxlap.modular", "luxemburg_norm_of_qp", None),
    ("operator", "pxlap.operator", "_residual_full", None),
    ("operator", "pxlap.operator", "assemble_jacobian", None),
    ("operator", "pxlap.operator", "dirichlet_solve", _count_solve_report),
    ("operator", "pxlap.operator", "semilinear_solve", _count_solve_report),
    *(("operator", "scipy.sparse.linalg", name, None) for name in LINSOLVE_ENTRY_POINTS),
    ("eigen", "pxlap.eigen", "first_eigenpair", _count_eigenpair),
    ("eigen", "pxlap.eigen", "enlarged_eigenpair", None),
    ("existence", "pxlap.existence", "benchmark_family", _trace_nonlinearity),
    ("existence", "pxlap.existence", "check_hypotheses", None),
    ("existence", "pxlap.existence", "build_ordered_box", None),
    ("existence", "pxlap.existence", "solve_in_box", _count_box_solve),
    ("existence", "pxlap.existence", "negative_solutions", None),
    ("multiplicity", "pxlap.multiplicity", "continuation", None),
    ("multiplicity", "pxlap.multiplicity", "solve_coupled", _count_coupled),
    ("multiplicity", "pxlap.multiplicity", "boundedness_probe", None),
    ("multiplicity", "pxlap.multiplicity", "nonexistence_probe", None),
    ("multiplicity", "pxlap.multiplicity", "annulus_search", None),
    ("cli", "pxlap.cli", "main", None),
    ("cli", "pxlap.cli", "parse_config", None),
    ("cli", "pxlap.cli", "build_contexts", None),
    ("cli", "pxlap.cli", "_emit", None),
    ("cli", "pxlap.mesh", "GridFunction.save_csv", None),
)


def span_name(module: str, path: str) -> str:
    return f"{module.removeprefix('pxlap.')}.{path}"


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.spans = []  # (name, start ns, end ns, parent index, self ns, outermost)
        self.layer_of = {F_SPAN: "existence"}
        self.counts = Counter()
        self.missing = []
        self._stack = []  # [span index, nanoseconds covered by child spans]
        self._active = Counter()

    def wrap(self, name: str, fn, observe=None):
        spans, stack, active, clock = self.spans, self._stack, self._active, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            outermost = active[name] == 0
            active[name] += 1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, duration - frame[1], outermost)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every namespace that bound it."""
        for layer, module_name, path, observe in TARGETS:
            name = span_name(module_name, path)
            self.layer_of[name] = layer
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, observe)
            setattr(owner, attr, wrapped)
            if owner is module:
                for other in list(sys.modules.values()):
                    namespace = getattr(other, "__dict__", None)
                    if other is module or not getattr(other, "__name__", "").startswith("pxlap"):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(other, key, wrapped)

    def totals(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds, and calls per parent."""
        names = {}
        for name, start, end, parent, self_ns, outermost in self.spans:
            row = names.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0, "parents": Counter()})
            row["calls"] += 1
            row["self_ns"] += self_ns
            if outermost:
                row["incl_ns"] += end - start
            row["parents"][self.spans[parent][0] if parent >= 0 else ""] += 1
        return {
            name: {
                "calls": row["calls"],
                "self_s": row["self_ns"] * 1e-9,
                "incl_s": row["incl_ns"] * 1e-9,
                "parents": dict(row["parents"]),
            }
            for name, row in names.items()
        }

    def dump(self, path, extra: dict):
        """Write the spans, their totals and the counts to ``path`` as JSON."""
        names = sorted({s[0] for s in self.spans})
        t0 = self.spans[0][1] if self.spans else 0
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "self_ns"],
            "spans": [[index[n], st - t0, en - t0, p, sf] for n, st, en, p, sf, _ in self.spans],
            "t0_ns": t0,
            "totals": self.totals(),
            "layer_of": self.layer_of,
            "counts": dict(self.counts),
            "missing": self.missing,
            **extra,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(payload))  # dumps runs the C encoder; dump does not


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run's totals

# metric -> unit
PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.locate_calls": "count",
    "mesh.locate_s": "s",
    "exponents.evaluate_calls": "count",
    "exponents.evaluate_s": "s",
    "exponents.check_Hp_s": "s",
    "modular.norm_calls": "count",
    "modular.norm_s": "s",
    "modular.evals": "count",
    "modular.evals_per_norm": "ratio",
    "operator.residual_calls": "count",
    "operator.residual_s": "s",
    "operator.jacobian_calls": "count",
    "operator.jacobian_s": "s",
    "operator.linsolve_calls": "count",
    "operator.linsolve_s": "s",
    "operator.newton_solves": "count",
    "operator.newton_iters": "count",
    "operator.newton_converged_ratio": "ratio",
    "operator.newton_self_s": "s",
    "eigen.eigenpairs": "count",
    "eigen.sweeps": "count",
    "eigen.sweep_s": "s",
    "existence.hypotheses_s": "s",
    "existence.f_calls": "count",
    "existence.f_points": "count",
    "existence.box_build_s": "s",
    "existence.box_solve_s": "s",
    "existence.gs_sweeps": "count",
    "multiplicity.continuation_s": "s",
    "multiplicity.coupled_solves": "count",
    "multiplicity.coupled_self_s": "s",
    "multiplicity.coupled_converged_ratio": "ratio",
    "multiplicity.probe_s": "s",
    "multiplicity.annulus_s": "s",
    "cli.import_s": "s",
    "cli.emit_s": "s",
    "cli.artifact_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


class _Missing(Exception):
    pass


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values from a dumped trace; None marks a missing target.

    ``trace`` holds the ``totals``, ``counts``, ``missing`` and ``layer_of``
    written by ``Tracer.dump`` plus ``import_s`` and ``artifact_bytes``.
    """
    totals, counts, missing = trace["totals"], trace["counts"], set(trace["missing"])

    def field(key, *names):
        if any(n in missing for n in names):
            raise _Missing
        return sum(totals.get(n, {}).get(key, 0) for n in names)

    def calls(*names):
        return field("calls", *names)

    def self_s(*names):
        return field("self_s", *names)

    def incl_s(*names):
        return field("incl_s", *names)

    def count(key, *names):
        field("calls", *names)  # a count is missing when its target is
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def evals_per_norm():
        norm = "modular.luxemburg_norm_of_qp"
        if {"modular.modular_of_qp", norm} & missing:
            raise _Missing
        in_norms = totals.get("modular.modular_of_qp", {}).get("parents", {}).get(norm, 0)
        return ratio(in_norms, calls(norm))

    lin = [f"scipy.sparse.linalg.{n}" for n in LINSOLVE_ENTRY_POINTS]
    newton = ("operator.dirichlet_solve", "operator.semilinear_solve")
    locate = ("mesh.Mesh.locate", "mesh.GridFunction.eval")
    rules = {
        "mesh.build_s": lambda: incl_s("mesh.build_interval_mesh", "mesh.build_rectangle_mesh", "mesh.dilate_domain"),
        "mesh.locate_calls": lambda: calls("mesh.Mesh.locate"),
        "mesh.locate_s": lambda: self_s(*locate),
        "exponents.evaluate_calls": lambda: calls("exponents.ExponentField.evaluate"),
        "exponents.evaluate_s": lambda: self_s("exponents.ExponentField.evaluate"),
        "exponents.check_Hp_s": lambda: incl_s("exponents.check_Hp"),
        "modular.norm_calls": lambda: calls("modular.luxemburg_norm_of_qp"),
        "modular.norm_s": lambda: incl_s("modular.luxemburg_norm_of_qp"),
        "modular.evals": lambda: calls("modular.modular_of_qp"),
        "modular.evals_per_norm": evals_per_norm,
        "operator.residual_calls": lambda: calls("operator._residual_full"),
        "operator.residual_s": lambda: self_s("operator._residual_full"),
        "operator.jacobian_calls": lambda: calls("operator.assemble_jacobian"),
        "operator.jacobian_s": lambda: self_s("operator.assemble_jacobian"),
        "operator.linsolve_calls": lambda: calls(*lin),
        "operator.linsolve_s": lambda: self_s(*lin),
        "operator.newton_solves": lambda: calls(*newton),
        "operator.newton_iters": lambda: count("operator.newton_iters", *newton),
        "operator.newton_converged_ratio": lambda: ratio(
            count("operator.newton_converged", *newton), calls(*newton)
        ),
        "operator.newton_self_s": lambda: self_s(*newton),
        "eigen.eigenpairs": lambda: calls("eigen.first_eigenpair"),
        "eigen.sweeps": lambda: count("eigen.sweeps", "eigen.first_eigenpair"),
        "eigen.sweep_s": lambda: ratio(
            incl_s("eigen.first_eigenpair"), count("eigen.sweeps", "eigen.first_eigenpair")
        ),
        "existence.hypotheses_s": lambda: incl_s("existence.check_hypotheses"),
        "existence.f_calls": lambda: calls(F_SPAN, "existence.benchmark_family"),
        "existence.f_points": lambda: count("existence.f_points", "existence.benchmark_family"),
        "existence.box_build_s": lambda: incl_s("existence.build_ordered_box"),
        "existence.box_solve_s": lambda: incl_s("existence.solve_in_box"),
        "existence.gs_sweeps": lambda: count("existence.gs_sweeps", "existence.solve_in_box"),
        "multiplicity.continuation_s": lambda: incl_s("multiplicity.continuation"),
        "multiplicity.coupled_solves": lambda: calls("multiplicity.solve_coupled"),
        "multiplicity.coupled_self_s": lambda: self_s("multiplicity.solve_coupled"),
        "multiplicity.coupled_converged_ratio": lambda: ratio(
            count("multiplicity.coupled_converged", "multiplicity.solve_coupled"),
            calls("multiplicity.solve_coupled"),
        ),
        "multiplicity.probe_s": lambda: incl_s("multiplicity.nonexistence_probe", "multiplicity.boundedness_probe"),
        "multiplicity.annulus_s": lambda: incl_s("multiplicity.annulus_search"),
        "cli.import_s": lambda: trace["import_s"],
        "cli.emit_s": lambda: incl_s("cli._emit", "mesh.GridFunction.save_csv"),
        "cli.artifact_bytes": lambda: trace["artifact_bytes"],
    }
    for layer in LAYERS:
        names = [n for n, lay in trace["layer_of"].items() if lay == layer and n not in missing]
        rules[f"{layer}.self_s"] = lambda names=names: self_s(*names)

    out = {}
    for metric, rule in rules.items():
        try:
            out[metric] = rule()
        except _Missing:
            out[metric] = None
    return out
