"""Every function the benchmark tracer wraps must exist.

``bench/tracer.py`` reports a metric built on a target it cannot resolve as
``missing``; a rename in ``pxlap`` would silently drop that per-layer metric
from every later benchmark run.  This test resolves each target the way
``Tracer.install`` does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pxlap import operator
from pxlap.eigen import first_eigenpair
from pxlap.exponents import ExponentField
from pxlap.mesh import GridFunction, build_rectangle_mesh
from pxlap.multiplicity import solve_coupled

_TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("pxlap_bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TARGETS = [(module, path) for _, module, path, _ in _load_tracer().TARGETS]


@pytest.mark.parametrize("module_name, path", _TARGETS, ids=[f"{m}:{p}" for m, p in _TARGETS])
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _coupled(ctx):
    def load(points, s1, s2):
        return 1.0 + 0.1 * np.sin(s1 + s2)

    seed = GridFunction.zeros(ctx.mesh)
    solve_coupled(ctx, ctx, load, load, seed, seed)


@pytest.mark.parametrize("solve", [first_eigenpair, _coupled], ids=["first_eigenpair", "solve_coupled"])
def test_solvers_call_the_residual_through_its_module(solve, monkeypatch):
    # the tracer's operator.residual_calls counts calls of the module
    # attribute pxlap.operator._residual_full; a solver holding its own
    # reference to the function would leave that count at 0
    mesh = build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 8, 8)
    ctx = operator.OperatorContext(mesh, ExponentField(mesh, "2 + 0.1*x"))
    calls = []
    residual = operator._residual_full

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(operator, "_residual_full", counted)
    solve(ctx)
    assert len(calls) >= 3
