"""Every function the benchmark tracer wraps must exist.

``bench/tracer.py`` reports a metric built on a target it cannot resolve as
``missing``; a rename in ``pxlap`` would silently drop that per-layer metric
from every later benchmark run.  This test resolves each target the way
``Tracer.install`` does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
