"""Byte-for-byte answers of seven CLI runs.

Each case runs ``pxlap.cli.main`` in-process and compares its ``summary.json``
and every CSV with the files under ``tests/golden/<case>/``.  ``runmeta.json``
holds a timestamp and a path, so it is left out.  The two ``bench-`` cases
are the benchmark's own theorem runs: ``CONFIG_1D`` of ``bench/workloads.py``
at seed 42.  A refactor leaves these files as they are.  They change only
with the answers, and the reason for that change is recorded in CHANGES.md.
A differing ``summary.json`` is reported by the JSON paths added, removed or
changed.  Regenerate them with

    PYTHONPATH=src python tests/test_golden_summaries.py
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pxlap
from pxlap.cli import main

GOLDEN = Path(__file__).with_name("golden")
_WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _bench_config_1d() -> str:
    spec = importlib.util.spec_from_file_location("pxlap_bench_workloads", _WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.CONFIG_1D


_CONFIG_1D = """\
mesh.n = 32
p1.expr = 2 + 0.1*x
p2.expr = 2 + 0.1*x
margin = 0.25
homotopy.t_steps = 3
homotopy.seeds = 4
"""

# a 2D theorem1 run on a non-dyadic spacing, where element rounding shows
_CONFIG_2D = """\
mesh.kind = rectangle
mesh.nx = 12
mesh.ny = 12
p1.expr = 2 + 0.1*x
p2.expr = 2 + 0.1*x
margin = 0.25
"""

_BENCH_CONFIG_1D = _bench_config_1d()

# case -> (config text, CLI arguments)
CASES = {
    "theorem1": (_CONFIG_1D, ["theorem1", "--config", "{config}"]),
    "theorem2": (_CONFIG_1D, ["theorem2", "--config", "{config}"]),
    "probe-L9": (_CONFIG_1D, ["probe-L9", "--config", "{config}"]),
    "eig-2d": (
        _CONFIG_1D,
        ["eig", "--p", "2 + 0.1*x", "--mesh", "kind=rectangle,nx=8,ny=8", "--margin", "0.25"],
    ),
    "theorem1-2d": (_CONFIG_2D, ["theorem1", "--config", "{config}"]),
    "bench-theorem1-1d": (_BENCH_CONFIG_1D, ["theorem1", "--config", "{config}", "--seed", "42"]),
    "bench-theorem2-1d": (_BENCH_CONFIG_1D, ["theorem2", "--config", "{config}", "--seed", "42"]),
}


def _run(case: str, outdir: Path) -> dict:
    """Run ``case`` into ``outdir``; return its compared files, name -> bytes."""
    outdir.mkdir(parents=True, exist_ok=True)
    text, args = CASES[case]
    config = outdir / "run.cfg"
    config.write_text(text)
    argv = [a.format(config=config) for a in args]
    assert main([*argv, "--output-dir", str(outdir), "--quiet"]) == 0
    config.unlink()
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name == "summary.json" or p.suffix == ".csv"
    }


def _json_diff(got, want, path=""):
    """(added, removed, changed) JSON paths from ``want`` to ``got``; a key
    present on one side only is named once, not each key below it."""
    added, removed, changed = [], [], []
    if isinstance(got, dict) and isinstance(want, dict):
        added = [f"{path}/{k}" for k in got if k not in want]
        removed = [f"{path}/{k}" for k in want if k not in got]
        pairs = [(f"{path}/{k}", got[k], want[k]) for k in want if k in got]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = [(f"{path}/{k}", g, w) for k, (g, w) in enumerate(zip(got, want))]
    else:
        # repr, so that NaN equals NaN
        return added, removed, ([] if repr(got) == repr(want) else [path or "/"])
    for sub, g, w in pairs:
        for mine, theirs in zip((added, removed, changed), _json_diff(g, w, sub)):
            mine.extend(theirs)
    return added, removed, changed


def _describe(case: str, name: str, got: bytes, want: bytes) -> str:
    message = f"{case}/{name} differs from the golden file"
    if name != "summary.json":
        return message
    diff = zip(("added", "removed", "changed"), _json_diff(json.loads(got), json.loads(want)))
    parts = [f"{kind}: {', '.join(paths)}" for kind, paths in diff if paths]
    return f"{message}; " + ("; ".join(parts) or "same JSON, other bytes")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_summary(case, tmp_path):
    got = _run(case, tmp_path)
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], _describe(case, name, got[name], want[name])


def test_theorem2_is_independent_of_the_blas_thread_count(tmp_path):
    # OpenBLAS reads its thread count once per process, so each count runs
    # the golden theorem2 case in a child of its own
    text, args = CASES["theorem2"]
    config = tmp_path / "run.cfg"
    config.write_text(text)
    argv = [a.format(config=config) for a in args]
    inherited = [e for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    path = os.pathsep.join([str(Path(pxlap.__file__).resolve().parents[1]), *inherited])
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        cmd = [sys.executable, "-m", "pxlap.cli", *argv, "--output-dir", str(outdir), "--quiet"]
        subprocess.run(cmd, env=env, check=True, timeout=300)
        outputs.append(
            {p.name: p.read_bytes() for p in outdir.iterdir() if p.name == "summary.json" or p.suffix == ".csv"}
        )
    assert "summary.json" in outputs[0] and any(name.endswith(".csv") for name in outputs[0])
    assert outputs[0] == outputs[1]


def test_summary_diff_names_the_json_paths():
    want = {"a": 1, "conventions": {"x": "y"}, "trace": {"family": "t", "steps": [{"t": 0.0}]}}
    got = {"a": 2, "new": True, "trace": {"steps": [{"t": 0.5}]}}
    assert _json_diff(got, want) == (
        ["/new"], ["/conventions", "/trace/family"], ["/a", "/trace/steps/0/t"]
    )
    assert _json_diff({"v": float("nan")}, {"v": float("nan")}) == ([], [], [])
    got_bytes, want_bytes = (json.dumps(d).encode() for d in (got, want))
    message = _describe("theorem2", "summary.json", got_bytes, want_bytes)
    assert message.endswith(
        "added: /new; removed: /conventions, /trace/family; changed: /a, /trace/steps/0/t"
    )


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        _run(case, target)
        (target / "runmeta.json").unlink()
