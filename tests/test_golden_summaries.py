"""Byte-for-byte answers of four CLI runs.

Each case runs ``pxlap.cli.main`` in-process and compares its ``summary.json``
and every CSV with the files under ``tests/golden/<case>/``.  ``runmeta.json``
holds a timestamp and a path, so it is left out.  A refactor leaves these
files as they are.  They change only with the answers, and the reason for
that change is recorded in CHANGES.md.  Regenerate them with

    PYTHONPATH=src python tests/test_golden_summaries.py
"""

import shutil
import sys
from pathlib import Path

import pytest

from pxlap.cli import main

GOLDEN = Path(__file__).with_name("golden")

_CONFIG_1D = """\
mesh.n = 32
p1.expr = 2 + 0.1*x
p2.expr = 2 + 0.1*x
margin = 0.25
homotopy.t_steps = 3
homotopy.seeds = 4
"""

CASES = {
    "theorem1": ["theorem1", "--config", "{config}"],
    "theorem2": ["theorem2", "--config", "{config}"],
    "probe-L9": ["probe-L9", "--config", "{config}"],
    "eig-2d": ["eig", "--p", "2 + 0.1*x", "--mesh", "kind=rectangle,nx=8,ny=8", "--margin", "0.25"],
}


def _run(case: str, outdir: Path) -> dict:
    """Run ``case`` into ``outdir``; return its compared files, name -> bytes."""
    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir / "run.cfg"
    config.write_text(_CONFIG_1D)
    argv = [a.format(config=config) for a in CASES[case]]
    assert main([*argv, "--output-dir", str(outdir), "--quiet"]) == 0
    config.unlink()
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name == "summary.json" or p.suffix == ".csv"
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_summary(case, tmp_path):
    got = _run(case, tmp_path)
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs from the golden file"


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        _run(case, target)
        (target / "runmeta.json").unlink()
