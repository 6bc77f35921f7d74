import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pxlap
from pxlap.cli import default_config, main, parse_config
from pxlap.errors import ConfigError


def run_cli(args, cwd, timeout=None):
    # The child runs from cwd, where a relative PYTHONPATH (such as "src")
    # no longer resolves; lead with the directory that holds the pxlap this
    # process imported, and keep the other entries, made absolute.
    entries = [str(Path(pxlap.__file__).resolve().parents[1])]
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries += [os.path.abspath(e) for e in inherited if e]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(entries))
    return subprocess.run(
        [sys.executable, "-m", "pxlap.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_parse_minimal_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mesh.n = 32\n# comment line\np1.expr = 2 + x\n")
    cfg = parse_config(path)
    assert cfg["mesh.n"] == 32
    assert cfg["p1.expr"] == "2 + x"
    # defaults filled and visible in the effective config
    eff = cfg.effective()
    assert eff["solver.tol"] == 1e-10
    assert eff["homotopy.rng_seed"] == 42


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mesch.n = 32\nmesh.n = 16\nqqq = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    text = "; ".join(err.value.errors)
    assert "mesch.n" in text and "qqq" in text


def test_parse_rejects_bad_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("solver.tol = -1\nhomotopy.family = waffle\np1.expr = 2 + q\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    text = "; ".join(err.value.errors)
    assert "solver.tol" in text and "waffle" in text and "name(s) q" in text


def test_missing_config_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/run.cfg")


def test_cli_eig_near_pi_squared(tmp_path):
    rc = main(["eig", "--p", "2", "--mesh", "n=64", "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["schema"] == 1
    assert data["eigen"]["lambda1"] == pytest.approx(np.pi**2, rel=1e-2)
    assert "effective_config" in data


def test_cli_norm_roundtrip(tmp_path):
    from pxlap.mesh import GridFunction, build_interval_mesh

    mesh = build_interval_mesh(0.0, 1.0, 32)
    u = GridFunction(mesh, np.full(mesh.n_nodes, 2.0))
    csv = tmp_path / "u.csv"
    u.save_csv(csv)
    rc = main([
        "norm", "--input", str(csv), "--p", "2 + x", "--mesh", "n=32",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["norm"]["norm"] == pytest.approx(2.0, abs=1e-9)
    assert data["norm"]["residual"] <= 1e-10


def test_cli_solve_writes_solution(tmp_path):
    rc = main([
        "solve", "--p", "3", "--rhs", "1", "--mesh", "n=64",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["solve"]["converged"]
    assert (tmp_path / "solution.csv").exists()


def test_cli_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesch.n = 16\n")
    rc = run_cli(["theorem1", "--config", str(cfg)], cwd=tmp_path)
    assert rc.returncode == 3
    assert "mesch.n" in rc.stderr


def test_cli_constant_power_overflow_is_config_error(tmp_path):
    # 9**9**8 as an integer would take minutes to build; as floats it
    # overflows at once, and validation reports it before any mesh work
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("p1.expr = 2 + 0*x + 9**9**8\n")
    rc = run_cli(["eig", "--config", str(cfg), "--quiet"], cwd=tmp_path, timeout=10)
    assert rc.returncode == 3
    assert "p1.expr" in rc.stderr


def test_parse_rejects_expressions_that_fail_to_evaluate(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "p1.expr = 2 + log(x)\np2.expr = 1e308 * 1e308\nf.benchmark = false\n"
        "f1.expr = s1 + 1/0\nf2.expr = s2\neta1 = 1\neta2 = 1\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    text = "; ".join(err.value.errors)
    assert "p1.expr" in text and "p2.expr" in text and "f1.expr" in text
    assert "f2.expr" not in text


def test_cli_verify_small(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("mesh.n = 16\nverify.samples = 10\np1.expr = 2 + x\np2.expr = 2 + x\n")
    rc = main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["passed"]
    assert set(data["lemmas"]) == {"norm_modular", "picone", "mean_value", "comparison"}


def test_cli_determinism(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("mesh.n = 32\nhomotopy.seeds = 6\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main([
            "probe-L9", "--config", str(cfg), "--output-dir", str(out),
            "--quiet", "--seed", "42",
        ])
        assert rc == 0
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_theorem1_artifacts(tmp_path):
    cfg = tmp_path / "t1.cfg"
    cfg.write_text("mesh.n = 64\n")
    rc = main(["theorem1", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["positive"]["converged"] and data["negative"]["converged"]
    assert data["box_verification"]["passed"]
    for name in ("u1_positive", "u2_positive", "u1_negative", "u2_negative"):
        assert (tmp_path / f"{name}.csv").exists()


def test_cli_theorem1_with_explicit_expressions(tmp_path):
    # eigenvalue threshold at n=64, p=2 is about 13.96, so amplitude 35
    # with declared eta 15 clears it with margin
    cfg = tmp_path / "expr.cfg"
    cfg.write_text(
        "mesh.n = 64\n"
        "f.benchmark = false\n"
        "f1.expr = 35 * s1 / (1 + abs(s1)) * (1 + s2*s2 / (1 + s2*s2))\n"
        "f2.expr = 35 * s2 / (1 + abs(s2)) * (1 + s1*s1 / (1 + s1*s1))\n"
        "eta1 = 15\n"
        "eta2 = 15\n"
    )
    rc = main(["theorem1", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["hypotheses"]["passed"]
    assert data["positive"]["converged"]


def test_cli_theorem2_pipeline(tmp_path):
    cfg = tmp_path / "t2.cfg"
    cfg.write_text(
        "mesh.n = 48\nhomotopy.t_steps = 3\nhomotopy.seeds = 4\n"
    )
    rc = main(["theorem2", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["trivial_at_t0"]
    assert data["boundedness"]["passed"]
    assert data["nonexistence_probe"]["attempts"] == 4
    assert "conventions" in data
    assert len(data["trace"]["steps"]) == 3
    # annulus artifacts exist for every reported solution
    for k in range(len(data["annulus"]["solutions"])):
        assert (tmp_path / f"annulus_u1_{k}.csv").exists()
    trace_csv = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_csv[0] == "t,solutions,max_pair_norm,max_residual"
    assert len(trace_csv) == 4


def test_cli_nonconvergence_exit_code(tmp_path):
    cfg = tmp_path / "nc.cfg"
    cfg.write_text("mesh.n = 32\nsolver.max_iter = 0\np1.expr = 3\np2.expr = 3\n")
    rc = main([
        "solve", "--config", str(cfg), "--rhs", "1",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 2


def test_default_config_validates():
    cfg = default_config()
    assert cfg["mesh.kind"] == "interval"
