import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pxlap
from pxlap import cli
from pxlap.cli import main, parse_config
from pxlap.errors import ConfigError


def run_cli(args, cwd, timeout=None, **env_vars):
    # The child runs from cwd, where a relative PYTHONPATH (such as "src")
    # no longer resolves; lead with the directory that holds the pxlap this
    # process imported, and keep the other entries, made absolute.
    entries = [str(Path(pxlap.__file__).resolve().parents[1])]
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries += [os.path.abspath(e) for e in inherited if e]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(entries), **env_vars)
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
    eff = cfg
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


def test_cli_delta_family_exit_code(tmp_path, capsys):
    # the trace runs the tilde family only; a delta config used to run it
    # anyway and report "delta" in its summary
    cfg = tmp_path / "delta.cfg"
    cfg.write_text("mesh.n = 32\nhomotopy.t_steps = 2\nhomotopy.seeds = 1\nhomotopy.family = delta\n")
    rc = main(["theorem2", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "homotopy.family must be tilde" in err and "trivial_at_t0" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("probe-L9", "homotopy.seeds = 0"),
        ("theorem2", "homotopy.seeds = -5"),
        ("verify", "verify.samples = 0"),
    ],
)
def test_cli_rejects_runs_without_samples(tmp_path, command, line, capsys):
    # zero probe attempts or lemma samples used to exit 0 with "passed": true
    cfg = tmp_path / "z.cfg"
    cfg.write_text(f"mesh.n = 32\n{line}\n")
    rc = main([command, "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    assert f"{line.split()[0]} must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("solver.eps_reg = -1", "solver.eps_reg must be >= 0"),
        ("solver.max_iter = 0", "solver.max_iter must be at least 1"),
        ("margin = -0.5", "margin must be >= 0"),
        ("homotopy.R = -1", "homotopy.R must be >= 0"),
        ("homotopy.R_hat = -1", "homotopy.R_hat must be >= 0"),
        ("homotopy.R_tilde = -1", "homotopy.R_tilde must be >= 0"),
        ("homotopy.rng_seed = -1", "homotopy.rng_seed must be >= 0"),
        ("homotopy.delta = 0", "homotopy: the probe's shift needs delta > 0"),
        ("homotopy.t_steps = 1", "homotopy: the t-grid needs at least 2 steps"),
        ("homotopy.R = 2\nhomotopy.R_hat = 2", "homotopy: radii must satisfy R_hat < R"),
        ("f.benchmark = false", "f.benchmark = false needs f1.expr and f2.expr"),
    ],
)
def test_cli_rejects_out_of_range_settings(tmp_path, monkeypatch, line, message, capsys):
    # a negative eps_reg used to exit 1 with a traceback, a zero iteration
    # cap ran, and a negative margin or radius silently meant auto-size;
    # crossed radii failed only after the eigenpairs and the positive solve,
    # and f.benchmark = false without f expressions ran the benchmark family
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the settings were validated")

    monkeypatch.setattr(cli, "first_eigenpair", no_solve)
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"mesh.n = 32\nhomotopy.t_steps = 2\nhomotopy.seeds = 1\n{line}\n")
    rc = main(["theorem2", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "line, argv",
    [
        ("margin = nan", ["theorem1"]),
        ("solver.tol = inf", ["theorem1"]),
        ("homotopy.R = nan", ["theorem2"]),
        ("", ["eig", "--mesh", "b=nan"]),
    ],
)
def test_cli_rejects_non_finite_floats(tmp_path, line, argv, capsys):
    # margin = nan used to run theorem1 to exit 0 and write "margin": NaN
    # into summary.json; inf passed the solver.tol > 0 check
    cfg = tmp_path / "nf.cfg"
    cfg.write_text(f"mesh.n = 32\n{line}\n")
    rc = main([*argv, "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    assert "expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_cli_bad_mesh_override_is_config_error(tmp_path, capsys):
    # used to exit 1 with a ValueError traceback
    rc = main(["eig", "--mesh", "n=abc", "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    assert "--mesh: bad value for mesh.n" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eig", "--margin", "nan", "--config", "h.cfg"], "expected a finite number"),
        (["probe-L9", "--J-fraction", "nan", "--config", "h.cfg"], "expected a finite number"),
        (["probe-L9", "--J-fraction", "1.5", "--config", "h.cfg"], "J_fraction must lie in (0, 1)"),
        (["probe-L9", "--delta", "inf", "--config", "h.cfg"], "expected a finite number"),
        (["probe-L9", "--seed", "abc", "--config", "h.cfg"], "--seed: bad value for homotopy.rng_seed"),
        (["probe-L9", "--seed", "-3", "--config", "h.cfg"], "homotopy.rng_seed must be >= 0"),
        (["eig", "--bogus"], "unrecognized arguments: --bogus"),
        (["solve"], "required: --rhs"),
        (["eig", "--p=" + "-" * 5000 + "x", "--mesh", "n=8"], "nested too deeply"),
        (["solve", "--rhs=" + "-" * 5000 + "x", "--mesh", "n=8"], "nested too deeply"),
        (["eig", "--p=x" + "+x" * 50000, "--mesh", "n=8"], "nested too deeply"),
        (["eig", "--p=2 + 0*sin(x, x)", "--mesh", "n=8"], "to one argument"),
        (["eig", "--p=2 + 0*exp(x, out=x)", "--mesh", "n=8"], "to one argument"),
        (["eig", "--p=" + "+".join(f"a{k}" for k in range(800)), "--mesh", "n=8"], "and 795 more"),
    ],
)
def test_cli_rejects_hostile_flags(tmp_path, monkeypatch, argv, message, capsys):
    # each flag is read like a config line: --margin nan used to exit 1 with
    # a traceback, --J-fraction 1.5 wrote "min_residual": Infinity, --seed -3
    # failed in numpy, and usage errors exited 2, the non-convergence code;
    # a deep expression raised RecursionError in the parser, and a ufunc's
    # second argument wrote into the mesh's read-only quadrature points;
    # an error quoted the whole expression, once for p1.expr and once for
    # p2.expr, about 100 kB each for the 50,001-term sum, and listed every
    # unknown name, 4.8 kB for 800 of them
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.cfg").write_text("mesh.n = 32\nhomotopy.seeds = 1\n")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err
    assert err.count("config error") == 1 and len(err) < 1000
    assert not list(tmp_path.rglob("summary.json"))


@pytest.mark.parametrize(
    "case",
    ["missing input", "non-numeric input", "missing table", "output dir is a file",
     "output dir under a file", "input on another mesh", "input on another domain",
     "p1 table on another mesh", "p2 table on another mesh", "nan input", "inf input",
     "nan coordinate"],
)
def test_cli_file_problems_are_config_errors(tmp_path, monkeypatch, case, capsys):
    # each exited 1 with a traceback; an output directory that cannot be made
    # failed only after the whole run, when the artifacts were written; a CSV
    # written on another mesh exited 2, the non-convergence code
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the file check")

    monkeypatch.setattr(cli, "first_eigenpair", no_solve)
    missing, text, plain = tmp_path / "missing.csv", tmp_path / "text.csv", tmp_path / "file"
    text.write_text("x,value\nzero,one\n")
    plain.write_text("")
    # the run's mesh is n=8 on [0, 1]: 9 nodes
    fine, wide = tmp_path / "fine.csv", tmp_path / "wide.csv"
    fine.write_text("x,value\n" + "".join(f"{x:.17g},2.0\n" for x in np.linspace(0, 1, 17)))
    wide.write_text("x,value\n" + "".join(f"{x:.17g},2.0\n" for x in np.linspace(0, 2, 9)))
    # a non-finite value exited 2 after about 400 Luxemburg Newton steps,
    # and a nan coordinate passed the coordinate check
    nan, inf, nan_x = tmp_path / "nan.csv", tmp_path / "inf.csv", tmp_path / "nan_x.csv"
    for path, value in ((nan, "nan"), (inf, "inf")):
        path.write_text("x,value\n" + "".join(f"{x:.17g},{value}\n" for x in np.linspace(0, 1, 9)))
    nan_x.write_text("x,value\n" + "".join(f"{x:.17g},1.0\n" for x in np.r_[0.0, np.nan, np.linspace(0.25, 1, 7)]))
    (tmp_path / "t.cfg").write_text(f"p1.table = {missing}\n")
    (tmp_path / "t1.cfg").write_text(f"p1.table = {fine}\n")
    (tmp_path / "t2.cfg").write_text(f"p2.table = {fine}\n")
    out = ["--output-dir", str(tmp_path / "out")]
    argv, path = {
        "missing input": (["norm", "--input", str(missing), *out], missing),
        "non-numeric input": (["norm", "--input", str(text), *out], text),
        "missing table": (["eig", "--config", str(tmp_path / "t.cfg"), *out], missing),
        "input on another mesh": (["norm", "--input", str(fine), *out], fine),
        "input on another domain": (["norm", "--input", str(wide), *out], wide),
        "nan input": (["norm", "--input", str(nan), *out], nan),
        "inf input": (["norm", "--input", str(inf), *out], inf),
        "nan coordinate": (["norm", "--input", str(nan_x), *out], nan_x),
        "p1 table on another mesh": (["eig", "--config", str(tmp_path / "t1.cfg"), *out], fine),
        "p2 table on another mesh": (["eig", "--config", str(tmp_path / "t2.cfg"), *out], fine),
        "output dir is a file": (["eig", "--output-dir", str(plain)], plain),
        "output dir under a file": (["eig", "--output-dir", str(plain / "sub")], plain / "sub"),
    }[case]
    assert main([*argv, "--mesh", "n=8", "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.count("config error") == 1 and str(path) in err
    assert not list(tmp_path.rglob("summary.json"))


@pytest.mark.parametrize("argv", [["theorem1"], ["theorem2"], ["eig", "--margin", "0.25"], ["eig"]])
def test_cli_table_exponent_on_the_dilated_domain_is_a_config_error(tmp_path, monkeypatch, argv, capsys):
    # a table is defined on the configured mesh only; a run that also solves
    # on the dilated domain exited 2 after the first eigenpair solve
    table, cfg = tmp_path / "p.csv", tmp_path / "t.cfg"
    table.write_text("x,value\n" + "".join(f"{x:.17g},{2 + 0.1 * x:.17g}\n" for x in np.linspace(0, 1, 33)))
    cfg.write_text(f"mesh.n = 32\np1.table = {table}\n")
    run = [*argv, "--config", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]
    if argv == ["eig"]:
        assert main(run) == 0  # no dilation: the table serves
        return

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the table check")

    monkeypatch.setattr(cli, "first_eigenpair", no_solve)
    assert main(run) == 3
    err = capsys.readouterr().err
    assert err.count("config error") == 1 and "config error: p1.table:" in err
    assert "dilated domain" in err


@pytest.mark.parametrize("key", ["f.amplitude_factor", "f.eta_factor", "tol.increment"])
def test_cli_removed_keys_are_unknown(tmp_path, key, capsys):
    # the benchmark factors and the monotone-iteration increment tolerance
    # are constants of pxlap.existence
    (tmp_path / "old.cfg").write_text(f"{key} = 1.0\n")
    assert main(["theorem1", "--config", str(tmp_path / "old.cfg"), "--quiet"]) == 3
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_cli_reports_homotopy_errors_with_the_others(tmp_path, monkeypatch, capsys):
    # the homotopy settings are checked by building their HomotopyConfig,
    # still before any solve and together with every other setting
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the settings were validated")

    monkeypatch.setattr(cli, "first_eigenpair", no_solve)
    cfg = tmp_path / "h.cfg"
    cfg.write_text(
        "mesh.n = 32\nsolver.tol = -1\nhomotopy.J_fraction = 2\nhomotopy.t_steps = 0\n"
        "homotopy.delta = -1\nhomotopy.R = 1\nhomotopy.R_hat = 3\n"
    )
    rc = main(["theorem2", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("config error") == 5 and "solver.tol must be positive" in err
    for message in ("J_fraction must lie in (0, 1)", "the t-grid needs at least 2 steps",
                    "the probe's shift needs delta > 0", "radii must satisfy R_hat < R"):
        assert f"config error: homotopy: {message}" in err
    assert not (tmp_path / "summary.json").exists()


def test_cli_theorem2_checks_the_annulus_radii_before_the_trace(tmp_path, monkeypatch, capsys):
    # R = 1 lies below the automatic R_hat, which only the annulus search
    # knows; it runs before the continuation, so the run stops untraced
    def no_trace(*args, **kwargs):
        raise AssertionError("the continuation ran before the radii were checked")

    monkeypatch.setattr(cli, "continuation", no_trace)
    cfg = tmp_path / "r.cfg"
    cfg.write_text("mesh.n = 32\nhomotopy.R = 1\n")
    rc = main(["theorem2", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    assert "radii must satisfy R_hat < R" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


# exponents admissible on [0, 1] that fail on the domain dilated by 0.25
_DILATED_FAULTS = {
    "1.2 + x": "exponent must satisfy p_min > 1, sampled minimum 0.95",
    "2 + sqrt(x)": "exponent must satisfy p_min > 1, sampled minimum nan",
    "2 + 1/(x+0.25)": "exponent must be finite, sampled maximum inf",
}
_NOT_MONOTONE = "exponent fails the direction-monotonicity check in every coordinate direction"
_POLE = "2 + 1/(x - 0.3)**2"
_BOWL = "2 + (x - 1.1)**2"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eig", "--mesh", "n=2"], "mesh.a, mesh.b, mesh.n: need at least 4 elements"),
        (["eig", "--mesh", "a=1,b=0"], "mesh.a, mesh.b, mesh.n: degenerate interval"),
        (["eig", "--mesh", "kind=rectangle,nx=1"], "mesh.nx, mesh.ny: need at least 2 cells"),
        (["eig", "--p", "1", "--mesh", "n=8"], "p1.expr: exponent must satisfy p_min > 1"),
        (["theorem1", "--config", "p2.cfg"], "p2.expr: exponent must satisfy p_min > 1"),
        (["eig", "--config", "t.cfg"], "p1.table: exponent must satisfy p_min > 1"),
        # infinite at the node x = 1/3
        (["eig", "--p", "2 + 1/(x - 1/3)**2", "--mesh", "n=6"], "p1.expr: exponent must be finite"),
        *(
            ([cmd, "--config", f"d{k}.cfg"], f"p1.expr: on the dilated domain: {message}")
            for cmd in ("theorem1", "theorem2")
            for k, message in enumerate(_DILATED_FAULTS.values())
        ),
        *(
            (["eig", "--p", p, "--mesh", "n=32", "--margin", "0.25"],
             f"p1.expr: on the dilated domain: {message}")
            for p, message in _DILATED_FAULTS.items()
        ),
        # not monotone in x on [0, 1]; exited 2 naming a library keyword
        (["eig", "--p", _POLE, "--mesh", "n=16"], f"p1.expr: {_NOT_MONOTONE}"),
        (["probe-L9", "--config", "pole.cfg"], f"p1.expr: {_NOT_MONOTONE}"),
        # monotone on [0, 1], not on [-0.25, 1.25]; theorem1 exited 2 after
        # the base eigenpair solve
        (["theorem1", "--config", "bowl.cfg"], f"p1.expr: on the dilated domain: {_NOT_MONOTONE}"),
        (["eig", "--p", _BOWL, "--mesh", "n=32", "--margin", "0.25"],
         f"p1.expr: on the dilated domain: {_NOT_MONOTONE}"),
    ],
)
def test_cli_rejected_mesh_or_exponent_is_config_error(
    tmp_path, monkeypatch, argv, message, capsys
):
    # a mesh or an exponent its constructor rejects exited 2, the
    # non-convergence code, with a DomainError or a HypothesisError; an
    # exponent that fails on the dilated domain only did so after the
    # first eigenpair solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the mesh and exponents were built")

    monkeypatch.setattr(cli, "first_eigenpair", no_solve)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p2.cfg").write_text("mesh.n = 8\np2.expr = 0.5 + x\n")
    for name, n, p in (("pole", 16, _POLE), ("bowl", 32, _BOWL)):
        (tmp_path / f"{name}.cfg").write_text(f"mesh.n = {n}\np1.expr = {p}\np2.expr = {p}\n")
    for k, p in enumerate(_DILATED_FAULTS):
        (tmp_path / f"d{k}.cfg").write_text(f"mesh.n = 32\np1.expr = {p}\np2.expr = {p}\n")
    table = tmp_path / "one.csv"
    table.write_text("x,value\n" + "".join(f"{x:.17g},1.0\n" for x in np.linspace(0, 1, 9)))
    (tmp_path / "t.cfg").write_text(f"mesh.n = 8\np1.table = {table}\n")
    assert main([*argv, "--output-dir", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.count("config error") == 1 and message in err
    assert not list(tmp_path.rglob("summary.json"))


def test_cli_eig_without_a_margin_solves_on_the_configured_domain_only(tmp_path):
    # p = 1.2 + x dips below 1 on the dilated domain, which eig without a
    # margin never builds
    argv = ["eig", "--p", "1.2 + x", "--mesh", "n=32", "--output-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert "enlarged" not in json.loads((tmp_path / "summary.json").read_text())


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["eig", "--margin", "1e20"], "mesh.n = 8\n"),
        (["theorem1"], "mesh.n = 8\nmargin = 1e300\n"),
        # fits int64, and exited 1 allocating 114 PiB for the dilated mesh
        (["eig", "--margin", "1e15"], "mesh.n = 8\n"),
    ],
)
def test_cli_huge_margin_is_a_typed_error(tmp_path, monkeypatch, argv, cfg, capsys):
    # the margin's cell count overflowed int64 in snap_margin, and the run
    # exited 1 with a TypeError traceback; then it exited 2 after the first
    # eigenpair solve; a margin is a setting, checked before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the margin was checked")

    monkeypatch.setattr(cli, "first_eigenpair", no_solve)
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text(cfg)
    rc = main([*argv, "--config", str(cfg_path), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("config error") == 1
    assert "config error: margin: " in err
    assert "needs more cells per axis than a mesh can count" in err
    assert not (tmp_path / "summary.json").exists()


def test_cli_mesh_beyond_the_node_bound_is_a_config_error(tmp_path, capsys, no_large_linspace):
    # the assembly plan's int32 indices bound the node count of every mesh
    assert main(["eig", "--mesh", "n=1000000000", "--output-dir", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.count("config error") == 1
    assert "config error: mesh.a, mesh.b, mesh.n: " in err and "nodes a mesh can hold" in err


def test_cli_probe_delta_flag_is_recorded(tmp_path):
    # --delta used to reach the probe but not effective_config
    cfg = tmp_path / "p.cfg"
    cfg.write_text("mesh.n = 32\nhomotopy.seeds = 1\n")
    rc = main([
        "probe-L9", "--config", str(cfg), "--delta", "1e-2",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["effective_config"]["homotopy.delta"] == 0.01
    assert data["nonexistence_probe"]["delta"] == 0.01


def test_cli_probe_reads_the_homotopy_J(tmp_path):
    # probe-L9 used to take J = J_fraction * lambda1 * (p_min - 1), which
    # exceeds lambda1 at the default fraction once p_min > 3, and still
    # reported the gate satisfied; it now probes at the trace's J
    cfg = tmp_path / "p.cfg"
    cfg.write_text("mesh.n = 32\np1.expr = 3.5\np2.expr = 3.5\nhomotopy.seeds = 3\n")
    assert main(["eig", "--config", str(cfg), "--output-dir", str(tmp_path / "eig"), "--quiet"]) == 0
    assert main(["probe-L9", "--config", str(cfg), "--output-dir", str(tmp_path / "probe"), "--quiet"]) == 0
    lambda1 = json.loads((tmp_path / "eig" / "summary.json").read_text())["eigen"]["lambda1"]
    probe = json.loads((tmp_path / "probe" / "summary.json").read_text())["nonexistence_probe"]
    assert probe["J"] == pytest.approx(0.5 * lambda1, rel=1e-12)
    assert probe["J"] < lambda1 and probe["applicable"]


def test_cli_reports_file_and_flag_errors_at_once(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh.n = 32\nsolver.tol = abc\n")
    rc = main([
        "eig", "--config", str(cfg), "--mesh", "n=abc,nx=foo",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{cfg}:2: bad value for solver.tol" in err
    assert "--mesh: bad value for mesh.n" in err
    assert "--mesh: bad value for mesh.nx" in err
    assert not (tmp_path / "summary.json").exists()


def test_cli_eig_reads_margin_from_config(tmp_path):
    # eig used to take the dilation margin from --margin only
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mesh.n = 32\nmargin = 0.25\n")
    rc = main(["eig", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["effective_config"]["margin"] == 0.25
    assert data["enlarged"]["tau"] > 0
    assert (tmp_path / "eigenfunction_enlarged.csv").exists()
    # report field names are the on-disk keys
    assert set(data["eigen"]) == {
        "lambda1", "residual", "modular_residual",
        "iterations", "converged", "consistent",
    }
    assert set(data["enlarged"]) == {"lambda1", "tau", "margin"}


@pytest.mark.parametrize("formats", ["xml", "csv", "json,xml", "json,"])
def test_cli_rejects_bad_output_formats(tmp_path, formats, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"mesh.n = 16\noutput.formats = {formats}\n")
    rc = main(["eig", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 3
    assert "output.formats" in capsys.readouterr().err


def test_cli_json_only_writes_no_csv(tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("mesh.n = 16\noutput.formats = json\n")
    rc = main(["eig", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    assert (tmp_path / "summary.json").exists()
    assert not list(tmp_path.glob("*.csv"))


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
    assert set(data["norm"]) == {"modular", "norm", "residual", "iterations"}


def test_cli_solve_writes_solution(tmp_path):
    rc = main([
        "solve", "--p", "3", "--rhs", "1", "--mesh", "n=64",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["solve"]["converged"]
    assert set(data["solve"]) == {"converged", "residual", "iterations"}
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


@pytest.mark.parametrize("rhs", ["9**9**8", "log(x-2)"])
def test_cli_solve_rhs_that_fails_to_evaluate_is_config_error(tmp_path, rhs):
    # the --rhs expression is not part of the config, so cmd_solve checks it:
    # an overflow and a NaN load both fail before any Newton step
    rc = run_cli(
        ["solve", "--p", "3", "--rhs", rhs, "--mesh", "n=32", "--quiet"],
        cwd=tmp_path,
        timeout=30,
    )
    assert rc.returncode == 3
    assert "--rhs" in rc.stderr and "Traceback" not in rc.stderr


def test_cli_solve_rhs_checked_at_quadrature_points(tmp_path):
    # 1/sqrt(x) is infinite at the node x = 0 but finite where the load is
    # integrated, so the solve runs
    rc = main([
        "solve", "--p", "2", "--rhs", "1/sqrt(x)", "--mesh", "n=32",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 0


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
    # theorem2 runs the coupled Newton solves on the mesh's reused block matrix
    cfg = tmp_path / "d.cfg"
    cfg.write_text("mesh.n = 32\nhomotopy.seeds = 6\n")
    for command in ("probe-L9", "theorem2"):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / command / name
            rc = main([
                command, "--config", str(cfg), "--output-dir", str(out),
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
    # report field names are the on-disk keys
    assert set(data["hypotheses"]) == {
        "passed", "thresholds", "eta_declared", "eta_above_threshold",
        "small_growth_positive", "small_growth_negative", "decay_at_infinity",
        "bounded_on_boxes", "rho_hat", "rho_hat_reflected", "note",
    }
    assert set(data["box_verification"]) == {
        "worst_sub_margin", "worst_sup_margin", "slack", "passed",
    }
    for side in ("positive", "negative"):
        assert set(data[side]) == {
            "converged", "iterations", "residuals", "pretruncation_violation",
            "interior_positive",
        }


def test_cli_theorem1_2d_p_below_two_raises_no_runtime_warning(tmp_path):
    # p < 2 on the whole dilated domain, where the eigenfunction vanishes at
    # the quadrature points of boundary-corner triangles: any RuntimeWarning
    # (0^(negative) * 0 = NaN, say) ends the run with a traceback
    cfg = tmp_path / "t1.cfg"
    cfg.write_text(
        "mesh.kind = rectangle\nmesh.nx = 12\nmesh.ny = 12\n"
        "p1.expr = 1.8 + 0.1*x\np2.expr = 1.8 + 0.1*x\nmargin = 0.25\n"
    )
    rc = run_cli(
        ["theorem1", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"],
        cwd=tmp_path,
        timeout=120,
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    assert rc.returncode == 0, rc.stderr
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["positive"]["converged"] and data["negative"]["converged"]
    assert data["box_verification"]["passed"]


def test_cli_nan_of_f_is_reported_without_warnings(tmp_path):
    # sqrt is NaN at every negative state: the hypothesis probe reports it,
    # and stderr used to carry 12 lines of "invalid value encountered in sqrt"
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "mesh.n = 32\nf.benchmark = false\n"
        "f1.expr = 30*sqrt(s1)\nf2.expr = 30*sqrt(s2)/(1+s1**2)\neta1 = 1\neta2 = 1\n"
    )
    rc = run_cli(
        ["theorem1", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"],
        cwd=tmp_path,
        timeout=120,
    )
    assert rc.returncode == 2, rc.stderr
    assert "hypothesis probe failed" in rc.stderr
    assert "RuntimeWarning" not in rc.stderr


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
    # the conventions block and trace.family were constants of a deleted family
    assert "conventions" not in data
    assert set(data["trace"]) == {"max_pair_norm", "steps"}
    assert len(data["trace"]["steps"]) == 3
    # annulus artifacts exist for every reported solution
    for k in range(len(data["annulus"]["solutions"])):
        assert (tmp_path / f"annulus_u1_{k}.csv").exists()
    trace_csv = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_csv[0] == "t,solutions,max_pair_norm,max_residual"
    assert len(trace_csv) == 4
    # report field names are the on-disk keys
    assert set(data["boundedness"]) == {
        "max_pair_norm", "radius", "passed", "suggested_radius", "witness_t",
    }
    assert set(data["nonexistence_probe"]) == {
        "applicable", "reason", "attempts", "min_residual", "max_iterate_norm",
        "converged_count", "passed", "tolerance", "rng_seed", "J", "delta",
    }
    assert set(data["annulus"]) == {
        "R_hat", "R", "second_solution_found", "rng_seed", "solutions",
    }
    for s in data["annulus"]["solutions"][:1]:
        assert set(s) == {"pair_norm", "residual", "inside_box", "distance_to_known"}


def test_cli_theorem2_trace_radius_sets_boundedness(tmp_path):
    # homotopy.R_tilde is the radius of the boundedness probe on the trace
    cfg = tmp_path / "t2.cfg"
    cfg.write_text(
        "mesh.n = 32\nhomotopy.t_steps = 2\nhomotopy.seeds = 1\nhomotopy.R_tilde = 1e-3\n"
    )
    rc = main(["theorem2", "--config", str(cfg), "--output-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["effective_config"]["homotopy.R_tilde"] == 1e-3
    bnd = data["boundedness"]
    assert bnd["radius"] == 1e-3
    assert bnd["max_pair_norm"] > 1e-3
    assert not bnd["passed"]
    assert bnd["witness_t"] is not None


def test_cli_nonconvergence_exit_code(tmp_path):
    cfg = tmp_path / "nc.cfg"
    # one Newton step per eps rung cannot reach the tolerance at p = 3
    cfg.write_text("mesh.n = 32\nsolver.max_iter = 1\np1.expr = 3\np2.expr = 3\n")
    rc = main([
        "solve", "--config", str(cfg), "--rhs", "1",
        "--output-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 2


def test_cli_huge_exponent_names_the_norm_not_a_zero_field(tmp_path, capsys):
    # the nonzero initial field's powers all underflow or overflow; the norm
    # read 0.0 and the run ended with "cannot normalize the zero field"
    argv = ["eig", "--p", "2 + 1e300*x", "--mesh", "n=16", "--output-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Luxemburg Newton stalled" in err and "zero field" not in err


def test_default_config_validates():
    cfg = parse_config()
    assert cfg["mesh.kind"] == "interval"


def _theorem_config(tmp_path, p2):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mesh.n = 32\np1.expr = 2 + 0.1*x\np2.expr = {p2}\nmargin = 0.25\n"
        "homotopy.t_steps = 2\nhomotopy.seeds = 3\n"
    )
    return ["--config", str(cfg)]


@pytest.mark.parametrize(
    "command, p2, dilated_fields",
    [
        ("theorem1", "2 + 0.1*x", 1),  # one field serves both components
        ("theorem1", "2.2 + 0.1*x", 2),
        ("eig", None, 1),
    ],
    ids=["theorem1-equal", "theorem1-distinct", "eig-margin"],
)
def test_cli_builds_the_dilated_domain_once(tmp_path, monkeypatch, command, p2, dilated_fields):
    # the pre-solve check and the enlarged eigenpair each built the dilated
    # mesh and its exponent fields: 2 meshes and 2 fields (theorem1 with
    # p1 = p2, eig --margin), 3 meshes and 4 fields (theorem1 with p1 != p2)
    from pxlap import eigen
    from pxlap.exponents import ExponentField

    outer, field_meshes = [], []
    dilate, init = eigen.dilate_domain, ExponentField.__init__

    def counted_dilate(mesh, margin):
        outer.append(dilate(mesh, margin))
        return outer[-1]

    def counted_init(self, mesh, rule):
        field_meshes.append(mesh)
        init(self, mesh, rule)

    monkeypatch.setattr(eigen, "dilate_domain", counted_dilate)
    monkeypatch.setattr(ExponentField, "__init__", counted_init)
    if command == "eig":
        args = ["--p", "2 + 0.1*x", "--mesh", "n=32", "--margin", "0.25"]
    else:
        args = _theorem_config(tmp_path, p2)
    assert main([command, *args, "--output-dir", str(tmp_path), "--quiet"]) == 0
    assert len(outer) == 1
    assert sum(mesh is outer[0] for mesh in field_meshes) == dilated_fields


@pytest.mark.parametrize("command", ["eig", "theorem1", "theorem2", "probe-L9"])
def test_cli_builds_contexts_once_before_any_eigenpair(tmp_path, monkeypatch, command):
    # the benchmark wraps cli.build_contexts(v) and stamps the end of set-up
    # when it first returns its (mesh, ctx1, ctx2) tuple; the eigen solves
    # must come after it
    from pxlap import eigen, existence
    from pxlap.mesh import Mesh
    from pxlap.operator import OperatorContext

    events = []
    build = cli.build_contexts

    def recorded_build(v):
        built = build(v)
        events.append(("build", built))
        return built

    monkeypatch.setattr(cli, "build_contexts", recorded_build)
    for module in (cli, existence, eigen):
        solve = module.first_eigenpair

        def recorded_solve(*a, solve=solve, **kw):
            events.append(("eig", None))
            return solve(*a, **kw)

        monkeypatch.setattr(module, "first_eigenpair", recorded_solve)
    args = ["--mesh", "n=32"] if command == "eig" else _theorem_config(tmp_path, "2 + 0.1*x")
    assert main([command, *args, "--output-dir", str(tmp_path), "--quiet"]) == 0
    builds = [built for kind, built in events if kind == "build"]
    assert len(builds) == 1 and events[0][0] == "build"
    assert any(kind == "eig" for kind, _ in events)
    mesh, ctx1, ctx2 = builds[0]
    assert isinstance(mesh, Mesh)
    assert isinstance(ctx1, OperatorContext) and isinstance(ctx2, OperatorContext)
    assert ctx1.mesh is mesh and ctx2.mesh is mesh
