"""Workloads of the pxlap benchmark and the checks on their answers.

A workload is a `pxlap` CLI command plus, for the theorem commands, a config
file that the benchmark writes.  The workload seed reaches the program only as
the CLI's ``--seed`` argument.  Every run's ``summary.json`` is checked against
the reference values committed in ``reference.json`` (taken from the seed
commit at seed 42).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The README config: interval n=256, p1 = p2 = 2 + 0.1*x, benchmark f,
# dilation margin 0.25.  No rng_seed line: the seed comes from --seed.
CONFIG_1D = """\
mesh.kind = interval
mesh.n = 256
p1.expr = 2 + 0.1*x
p2.expr = 2 + 0.1*x
f.benchmark = true
margin = 0.25
homotopy.family = tilde
homotopy.t_steps = 11
homotopy.seeds = 50
"""

# relative tolerances of the reference comparisons
THEOREM1_RTOL = 1e-9  # lambda_tilde, tau
THEOREM2_RTOL = 1e-8  # max_pair_norm
THEOREM2_TRACE_RESIDUAL = 1e-8
EIG_RTOL = 1e-9  # lambda1


def _close(value, ref, rtol) -> bool:
    return abs(float(value) - float(ref)) <= rtol * abs(float(ref))


def check_theorem1(summary: dict, ref: dict) -> tuple[list, list]:
    fails = []
    tol = summary["effective_config"]["tol.residual"]
    if summary["hypotheses"]["passed"] is not True:
        fails.append("hypotheses.passed is not true")
    if summary["box_verification"]["passed"] is not True:
        fails.append("box_verification.passed is not true")
    for side in ("positive", "negative"):
        if summary[side]["converged"] is not True:
            fails.append(f"{side} pair did not converge")
        worst = max(summary[side]["residuals"])
        if not worst <= tol:
            fails.append(f"{side} residual {worst:.3e} > tol.residual {tol:g}")
    got = summary["constants"]["lambda_tilde"]
    if len(got) != len(ref["lambda_tilde"]) or not all(
        _close(g, r, THEOREM1_RTOL) for g, r in zip(got, ref["lambda_tilde"])
    ):
        fails.append(f"lambda_tilde {got} != reference {ref['lambda_tilde']}")
    tau = summary["constants"]["tau"]
    if not _close(tau, ref["tau"], THEOREM1_RTOL):
        fails.append(f"tau {tau!r} != reference {ref['tau']!r}")
    return fails, []


def check_theorem2(summary: dict, ref: dict) -> tuple[list, list]:
    fails, notes = [], []
    steps = summary["trace"]["steps"]
    counts = [s["solutions"] for s in steps]
    if counts != ref["step_solutions"]:
        fails.append(f"per-step solution counts {counts} != reference {ref['step_solutions']}")
    worst = max((r for s in steps for r in s["residuals"]), default=0.0)
    if not worst <= THEOREM2_TRACE_RESIDUAL:
        fails.append(f"trace residual {worst:.3e} > {THEOREM2_TRACE_RESIDUAL:g}")
    mpn = summary["trace"]["max_pair_norm"]
    if not _close(mpn, ref["max_pair_norm"], THEOREM2_RTOL):
        fails.append(f"max_pair_norm {mpn!r} != reference {ref['max_pair_norm']!r}")
    if summary["boundedness"]["passed"] is not True:
        fails.append("boundedness.passed is not true")
    if summary["trivial_at_t0"] is not True:
        fails.append("trivial_at_t0 is not true")
    # the documented criterion-7 falsification: recorded, never a failure
    probe = summary["nonexistence_probe"]["converged_count"]
    if probe != ref["probe_converged_count"]:
        notes.append(
            f"nonexistence probe converged_count {probe} != reference "
            f"{ref['probe_converged_count']} (recorded only)"
        )
    return fails, notes


def check_eig(summary: dict, ref: dict) -> tuple[list, list]:
    fails = []
    eig = summary["eigen"]
    if eig["converged"] is not True:
        fails.append("eigen.converged is not true")
    if eig["consistent"] is not ref["consistent"]:
        fails.append(f"eigen.consistent {eig['consistent']!r} != reference {ref['consistent']!r}")
    if not _close(eig["lambda1"], ref["lambda1"], EIG_RTOL):
        fails.append(f"lambda1 {eig['lambda1']!r} != reference {ref['lambda1']!r}")
    return fails, []


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple  # pxlap arguments before the common ones
    config: str | None  # config file text, or None when the command takes none
    check: object  # (summary, reference) -> (failures, notes)

    def argv(self, seed: int, outdir: Path, config_path: Path | None) -> list:
        args = list(self.command)
        if self.config is not None:
            args += ["--config", str(config_path)]
        return args + ["--output-dir", str(outdir), "--seed", str(seed), "--quiet"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "theorem1-1d",
            "existence pipeline on the README config; the growth-hypothesis probe "
            "and f evaluation dominate, sparse solves are small",
            ("theorem1",),
            CONFIG_1D,
            check_theorem1,
        ),
        Workload(
            "theorem2-1d",
            "homotopy trace, probes and annulus search: many small coupled "
            "nonsymmetric block-Newton solves, norms and f calls",
            ("theorem2",),
            CONFIG_1D,
            check_theorem2,
        ),
        Workload(
            "eig-2d",
            "first eigenpair on a 128x128 triangulation: few large symmetric "
            "Newton solves and large-array assembly and norms",
            ("eig", "--p", "2 + 0.1*x", "--mesh", "kind=rectangle,nx=128,ny=128"),
            None,
            check_eig,
        ),
    )
}


def _finite_numbers(node, path="") -> list:
    """Paths of every non-finite number in a parsed JSON document."""
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return []
    if isinstance(node, (int, float)):
        return [] if math.isfinite(node) else [path or "/"]
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _finite_numbers(v, f"{path}/{k}")]
    return [p for i, v in enumerate(node) for p in _finite_numbers(v, f"{path}/{i}")]


def check_run(workload: Workload, exit_code: int, summary_path: Path, reference: dict) -> tuple[list, list]:
    """Failures and notes for one finished CLI run of ``workload``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], []
    if not summary_path.is_file():
        return [f"missing {summary_path.name}"], []
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable {summary_path.name}: {exc}"], []
    bad = _finite_numbers(summary)
    if bad:
        return [f"non-finite numbers at {', '.join(bad[:5])}"], []
    try:
        return workload.check(summary, reference[workload.name])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"summary lacks an expected field: {exc!r}"], []


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
