"""Self-test of the benchmark's answer checker.

    python3 bench/selftest.py

Builds summaries that match reference.json and checks that the checker
accepts them, then breaks them one way at a time (a perturbed lambda1, tau or
solution count, a NaN, a missing summary.json, a nonzero exit code) and
checks that each is reported as a failure.  The benchmark runs this before
every measurement and reports ``correct: false`` when it does not pass.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, check_run, load_reference


def _good_summaries(ref: dict) -> dict:
    t1, t2, eig = ref["theorem1-1d"], ref["theorem2-1d"], ref["eig-2d"]
    return {
        "theorem1-1d": {
            "effective_config": {"tol.residual": 1e-8},
            "hypotheses": {"passed": True},
            "box_verification": {"passed": True},
            "positive": {"converged": True, "residuals": [1e-12, 1e-12]},
            "negative": {"converged": True, "residuals": [1e-12, 1e-12]},
            "constants": {"lambda_tilde": list(t1["lambda_tilde"]), "tau": t1["tau"]},
        },
        "theorem2-1d": {
            "trace": {
                "max_pair_norm": t2["max_pair_norm"],
                "steps": [{"solutions": n, "residuals": [0.0] * n} for n in t2["step_solutions"]],
            },
            "boundedness": {"passed": True},
            "trivial_at_t0": True,
            "nonexistence_probe": {"converged_count": t2["probe_converged_count"]},
        },
        "eig-2d": {
            "eigen": {"converged": True, "consistent": eig["consistent"], "lambda1": eig["lambda1"]},
        },
    }


def _perturbations():
    """(workload, description, edit of a good summary) that must fail."""

    def scale(path, factor):
        def edit(s):
            *outer, last = path
            node = s
            for key in outer:
                node = node[key]
            node[last] *= factor
        return edit

    def set_value(path, value):
        def edit(s):
            *outer, last = path
            node = s
            for key in outer:
                node = node[key]
            node[last] = value
        return edit

    return [
        ("eig-2d", "lambda1 perturbed by 1e-7 relative", scale(("eigen", "lambda1"), 1 + 1e-7)),
        ("eig-2d", "lambda1 is NaN", set_value(("eigen", "lambda1"), float("nan"))),
        ("eig-2d", "consistent flipped", lambda s: s["eigen"].update(consistent=not s["eigen"]["consistent"])),
        ("theorem1-1d", "tau perturbed by 1e-7 relative", scale(("constants", "tau"), 1 + 1e-7)),
        ("theorem1-1d", "negative residual above tol.residual", set_value(("negative", "residuals"), [1e-12, 1e-6])),
        ("theorem2-1d", "one step lost a solution", lambda s: s["trace"]["steps"][-1].update(solutions=2)),
        ("theorem2-1d", "max_pair_norm perturbed by 1e-6 relative", scale(("trace", "max_pair_norm"), 1 + 1e-6)),
    ]


def run_selftest(workdir: Path) -> list:
    """Problems found in the checker; an empty list means it behaves."""
    ref = load_reference()
    problems = []
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "summary.json"
    try:
        good = _good_summaries(ref)
        for name, summary in good.items():
            path.write_text(json.dumps(summary))
            fails, _ = check_run(WORKLOADS[name], 0, path, ref)
            if fails:
                problems.append(f"{name}: a matching summary was rejected: {fails}")
            if not check_run(WORKLOADS[name], 2, path, ref)[0]:
                problems.append(f"{name}: exit code 2 was not reported")
        for name, what, edit in _perturbations():
            summary = copy.deepcopy(good[name])
            edit(summary)
            path.write_text(json.dumps(summary))
            if not check_run(WORKLOADS[name], 0, path, ref)[0]:
                problems.append(f"{name}: {what} was not reported")
        path.unlink()
        for name in WORKLOADS:
            if not check_run(WORKLOADS[name], 0, path, ref)[0]:
                problems.append(f"{name}: a missing summary.json was not reported")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


if __name__ == "__main__":
    found = run_selftest(Path(__file__).resolve().parent / "_work" / "selftest")
    for problem in found:
        print(problem)
    print("checker self-test:", "FAILED" if found else "passed")
    sys.exit(1 if found else 0)
