"""Write reference.json: the answers each workload gives at seed 42.

    python3 bench/make_reference.py

Run it on the commit whose answers are the reference (the benchmark's seed
commit); later commits are checked against the file it writes.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORK, child_env
from workloads import REFERENCE_PATH, WORKLOADS

SEED = 42


def extract(name: str, summary: dict) -> dict:
    if name == "theorem1-1d":
        return {"lambda_tilde": summary["constants"]["lambda_tilde"], "tau": summary["constants"]["tau"]}
    if name == "theorem2-1d":
        return {
            "step_solutions": [s["solutions"] for s in summary["trace"]["steps"]],
            "max_pair_norm": summary["trace"]["max_pair_norm"],
            "probe_converged_count": summary["nonexistence_probe"]["converged_count"],
        }
    return {"lambda1": summary["eigen"]["lambda1"], "consistent": summary["eigen"]["consistent"]}


def main() -> int:
    WORK.mkdir(exist_ok=True)
    reference = {"seed": SEED}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name, workload in WORKLOADS.items():
            work = Path(tmp) / name
            work.mkdir()
            config = None
            if workload.config is not None:
                config = work / "run.cfg"
                config.write_text(workload.config)
            argv = workload.argv(SEED, work / "out", config)
            subprocess.run([sys.executable, "-m", "pxlap.cli", *argv], cwd=work, env=child_env(), check=True)
            reference[name] = extract(name, json.loads((work / "out" / "summary.json").read_text()))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
