"""pxlap benchmark: end-to-end CLI timings and a traced per-layer breakdown.

    python3 bench/run.py --workload NAME --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload all [--out REPORT.json]

Workloads (see workloads.py): theorem1-1d, theorem2-1d, eig-2d; ``all`` runs
each of them untraced and traced and prints every metric.

The load is a closed loop with one client: this process starts a
`pxlap` CLI child, waits for it, checks its answers, and starts the next,
for about ``--seconds`` (at least two full runs).  Every full run of a set
gets the same seed, so their ``summary.json`` files must be byte-identical; a
mismatch is a failure.  The first four full runs are each preceded by a
set-up-only child, which exits once set-up ends, so that set-up is sampled
more often than the long runs allow.

With ``--trace 0`` the run reports, as medians with their sample counts:
  wall_s       spawn to exit of the child (what a user waits for)
  setup_s      spawn until ``cli.build_contexts`` first returned: interpreter
               start, import, config parse, mesh and operator contexts
               (full and set-up-only children)
  cpu_s        user + system CPU seconds of the child, all its threads
  peak_rss_mb  peak resident memory of the child, in MiB
and fail_rate, failed over attempted children.

With ``--trace 1`` the run alternates untraced and traced children; a traced
child installs tracer.py inside the CLI process and the run reports the
per-layer metrics of tracer.PER_LAYER (medians over the traced children) and
trace.overhead_frac, the traced wall time over the untraced median, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) names of BENCHMARK.json.
The program under test is the ``src`` directory next to this one; without it
the benchmark exits with code 2.  Thread variables (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, PXLAP_THREADS) are passed through untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from selftest import run_selftest
from tracer import PER_LAYER, layer_metrics
from workloads import WORKLOADS, check_run, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_CHILDREN = 2  # full runs; two same-seed summaries make the determinism pair
SETUP_CHILDREN = 4  # set-up-only children per run, for more set-up samples
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(workload, seed: int, config_path, rundir: Path, mode: str, timeout: float, reference: dict) -> dict:
    """Start one CLI child, wait for it, and measure and check it.

    ``mode`` is "full" (an untraced run), "traced", or "setup" (the child
    exits once set-up ends; only its set-up time is kept).
    """
    rundir.mkdir(parents=True)
    outdir, mark, trace = rundir / "out", rundir / "mark.json", rundir / "trace.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--mark", str(mark)]
    if mode == "traced":
        cmd += ["--trace", str(trace)]
    elif mode == "setup":
        cmd += ["--setup-only"]
    cmd += ["--", *workload.argv(seed, outdir, config_path)]
    with open(rundir / "stdout.txt", "wb") as out, open(rundir / "stderr.txt", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=rundir, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    marks = json.loads(mark.read_text()) if mark.is_file() else {}
    if mode == "setup":
        failures, notes = ([] if proc.returncode == 0 else [f"exit code {proc.returncode}"]), []
    else:
        failures, notes = check_run(workload, proc.returncode, outdir / "summary.json", reference)
    if "setup" not in marks and not failures:
        failures.append("cli.build_contexts never returned")
    result = {
        "mode": mode,
        "exit": proc.returncode,
        "wall_s": end - spawn,
        "setup_s": marks["setup"] - spawn if "setup" in marks else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "failures": failures,
        "notes": notes,
        "summary": (outdir / "summary.json").read_bytes() if (outdir / "summary.json").is_file() else None,
        "per_layer": None,
    }
    if mode == "traced" and trace.is_file():
        result["per_layer"] = layer_metrics(json.loads(trace.read_text()))
    if failures:
        tail = (rundir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"  child failed: {'; '.join(failures)}\n{tail}", file=sys.stderr)
    return result


def run_set(workload, seed: int, seconds: float, trace: bool, work: Path, reference: dict) -> list:
    """Children of one run, one at a time.

    The first SETUP_CHILDREN full children are each preceded by a set-up-only
    child.  With ``trace`` the full children alternate untraced and traced.
    A new full child starts while it is expected to end no more than half its
    duration past ``seconds``, so a run lasts about ``seconds``.
    """
    work.mkdir(parents=True)
    config_path = None
    if workload.config is not None:
        config_path = work / "run.cfg"
        config_path.write_text(workload.config)
    start = time.monotonic()
    children, full = [], []
    while True:
        modes = ["setup"] if len(full) < SETUP_CHILDREN else []
        modes.append("traced" if trace and len(full) % 2 == 1 else "full")
        for mode in modes:
            elapsed = time.monotonic() - start
            child = run_child(
                workload, seed, config_path, work / f"child{len(children)}", mode,
                timeout=max(5.0, RUN_LIMIT_S - elapsed), reference=reference,
            )
            children.append(child)
        full.append(child)
        elapsed = time.monotonic() - start
        expected = statistics.median(c["wall_s"] for c in full)
        if len(full) >= MIN_CHILDREN and (
            elapsed + 0.5 * expected >= seconds or elapsed + expected > RUN_LIMIT_S
        ):
            break
    first = full[0]["summary"]
    for k, child in enumerate(full[1:], start=1):
        if first is not None and child["summary"] is not None and child["summary"] != first:
            child["failures"].append(f"summary.json of run {k} differs from run 0")
    return children


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(children: list, trace: bool) -> dict:
    plain = [c for c in children if c["mode"] == "full"]
    setups = [c["setup_s"] for c in children if c["mode"] != "traced" and c["setup_s"] is not None]
    samples = {m: [c[m] for c in plain] for m in END_TO_END if m != "setup_s"}
    samples["setup_s"] = setups
    out = {
        "attempted": len(children),
        "failed": sum(1 for c in children if c["failures"]),
        "samples": {m: len(v) for m, v in samples.items()},
        "end_to_end": {m: _median(samples[m]) for m in END_TO_END},
    }
    out["end_to_end"]["fail_rate"] = out["failed"] / out["attempted"]
    out["spread"] = {m: [min(v), max(v)] for m, v in samples.items() if v}
    if trace:
        traced = [c for c in children if c["mode"] == "traced" and c["per_layer"] is not None]
        per_layer = {
            m: (None if any(c["per_layer"][m] is None for c in traced) else _median(c["per_layer"][m] for c in traced))
            for m in PER_LAYER if m != "trace.overhead_frac"
        }
        wall_plain = out["end_to_end"]["wall_s"]
        wall_traced = _median(c["wall_s"] for c in children if c["mode"] == "traced")
        per_layer["trace.overhead_frac"] = (
            wall_traced / wall_plain - 1.0 if wall_plain and wall_traced else None
        )
        out["per_layer"] = per_layer
        out["traced_samples"] = len(traced)
    out["children"] = [
        {k: c[k] for k in ("mode", "exit", *END_TO_END, "failures")} for c in children
    ]
    notes = sorted({n for c in children for n in c["notes"]})
    if notes:
        out["notes"] = notes
    return out


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{value:.0f}"
    return f"{value:.6g}"


def print_set(name: str, seed: int, trace: bool, res: dict):
    print(f"== {name}  seed {seed}  trace {int(trace)}  ({res['attempted']} children, one at a time; "
          f"{os.cpu_count()} cpus, load average {os.getloadavg()[0]:.2f})")
    if not trace:
        for metric, unit in END_TO_END.items():
            lo, hi = res["spread"].get(metric, (None, None))
            print(f"  {metric:<14} {_fmt(res['end_to_end'][metric]):>12} {unit:<5} "
                  f"median of {res['samples'][metric]}  (min {_fmt(lo)}, max {_fmt(hi)})")
        print(f"  {'fail_rate':<14} {_fmt(res['end_to_end']['fail_rate']):>12} ratio "
              f"{res['failed']} failed of {res['attempted']} attempted")
    else:
        print(f"  per-layer metrics: median of {res['traced_samples']} traced children "
              f"(end-to-end figures come from untraced runs)")
        for metric, unit in PER_LAYER.items():
            print(f"  {metric:<38} {_fmt(res['per_layer'][metric]):>12} {unit}")
    for note in res.get("notes", []):
        print(f"  note: {note}")


def contract_names(trace: bool) -> list:
    """Metric names of the final line: the lists in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def final_line(sets: list, selftest_ok: bool) -> dict:
    """The closing JSON line; ``sets`` holds (workload, trace, result) triples."""
    units = {**END_TO_END, **PER_LAYER}
    metrics = {}
    for workload, trace, res in sets:
        values = res["per_layer"] if trace else res["end_to_end"]
        prefix = f"{workload}." if len(sets) > 1 else ""
        for name in contract_names(trace):
            metrics[prefix + name] = {"value": values.get(name), "unit": units[name]}
    failed = sum(res["failed"] for _, _, res in sets)
    return {
        "correct": selftest_ok and failed == 0,
        "attempted": sum(res["attempted"] for _, _, res in sets),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full report as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "pxlap" / "cli.py").is_file():
        print(f"benchmark: no pxlap sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    reference = load_reference()
    seed = args.seed % 2**32  # numpy seeds are non-negative

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        problems = run_selftest(work / "selftest")
        for problem in problems:
            print(f"checker self-test: {problem}", file=sys.stderr)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        passes = (False, True) if args.workload == "all" else (bool(args.trace),)
        report = {"seed": seed, "seconds": args.seconds, "workloads": {}}
        if args.workload == "all" or args.out:
            report["machine"] = json.loads(subprocess.run(
                [sys.executable, str(BENCH / "machine.py")], capture_output=True, text=True, check=True,
            ).stdout)
            print(f"machine: {json.dumps(report['machine'])}")
        sets = []
        for trace in passes:
            for name in names:
                children = run_set(
                    WORKLOADS[name], seed, args.seconds, trace, work / f"{name}-{int(trace)}", reference
                )
                res = summarize(children, trace)
                print_set(name, seed, trace, res)
                report["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = res
                sets.append((name, trace, res))
        if args.out:
            args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(json.dumps(final_line(sets, not problems)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
