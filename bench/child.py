"""One `pxlap` CLI run inside the benchmark.

    python3 bench/child.py --mark MARK.json [--trace TRACE.json | --setup-only] -- <pxlap arguments>

Runs ``pxlap.cli.main`` on the arguments after ``--`` from the ``src``
directory next to this benchmark, then exits with its exit code.  MARK.json
receives the CLOCK_MONOTONIC instant at which ``cli.build_contexts`` first
returned: the config is then parsed and the mesh and operator contexts are
built, which ends set-up.
With ``--trace`` the span tracer is installed before the CLI runs, and the
spans, their totals and the import time are written to TRACE.json after it.
With ``--setup-only`` the child exits with code 0 as soon as set-up ends.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = (BENCH.parent / "src").resolve()


class _SetupDone(Exception):
    pass


def _artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    mark_path = Path(opts[opts.index("--mark") + 1])
    trace_path = Path(opts[opts.index("--trace") + 1]) if "--trace" in opts else None
    setup_only = "--setup-only" in opts

    t0 = time.perf_counter()
    import pxlap.cli as cli

    import_s = time.perf_counter() - t0
    marks = {}
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"pxlap was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 97

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    build_contexts = cli.build_contexts

    def timed_build_contexts(cfg):
        built = build_contexts(cfg)
        marks.setdefault("setup", time.monotonic())
        if setup_only:
            raise _SetupDone
        return built

    cli.build_contexts = timed_build_contexts
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    mark_path.write_text(json.dumps(marks))
    if tracer is not None:
        outdir = Path(cli_args[cli_args.index("--output-dir") + 1])
        tracer.dump(
            trace_path,
            {"import_s": import_s, "artifact_bytes": _artifact_bytes(outdir) if outdir.is_dir() else 0},
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
