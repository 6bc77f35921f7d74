"""Print a JSON note on the machine and numeric stack the benchmark runs on.

    python3 bench/machine.py

Records the processor count, load average, Python, numpy and scipy versions,
and the BLAS vendor and thread count of numpy's and scipy's bundled BLAS.
The benchmark never sets BLAS or OpenMP thread variables; this note says what
the environment gave.
"""

import ctypes
import json
import os
import platform
from pathlib import Path

THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads(package) -> dict:
    """Thread count reported by each OpenBLAS library bundled with ``package``."""
    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    found = {}
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in THREAD_SYMBOLS:
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[lib.name] = fn()
                break
    return found


def describe() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {**_openblas_threads(numpy), **_openblas_threads(scipy)},
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PXLAP_THREADS")
            if k in os.environ
        },
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    print(json.dumps(describe()))
