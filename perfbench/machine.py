"""Process environment: BLAS thread cap and the machine record.

``cap_blas_threads`` must run before numpy is imported; this module imports
numpy lazily for that reason.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_src(root: str) -> bool:
    """Put ``<root>/src`` first on sys.path; False if it holds no ecctlab package."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ecctlab", "__init__.py")):
        return False
    sys.path.insert(0, src)
    return True


def usable_cpus() -> int:
    """CPUs this process may run on: affinity, capped by a cgroup v2 CPU quota."""
    n = len(os.sched_getaffinity(0))
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota, period = fh.read().split()
        if quota != "max":
            n = min(n, max(1, -(-int(quota) // int(period))))
    except (OSError, ValueError):
        pass
    return n


def cap_blas_threads() -> int:
    """Pin BLAS/OpenMP threads to the usable CPUs, so BLAS never oversubscribes."""
    n = usable_cpus()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "usable_cpus": usable_cpus(),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_runtime_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
