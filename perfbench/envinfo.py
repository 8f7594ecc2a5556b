"""The environment every result is recorded with.

numpy version, BLAS vendor, version and live thread count, CPU model,
Python version and the CPUs this process may use.  Anything that cannot
be read is reported as ``"unknown"`` rather than guessed.
"""

import ctypes
import os
import platform

import numpy as np

UNKNOWN = "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or UNKNOWN


def _blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return UNKNOWN, UNKNOWN
    return blas.get("name", UNKNOWN), blas.get("version", UNKNOWN)


def _loaded_openblas():
    """Path of the OpenBLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    paths = sorted(p for p in paths if p.startswith("/"))
    return paths[0] if paths else None


def _blas_runtime():
    """(thread count, config string) asked of the loaded OpenBLAS itself."""
    path = _loaded_openblas()
    if path is None:
        return UNKNOWN, UNKNOWN
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return UNKNOWN, UNKNOWN
    threads = config = UNKNOWN
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            threads = int(get_threads())
            config = get_config().decode(errors="replace")
            return threads, config
    return threads, config


def collect():
    name, version = _blas_build()
    threads, config = _blas_runtime()
    return {
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": threads,
        "blas_config": config,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
