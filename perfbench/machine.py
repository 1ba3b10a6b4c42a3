"""Paths, BLAS pinning and the machine record of a benchmark run.

Import this module before anything imports numpy: it pins every BLAS
library the package may load to one thread.
"""

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_package():
    """Import ``ldinfomax`` and its CLI from this checkout's ``src`` only."""
    if not (SRC / "ldinfomax" / "__init__.py").is_file():
        raise ImportError(f"no ldinfomax package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ldinfomax
    import ldinfomax.cli

    if Path(ldinfomax.__file__).resolve().parent != SRC / "ldinfomax":
        raise ImportError(f"ldinfomax was imported from {ldinfomax.__file__}, not {SRC}")
    return ldinfomax


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def record():
    """Versions, BLAS, processor and commit; call after numpy is imported."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(),
    }
