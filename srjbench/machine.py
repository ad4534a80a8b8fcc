"""Machine record, host-speed probe and computed kernel counts.

Everything here is read-only: ``/proc/cpuinfo`` and
``/sys/devices/system/cpu`` are read, never written.
"""

import glob
import os
import platform
import sys
import time

import numpy
import scipy

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path):
    try:
        with open(path) as stream:
            return stream.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def caches():
    """Cache levels of cpu0 as ``[{level, type, size_bytes}]``."""
    rows = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        rows.append({
            "level": int(level) if level else None,
            "type": _read(os.path.join(index, "type")),
            "size_bytes": _size_bytes(_read(os.path.join(index, "size"))),
        })
    return rows


def llc_bytes(cache_rows):
    sizes = [(row["level"] or 0, row["size_bytes"] or 0) for row in cache_rows]
    return max(sizes)[1] if sizes else None


def record(working_set):
    """The machine record written into every result file."""
    cache_rows = caches()
    llc = llc_bytes(cache_rows)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": cache_rows,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "working_set_computed_bytes": working_set,
        "llc_bytes": llc,
        "working_set_over_llc": working_set / llc if llc else None,
    }


def probe_once():
    """One fixed pure-Python reference loop, in ms; it calls no srj code."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def probe(samples, repeats=3):
    """Append ``repeats`` probe timings to ``samples``."""
    samples.extend(probe_once() for _ in range(repeats))


def spmv_counts(matrix):
    """Computed flops and bytes of one CSR spmv, from the array sizes.

    No bandwidth is measured here, so no roofline ratio is given.
    """
    csr = getattr(matrix, "scipy", matrix)
    nnz = csr.nnz
    vector = 8 * csr.shape[0]
    parts = {
        "values": csr.data.nbytes,
        "indices": csr.indices.nbytes,
        "indptr": csr.indptr.nbytes,
        "x": 8 * csr.shape[1],
        "y": vector,
    }
    return {
        "label": "computed",
        "rows": csr.shape[0],
        "nnz": nnz,
        "flops": 2 * nnz,
        "bytes": parts,
        "bytes_total": sum(parts.values()),
        "index_dtype": str(csr.indices.dtype),
    }
