"""The thread rule: one budget of threads, spent on BLAS or on tasks.

numpy and scipy each ship their own OpenBLAS (in `numpy.libs/` and
`scipy.libs/`), and each runs up to one BLAS thread per core.  At the
sizes this package works at, threaded BLAS buys little, and a threaded
call leaves its workers spinning after it returns, which costs CPU and
starves any Python threads that run next.  So the rule is: a thread
budget either feeds BLAS or runs independent tasks with BLAS at 1
thread, never both at once.

- `blas_threads(n)` caps both libraries for the length of a block; the
  CLI runs every runner under `blas_threads(1)`.
- `thread_budget()` is `os.cpu_count()` outside any pool and
  `budget // workers` inside a `pmap` worker.
- `pmap` maps a sweep over `workers` threads and caps BLAS at each
  worker's share, for library callers that run outside the CLI.
- `fan_out` splits one stage over the budget: contiguous ranges of an
  index, one per thread, with BLAS at 1 thread.

Where no bundled OpenBLAS is found (a system or MKL build), the cap
does nothing and `blas_thread_counts` is empty.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy
import scipy

# (getter, setter) names: numpy's 64-bit-integer build, then scipy's
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

_local = threading.local()  # .budget, set in the threads of a pool


def _load_libraries():
    """(get, set) function pairs of every bundled OpenBLAS found."""
    found = []
    for pkg in (numpy, scipy):
        libdir = os.path.dirname(pkg.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
            lib = ctypes.CDLL(path)
            for get_name, set_name in _SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    found.append((get, set_))
                    break
    return tuple(found)


# Loaded on import, so scipy's OpenBLAS starts its thread pool while the
# package imports rather than inside the first runner: a pool started
# late spins for tens of milliseconds of CPU that a cap does not stop.
_LIBRARIES = _load_libraries()


def blas_thread_counts():
    """Current thread count of each bundled OpenBLAS, numpy's first."""
    return [get() for get, _ in _LIBRARIES]


@contextmanager
def blas_threads(n):
    """Run the block with every bundled OpenBLAS capped at n threads.

    A library already below n keeps its count.  The setting is
    process-wide, so worker threads started inside the block see it too;
    the previous counts come back on exit.
    """
    old = [get() for get, _ in _LIBRARIES]
    for (_, set_), k in zip(_LIBRARIES, old):
        set_(min(k, max(1, int(n))))
    try:
        yield
    finally:
        for (_, set_), k in zip(_LIBRARIES, old):
            set_(k)


def thread_budget():
    """Threads the calling thread may spend: the CPU count outside any
    pool, its share of the caller's budget inside a pool thread."""
    return getattr(_local, "budget", None) or os.cpu_count() or 1


def _pool(workers, budget):
    """A thread pool whose threads each have the given budget."""

    def init():
        _local.budget = budget

    return ThreadPoolExecutor(max_workers=workers, initializer=init)


def pmap(fn, items, workers):
    """[fn(x) for x in items], on `workers` threads when more than one.

    The results come back in item order whatever the worker count.
    While the pool runs, each worker's budget and the BLAS thread count
    are budget // workers, so the workers share the cores rather than
    each asking for all.
    """
    items = list(items)
    if workers and int(workers) > 1 and len(items) > 1:
        workers = int(workers)
        share = max(1, thread_budget() // workers)
        with blas_threads(share), _pool(workers, share) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


@contextmanager
def fan_out():
    """Yield `run(fn, n)`, which calls fn(lo, hi) on thread_budget()
    contiguous ranges covering range(n) and returns once all are done.

    The calling thread takes the first range and a pool kept for the
    block takes the rest; BLAS runs at 1 thread throughout.  With a
    budget of 1 no thread is started and fn(0, n) runs on the calling
    thread.
    """
    parts = thread_budget()

    def run(fn, n):
        k = max(1, min(parts, n))
        bounds = [n * c // k for c in range(k + 1)]
        futures = [ex.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        fn(bounds[0], bounds[1])
        for f in futures:
            f.result()

    with blas_threads(1), _pool(max(1, parts - 1), 1) as ex:
        yield run
