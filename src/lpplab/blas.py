"""The thread rule: one budget of threads, spent on BLAS or on tasks.

numpy and scipy each ship their own OpenBLAS (in `numpy.libs/` and
`scipy.libs/`), and each runs up to one BLAS thread per core.  At the
sizes this package works at, threaded BLAS buys little, and a threaded
call leaves its workers spinning after it returns, which costs CPU and
starves any Python threads that run next.  So the rule is: a thread
budget either feeds BLAS or runs independent tasks with BLAS at 1
thread, never both at once.

- `blas_threads(n)` caps every bundled OpenBLAS loaded in the process
  for the length of a block; the CLI runs every runner under
  `blas_threads(1)`.
- `thread_budget()` is `os.cpu_count()` outside any pool and
  `budget // workers` inside a `pmap` worker.
- `pmap` maps a sweep over `workers` threads and caps BLAS at each
  worker's share, for library callers that run outside the CLI.
- `fan_out` splits one stage over the budget: contiguous ranges of an
  index, one per thread, with BLAS at 1 thread.

numpy's OpenBLAS is loaded with numpy; scipy's only when scipy.linalg
is, which only the iterative solver does.  This module loads neither:
it looks each library up among those already loaded (RTLD_NOLOAD), at
every cap, count and `adopt_loaded_blas()` call, so a library that
loads inside an open cap is capped from then on and restored when the
cap ends.  Loading scipy's OpenBLAS starts a thread pool that spins
for about 0.1 CPU-s, which is why it is not loaded ahead of need.
Under the CLI neither library starts a pool: importing `lpplab.cli`
sets OPENBLAS_NUM_THREADS to 1 (unless the caller set it) before numpy
loads, and this module, which library users import, leaves it alone.

Where no bundled OpenBLAS is found (a system or MKL build), the cap
does nothing and `blas_thread_counts` is empty.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from importlib.util import find_spec

import numpy

# (getter, setter) names: numpy's 64-bit-integer build, then scipy's
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

_local = threading.local()  # .budget, set in the threads of a pool
_lock = threading.Lock()
_found = {}  # library path -> (get, set), in the order found
_caps = {}  # token -> (n, {path: count before the cap}) per open cap, outermost first


@functools.cache
def _candidates():
    """Paths of the OpenBLAS libraries bundled with numpy and scipy,
    numpy's first; scipy is located, not imported."""
    dirs = [os.path.dirname(numpy.__file__)]
    spec = find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        dirs.append(spec.submodule_search_locations[0])
    return tuple(
        path
        for d in dirs
        for path in sorted(glob.glob(os.path.join(d + ".libs", "libscipy_openblas*")))
    )


def _functions(lib):
    """The (get, set) thread-count pair a library exports, or None."""
    for get_name, set_name in _SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def _libraries():
    """(path, get, set) of every bundled OpenBLAS loaded now, numpy's
    first.  A library seen for the first time while caps are open is
    capped by each of them, outermost first.  Call with _lock held."""
    for path in _candidates():
        if path in _found:
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded (yet)
            continue
        pair = _found[path] = _functions(lib)
        if pair is None:
            continue
        get, set_ = pair
        for n, before in _caps.values():
            before[path] = get()
            set_(min(before[path], n))
    return [(path, *pair) for path, pair in _found.items() if pair]


def adopt_loaded_blas():
    """Bring a bundled OpenBLAS loaded since the last look under the caps
    open now; call after importing a module that may load one."""
    with _lock:
        _libraries()


def blas_thread_counts():
    """Current thread count of each bundled OpenBLAS loaded, numpy's first."""
    with _lock:
        return [get() for _, get, _ in _libraries()]


@contextmanager
def blas_threads(n):
    """Run the block with every bundled OpenBLAS capped at n threads.

    A library already below n keeps its count.  The setting is
    process-wide, so worker threads started inside the block see it too;
    the previous counts come back on exit.
    """
    n, token, before = max(1, int(n)), object(), {}
    with _lock:
        for path, get, set_ in _libraries():
            before[path] = get()
            set_(min(before[path], n))
        _caps[token] = (n, before)
    try:
        yield
    finally:
        with _lock:
            del _caps[token]
            for path, k in before.items():
                _found[path][1](k)


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
