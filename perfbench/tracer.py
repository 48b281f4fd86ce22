"""Span tracer wrapped around lpplab's public functions from outside.

`Tracer.install()` replaces every public function, method and class
constructor defined in an lpplab module with a timing wrapper.  A
function imported by name into other lpplab modules (`from .operators
import eigendecompose`) is replaced there too, as is any module-level
dict entry that holds it (the CLI's RUNNERS table), so no call path
misses the wrapper.  `Tracer.restore()` puts every original back.

Each span name is `<module>.<qualname>`, where `<module>` is the module
path below `lpplab` and the `harness.*` submodules share the name
`harness`; a constructor is named after its class.  Per span the tracer
keeps the call count, the inclusive seconds and the self seconds (the
inclusive time minus the spans it called on the same thread).  Worker
threads keep their own span stacks, so their spans sum across threads.

A few spans also feed counters taken from arguments and return values,
which repeat exactly between runs of the same inputs (see `_COUNTERS`).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time

PACKAGE = "lpplab"
_MARK = "__perfbench_original__"


def span_prefix(module_name):
    """Span prefix of an lpplab module, or None for private modules."""
    parts = module_name.split(".")
    if parts[0] != PACKAGE or len(parts) == 1 or any(p.startswith("_") for p in parts):
        return None
    return parts[1]


def lpplab_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def is_wrapper(obj):
    return callable(obj) and hasattr(obj, _MARK)


# ------------------------------------------------------------ counters
#
# A `before` hook gets (tracer, bound arguments) ahead of the call; an
# `after` hook gets (tracer, bound arguments, result) once it returns.


def _eig_dim(H):
    return int(H.shape[0]) if hasattr(H, "shape") else int(H.dim)


def _eig_after(tr, args, result):
    H = args["H"]
    dim3 = _eig_dim(H) ** 3
    tr.count("operators.eigendecompose.dim3_sum", dim3)
    # a HamiltonianAction carries no dtype; it densifies to complex
    dtype = getattr(H, "dtype", None)
    if dtype is None or dtype.kind == "c":
        tr.count("operators.eigendecompose.dim3_complex", dim3)


def _cache_hit(prefix):
    def before(tr, args):
        hit = float(args["s"]) in args["self"]._cache
        tr.count(prefix + ".hits", int(hit))
    return before


def _doublings_after(tr, args, result):
    ts = next(iter(result.values()))
    tr.count("quasilocal.transport_sweep.step_doublings", ts.n / args["n"])


def _steps_after(tr, args, result):
    tr.count("spectral_flow.integrate_flow.steps", len(result[1]))


def _bytes_after(tr, args, result):
    tr.count("harness.write_csv.bytes", os.path.getsize(result))


_COUNTERS = {
    "operators.eigendecompose": (None, _eig_after),
    "sectors.HamiltonianPath.spectral": (_cache_hit("sectors.HamiltonianPath.spectral"), None),
    "spectral_flow.BlockSectorPath.spectral": (
        _cache_hit("spectral_flow.BlockSectorPath.spectral"), None,
    ),
    "quasilocal.transport_sweep": (None, _doublings_after),
    "spectral_flow.integrate_flow": (None, _steps_after),
    "harness.write_csv": (None, _bytes_after),
}


# -------------------------------------------------------------- tracer


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, seconds, self seconds]
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (owner, key, original), in install order

    def count(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        before_hook, after_hook = _COUNTERS.get(name, (None, None))
        signature = inspect.signature(fn) if (before_hook or after_hook) else None
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if before_hook:
                before_hook(self, bound)
            stack = self._stack()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - child
            if after_hook:
                after_hook(self, bound, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _wrap_class(self, prefix, cls):
        for key, attr in list(vars(cls).items()):
            public = not key.startswith("_")
            if inspect.isfunction(attr) and (public or key == "__init__"):
                name = f"{prefix}.{cls.__name__}" + ("" if key == "__init__" else f".{key}")
                self._patch(cls, key, self._wrap(name, attr))
            elif isinstance(attr, (classmethod, staticmethod)) and public:
                wrapped = self._wrap(f"{prefix}.{cls.__name__}.{key}", attr.__func__)
                self._patch(cls, key, type(attr)(wrapped))

    def install(self):
        """Wrap every public function of the lpplab modules imported so far."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = lpplab_modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            prefix = span_prefix(mod.__name__)
            if prefix is None:
                continue
            for key, obj in list(vars(mod).items()):
                if key.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{prefix}.{obj.__name__}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(prefix, obj)

        def lookup(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in modules:
            for key, obj in list(vars(mod).items()):
                if lookup(obj) is not None:
                    self._patch(mod, key, lookup(obj))
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if lookup(v) is not None:
                            self._patch(obj, k, lookup(v))

    def restore(self):
        """Put back every original replaced by install()."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def snapshot(self):
        """{"spans": {name: {calls, s, self_s}}, "counters": {...}}."""
        with self._lock:
            spans = {
                name: {"calls": c, "s": s, "self_s": self_s}
                for name, (c, s, self_s) in sorted(self.spans.items())
            }
            return {"spans": spans, "counters": dict(sorted(self.counters.items()))}


def leftover_wrappers():
    """Names of wrappers still bound anywhere in lpplab (empty once restored)."""
    found = []
    for mod in lpplab_modules():
        for key, obj in vars(mod).items():
            if is_wrapper(obj):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(obj, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]" for k, v in obj.items() if is_wrapper(v)]
            elif inspect.isclass(obj):
                for k, v in vars(obj).items():
                    if is_wrapper(getattr(v, "__func__", v)):
                        found.append(f"{mod.__name__}.{obj.__name__}.{k}")
    return found


# ------------------------------------------------------------- metrics


def layer_metric(snapshot, name):
    """Value of one per-layer metric name from a tracer snapshot.

    `<span>.calls`, `<span>.s` and `<span>.self_s` read the span table
    (0 when the span never ran); `<module>.s` alone sums the self time of
    every span of that module; `hit_ratio` and `complex_share` are
    ratios of counters; any other name is a counter.
    """
    spans, counters = snapshot["spans"], snapshot["counters"]
    span, _, field = name.rpartition(".")
    if field in ("calls", "s", "self_s") and "." in span:
        return spans.get(span, {}).get(field, 0)
    if field == "s":
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(span + "."))
    if field == "hit_ratio":
        calls = spans.get(span, {}).get("calls", 0)
        return counters.get(span + ".hits", 0) / calls if calls else 0.0
    if name == "operators.eigendecompose.complex_share":
        total = counters.get("operators.eigendecompose.dim3_sum", 0)
        return counters.get("operators.eigendecompose.dim3_complex", 0) / total if total else 0.0
    return counters.get(name, 0)
