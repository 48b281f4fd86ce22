"""Every per-layer metric of BENCHMARK.json names code that exists.

A per-layer metric is `<span>.<field>`, and its span is
`<module>.<qualname>`: a public function or class defined in the lpplab
module `<module>`, or a public method of such a class.  The `harness.*`
submodules share the module name `harness`.  Deleting or renaming a name
that a metric reads fails here rather than only in the benchmark's own
suite.
"""

import importlib
import inspect
import json
import pathlib
import pkgutil

import lpplab

ROOT = pathlib.Path(__file__).resolve().parents[1]
# metrics the benchmark derives rather than reads from one span
DERIVED = {"traced_run_s", "trace_overhead_s", "lattice.s"}


def _modules(prefix):
    """The lpplab modules whose span names start with `prefix`."""
    found = []
    for info in pkgutil.walk_packages(lpplab.__path__, "lpplab."):
        parts = info.name.split(".")
        if parts[1] == prefix and not any(p.startswith("_") for p in parts):
            found.append(importlib.import_module(info.name))
    return found


def _resolves(span):
    prefix, *qualname = span.split(".")
    if not qualname or any(p.startswith("_") for p in qualname):
        return False
    for mod in _modules(prefix):
        obj = vars(mod).get(qualname[0])
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if len(qualname) == 1:
            return inspect.isfunction(obj) or inspect.isclass(obj)
        if inspect.isclass(obj) and len(qualname) == 2:
            attr = vars(obj).get(qualname[1])
            return inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod))
    return False


def test_every_per_layer_metric_names_a_public_definition():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"] if m["name"] not in DERIVED]
    assert names
    missing = [n for n in names if not _resolves(n.rpartition(".")[0])]
    assert missing == []
