"""Every public name in src/ is read by src/ itself.

A public function, class or method (no leading underscore) defined in an
lpplab module must be loaded somewhere in `src/lpplab` outside its own
definition: as a name, as an attribute or as a `from ... import` alias.
Code that only tests reach belongs in `tests/`, next to the oracle that
uses it.  A name whose span `<module>.<qualname>` (as in
test_span_names) is read by a per-layer metric of BENCHMARK.json is
exempt, since the benchmark names it.
"""

import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lpplab"


def _span_module(path):
    """The span prefix of a source file: the first package level below
    lpplab, so the `harness.*` submodules share `harness`."""
    return path.relative_to(SRC).with_suffix("").parts[0]


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualname, name, node) for the public top-level functions and
    classes of a module and the public methods of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(tree):
    """(name, line) for every name, attribute and import alias loaded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unread_public_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = {m["name"].rpartition(".")[0] for m in spec["per_layer"]}
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    loads = [(p, name, line) for p, tree in trees.items() for name, line in _loads(tree)]
    unread = []
    for path, tree in trees.items():
        module = _span_module(path)
        if not _public(module):
            continue
        for qualname, name, node in _definitions(tree):
            if f"{module}.{qualname}" in spans:
                continue
            outside = (
                p != path or not node.lineno <= line <= node.end_lineno
                for p, n, line in loads
                if n == name
            )
            if not any(outside):
                unread.append(f"{module}.{qualname}")
    return unread


def test_every_public_name_in_src_is_read_by_src():
    assert unread_public_names() == []
