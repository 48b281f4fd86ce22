"""Config loading and schema validation.

A run is fully determined by the config file plus the CLI seed, so the
schema is strict at the top level (typos in section names fail fast)
and the loader echoes the validated dict back for the manifest.

The schema (JSON Schema 2020-12) is checked by a small walker over the
keywords it uses; any other keyword is refused, so the schema cannot
outgrow the walker.  The walker reports the error jsonschema's
`best_match` would, with the same path and message; the tests hold it
to jsonschema on every shipped config and on one violation per schema
node.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import NamedTuple

_ANNOTATIONS = frozenset({"$schema", "title"})
_SUBSCHEMAS = {  # keyword -> the subschemas its value holds
    "properties": lambda v: v.values(),
    "additionalProperties": lambda v: [v] if isinstance(v, dict) else [],
    "items": lambda v: [v],
    "anyOf": lambda v: v,
}
_KEYWORDS = frozenset(_SUBSCHEMAS) | {
    "type", "required", "const", "enum", "minimum", "maximum",
    "exclusiveMinimum", "minItems",
}


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": _number,
    # 2020-12 counts a float with no fractional part as an integer
    "integer": lambda x: _number(x) and (isinstance(x, int) or x.is_integer()),
}


def _check_schema(schema):
    """Raise ValueError if any node of schema uses a keyword or type name
    the walker does not implement."""
    for keyword, value in schema.items():
        if keyword not in _KEYWORDS | _ANNOTATIONS:
            raise ValueError(f"schema keyword {keyword!r} is not supported")
        if keyword == "type" and not (isinstance(value, str) and value in _TYPES):
            raise ValueError(f"schema type {value!r} is not supported")
        for sub in _SUBSCHEMAS.get(keyword, lambda v: [])(value):
            _check_schema(sub)
    return schema


def _equal(x, y):
    """JSON equality of scalars: 1 == 1.0, but a bool equals only a bool."""
    return x == y and isinstance(x, bool) == isinstance(y, bool)


class _Violation(NamedTuple):
    """One violation: where (relative to the instance walked), what, and
    the keyword that found it; an anyOf miss keeps its branches' errors."""

    path: tuple
    message: str
    keyword: str
    matches_type: bool  # the instance there has the type its schema names
    context: tuple = ()


def _errors(x, schema):
    """Every violation of instance x under a checked schema, in the order
    jsonschema finds them: the schema's keywords in order, depth first."""

    matches = "type" in schema and _TYPES[schema["type"]](x)

    def error(keyword, message, context=()):
        return _Violation((), message, keyword, matches, tuple(context))

    def descend(step, child, sub):
        for e in _errors(child, sub):
            yield e._replace(path=(step,) + e.path)

    for keyword, value in schema.items():
        if keyword == "type" and not matches:
            yield error(keyword, f"{x!r} is not of type {value!r}")
        elif keyword == "const" and not _equal(x, value):
            yield error(keyword, f"{value!r} was expected")
        elif keyword == "enum" and not any(_equal(x, v) for v in value):
            yield error(keyword, f"{x!r} is not one of {value!r}")
        elif keyword == "minimum" and _number(x) and x < value:
            yield error(keyword, f"{x!r} is less than the minimum of {value!r}")
        elif keyword == "maximum" and _number(x) and x > value:
            yield error(keyword, f"{x!r} is greater than the maximum of {value!r}")
        elif keyword == "exclusiveMinimum" and _number(x) and x <= value:
            yield error(keyword, f"{x!r} is less than or equal to the minimum of {value!r}")
        elif keyword == "minItems" and isinstance(x, list) and len(x) < value:
            yield error(keyword, f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}")
        elif keyword == "required" and isinstance(x, dict):
            for key in value:
                if key not in x:
                    yield error(keyword, f"{key!r} is a required property")
        elif keyword == "properties" and isinstance(x, dict):
            for key, sub in value.items():
                if key in x:
                    yield from descend(key, x[key], sub)
        elif keyword == "additionalProperties" and isinstance(x, dict):
            extras = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
            if value is False and extras:
                names = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield error(keyword, f"Additional properties are not allowed ({names} {verb} unexpected)")
            elif isinstance(value, dict):
                for key in extras:
                    yield from descend(key, x[key], value)
        elif keyword == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                yield from descend(i, item, value)
        elif keyword == "anyOf":
            context = []
            for sub in value:
                found = list(_errors(x, sub))
                if not found:
                    break
                context += found
            else:
                yield error(keyword, f"{x!r} is not valid under any of the given schemas", context)


def _relevance(e):
    # jsonschema.exceptions.relevance (no strong keywords): the greatest wins
    return (-len(e.path), e.path, e.keyword != "anyOf", not e.matches_type)


def best_error(x, schema):
    """The error jsonschema's best_match picks, as (path, message), or None.

    The shallowest error wins; an anyOf miss gives way to the most
    relevant error of its branches unless the two most relevant tie.
    """
    best = max(_errors(x, schema), key=_relevance, default=None)
    if best is None:
        return None
    path = best.path
    while best.context:
        first, *rest = sorted(best.context, key=_relevance)[:2]
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        best = first
        path += best.path
    return path, best.message


@functools.cache
def _schema():
    """The shipped schema, read once per process.  It is package data, so
    its metaschema check is a test, not a run step."""
    text = resources.files("lpplab.harness").joinpath("schema.json").read_text(
        encoding="utf-8"
    )
    return _check_schema(json.loads(text))


def validate_config(cfg):
    """Raise ValueError with a readable location on any schema violation."""
    found = best_error(cfg, _schema())
    if found is not None:
        path, message = found
        where = "/".join(str(p) for p in path) or "<root>"
        raise ValueError(f"config invalid at {where}: {message}")
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return validate_config(cfg)
