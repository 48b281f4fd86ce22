"""The config walker against jsonschema, its oracle.

Every shipped config, and one generated violation of each kind at every
node of the shipped schema, must be accepted or rejected alike by
`harness.config.best_error` and by jsonschema's Draft 2020-12 validator
with `best_match`, with the same error path and message.
"""

import json
import pathlib

import jsonschema
import pytest

from lpplab.harness import config as hconfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = hconfig._schema()
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
SHIPPED = sorted((ROOT / "configs").glob("*.json")) + sorted(
    (ROOT / "perfbench" / "configs").glob("*.json")
)


def oracle_match(cfg):
    return jsonschema.exceptions.best_match(ORACLE.iter_errors(cfg))


def oracle_error(cfg):
    err = oracle_match(cfg)
    return None if err is None else (tuple(err.absolute_path), err.message)


def valid(schema):
    """A small value the schema node accepts."""
    if "const" in schema:
        return schema["const"]
    if "enum" in schema:
        return schema["enum"][0]
    if "anyOf" in schema:
        return valid(schema["anyOf"][0])
    kind = schema.get("type")
    if kind == "object":
        return {k: valid(schema["properties"][k]) for k in schema.get("required", ())}
    if kind == "array":
        return [valid(schema["items"])] * max(schema.get("minItems", 0), 1)
    if kind == "boolean":
        return True
    step = 1 if kind == "integer" else 0.5
    if "minimum" in schema:
        return schema["minimum"]
    if "exclusiveMinimum" in schema:
        return min(schema["exclusiveMinimum"] + step, schema.get("maximum", float("inf")))
    return 0


def nodes(schema, path=(), chain=()):
    """(instance path, schema at each step of it) of every schema node;
    an anyOf branch sits at its anyOf's path, an item at index 0 and an
    additionalProperties schema at the key 'extra'."""
    yield path, chain or (schema,)
    chain = chain or (schema,)
    for key, sub in schema.get("properties", {}).items():
        yield from nodes(sub, path + (key,), chain + (sub,))
    extra = schema.get("additionalProperties")
    if isinstance(extra, dict):
        yield from nodes(extra, path + ("extra",), chain + (extra,))
    if "items" in schema:
        yield from nodes(schema["items"], path + (0,), chain + (schema["items"],))
    for sub in schema.get("anyOf", ()):
        yield from nodes(sub, path, chain[:-1] + (sub,))


WRONG_TYPE = {"object": [], "array": {}, "integer": "x", "number": "x", "boolean": 0}


def violations(schema):
    """(kind, value) pairs meant to break one rule of the node each."""
    kind = schema.get("type")
    yield "wrong type", WRONG_TYPE.get(kind, [])
    if kind in ("integer", "number"):
        yield "bool for a number", True
    if kind == "integer":
        yield "2.0 as an integer", float(valid(schema))
    step = 1 if kind == "integer" else 0.5
    if "minimum" in schema:
        yield "below minimum", schema["minimum"] - step
    if "maximum" in schema:
        yield "above maximum", schema["maximum"] + step
    if "exclusiveMinimum" in schema:
        yield "at exclusiveMinimum", schema["exclusiveMinimum"]
    for options in (schema.get("enum"), [schema["const"]] if "const" in schema else None):
        if options is None:
            continue
        if all(isinstance(v, str) for v in options):
            yield "outside enum/const", "none-of-these"
        else:
            yield "outside enum/const", max(options) + 1
            yield "bool for an enum/const number", True
    if kind == "object":
        if schema.get("additionalProperties") is False:
            yield "unknown key", {**valid(schema), "zz_unknown": 1}
        for key in schema.get("required", ()):
            yield f"missing {key}", {k: v for k, v in valid(schema).items() if k != key}
    if "minItems" in schema:
        yield "empty array", []
    if "anyOf" in schema:
        for miss in ("x", -1, ["x"], None):
            yield "anyOf miss", miss


def place(chain, path, value):
    """The root's valid value with `value` put at `path`."""
    if not path:
        return value
    root = node = valid(chain[0])
    for step, sub in zip(path[:-1], chain[1:]):
        if isinstance(node, dict) and not isinstance(node.get(step), (dict, list)):
            node[step] = valid(sub)
        node = node[step]
    node[path[-1]] = value
    return root


def generated_cases():
    for path, chain in nodes(SCHEMA):
        for kind, value in violations(chain[-1]):
            yield "/".join(map(str, path)) or "<root>", kind, place(chain, path, value)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_pass_both_validators(path):
    cfg = json.loads(path.read_text(encoding="utf-8"))
    assert oracle_error(cfg) is None
    assert hconfig.best_error(cfg, SCHEMA) is None


def test_walker_matches_jsonschema_on_one_violation_per_node():
    keywords, rejected, cases = set(), 0, list(generated_cases())
    for where, kind, cfg in cases:
        want = oracle_error(cfg)
        assert hconfig.best_error(cfg, SCHEMA) == want, (where, kind, cfg)
        if want is not None:
            rejected += 1
            keywords.add(oracle_match(cfg).validator)
    # each validating keyword of the schema is the reported one somewhere
    assert keywords == {
        "type", "required", "additionalProperties", "const", "enum",
        "minimum", "maximum", "exclusiveMinimum", "minItems", "anyOf",
    }
    assert len(cases) > 150 and rejected > 0.8 * len(cases)
    # 2020-12 reads 2.0 as an integer, and so does the walker
    assert any(k == "2.0 as an integer" and oracle_error(c) is None for _, k, c in cases)


def test_walker_covers_exactly_the_schema_keywords():
    used = set()

    def collect(schema):
        for keyword, value in schema.items():
            used.add(keyword)
            for sub in hconfig._SUBSCHEMAS.get(keyword, lambda v: [])(value):
                collect(sub)

    collect(SCHEMA)
    assert used == hconfig._KEYWORDS | hconfig._ANNOTATIONS


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "properties": {"a": {"type": "string", "pattern": "x"}}},
        {"type": "object", "properties": {"a": {"type": "string"}}},
        {"anyOf": [{"multipleOf": 2}]},
        {"items": {"type": ["integer", "null"]}},
    ],
)
def test_walker_refuses_what_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="not supported"):
        hconfig._check_schema(schema)
