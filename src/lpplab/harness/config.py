"""Config loading and schema validation.

A run is fully determined by the config file plus the CLI seed, so the
schema is strict at the top level (typos in section names fail fast)
and the loader echoes the validated dict back for the manifest.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema


@functools.cache
def _validator():
    """The shipped schema's validator, built once per process.  The schema
    is package data, so its metaschema check is a test, not a run step."""
    text = resources.files("lpplab.harness").joinpath("schema.json").read_text(
        encoding="utf-8"
    )
    schema = json.loads(text)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_config(cfg):
    """Raise ValueError with a readable location on any schema violation."""
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValueError(f"config invalid at {where}: {exc.message}") from exc
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return validate_config(cfg)
