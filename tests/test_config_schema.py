"""The config module's schema walker against jsonschema, the reference.

Every document below is a shipped config or a saved scene file with one
change.  ``_schema_check`` must accept exactly the documents that
``jsonschema.Draft202012Validator`` accepts, and for every other one report
jsonschema's first error: the same field and the same message.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from jsonschema import Draft202012Validator

from pwsearch import config
from pwsearch.config import ConfigError, _load_schema, _schema_check, load_config

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

# What replaces each value in turn.
REPLACEMENTS = ("x", True, None, [], {}, -1, 0, 1.5)

# Keywords whose errors depend only on a node's type, keys or length, so that
# a change inside one child leaves the node's own errors as they were.
STRUCTURAL = {"$schema", "title", "$defs", "type", "required", "additionalProperties", "properties", "items",
              "minItems", "maxItems"}


def _nodes(doc, path=()):
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _replaced(doc, path, change):
    """``doc`` with the node at ``path`` replaced by ``change(node)``; the
    rest is shared, which is safe since neither validator mutates."""
    if not path:
        return change(doc)
    new = doc.copy()
    new[path[0]] = _replaced(doc[path[0]], path[1:], change)
    return new


def _changes(doc):
    """(path, changed document) for every change the module docstring's
    reference set makes at every node: delete each key and add an unknown
    one, replace each value, empty each array and duplicate its first item."""
    for path, node in _nodes(doc):
        if path:
            for value in REPLACEMENTS:
                yield path, _replaced(doc, path, lambda _, v=value: v)
        if isinstance(node, dict):
            for key in node:
                yield path, _replaced(doc, path, lambda n, k=key: {o: v for o, v in n.items() if o != k})
            yield path, _replaced(doc, path, lambda n: {**n, "unknown": 1})
        if isinstance(node, list):
            yield path, _replaced(doc, path, lambda n: [])
            if node:
                yield path, _replaced(doc, path, lambda n: n + n[:1])


def _reference_error(validator, doc, changed=()):
    """jsonschema's first error in ``doc`` as ``ConfigError``'s (field,
    text) for source ``doc``, or None.  ``doc`` is a valid document whose only
    change is at path ``changed``.

    Below a node whose schema is structural, the node's own errors are those
    of the valid document, none, and so are its unchanged children's; so the
    document's errors are those of the changed child.  jsonschema checks the
    deepest such subtree only: the whole of each of some four thousand
    documents takes jsonschema about ten seconds."""
    node, schema, path = doc, validator.schema, ()
    while len(path) < len(changed) and set(schema) <= STRUCTURAL:
        key = changed[len(path)]
        schema = schema["properties"][key] if isinstance(node, dict) else schema["items"]
        node, path = node[key], (*path, key)
    errors = sorted(validator.evolve(schema=schema).iter_errors(node), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    field = "doc:" + (".".join(map(str, (*path, *errors[0].absolute_path))) or "<root>")
    return field, f"{field}: {errors[0].message}"


def _walker_error(doc, schema_name):
    try:
        _schema_check(doc, schema_name, "doc")
    except ConfigError as exc:
        return exc.field, str(exc)
    return None


def _shipped(source, tmp_path):
    if source != "scene":
        return "config.schema.json", json.loads((CONFIGS_DIR / f"{source}.json").read_text())
    path = tmp_path / "scene.json"
    load_config(CONFIGS_DIR / "synthetic.json").load_scenes()[0].save(path)
    return "scene.schema.json", json.loads(path.read_text())


@pytest.mark.parametrize("source", ["face", "synthetic", "pedestrian", "scene"])
def test_schema_check_matches_jsonschema_on_every_changed_document(source, tmp_path):
    schema_name, doc = _shipped(source, tmp_path)
    validator = Draft202012Validator(_load_schema(schema_name))
    assert not list(validator.iter_errors(doc))
    assert _walker_error(doc, schema_name) is None
    mismatches, rejected, count = [], 0, 0
    for path, changed in _changes(doc):
        expected = _reference_error(validator, changed, path)
        got = _walker_error(changed, schema_name)
        count, rejected = count + 1, rejected + (expected is not None)
        if got != expected:
            mismatches.append((path, expected, got))
    assert not mismatches, f"{len(mismatches)} of {count} differ, first: {mismatches[:3]}"
    assert 0 < rejected < count


# Every keyword the walker reads, with unevaluatedProperties beside each
# applicator that can evaluate a key.
SUBSET_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "keyword subset",
    "type": "object",
    "properties": {
        "a": {"anyOf": [{"type": "integer", "minimum": 2}, {"const": "two"}]},
        "b": {"type": ["string", "null"], "minLength": 2, "enum": ["bb", "ccc", None]},
        "c": {"type": "array", "items": {"type": "number", "maximum": 3, "exclusiveMinimum": 0},
              "minItems": 1, "maxItems": 2, "uniqueItems": True},
    },
    "anyOf": [{"required": ["e"], "properties": {"e": True}}, {"required": ["f"]}],
    "if": {"required": ["g"], "properties": {"g": {"const": 1}}},
    "then": {"properties": {"h": True}},
    "else": {"properties": {"i": True}},
    "$ref": "#/$defs/j",
    "unevaluatedProperties": False,
    "$defs": {"j": {"properties": {"j": {"type": "boolean"}}}},
}

SUBSET_DOCUMENTS = [
    {"e": 0},
    {"f": 0},
    {},
    {"a": 2, "e": 0},
    {"a": 1.0, "e": 0},
    {"a": 3.0, "e": 0},
    {"a": "two", "e": 0},
    {"a": True, "e": 0},
    {"b": "b", "e": 0},
    {"b": None, "e": 0},
    {"b": "dd", "e": 0},
    {"c": [], "e": 0},
    {"c": [1, 2, 3], "e": 0},
    {"c": [1, 1.0], "e": 0},
    {"c": [0, 4], "e": 0},
    {"c": [True, 1], "e": 0},
    {"e": 0, "f": 0, "g": 1, "h": 0},
    {"e": 0, "g": 1, "i": 0},
    {"e": 0, "g": 2, "i": 0, "h": 0},
    {"e": 0, "g": True, "h": 0},
    {"e": 0, "j": True, "z": 0, "y": 0},
    {"f": 0, "j": 1},
    [],
]


def _with_schema(monkeypatch, tmp_path, name, schema):
    """Make ``name`` load ``schema`` as if it were shipped."""
    (tmp_path / name).write_text(json.dumps(schema))
    monkeypatch.setattr(config, "resources", SimpleNamespace(files=lambda package: tmp_path))


@pytest.mark.parametrize("doc", SUBSET_DOCUMENTS, ids=lambda doc: json.dumps(doc))
def test_schema_check_matches_jsonschema_on_the_keyword_subset(doc, monkeypatch, tmp_path):
    _with_schema(monkeypatch, tmp_path, "subset.schema.json", SUBSET_SCHEMA)
    assert _walker_error(doc, "subset.schema.json") == _reference_error(Draft202012Validator(SUBSET_SCHEMA), doc)


@pytest.mark.parametrize(
    "rare, unsupported",
    [
        ({"type": "string", "pattern": "^a"}, "'pattern'"),
        ({"type": "object", "additionalProperties": {"type": "integer"}}, "'additionalProperties'"),
        ({"$ref": "#/$defs/missing"}, "'$ref'"),
        (False, "false schema"),
    ],
)
def test_schema_check_refuses_what_it_does_not_implement(rare, unsupported, monkeypatch, tmp_path):
    _with_schema(monkeypatch, tmp_path, "rare.schema.json", {"properties": {"rare": rare}})
    with pytest.raises(NotImplementedError, match=re.escape(unsupported)):
        _schema_check({}, "rare.schema.json", "doc")  # although no instance reaches it


def test_importing_the_cli_leaves_jsonschema_unloaded():
    src = Path(config.__file__).resolve().parent.parent
    code = "import sys; import pwsearch.cli; print('jsonschema' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "False"
