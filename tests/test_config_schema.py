"""The config loader against the shipped JSON Schemas, the format's documentation.

The loader does not read the schemas: each config section is checked by the
dataclass it fills.  So the schemas and the loader are kept in agreement
here, with jsonschema as the reference: on every shipped config and a saved
scene file with one change, every document that jsonschema refuses must be
refused with :class:`ConfigError`, and no document may raise anything else.
The loader refuses more than the schemas, its cross-field rules.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from pwsearch import CostModel, DetectorConfig, RadiusInterval, RadiusTable, SceneParams, SearchSpace
from pwsearch import config
from pwsearch.config import ConfigError, load_config

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SCHEMAS_DIR = Path(config.__file__).resolve().parent / "schemas"

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
    rest is shared, which is safe since neither side mutates."""
    if not path:
        return change(doc)
    new = doc.copy()
    new[path[0]] = _replaced(doc[path[0]], path[1:], change)
    return new


def _changes(doc):
    """(path, changed document) for every one-change edit at every node:
    delete each key and add an unknown one, replace each value by each of
    ``REPLACEMENTS``, empty each array and duplicate its first item."""
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


def _schema_refuses(validator, doc, changed) -> bool:
    """Whether jsonschema refuses ``doc``, a valid document whose only change
    is at path ``changed``.

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
    return not validator.evolve(schema=schema).is_valid(node)


def _shipped(source, tmp_path):
    """The schema, the valid document and the file that each edit of it is
    written to; ``config.json`` in ``tmp_path`` then loads the edit."""
    path = tmp_path / "config.json"
    if source != "scene":
        path.write_text((CONFIGS_DIR / f"{source}.json").read_text())
        return "config.schema.json", json.loads(path.read_text()), path
    load_config(CONFIGS_DIR / "synthetic.json").load_scenes()[0].save(tmp_path / "scene.json")
    cfg = json.loads((CONFIGS_DIR / "synthetic.json").read_text())
    cfg["scenes"] = {"files": ["scene.json"]}
    path.write_text(json.dumps(cfg))
    return "scene.schema.json", json.loads((tmp_path / "scene.json").read_text()), tmp_path / "scene.json"


@pytest.mark.parametrize("source", ["face", "synthetic", "pedestrian", "scene"])
def test_schema_check_matches_jsonschema_on_every_changed_document(source, tmp_path):
    schema_name, doc, target = _shipped(source, tmp_path)
    validator = Draft202012Validator(json.loads((SCHEMAS_DIR / schema_name).read_text()))
    assert validator.is_valid(doc)
    load_config(tmp_path / "config.json").load_scenes()
    loaded, crashed, rejected, count = [], [], 0, 0
    for path, changed in _changes(doc):
        target.write_text(json.dumps(changed))
        refuses = _schema_refuses(validator, changed, path)
        count, rejected = count + 1, rejected + refuses
        try:
            load_config(tmp_path / "config.json").load_scenes()
        except ConfigError:
            continue
        except Exception as exc:  # noqa: BLE001 - every failure must be a ConfigError
            crashed.append((path, repr(exc)))
            continue
        if refuses:
            loaded.append(path)
    assert not loaded, f"{len(loaded)} of {rejected} documents that jsonschema refuses load, first: {loaded[:3]}"
    assert not crashed, f"{len(crashed)} of {count} documents raise other than ConfigError, first: {crashed[:3]}"
    assert 0 < rejected < count


SPACE = SearchSpace(80, 60, 16, 24, scale_factor=1.25, scale_count=3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SceneParams(SPACE, sharpness=-3.0),
        lambda: SceneParams(SPACE, max_overlap=2.0),
        lambda: SceneParams(SPACE, object_count=-1),
        lambda: SceneParams(SPACE, scale_indices=()),
        lambda: SceneParams(SPACE, scale_indices=(3,)),
        lambda: SceneParams(SPACE, object_peak=(2.5, 1.5)),
        lambda: SceneParams(SPACE, distractor_peak=(-6.0, -5.5)),
        lambda: CostModel(t_w=-5.0),
        lambda: DetectorConfig("", "sw", -2.0, 0.0),
        lambda: RadiusTable((RadiusInterval(-math.inf, 0.4, 0.4), RadiusInterval(-4.0, -0.1, 0.1)), 1),
    ],
    ids=["sharpness", "max_overlap", "object_count", "scale_indices", "past_pyramid", "peak_order", "peak_floor",
         "cost", "name", "inactive_ratio"],
)
def test_each_value_bound_is_the_dataclass_own(build):
    """The bounds that the schemas document hold without a config: the
    dataclass refuses the value when it is built, as the loader relies on."""
    with pytest.raises(ValueError):
        build()


def test_importing_the_cli_leaves_jsonschema_unloaded():
    src = Path(config.__file__).resolve().parent.parent
    code = "import sys; import pwsearch.cli; print('jsonschema' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "False"
