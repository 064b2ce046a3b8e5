"""Configuration loading: JSON files checked against a shipped schema.

A config names the search space, one or more detectors, a scene source
(generator parameters or scene files), the experiment grid, and the cost
model.  Validation happens in two passes: structural and semantic
(cross-field rules the schema cannot express).  The structural pass checks
the JSON Schemas shipped in ``pwsearch/schemas/`` with a small walker over
their dicts.  It implements the draft 2020-12 keywords they use, with
jsonschema's semantics, and reports jsonschema's first error, the one at the
least path; the tests compare the two.  A schema holding any other keyword
is refused when it is first read.  Each schema section's keys are the field names of the dataclass
it fills (the space, each detector with its radius table and propagations,
the scene parameters, the cost model), and it loads straight into that
dataclass: an omitted key takes the field's own default, declared only there,
and an integral number such as ``410.0`` is cast to the field's ``int``.
Keys no code would read are refused (``count``, ``master_seed`` or ``params``
beside scene ``files``; ``stages`` under the synthetic scorer), and so are the
tokens ``NaN`` and ``Infinity``, which Python's json reads and JSON lacks, a
number literal such as ``1e400`` that overflows to infinity, and an integer
literal too large for a float, at its field.  A config or
scene file that is missing, unreadable (a directory) or not UTF-8 is refused.
Scene files are read relative to the config file's directory and
checked when the scenes are loaded: against their own schema, the space's
image size, the scene's own rules (every peak above the floor) and, under the
synthetic scorer, every detector's ``t_l`` (the floor must lie below it, as
for generated scenes).  Under the cascade scorer every response lies in
[0, 1], so each detector's ``t_l`` must exceed 0 and its ``t_h`` be at most 1.
An ``ipw`` or ``sipw`` radius interval must lie below the detector's ``t_l``,
the only responses that are rejected and read the table.
Each ``sweep_t_h`` point loads as the detector ``sweep`` runs for it, the
first detector with that ``t_h``, and is checked by the same rules as every
detector: above ``t_l`` and, under the cascade scorer, at most 1.
All failures raise :class:`ConfigError` with the offending field's path,
before anything runs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .detectors import DetectorConfig
from .harness import CostModel, SceneGenerationError, SceneParams, generate_scenes
from .regions import RadiusInterval, RadiusTable, ScalePropagation
from .scoring import SyntheticScene
from .space import SearchSpace


class ConfigError(ValueError):
    """Bad configuration; ``field`` points at the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@functools.cache
def _load_schema(name: str) -> dict:
    text = resources.files("pwsearch.schemas").joinpath(name).read_text()
    schema = json.loads(text)
    _audit(schema, schema.get("$defs", {}))
    return schema


def _schema_check(data: dict, schema_name: str, source: str) -> None:
    schema = _load_schema(schema_name)
    errors = _errors(data, schema, (), schema.get("$defs", {}))
    if errors:
        path, message = min(errors, key=lambda e: e[0])  # the least path; the first in schema order among equals
        raise ConfigError(f"{source}:{'.'.join(map(str, path)) or '<root>'}", message)


# The draft 2020-12 JSON Schema subset that the shipped schemas use, with
# jsonschema's semantics and messages.  Each keyword's check takes (instance,
# keyword value, schema, instance path, root $defs) and returns its errors as
# (path, message) pairs, in schema order.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer()),
}
_DEFS = "#/$defs/"


def _errors(instance, schema, path: tuple, defs: dict) -> list:
    if schema is True:
        return []
    errors = []
    for key, value in schema.items():
        errors += _KEYWORDS[key](instance, value, schema, path, defs)
    return errors


def _equal(one, two) -> bool:
    """JSON equality: ``1 == 1.0``, but ``true != 1``, at any depth."""
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return one.keys() == two.keys() and all(_equal(v, two[k]) for k, v in one.items())
    if isinstance(one, bool) or isinstance(two, bool):
        return one is two
    return one == two


def _unique(items: list) -> bool:
    """jsonschema's test: neighbours after sorting, or every pair when the
    items do not sort (a bool never does)."""
    if not any(isinstance(i, bool) for i in items):
        try:
            ordered = sorted(items)
        except TypeError:
            pass
        else:
            return not any(map(_equal, ordered, ordered[1:]))
    return not any(_equal(a, b) for k, a in enumerate(items) for b in items[:k])


def _evaluated(instance: dict, schema, defs: dict) -> set:
    """The keys of ``instance`` that ``schema``'s applicators evaluate, for
    ``unevaluatedProperties``."""
    if not isinstance(schema, dict):
        return set()
    keys = schema.get("properties", {}).keys() & instance.keys()
    if "$ref" in schema:
        keys |= _evaluated(instance, defs[schema["$ref"][len(_DEFS):]], defs)
    for sub in schema.get("anyOf", ()):
        if not _errors(instance, sub, (), defs):
            keys |= _evaluated(instance, sub, defs)
    if "if" in schema:
        if not _errors(instance, schema["if"], (), defs):
            keys |= _evaluated(instance, schema["if"], defs) | _evaluated(instance, schema.get("then"), defs)
        else:
            keys |= _evaluated(instance, schema.get("else"), defs)
    return keys


def _assertion(kind: str, message):
    """A keyword with at most one error on an instance of type ``kind``:
    ``message(instance, value)``, unless that is false."""
    applies = _TYPES[kind]

    def check(i, v, s, p, d):
        if applies(i) and (text := message(i, v)):
            return [(p, text)]
        return ()

    return check


def _no_extra_keys(kind: str, covered):
    """``additionalProperties``/``unevaluatedProperties`` false: one error
    naming the keys of an object that ``covered(instance, schema, defs)``
    leaves out, sorted."""

    def check(i, v, s, p, d):
        if isinstance(i, dict):
            keys = covered(i, s, d)
            extras = sorted((k for k in i if k not in keys), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                return [(p, f"{kind} properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)")]
        return ()

    return check


def _type(i, names, s, p, d):
    if _TYPES[names](i) if isinstance(names, str) else any(_TYPES[n](i) for n in names):
        return ()
    names = [names] if isinstance(names, str) else names
    return [(p, f"{i!r} is not of type {', '.join(map(repr, names))}")]


def _enum(i, values, s, p, d):
    return () if any(_equal(v, i) for v in values) else [(p, f"{i!r} is not one of {values!r}")]


def _required(i, names, s, p, d):
    return [(p, f"{k!r} is a required property") for k in names if k not in i] if isinstance(i, dict) else ()


def _properties(i, props, s, p, d):
    errors = []
    if isinstance(i, dict):
        for key, sub in props.items():
            if key in i:
                errors += _errors(i[key], sub, (*p, key), d)
    return errors


def _items(i, sub, s, p, d):
    errors = []
    if isinstance(i, list):
        for k, item in enumerate(i):
            errors += _errors(item, sub, (*p, k), d)
    return errors


def _any_of(i, subs, s, p, d):
    if any(not _errors(i, sub, p, d) for sub in subs):
        return ()
    return [(p, f"{i!r} is not valid under any of the given schemas")]


def _if(i, sub, s, p, d):
    branch = "else" if _errors(i, sub, p, d) else "then"
    return _errors(i, s[branch], p, d) if branch in s else ()


def _nothing(i, v, s, p, d):
    return ()


_KEYWORDS = {
    "$schema": _nothing,
    "title": _nothing,
    "$defs": _nothing,
    "then": _nothing,  # "if" reads both branches
    "else": _nothing,
    "type": _type,
    "enum": _enum,
    "const": lambda i, v, s, p, d: () if _equal(i, v) else [(p, f"{v!r} was expected")],
    "required": _required,
    "properties": _properties,
    "additionalProperties": _no_extra_keys("Additional", lambda i, s, d: s.get("properties", {})),
    "unevaluatedProperties": _no_extra_keys("Unevaluated", _evaluated),
    "items": _items,
    "minItems": _assertion(
        "array", lambda i, v: len(i) < v and f"{i!r} {'should be non-empty' if v == 1 else 'is too short'}"
    ),
    "maxItems": _assertion(
        "array", lambda i, v: len(i) > v and f"{i!r} {'is expected to be empty' if v == 0 else 'is too long'}"
    ),
    "uniqueItems": _assertion("array", lambda i, v: v and not _unique(i) and f"{i!r} has non-unique elements"),
    "minimum": _assertion("number", lambda i, v: i < v and f"{i!r} is less than the minimum of {v!r}"),
    "maximum": _assertion("number", lambda i, v: i > v and f"{i!r} is greater than the maximum of {v!r}"),
    "exclusiveMinimum": _assertion(
        "number", lambda i, v: i <= v and f"{i!r} is less than or equal to the minimum of {v!r}"
    ),
    "minLength": _assertion(
        "string", lambda i, v: len(i) < v and f"{i!r} {'should be non-empty' if v == 1 else 'is too short'}"
    ),
    "anyOf": _any_of,
    "if": _if,
    "$ref": lambda i, v, s, p, d: _errors(i, d[v[len(_DEFS):]], p, d),
}


def _audit(schema, defs: dict) -> None:
    """Raise :class:`NotImplementedError` for any part of ``schema`` the
    walker does not implement exactly as jsonschema does.  That includes the
    false schema, whose error jsonschema reports at a path that depends on
    the keyword leading to it."""
    if schema is True:
        return
    if schema is False:
        raise NotImplementedError("the false schema is not supported")
    for key, value in schema.items():
        if (
            key not in _KEYWORDS
            or (key in ("additionalProperties", "unevaluatedProperties") and value is not False)
            or (key == "items" and not isinstance(value, dict))
            or (key == "$ref" and not (value.startswith(_DEFS) and value[len(_DEFS):] in defs))
            or (key == "type" and not set([value] if isinstance(value, str) else value) <= _TYPES.keys())
        ):
            raise NotImplementedError(f"schema keyword {key!r}: {value!r} is not supported")
        if key in ("properties", "$defs"):
            subs = value.values()
        elif key == "anyOf":
            subs = value
        elif key in ("items", "if", "then", "else"):
            subs = (value,)
        else:
            subs = ()
        for sub in subs:
            _audit(sub, defs)


@dataclass(frozen=True)
class LoadedConfig:
    """A validated config file, materialized into runtime objects."""

    space: SearchSpace
    sw_stride: int
    detectors: tuple[DetectorConfig, ...]
    scene_params: SceneParams | None
    scene_files: tuple[Path, ...]  # resolved against the config file's directory
    scene_count: int
    scene_seed: int
    budgets: tuple[int, ...]
    seed: int
    match_iou: float
    nms_iou: float
    sweep: tuple[DetectorConfig, ...]  # the detectors `sweep` runs, one per sweep_t_h point
    scorer_kind: str
    cascade_stages: int
    cost_model: CostModel

    def load_scenes(self, only: int | None = None) -> list[SyntheticScene]:
        """The config's scenes: its files, checked as the module docstring
        lists, or else freshly generated.  With ``only``, a valid scene
        index, just that scene: no other file is read and no other scene built."""
        if self.scene_files:
            paths = self.scene_files if only is None else self.scene_files[only : only + 1]
            return [self._load_scene_file(path) for path in paths]
        assert self.scene_params is not None
        try:
            return generate_scenes(self.scene_params, self.scene_seed, self.scene_count, only)
        except SceneGenerationError as exc:
            raise ConfigError("scenes.params", str(exc)) from exc

    def _load_scene_file(self, path: Path) -> SyntheticScene:
        data = _read_json(path, "scene")
        _schema_check(data, "scene.schema.json", path.name)
        space = self.space
        if (data["image_w"], data["image_h"]) != (space.image_w, space.image_h):
            raise ConfigError(
                path.name,
                f"scene image {data['image_w']}x{data['image_h']} differs from the space's "
                f"{space.image_w}x{space.image_h}",
            )
        try:
            scene = SyntheticScene.from_dict(data)
        except ValueError as exc:
            raise ConfigError(path.name, str(exc)) from exc
        if self.scorer_kind == "synthetic":
            _check_floor(scene.floor, self.detectors, f"{path.name}:floor")
        return scene


def _read_json(path: Path, kind: str):
    def refuse(token: str):  # Python's json reads NaN and +-Infinity; JSON does not
        raise ConfigError(str(path), f"invalid JSON: {token} is not a number")

    def finite(literal: str) -> float:  # and reads 1e400 as inf
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(str(path), f"invalid JSON: {literal} is not a finite number")
        return value

    def integer(literal: str) -> int:  # and int() refuses past 4300 digits
        try:
            return int(literal)
        except ValueError:
            raise ConfigError(str(path), f"invalid JSON: a {len(literal)}-digit integer is too long") from None

    try:
        return json.loads(path.read_text(), parse_constant=refuse, parse_float=finite, parse_int=integer)
    except FileNotFoundError as exc:
        raise ConfigError(str(path), f"{kind} file not found") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read {kind} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc


def _check_floor(floor: float, detectors: tuple[DetectorConfig, ...], field: str | None = None) -> None:
    """Raise unless a synthetic scene's ``floor`` lies below every detector's
    ``t_l``; otherwise no background window is ever rejected.  The error names
    ``field``, or else the detector's ``t_l``."""
    for i, det in enumerate(detectors):
        if not floor < det.t_l:
            raise ConfigError(
                field or f"detectors[{i}].t_l",
                f"scene floor {floor} must lie below detectors[{i}].t_l = {det.t_l}",
            )


def _check_scene_params(params: SceneParams) -> None:
    """Raise unless each peak range is ordered above the floor and each scale
    index is in the pyramid, whose every scale holds windows."""
    for key in ("object_peak", "distractor_peak"):
        low, high = getattr(params, key)
        if not params.floor < low <= high:
            raise ConfigError(f"scenes.params.{key}", f"[{low}, {high}] is not ordered above floor {params.floor}")
    for idx in params.scale_indices:
        if idx >= params.space.scale_count:
            raise ConfigError("scenes.params.scale_indices", f"scale index {idx} outside the pyramid")


def _check_cascade_thresholds(detectors: tuple[DetectorConfig, ...], field: str | None = None) -> None:
    """Raise unless every detector can reject and accept under the cascade
    scorer, whose responses all lie in [0, 1].  The error names ``field``, or
    else the detector's threshold."""
    for i, det in enumerate(detectors):
        for key, ok, rule in (("t_l", det.t_l > 0.0, "exceed 0"), ("t_h", det.t_h <= 1.0, "be at most 1")):
            if not ok:
                raise ConfigError(
                    field or f"detectors[{i}].{key}",
                    f"cascade responses lie in [0, 1], so {key} must {rule}, not {getattr(det, key)}",
                )


# Keyed by annotation text: the dataclass modules postpone their annotations.
_CASTS = {"int": int, "int | None": int, "float": float}


def _cast(cast, value, field: str):
    """``cast(value)`` for a JSON number.  JSON reads an integer literal
    exactly, so one past a float's range (a 1 and 400 zeros) comes in whole,
    and it is refused at ``field`` like the float literal ``1e400``."""
    try:
        float(value)
    except OverflowError:
        raise ConfigError(field, "integer too large for a float") from None
    return cast(value)


def _build(cls, data: dict, where: str, **given):
    """``cls`` from one schema-checked JSON section whose keys are its field
    names.  An omitted key takes the field's own default, a number is cast to
    the field's declared ``int`` or ``float``, a list becomes a tuple, and
    ``given`` supplies the fields the caller builds itself.  A rejected value
    raises :class:`ConfigError` at ``where``."""
    kwargs = dict(given)
    for f in fields(cls):
        if f.name in kwargs or f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        elif value is not None and f.type in _CASTS:
            value = _cast(_CASTS[f.type], value, f"{where}.{f.name}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _build_detector(data: dict, index: int) -> DetectorConfig:
    where = f"detectors[{index}]"
    given = {}
    if "radius_table" in data:
        table = data["radius_table"]
        intervals = tuple(_build(RadiusInterval, iv, where) for iv in table["intervals"])
        given["radius_table"] = _build(RadiusTable, table, f"{where}.radius_table", intervals=intervals)
    for key in ("reject_propagation", "accept_propagation"):
        if key in data:
            given[key] = _build(ScalePropagation, data[key], where)
    return _build(DetectorConfig, data, where, **given)


def load_config(path: str | Path) -> LoadedConfig:
    path = Path(path)
    data = _read_json(path, "config")
    _schema_check(data, "config.schema.json", path.name)

    space_data = data["space"]
    space = _build(SearchSpace, space_data, "space")

    detectors = tuple(_build_detector(d, i) for i, d in enumerate(data["detectors"]))
    names = [d.name for d in detectors]
    if len(set(names)) != len(names):
        raise ConfigError("detectors", "detector names must be unique")

    scenes_data = data["scenes"]
    scene_files = tuple(path.parent / f for f in scenes_data.get("files", ()))
    scene_params = None
    scene_count = int(scenes_data.get("count", 1))
    scene_seed = int(scenes_data.get("master_seed", 0))
    if not scene_files:
        scene_params = _build(SceneParams, scenes_data.get("params", {}), "scenes.params", space=space)
        _check_scene_params(scene_params)

    experiment = data["experiment"]
    scorer = data.get("scorer", {})
    scorer_kind = scorer.get("kind", "synthetic")

    if scene_params is not None and scorer_kind == "synthetic":
        _check_floor(scene_params.floor, detectors)
    if scorer_kind == "cascade":
        _check_cascade_thresholds(detectors)
    # The detectors `sweep` runs: the first at each point, named by the point's
    # index so that its cell of the grid is found by name.
    sweep = []
    for k, t_h in enumerate(map(float, experiment.get("sweep_t_h", ()))):
        try:
            sweep.append(replace(detectors[0], name=str(k), t_h=t_h))
        except ValueError as exc:
            raise ConfigError("experiment.sweep_t_h", f"sweep point {t_h}: {exc}") from exc
    if scorer_kind == "cascade":
        _check_cascade_thresholds(tuple(sweep), "experiment.sweep_t_h")

    return LoadedConfig(
        space=space,
        sw_stride=int(space_data.get("sw_stride", 1)),
        detectors=detectors,
        scene_params=scene_params,
        scene_files=scene_files,
        scene_count=scene_count,
        scene_seed=scene_seed,
        budgets=tuple(_cast(int, b, "experiment.budgets") for b in experiment["budgets"]),
        seed=int(experiment["seed"]),
        match_iou=float(experiment.get("match_iou", 0.5)),
        nms_iou=float(experiment.get("nms_iou", 0.5)),
        sweep=tuple(sweep),
        scorer_kind=scorer_kind,
        cascade_stages=int(scorer.get("stages", 10)),
        cost_model=_build(CostModel, data.get("cost_model", {}), "cost_model"),
    )
