"""Configuration loading: JSON files checked by the dataclasses they fill.

A config names the search space, one or more detectors, a scene source
(generator parameters or scene files), the experiment grid, and the cost
model.  Each section's keys are the field names of the dataclass it fills
(the space, each detector with its radius table and acceptance propagation,
the scene parameters, the cost model), and it loads straight into that
dataclass with :func:`_build`: an unknown key or a missing required one is
refused, each value is checked against the field's declared annotation (a
bool is not a number, a list not a tuple), an omitted key takes the field's
own default, declared only there, and an integral number such as ``410.0``
is cast to the field's ``int``.  Every bound on a value lives in the
dataclass's ``__post_init__``.  The sections that fill no dataclass (the
top level, ``scorer``, ``scenes``, ``experiment`` and ``space.sw_stride``)
are checked directly here.  The JSON Schemas in ``pwsearch/schemas/``
document the format for config authors; they are not read at run time, and
the tests check that every edit of a shipped file they refuse is refused
here too.
Keys no code would read are refused (``count``, ``master_seed`` or ``params``
beside scene ``files``; ``stages`` under the synthetic scorer), and so are the
tokens ``NaN`` and ``Infinity``, which Python's json reads and JSON lacks, a
number literal such as ``1e400`` that overflows to infinity, and an integer
literal too large for a float, at its field.  A config or
scene file that is missing, unreadable (a directory) or not UTF-8 is refused.
Scene files are read relative to the config file's directory and
checked when the scenes are loaded: as a :class:`SyntheticScene`, against the
space's image size, the scene's own rules (every peak above the floor) and,
under the synthetic scorer, every detector's ``t_l`` (the floor must lie
below it, as for generated scenes).  Under the cascade scorer every response lies in
[0, 1], so each detector's ``t_l`` must exceed 0 and its ``t_h`` be at most 1.
An ``ipw`` or ``sipw`` radius interval must lie below the detector's ``t_l``,
the only responses that are rejected and read the table.
Each ``sweep_t_h`` point loads as the detector ``sweep`` runs for it, the
first detector with that ``t_h``, and is checked by the same rules as every
detector: above ``t_l`` and, under the cascade scorer, at most 1.
All failures raise :class:`ConfigError` with the offending field's path,
such as ``detectors[0].budget`` (``scene.json:objects[0].peak`` in a scene
file), before anything runs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .detectors import DetectorConfig
from .harness import CostModel, SceneGenerationError, SceneParams, generate_scenes
from .regions import RadiusInterval, RadiusTable, ScalePropagation
from .scoring import SyntheticScene
from .space import Box, SearchSpace


class ConfigError(ValueError):
    """Bad configuration; ``field`` points at the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class LoadedConfig:
    """A validated config file, materialized into runtime objects."""

    space: SearchSpace
    sw_stride: int
    detectors: tuple[DetectorConfig, ...]
    scene_params: SceneParams | None
    scene_files: tuple[Path, ...]  # resolved against the config file's directory
    scene_count: int  # the scene files, or else the scenes to generate
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
        lists, or else freshly generated.  With ``only``, just the scene of
        that index (IndexError past ``scene_count``): no other file is read
        and no other scene built."""
        if self.scene_files:
            paths = self.scene_files if only is None else [self.scene_files[only]]
            return [self._load_scene_file(path) for path in paths]
        assert self.scene_params is not None
        try:
            return generate_scenes(self.scene_params, self.scene_seed, self.scene_count, only)
        except SceneGenerationError as exc:
            raise ConfigError("scenes.params", str(exc)) from exc

    def _load_scene_file(self, path: Path) -> SyntheticScene:
        data = _read_json(path, "scene")
        try:
            scene = _build(SyntheticScene, data, "")
        except ConfigError as exc:  # at the file's root, or at a key inside it
            raise ConfigError(f"{path.name}:{exc.field}" if exc.field else path.name, exc.message) from exc
        space = self.space
        if (scene.image_w, scene.image_h) != (space.image_w, space.image_h):
            raise ConfigError(
                path.name,
                f"scene image {scene.image_w}x{scene.image_h} differs from the space's "
                f"{space.image_w}x{space.image_h}",
            )
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


def _at(where: str, key: str | int) -> str:
    """The path of ``key`` in the section at ``where``: ``detectors[0]``,
    ``detectors[0].budget``, or just ``key`` when ``where`` is empty, the
    root of a scene file."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _object(data, where: str, keys, required=()) -> dict:
    """``data``, if it is a JSON object holding every ``required`` key and no
    key outside ``keys``."""
    if not isinstance(data, dict):
        raise ConfigError(where, f"{data!r} is not an object")
    for key in required:
        if key not in data:
            raise ConfigError(where, f"missing required key {key!r}")
    for key in data:
        if key not in keys:
            raise ConfigError(where, f"unexpected key {key!r}; the keys here are {', '.join(keys)}")
    return data


def _list(data, where: str, minimum: int = 0) -> list:
    if not isinstance(data, list):
        raise ConfigError(where, f"{data!r} is not a list")
    if len(data) < minimum:
        raise ConfigError(where, f"needs at least {minimum} item(s)")
    return data


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(where, f"{value!r} is not a string")
    return value


def _number(value, where: str) -> int | float:
    """``value``, if it is a JSON number (a bool is not) that a float can
    hold.  JSON reads an integer literal exactly, so one past a float's range
    (a 1 and 400 zeros) comes in whole; it is refused like ``1e400``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"{value!r} is not a number")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(where, "integer too large for a float") from None
    return value


def _integer(value, where: str, low: int | None = None) -> int:
    """``value`` as an ``int`` of at least ``low``: a JSON integer, or an
    integral number such as ``410.0``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ConfigError(where, f"{value!r} is not an integer")
    value = int(_number(value, where))
    if low is not None and value < low:
        raise ConfigError(where, f"{value} is less than the minimum of {low}")
    return value


def _float(value, where: str, low: float = -math.inf, high: float = math.inf) -> float:
    value = float(_number(value, where))
    if not low <= value <= high:
        raise ConfigError(where, f"{value} is not in [{low}, {high}]")
    return value


def _pair(value, where: str) -> tuple[float, float]:
    if len(_list(value, where)) != 2:
        raise ConfigError(where, f"{value!r} is not a [low, high] pair")
    return tuple(_float(v, where) for v in value)


def _interval(data, where: str) -> RadiusInterval:
    """A radius interval, whose ``lower`` may be ``"-inf"``: JSON has no number for it."""
    if isinstance(data, dict) and data.get("lower") == "-inf":
        return _build(RadiusInterval, data, where, lower=-math.inf)
    return _build(RadiusInterval, data, where)


def _placement(data, where: str) -> tuple[Box, float]:
    _object(data, where, ("box", "peak"), ("box", "peak"))
    return _build(Box, data["box"], _at(where, "box")), _float(data["peak"], _at(where, "peak"))


def _each(item):
    """A check of a JSON list whose every entry ``item`` checks at its index."""
    return lambda value, where: tuple(item(v, _at(where, k)) for k, v in enumerate(_list(value, where)))


# The check of a JSON value for each field annotation that a config or scene
# file fills, keyed by annotation text: the dataclass modules postpone their
# annotations.  A field whose annotation is not here (SceneParams.space) is
# not read from JSON.
_KINDS = {
    "str": _string,
    "int": _integer,
    "int | None": lambda value, where: None if value is None else _integer(value, where),
    "float": _float,
    "tuple[float, float]": _pair,
    "tuple[int, ...]": lambda value, where: tuple(_integer(v, where) for v in _list(value, where)),
    "tuple[RadiusInterval, ...]": _each(_interval),
    "tuple[Placement, ...]": _each(_placement),
    "RadiusTable | None": lambda value, where: _build(RadiusTable, value, where),
    "ScalePropagation": lambda value, where: _build(ScalePropagation, value, where),
}


@functools.cache
def _fields(cls) -> tuple[dict, tuple[str, ...]]:
    """The check of each of ``cls``'s JSON fields by name, and the names of
    those without a default."""
    checks = {f.name: _KINDS[f.type] for f in fields(cls) if f.type in _KINDS}
    return checks, tuple(f.name for f in fields(cls) if f.name in checks and f.default is MISSING)


def _build(cls, data, where: str, required=(), extra=(), **given):
    """``cls`` from the JSON object ``data`` at ``where``, whose keys are its
    field names (and ``extra``, which the caller reads).  A field without a
    default is required, and so is each of ``required``; an omitted key takes
    the field's own default.  Each value is checked against the field's
    annotation and cast to it: an integral number such as ``410.0`` to
    ``int``, a list to a tuple, a nested object to its dataclass.  ``given``
    supplies fields the caller builds itself.  A value that ``cls`` refuses
    raises :class:`ConfigError` at ``where``."""
    checks, needed = _fields(cls)
    _object(data, where, (*checks, *extra), (*needed, *required))
    kwargs = {k: check(data[k], _at(where, k)) for k, check in checks.items() if k in data and k not in given}
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def load_config(path: str | Path) -> LoadedConfig:
    path = Path(path)
    sections = ("space", "scorer", "detectors", "scenes", "experiment", "cost_model")
    data = _object(_read_json(path, "config"), path.name, sections, ("space", "detectors", "scenes", "experiment"))

    space_data = data["space"]
    space = _build(SearchSpace, space_data, "space", required=("scale_factor", "scale_count"), extra=("sw_stride",))
    sw_stride = _integer(space_data.get("sw_stride", 1), "space.sw_stride", 1)

    detectors = tuple(
        _build(DetectorConfig, d, _at("detectors", i)) for i, d in enumerate(_list(data["detectors"], "detectors", 1))
    )
    names = [d.name for d in detectors]
    if len(set(names)) != len(names):
        raise ConfigError("detectors", "detector names must be unique")

    scorer = _object(data.get("scorer", {}), "scorer", ("kind", "stages"))
    scorer_kind = _string(scorer.get("kind", "synthetic"), "scorer.kind")
    if scorer_kind not in ("synthetic", "cascade"):
        raise ConfigError("scorer.kind", f"{scorer_kind!r} is neither 'synthetic' nor 'cascade'")
    if scorer_kind != "cascade":
        _object(scorer, "scorer", ("kind",))  # only the cascade scorer reads stages

    scenes = _object(data["scenes"], "scenes", ("files", "count", "master_seed", "params"))
    scene_files = ()
    scene_params = None
    if "files" in scenes:
        _object(scenes, "scenes", ("files",))  # the generator's keys would go unread
        files = _list(scenes["files"], "scenes.files", 1)
        scene_files = tuple(path.parent / _string(f, _at("scenes.files", k)) for k, f in enumerate(files))
    else:
        scene_params = _build(SceneParams, scenes.get("params", {}), "scenes.params", space=space)

    keys = ("budgets", "seed", "match_iou", "nms_iou", "sweep_t_h")
    experiment = _object(data["experiment"], "experiment", keys, ("budgets", "seed"))
    budgets = tuple(_integer(b, "experiment.budgets", 1) for b in _list(experiment["budgets"], "experiment.budgets", 1))
    if len(set(budgets)) != len(budgets):
        raise ConfigError("experiment.budgets", "budgets must be unique")
    sweep_t_h = ()
    if "sweep_t_h" in experiment:
        points = _list(experiment["sweep_t_h"], "experiment.sweep_t_h", 1)
        sweep_t_h = [_float(t, "experiment.sweep_t_h") for t in points]

    if scene_params is not None and scorer_kind == "synthetic":
        _check_floor(scene_params.floor, detectors)
    if scorer_kind == "cascade":
        _check_cascade_thresholds(detectors)
    # The detectors `sweep` runs: the first at each point, named by the point's
    # index so that its cell of the grid is found by name.
    sweep = []
    for k, t_h in enumerate(sweep_t_h):
        try:
            sweep.append(replace(detectors[0], name=str(k), t_h=t_h))
        except ValueError as exc:
            raise ConfigError("experiment.sweep_t_h", f"sweep point {t_h}: {exc}") from exc
    if scorer_kind == "cascade":
        _check_cascade_thresholds(tuple(sweep), "experiment.sweep_t_h")

    return LoadedConfig(
        space=space,
        sw_stride=sw_stride,
        detectors=detectors,
        scene_params=scene_params,
        scene_files=scene_files,
        scene_count=len(scene_files) or _integer(scenes.get("count", 1), "scenes.count", 1),
        scene_seed=_integer(scenes.get("master_seed", 0), "scenes.master_seed", 0),
        budgets=budgets,
        seed=_integer(experiment["seed"], "experiment.seed", 0),
        match_iou=_float(experiment.get("match_iou", 0.5), "experiment.match_iou", 0.0, 1.0),
        nms_iou=_float(experiment.get("nms_iou", 0.5), "experiment.nms_iou", 0.0, 1.0),
        sweep=tuple(sweep),
        scorer_kind=scorer_kind,
        cascade_stages=_integer(scorer.get("stages", 10), "scorer.stages", 1),
        cost_model=_build(CostModel, data.get("cost_model", {}), "cost_model"),
    )

