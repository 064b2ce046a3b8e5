"""Configuration loading: JSON files checked against a shipped schema.

A config names the search space, one or more detectors, a scene source
(generator parameters or scene files), the experiment grid, and the cost
model.  Validation happens in two passes: structural (JSON Schema, shipped in
``pwsearch/schemas/``) and semantic (cross-field rules the schema cannot
express).  Scene files are read relative to the config file's directory and
checked when the scenes are loaded: against their own schema, the space's
image size, the scene's own rules (every peak above the floor) and, under the
synthetic scorer, every detector's ``t_l`` (the floor must lie below it, as
for generated scenes).  All failures raise :class:`ConfigError` with the
offending field's path, before anything runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema

from .detectors import DetectorConfig
from .harness import CostModel, SceneParams, generate_scenes
from .regions import RadiusInterval, RadiusTable, ScalePropagation
from .scoring import SyntheticScene
from .space import SearchSpace


class ConfigError(ValueError):
    """Bad configuration; ``field`` points at the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _load_schema(name: str) -> dict:
    text = resources.files("pwsearch.schemas").joinpath(name).read_text()
    return json.loads(text)


def _schema_check(data: dict, schema_name: str, source: str) -> None:
    schema = _load_schema(schema_name)
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"{source}:{path}", err.message)


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
    sweep_t_h: tuple[float, ...]
    scorer_kind: str
    cascade_stages: int
    cost_model: CostModel

    def load_scenes(self) -> list[SyntheticScene]:
        """The config's scenes: its files, checked as the module docstring
        lists, or else freshly generated."""
        if self.scene_files:
            return [self._load_scene_file(path) for path in self.scene_files]
        assert self.scene_params is not None
        return generate_scenes(self.scene_params, self.scene_seed, self.scene_count)

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
    try:
        return json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(str(path), f"{kind} file not found") from exc
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


def _build_radius_table(data: dict, where: str) -> RadiusTable:
    intervals = []
    for idx, item in enumerate(data["intervals"]):
        lower = item["lower"]
        lower = float("-inf") if lower == "-inf" else float(lower)
        intervals.append(RadiusInterval(lower, float(item["r_x_ratio"]), float(item["r_y_ratio"])))
    try:
        return RadiusTable(tuple(intervals), int(data["active_intervals"]))
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _build_propagation(data: dict | None) -> ScalePropagation:
    if data is None:
        return ScalePropagation(0, 1.0)
    return ScalePropagation(
        span=int(data["span"]),
        shrink=float(data["shrink"]),
        subtract_interval=bool(data.get("subtract_interval", False)),
    )


def _build_detector(data: dict, index: int) -> DetectorConfig:
    where = f"detectors[{index}]"
    table = None
    if "radius_table" in data:
        table = _build_radius_table(data["radius_table"], f"{where}.radius_table")
    try:
        return DetectorConfig(
            name=data["name"],
            algorithm=data["algorithm"],
            t_l=float(data["t_l"]),
            t_h=float(data["t_h"]),
            budget=int(data.get("budget", 1)),
            alpha=float(data.get("alpha", 0.2)),
            gamma=float(data.get("gamma", 0.7)),
            mpw_stage_count=int(data.get("mpw_stage_count", 5)),
            mpw_blend=float(data.get("mpw_blend", 1.0)),
            n_c_star_init=data.get("n_c_star_init"),
            n_max=int(data.get("n_max", 1000)),
            radius_table=table,
            r_a_x_ratio=float(data.get("r_a_x_ratio", 0.0)),
            r_a_y_ratio=float(data.get("r_a_y_ratio", 0.0)),
            reject_propagation=_build_propagation(data.get("reject_propagation")),
            accept_propagation=_build_propagation(data.get("accept_propagation")),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(where, str(exc)) from exc


def load_config(path: str | Path) -> LoadedConfig:
    path = Path(path)
    data = _read_json(path, "config")
    _schema_check(data, "config.schema.json", path.name)

    space_data = data["space"]
    try:
        space = SearchSpace(
            image_w=space_data["image_w"],
            image_h=space_data["image_h"],
            template_w=space_data["template_w"],
            template_h=space_data["template_h"],
            stride=space_data.get("stride", 1),
            scale_factor=space_data["scale_factor"],
            scale_count=space_data["scale_count"],
        )
    except ValueError as exc:
        raise ConfigError("space", str(exc)) from exc
    if space.window_count == 0:
        raise ConfigError("space", "no window fits: template exceeds the image at every scale")

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
        params = scenes_data.get("params", {})
        scale_indices = tuple(params.get("scale_indices", (0,)))
        for idx in scale_indices:
            if idx >= space.scale_count:
                raise ConfigError(
                    "scenes.params.scale_indices", f"scale index {idx} outside the pyramid"
                )
        scene_params = SceneParams(
            space=space,
            object_count=int(params.get("object_count", 1)),
            distractor_count=int(params.get("distractor_count", 2)),
            object_peak=tuple(params.get("object_peak", (1.5, 2.5))),
            distractor_peak=tuple(params.get("distractor_peak", (-1.2, -0.4))),
            floor=float(params.get("floor", -5.0)),
            sharpness=float(params.get("sharpness", 3.0)),
            scale_indices=scale_indices,
            max_overlap=float(params.get("max_overlap", 0.3)),
            max_retries=int(params.get("max_retries", 200)),
        )

    experiment = data["experiment"]
    scorer = data.get("scorer", {})
    scorer_kind = scorer.get("kind", "synthetic")

    if scene_params is not None and scorer_kind == "synthetic":
        _check_floor(scene_params.floor, detectors)

    cost = data.get("cost_model", {})
    return LoadedConfig(
        space=space,
        sw_stride=int(space_data.get("sw_stride", 1)),
        detectors=detectors,
        scene_params=scene_params,
        scene_files=scene_files,
        scene_count=scene_count,
        scene_seed=scene_seed,
        budgets=tuple(int(b) for b in experiment["budgets"]),
        seed=int(experiment["seed"]),
        match_iou=float(experiment.get("match_iou", 0.5)),
        nms_iou=float(experiment.get("nms_iou", 0.5)),
        sweep_t_h=tuple(float(t) for t in experiment.get("sweep_t_h", ())),
        scorer_kind=scorer_kind,
        cascade_stages=int(scorer.get("stages", 10)),
        cost_model=CostModel(
            t_w=float(cost.get("t_w", 0.0)),
            t_f=float(cost.get("t_f", 1.0)),
            t_c=float(cost.get("t_c", 1.0)),
        ),
    )
