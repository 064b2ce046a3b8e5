"""Experiment harness: scenes, metrics, cost accounting, curves, orchestration.

Runs are deterministic functions of (config, master seed).  Paired
comparisons give every detector the same scenes and the same per-scene seed,
so differences come from the algorithms alone.  Serialized outputs carry no
wall-clock or environment state: rerunning a seed reproduces them byte for
byte.

Each output is defined once: a ``trace.jsonl`` line by ``TRACE_KEYS``,
derived from ``TraceRecord``'s fields and used by writer and reader alike;
``curves.csv``'s columns by ``extract_curves``; the per-(budget, detector)
means of ``compare`` and ``sweep`` by ``cell_means``.  A record's fields are
its line's keys, in line order.  A run's records are columns, one list per
field (:class:`TraceRecords`), and everything here reads the columns: the
cost, the curves, the cut at a smaller budget, the writer and the reader, so
``run`` and ``compare`` build no ``TraceRecord``.  The writer spells each
float column once, as ``json.dumps`` spells its values, and fills one ``%``
template, built at import from ``TRACE_KEYS`` and the declared types of
``TraceRecord``'s fields, with each row of the columns, so a new trace field
changes only ``TraceRecord`` and the two places that record it
(``_record_batch`` and ``_incremental_step``); each line equals
``json.dumps`` of :func:`trace_record_to_dict`.  Every table is a dict of
equal-length columns, which :func:`write_csv` writes row by row.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from itertools import accumulate
from operator import itemgetter, truediv
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, get_type_hints

import numpy as np

from .detectors import (
    SOURCE_GAUSSIAN,
    SOURCE_UNIFORM,
    DetectorConfig,
    RunTrace,
    TraceRecord,
    TraceRecords,
    detections_from_trace,
    run_ipw,
    run_mpw,
    run_sipw,
    run_sw,
)
from .scoring import CascadeScorer, Scorer, SyntheticScene, SyntheticScorer
from .space import Box, SearchSpace, overlap

if TYPE_CHECKING:  # config imports this module
    from .config import LoadedConfig


def hit_probability(total: int, target_cells: int, draws: int) -> float:
    """Chance that uniform sampling with replacement hits a target set at all.

    ``1 - (1 - target_cells / total) ** draws`` for ``draws`` independent
    draws over ``total`` cells of which ``target_cells`` are targets.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    if not 0 < target_cells <= total:
        raise ValueError("target_cells must be in (0, total]")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    return 1.0 - (1.0 - target_cells / total) ** draws


@dataclass(frozen=True)
class CostModel:
    """Abstract per-run cost: setup + per-window feature + per-window classification.

    For staged scorers the classification term scales with the stages a
    window actually consumed; flat scorers pay one unit.
    """

    t_w: float = 0.0
    t_f: float = 1.0
    t_c: float = 1.0

    def __post_init__(self) -> None:
        if self.t_w == self.t_f == self.t_c == 0.0:
            raise ValueError("t_w, t_f and t_c are all 0, so every cost is 0 and no cost ratio exists")


def cost_estimate(trace: RunTrace, model: CostModel = CostModel()) -> float:
    """``t_w`` plus ``t_f + t_c * stages`` per record, a record of no stages
    paying for one.  The terms are float64 and ``np.add.accumulate`` totals
    them in record order, one addition at a time, as a Python loop does; a
    pairwise ``np.sum`` or a compensated ``sum`` would round differently."""
    stages = trace.records.stages_evaluated
    terms = np.empty(len(stages) + 1)
    terms[0] = model.t_w
    np.maximum(np.fromiter(stages, np.int64, len(stages)), 1, out=terms[1:])
    terms[1:] *= model.t_c
    terms[1:] += model.t_f
    return float(np.add.accumulate(terms, out=terms)[-1])


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary for one run on one scene."""

    detection_rate: float
    fppi: float
    matched: int
    objects: int
    detections: int
    windows_used: int = 0
    cost: float = 0.0


_METRIC_NAMES = tuple(f.name for f in fields(Metrics))


def evaluate(
    detections,
    ground_truth: list[Box],
    match_threshold: float = 0.5,
) -> Metrics:
    """Greedy one-to-one matching by descending score.

    ``detections`` is a sequence of (box, score) pairs.  Each detection
    matches the unmatched object it overlaps most, provided the overlap
    reaches ``match_threshold``; leftovers are false positives.  Ties in
    score break on geometry, so input order never matters.
    """
    ordered = sorted(detections, key=lambda d: (-d[1], d[0].cx, d[0].cy, d[0].w, d[0].h))
    unmatched = list(range(len(ground_truth)))
    matched = 0
    for box, _ in ordered:
        best_iou, best_j = 0.0, -1
        for j in unmatched:
            iou = overlap(box, ground_truth[j])
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= match_threshold:
            unmatched.remove(best_j)
            matched += 1
    false_positives = len(ordered) - matched
    rate = matched / len(ground_truth) if ground_truth else 1.0
    return Metrics(rate, float(false_positives), matched, len(ground_truth), len(ordered))


@dataclass(frozen=True)
class SceneParams:
    """Knobs for the seeded scene generator.

    Targets are placed fully inside the image at template-aspect sizes drawn
    from the pyramid's own scale steps, and no two placements may overlap
    above ``max_overlap``.  Peak ranges should respect the paired detector's
    thresholds (objects at or above t_h, distractors inside [t_l, t_h)).
    ``scale_indices`` must name scales of the pyramid (0 to scale_count - 1).
    """

    space: SearchSpace
    object_count: int = 1
    distractor_count: int = 2
    object_peak: tuple[float, float] = (1.5, 2.5)
    distractor_peak: tuple[float, float] = (-1.2, -0.4)
    floor: float = -5.0
    sharpness: float = 3.0
    scale_indices: tuple[int, ...] = (0,)
    max_overlap: float = 0.3
    max_retries: int = 200


class SceneGenerationError(RuntimeError):
    pass


def _place_target(
    params: SceneParams,
    rng: np.random.Generator,
    existing: list[Box],
    peak_range: tuple[float, float],
) -> tuple[Box, float]:
    space = params.space
    for _ in range(params.max_retries):
        s = int(params.scale_indices[rng.integers(len(params.scale_indices))])
        w = space.template_w * space.zoom(s)
        h = space.template_h * space.zoom(s)
        # A scale with windows may still round w or h an ulp past the image;
        # the centre's range then shrinks to the image's middle, not below it.
        half_w = min(w, space.image_w) / 2.0
        half_h = min(h, space.image_h) / 2.0
        cx = float(rng.uniform(half_w, space.image_w - half_w))
        cy = float(rng.uniform(half_h, space.image_h - half_h))
        box = Box(cx, cy, w, h)
        if all(overlap(box, other) <= params.max_overlap for other in existing):
            peak = float(rng.uniform(*peak_range))
            return box, peak
    raise SceneGenerationError(
        f"could not place a target within max_overlap={params.max_overlap} "
        f"after {params.max_retries} retries"
    )


def generate_scenes(params: SceneParams, master_seed: int, count: int, only: int | None = None) -> list[SyntheticScene]:
    """``count`` scenes, each from its own child stream of ``master_seed``;
    with ``only``, just the scene of that index (IndexError past ``count``)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    scenes = []
    for index in range(count) if only is None else [range(count)[only]]:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, index])))
        placed: list[Box] = []
        objects = []
        for _ in range(params.object_count):
            box, peak = _place_target(params, rng, placed, params.object_peak)
            placed.append(box)
            objects.append((box, peak))
        distractors = []
        for _ in range(params.distractor_count):
            box, peak = _place_target(params, rng, placed, params.distractor_peak)
            placed.append(box)
            distractors.append((box, peak))
        scenes.append(
            SyntheticScene(
                image_w=params.space.image_w,
                image_h=params.space.image_h,
                objects=tuple(objects),
                distractors=tuple(distractors),
                floor=params.floor,
                sharpness=params.sharpness,
            )
        )
    return scenes


def extract_curves(trace: RunTrace) -> dict[str, list]:
    """``curves.csv``'s columns, one value per iteration of a trace;
    ``uniform_draws`` and ``gaussian_draws`` count the draws from each source
    so far.  The columns copied from the trace are its own lists."""
    r = trace.records
    count = trace.window_count
    return {
        "i": r.i,
        "n_rejected": r.n_rejected,
        "n_accepted": r.n_accepted,
        "n_free": [count - rejected - accepted for rejected, accepted in zip(r.n_rejected, r.n_accepted)],
        "n_ambiguous": r.n_ambiguous,
        "p_uniform": r.p_uniform,
        "p_gaussian": [None if p is None else 1.0 - p for p in r.p_uniform],
        # initial=0 keeps the counts ints: a bare accumulate would start with a bool
        "uniform_draws": list(accumulate(map(SOURCE_UNIFORM.__eq__, r.source), initial=0))[1:],
        "gaussian_draws": list(accumulate(map(SOURCE_GAUSSIAN.__eq__, r.source), initial=0))[1:],
    }


# --- scorers and single runs -------------------------------------------------

_RUNNERS = {"sw": run_sw, "mpw": run_mpw, "ipw": run_ipw, "sipw": run_sipw}


def build_scorer(scene: SyntheticScene, kind: str = "synthetic", cascade_stages: int = 10) -> Scorer:
    if kind == "synthetic":
        return SyntheticScorer(scene)
    if kind == "cascade":
        return CascadeScorer(scene, stages=cascade_stages)
    raise ValueError(f"unknown scorer kind {kind!r}")


def run_detector(
    space: SearchSpace,
    scorer: Scorer,
    config: DetectorConfig,
    seed: int,
) -> RunTrace:
    return _RUNNERS[config.algorithm](space, scorer, config, seed)


def run_cell(
    cfg: LoadedConfig,
    scene: SyntheticScene,
    detector: DetectorConfig,
    seed: int,
) -> tuple[RunTrace, tuple[tuple[Box, float], ...], Metrics]:
    """Run one detector on one scene and score it: the single run path."""
    scorer = build_scorer(scene, cfg.scorer_kind, cfg.cascade_stages)
    trace = run_detector(_space_for(cfg, detector.algorithm), scorer, detector, seed)
    return (trace, *_score_trace(cfg, scene, trace))


def _space_for(cfg: LoadedConfig, algorithm: str) -> SearchSpace:
    """``sw`` scans the grid at ``cfg.sw_stride``; every other detector samples ``cfg.space``."""
    return cfg.space.at_stride(cfg.sw_stride) if algorithm == "sw" else cfg.space


def _score_trace(
    cfg: LoadedConfig, scene: SyntheticScene, trace: RunTrace
) -> tuple[tuple[tuple[Box, float], ...], Metrics]:
    """A run's detections and metrics; the metrics carry the windows used and the modelled cost."""
    detections = detections_from_trace(_space_for(cfg, trace.algorithm), trace, cfg.nms_iou)
    metrics = evaluate(detections, [box for box, _ in scene.objects], cfg.match_iou)
    metrics = replace(
        metrics,
        windows_used=len(trace.records),
        cost=cost_estimate(trace, cfg.cost_model),
    )
    return detections, metrics


NESTING = ("sw", "ipw")  # detectors whose run at a budget is cut from a longer run


def trace_at_budget(trace: RunTrace, budget: int) -> RunTrace:
    """The trace the same run would give at ``budget``, for a detector in ``NESTING``.

    ``ipw``'s budget only stops its loop, so the run at a smaller budget is the
    first ``budget`` records, and it sees the free space run out only if the
    longer run ended within ``budget``.  ``sw`` ignores the budget and keeps
    its whole scan.
    """
    if trace.algorithm == "sw" or len(trace.records) < budget:
        return trace
    return replace(trace, records=trace.records[:budget], complete=False)


@dataclass(frozen=True)
class RunResult:
    """One (scene, detector, budget) cell of an experiment."""

    scene_index: int
    detector: str
    algorithm: str
    budget: int
    seed: int
    metrics: Metrics
    complete: bool

    def to_record(self) -> dict:
        return {
            "scene": self.scene_index,
            "detector": self.detector,
            "algorithm": self.algorithm,
            "budget": self.budget,
            "seed": self.seed,
            **asdict(self.metrics),
            "complete": self.complete,
        }


def derive_seed(master_seed: int, scene: int) -> int:
    """The seed of every run on scene ``scene``: the one rule of ``run``,
    ``compare`` and ``sweep``, whatever the detector or budget."""
    seq = np.random.SeedSequence([master_seed, scene])
    return int(seq.generate_state(1, np.uint64)[0])


def parallel_map(fn: Callable, tasks: Sequence, jobs: int = 1) -> list:
    """``[fn(task) for task in tasks]``, over ``jobs`` processes when ``jobs > 1``.

    Results come back in task order, so parallelism never changes the output.
    Workers are spawned, not forked, so ``fn`` must be a module-level function
    that they can import.
    """
    if jobs <= 1:
        return [fn(task) for task in tasks]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (jobs * 4))))


def _compare_rows(task) -> list[RunResult]:
    """One run of a detector on a scene at the largest of ``budgets``, and one
    row per budget cut from it; ``budgets`` holds more than one budget only
    for a detector in ``NESTING``."""
    cfg, scene_index, scene, detector, budgets = task
    seed = derive_seed(cfg.seed, scene_index)
    top = max(budgets)
    full, _, full_metrics = run_cell(cfg, scene, replace(detector, budget=top), seed)
    rows = []
    for budget in budgets:
        trace = full if budget == top else trace_at_budget(full, budget)
        metrics = full_metrics if trace is full else _score_trace(cfg, scene, trace)[1]
        rows.append(RunResult(scene_index, detector.name, detector.algorithm, budget, seed, metrics, trace.complete))
    return rows


def run_experiment(
    cfg: LoadedConfig,
    scenes: Sequence[SyntheticScene],
    jobs: int = 1,
) -> list[RunResult]:
    """Every (scene, detector, budget) row, in deterministic order.

    Every row of a scene carries the seed ``run`` uses for that scene, so a
    row replays as ``run`` with the detector's budget set to the row's.  A
    detector in ``NESTING`` runs once per scene, at the largest budget, and
    each budget's row is cut from that trace by :func:`trace_at_budget`.
    ``mpw`` and ``sipw`` size their schedules from the budget, so they run
    once per budget.
    """
    tasks = [
        (cfg, scene_index, scene, detector, budgets)
        for scene_index, scene in enumerate(scenes)
        for detector in cfg.detectors
        for budgets in ([cfg.budgets] if detector.algorithm in NESTING else [(b,) for b in cfg.budgets])
    ]
    return [row for rows in parallel_map(_compare_rows, tasks, jobs) for row in rows]


def cell_means(results: list[RunResult]) -> dict[tuple[int, str], dict[str, float]]:
    """Each metric's mean over the scenes of every (budget, detector) cell."""
    cells: dict[tuple[int, str], list[Metrics]] = {}
    for r in results:
        cells.setdefault((r.budget, r.detector), []).append(r.metrics)
    return {
        cell: {name: sum(getattr(m, name) for m in metrics) / len(metrics) for name in _METRIC_NAMES}
        for cell, metrics in cells.items()
    }


def summarize_rates(results: list[RunResult], detectors: list[str], budgets: list[int]) -> dict[str, list]:
    """Mean detection rate per (budget, detector): a budget column, then one column per detector."""
    means = cell_means(results)
    rates = {name: [means[b, name]["detection_rate"] for b in budgets] for name in detectors}
    return {"budget": list(budgets), **rates}


def summarize_ratios(results: list[RunResult], detectors: list[str], budgets: list[int]) -> dict[str, list]:
    """Mean windows/cost per detector plus ratios against the first detector,
    one column each, one value per budget."""
    means = cell_means(results)
    base = detectors[0]
    table: dict[str, list] = {"budget": list(budgets)}
    for name in detectors:
        table[f"windows:{name}"] = [means[b, name]["windows_used"] for b in budgets]
        table[f"cost:{name}"] = [means[b, name]["cost"] for b in budgets]
    for name in detectors[1:]:
        table[f"windows_ratio:{name}/{base}"] = list(map(truediv, table[f"windows:{name}"], table[f"windows:{base}"]))
        table[f"cost_ratio:{name}/{base}"] = list(map(truediv, table[f"cost:{name}"], table[f"cost:{base}"]))
    return table


# --- serialization -----------------------------------------------------------


# A trace line's keys, in file order: ``TraceRecord``'s fields, built once so
# that no record pays for ``fields()``.
TRACE_KEYS = tuple(f.name for f in fields(TraceRecord))
_line_values = itemgetter(*TRACE_KEYS)
_HEADER_KEYS = ("detector", "algorithm", "seed", "window_count")
_FLOAT_KINDS = (float, float | None)


def _conversion(kind) -> str:
    """The ``%`` conversion that writes a field of declared type ``kind`` as
    ``json.dumps`` does.  ``str`` of an int is its JSON spelling, and a float
    field's column comes spelled by :func:`_spell_floats`.  The kind and
    source strings are plain ASCII constants, so quoting them is all the
    escaping they need."""
    if kind is str:
        return '"%s"'
    if kind is int or kind in _FLOAT_KINDS:
        return "%s"
    raise TypeError(f"no trace line conversion for a field of type {kind}")


_hints = get_type_hints(TraceRecord)
# One trace line: the record's values in TRACE_KEYS order, formatted in one pass.
_LINE = "{" + ", ".join(f'"{key}": {_conversion(_hints[key])}' for key in TRACE_KEYS) + "}\n"
_FLOAT_FIELDS = frozenset(key for key in TRACE_KEYS if _hints[key] in _FLOAT_KINDS)


def _spell_floats(column: list) -> list[str]:
    """Each value of a float column as ``json.dumps`` spells it: by
    ``float.__repr__`` when every value is a finite float, ``null`` for a
    column of ``None``, and value by value otherwise (NaN, an infinity, a
    ``None`` among floats, an int or a bool).  A finite column whose sum
    overflows is spelled value by value too, which spells it the same."""
    try:
        spelled = list(map(float.__repr__, column))  # TypeError: a None, an int or a bool
    except TypeError:
        return ["null"] * len(column) if column.count(None) == len(column) else list(map(json.dumps, column))
    return spelled if math.isfinite(sum(column)) else list(map(json.dumps, column))


def trace_record_to_dict(rec: TraceRecord) -> dict:
    """A record as the dict its trace line spells; ``json.dumps`` of it is the
    reference that the ``_LINE`` writer is tested against."""
    return asdict(rec)


def write_trace_jsonl(path: str | Path, trace: RunTrace) -> None:
    """Header line, then one line per draw, then a footer with the outcome.

    Each record line is ``_LINE`` filled with one row of the record columns,
    the float columns spelled once each by :func:`_spell_floats`, and equals
    ``json.dumps(trace_record_to_dict(rec))``; header and footer are
    ``json.dumps`` of their dicts."""
    header = json.dumps({key: getattr(trace, key) for key in _HEADER_KEYS})
    columns = [
        _spell_floats(column) if key in _FLOAT_FIELDS else column
        for key, column in zip(TRACE_KEYS, trace.records.columns)
    ]
    records = "".join(map(_LINE.__mod__, zip(*columns)))
    r = trace.records
    accepted = [{"x": r.x[k], "y": r.y[k], "s": r.s[k], "response": r.response[k]} for k in trace.accepted_rows]
    footer = json.dumps({"complete": trace.complete, "accepted": accepted, "rebuilds": trace.rebuilds})
    Path(path).write_text(f"{header}\n{records}{footer}\n")


class TraceFormatError(ValueError):
    """A trace file that is missing or unreadable, holds no records or ends without its footer."""


def read_trace_jsonl(path: str | Path) -> RunTrace:
    """The trace that :func:`write_trace_jsonl` wrote.  A line that is not
    JSON or lacks a key of its kind raises :class:`TraceFormatError` naming
    the line, as does a missing or unreadable file or one without records."""
    path = Path(path)
    if not path.exists():
        raise TraceFormatError(f"no such trace file: {path}")
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    if len(lines) < 2:
        raise TraceFormatError("trace file has no records")
    number = len(lines)
    try:
        footer = json.loads(lines[-1])
        complete, rebuilds = footer["complete"], footer.get("rebuilds", [])
        number = 1
        header = json.loads(lines[0])
        fields = {key: header[key] for key in _HEADER_KEYS}
        rows = []
        for number, line in enumerate(lines[1:-1], start=2):
            rows.append(_line_values(json.loads(line)))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        what = "not the footer line; the file was cut short" if number == len(lines) else "not a trace line"
        raise TraceFormatError(f"line {number} is {what} ({type(exc).__name__}: {exc})") from exc
    if not rows:
        raise TraceFormatError("trace file has no records")
    records = TraceRecords.from_columns(map(list, zip(*rows)))
    return RunTrace(**fields, records=records, complete=complete, rebuilds=rebuilds)


def write_results_jsonl(path: str | Path, results: list[RunResult]) -> None:
    lines = [json.dumps(r.to_record()) for r in results]
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path: str | Path, columns: dict[str, Sequence]) -> None:
    """A header of the column names, then one row per index of the columns,
    which must all be of one length (``ValueError`` before the file is
    opened); an empty file for no columns."""
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns of unequal lengths: {lengths}")
    if not columns:
        Path(path).write_text("")
        return
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))
