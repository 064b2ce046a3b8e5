"""Experiment plumbing: probabilities, metrics, scenes, grids, serialization."""

import csv
import io
import itertools
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from pwsearch import (
    Box,
    CostModel,
    RunTrace,
    SearchSpace,
    SyntheticScene,
    TraceRecord,
    TraceRecords,
    Window,
    cost_estimate,
    evaluate,
    extract_curves,
    generate_scenes,
    hit_probability,
    overlap,
    run_ipw,
    run_mpw,
    run_sipw,
    run_sw,
)
from pwsearch import harness
from pwsearch.config import LoadedConfig
from pwsearch.detectors import (
    KIND_ACCEPTED,
    KIND_AMBIGUOUS,
    KIND_REJECTED,
    SOURCE_GAUSSIAN,
    SOURCE_SCAN,
    SOURCE_UNIFORM,
)
from pwsearch.harness import (
    SceneGenerationError,
    SceneParams,
    build_scorer,
    derive_seed,
    read_trace_jsonl,
    run_cell,
    run_experiment,
    summarize_rates,
    summarize_ratios,
    trace_at_budget,
    trace_record_to_dict,
    write_csv,
    write_results_jsonl,
    write_trace_jsonl,
)

from conftest import make_detector, make_radius_table


# --- hit probability --------------------------------------------------------


def test_hit_probability_frozen_value():
    assert hit_probability(307200, 50, 1000) == pytest.approx(0.1502164963947662, abs=1e-12)


def test_hit_probability_edges():
    assert hit_probability(100, 100, 1) == pytest.approx(1.0)
    assert hit_probability(100, 1, 1) == pytest.approx(0.01)
    assert hit_probability(10, 3, 10**6) == pytest.approx(1.0)


def test_hit_probability_validation():
    with pytest.raises(ValueError):
        hit_probability(0, 1, 1)
    with pytest.raises(ValueError):
        hit_probability(100, 0, 1)
    with pytest.raises(ValueError):
        hit_probability(100, 101, 1)
    with pytest.raises(ValueError):
        hit_probability(100, 1, 0)


def test_hit_probability_agrees_with_simulation(rng):
    p_cell = 50 / 307200
    trials = rng.binomial(1000, p_cell, size=3000)
    assert (trials > 0).mean() == pytest.approx(hit_probability(307200, 50, 1000), abs=0.02)


# --- cost ---------------------------------------------------------------


def flat_trace(n, stages=0):
    records = [TraceRecord(i + 1, 0, 0, 0, -3.0, "RPW", "UNIFORM", i, 0, 0, 0.2, stages) for i in range(n)]
    return RunTrace("t", "ipw", 0, 1000, records)


def test_cost_flat_scorer():
    assert cost_estimate(flat_trace(10)) == pytest.approx(20.0)  # t_f + t_c per window
    model = CostModel(t_w=5.0, t_f=2.0, t_c=3.0)
    assert cost_estimate(flat_trace(10), model) == pytest.approx(5.0 + 10 * 5.0)


def test_cost_charges_evaluated_stages():
    trace = flat_trace(4, stages=3)
    assert cost_estimate(trace) == pytest.approx(4 * (1.0 + 3.0))
    cheap = CostModel(t_f=1.0, t_c=0.0)
    assert cost_estimate(trace, cheap) == pytest.approx(4.0)


def test_early_cascade_exits_cost_less():
    model = CostModel(t_f=0.5, t_c=1.0)
    assert cost_estimate(flat_trace(20, stages=1), model) < cost_estimate(
        flat_trace(20, stages=7), model
    )


# --- evaluation -----------------------------------------------------------


def test_evaluate_perfect_match():
    gt = [Box(10, 10, 8, 8)]
    m = evaluate([(Box(10, 10, 8, 8), 1.0)], gt)
    assert m.detection_rate == 1.0
    assert m.fppi == 0.0
    assert m.matched == 1


def test_evaluate_spurious_detection_counts_fppi():
    gt = [Box(10, 10, 8, 8)]
    m = evaluate([(Box(10, 10, 8, 8), 1.0), (Box(50, 50, 8, 8), 0.9)], gt)
    assert m.detection_rate == 1.0
    assert m.fppi == 1.0


def test_evaluate_miss():
    m = evaluate([], [Box(10, 10, 8, 8)])
    assert m.detection_rate == 0.0
    assert m.fppi == 0.0


def test_evaluate_duplicates_match_once():
    gt = [Box(10, 10, 8, 8)]
    m = evaluate([(Box(10, 10, 8, 8), 1.0), (Box(10.5, 10, 8, 8), 0.8)], gt)
    assert m.matched == 1
    assert m.fppi == 1.0


def test_evaluate_requires_enough_overlap():
    gt = [Box(10.0, 10.0, 8.0, 8.0)]
    near_miss = Box(16.0, 10.0, 8.0, 8.0)
    assert overlap(near_miss, gt[0]) < 0.5
    m = evaluate([(near_miss, 1.0)], gt)
    assert m.matched == 0
    assert m.fppi == 1.0


def test_evaluate_order_invariant(rng):
    gt = [Box(10, 10, 8, 8), Box(30, 30, 8, 8)]
    dets = [
        (Box(10.5, 10, 8, 8), 0.9),
        (Box(30, 30.5, 8, 8), 0.7),
        (Box(50, 50, 8, 8), 0.8),
        (Box(11, 10, 8, 8), 0.6),
    ]
    ref = evaluate(dets, gt)
    for _ in range(5):
        shuffled = list(dets)
        rng.shuffle(shuffled)
        got = evaluate(shuffled, gt)
        assert (got.matched, got.fppi) == (ref.matched, ref.fppi)


def test_evaluate_empty_ground_truth():
    m = evaluate([(Box(5, 5, 4, 4), 1.0)], [])
    assert m.detection_rate == 1.0
    assert m.fppi == 1.0


# --- scene generation -------------------------------------------------------


@pytest.fixture(scope="module")
def params():
    space = SearchSpace(160, 120, 24, 48, stride=1, scale_factor=1.2, scale_count=4)
    return SceneParams(space=space, object_count=1, distractor_count=2, scale_indices=(0, 1, 2))


def test_generate_scenes_deterministic(params):
    a = generate_scenes(params, master_seed=5, count=6)
    b = generate_scenes(params, master_seed=5, count=6)
    assert a == b
    c = generate_scenes(params, master_seed=6, count=6)
    assert a != c


def test_one_generated_scene_is_built_alone_from_its_stream(params):
    """``only`` builds just that scene, equal to the same index of the full set."""
    scenes = generate_scenes(params, master_seed=5, count=6)
    for index in range(6):
        assert generate_scenes(params, master_seed=5, count=6, only=index) == [scenes[index]]
    with pytest.raises(IndexError):
        generate_scenes(params, master_seed=5, count=6, only=6)


def test_generate_scenes_counts_and_peaks(params):
    scenes = generate_scenes(params, master_seed=1, count=10)
    assert len(scenes) == 10
    for scene in scenes:
        assert len(scene.objects) == 1
        assert len(scene.distractors) == 2
        for _, peak in scene.objects:
            assert 1.5 <= peak <= 2.5
        for _, peak in scene.distractors:
            assert -1.2 <= peak <= -0.4


def test_generate_scenes_sizes_come_from_the_pyramid(params):
    space = params.space
    allowed_w = {space.template_w * space.zoom(s) for s in params.scale_indices}
    for scene in generate_scenes(params, master_seed=2, count=8):
        for box, _ in scene.objects + scene.distractors:
            assert any(math.isclose(box.w, w) for w in allowed_w)
            assert 0 <= box.cx <= scene.image_w
            assert 0 <= box.cy <= scene.image_h


def test_generate_scenes_respects_overlap_cap(params):
    for scene in generate_scenes(params, master_seed=3, count=10):
        placements = [b for b, _ in scene.objects + scene.distractors]
        for i, a in enumerate(placements):
            for b in placements[i + 1 :]:
                assert overlap(a, b) <= params.max_overlap + 1e-9


def test_generate_scenes_gives_up_when_impossible(params):
    from dataclasses import replace

    cramped = replace(params, object_count=200, max_overlap=0.0, max_retries=5)
    with pytest.raises(SceneGenerationError):
        generate_scenes(cramped, master_seed=4, count=1)


def test_scene_thresholds_hold_for_generated_scenes(params):
    """Against a (t_l, t_h) = (-2, 0) detector: the floor lies below t_l,
    object peaks at or above t_h, distractor peaks in [t_l, t_h)."""
    for scene in generate_scenes(params, master_seed=7, count=5):
        assert scene.floor < -2.0
        assert all(peak >= 0.0 for _, peak in scene.objects)
        assert all(-2.0 <= peak < 0.0 for _, peak in scene.distractors)


# --- curves -----------------------------------------------------------------


def test_extract_curves_identities(bench_space, bench_scenes, bench_table):
    config = make_detector("ipw", 200, bench_table)
    trace = run_ipw(bench_space, build_scorer(bench_scenes[0]), config, seed=21)
    rows = extract_curves(trace)
    assert [row["i"] for row in rows] == list(range(1, len(trace.records) + 1))
    assert rows[0]["p_uniform"] == pytest.approx(config.alpha)
    for j, row in enumerate(rows):
        assert row["n_free"] == trace.window_count - row["n_rejected"] - row["n_accepted"]
        assert row["p_gaussian"] == pytest.approx(1.0 - row["p_uniform"])
        assert row["uniform_draws"] + row["gaussian_draws"] == j + 1
    for column in ("uniform_draws", "gaussian_draws"):
        counts = [row[column] for row in rows]
        assert counts == sorted(counts)


# --- experiment grid ---------------------------------------------------------


def small_experiment():
    """A two-detector, two-budget config and its scenes."""
    space = SearchSpace(80, 60, 16, 24, stride=1, scale_factor=1.25, scale_count=3)
    table = make_radius_table()
    params = SceneParams(space=space, object_count=1, distractor_count=1, scale_indices=(0, 1))
    cfg = LoadedConfig(
        space=space,
        sw_stride=4,
        detectors=(
            make_detector("ipw", 60, table, name="ipw"),
            make_detector("mpw", 60, table, name="mpw", gamma=0.44),
        ),
        scene_params=params,
        scene_files=(),
        scene_count=2,
        scene_seed=11,
        budgets=(30, 60),
        seed=99,
        match_iou=0.5,
        nms_iou=0.5,
        sweep=(),
        scorer_kind="synthetic",
        cascade_stages=10,
        cost_model=CostModel(),
    )
    return cfg, cfg.load_scenes()


def test_run_experiment_grid_shape_and_order():
    results = run_experiment(*small_experiment())
    assert len(results) == 2 * 2 * 2
    key = [(r.scene_index, r.detector, r.budget) for r in results]
    assert key == sorted(key, key=lambda k: (k[0], ["ipw", "mpw"].index(k[1]), k[2]))
    for r in results:
        if r.algorithm != "sw":
            assert r.metrics.windows_used <= r.budget
        assert r.metrics.cost > 0


def test_run_experiment_parallel_matches_serial():
    cfg, scenes = small_experiment()
    assert run_experiment(cfg, scenes, jobs=2) == run_experiment(cfg, scenes, jobs=1)


def test_paired_seeds_shared_across_detectors():
    """One seed per scene, the one ``run`` uses, for every detector and budget."""
    cfg, scenes = small_experiment()
    results = run_experiment(cfg, scenes)
    for r in results:
        assert r.seed == derive_seed(cfg.seed, r.scene_index)
    assert len({r.seed for r in results}) == len(scenes)


def test_run_experiment_scans_sw_once_per_scene(monkeypatch):
    """Nesting detectors (sw, ipw) run once per scene at the largest budget;
    mpw sizes its schedule from the budget and runs once per budget."""
    cfg, scenes = small_experiment()
    cfg = replace(cfg, detectors=cfg.detectors + (make_detector("sw", 1, None),))
    calls = []
    real_run_cell = harness.run_cell

    def counting_run_cell(cfg, scene, detector, seed):
        calls.append((detector.algorithm, detector.budget))
        return real_run_cell(cfg, scene, detector, seed)

    monkeypatch.setattr(harness, "run_cell", counting_run_cell)
    results = run_experiment(cfg, scenes)
    top = max(cfg.budgets)
    per_scene = [("ipw", top), ("sw", top), *(("mpw", budget) for budget in cfg.budgets)]
    assert sorted(calls) == sorted(per_scene * len(scenes))
    assert len(results) == len(scenes) * len(cfg.detectors) * len(cfg.budgets)


def test_nesting_rows_equal_direct_runs():
    """Every budget row of ipw and sw, and the trace it is cut from, equals a
    direct run at that budget and the scene's seed, also where ipw runs out
    of free windows exactly at the budget."""
    cfg, scenes = small_experiment()
    ipw = replace(cfg.detectors[0], budget=100_000)
    exhausted = len(run_cell(cfg, scenes[0], ipw, derive_seed(cfg.seed, 0))[0].records)
    budgets = (30, exhausted, exhausted + 1, 100_000)
    cfg = replace(cfg, detectors=(ipw, make_detector("sw", 1, None)), budgets=budgets)
    results = run_experiment(cfg, scenes)
    assert len(results) == len(scenes) * 2 * len(budgets)
    detectors = {d.algorithm: d for d in cfg.detectors}
    full = {
        (index, algorithm): run_cell(cfg, scene, detector, derive_seed(cfg.seed, index))[0]
        for index, scene in enumerate(scenes)
        for algorithm, detector in detectors.items()
    }
    for r in results:
        seed = derive_seed(cfg.seed, r.scene_index)
        detector = replace(detectors[r.algorithm], budget=r.budget)
        trace, _, metrics = run_cell(cfg, scenes[r.scene_index], detector, seed)
        assert (r.seed, r.metrics, r.complete) == (seed, metrics, trace.complete)
        assert trace_at_budget(full[r.scene_index, r.algorithm], r.budget) == trace
    boundary = {r.budget: r.complete for r in results if r.algorithm == "ipw" and r.scene_index == 0}
    assert boundary == {30: False, exhausted: False, exhausted + 1: True, 100_000: True}


def test_derive_seed_is_stable():
    assert derive_seed(99, 1) == derive_seed(99, 1)
    assert derive_seed(99, 1) != derive_seed(99, 0)
    assert derive_seed(98, 1) != derive_seed(99, 1)


def test_summaries_shape():
    results = run_experiment(*small_experiment())
    rates = summarize_rates(results, ["ipw", "mpw"], [30, 60])
    assert [row["budget"] for row in rates] == [30, 60]
    for row in rates:
        assert 0.0 <= row["ipw"] <= 1.0
        assert 0.0 <= row["mpw"] <= 1.0
    ratios = summarize_ratios(results, ["ipw", "mpw"], [30, 60])
    for row in ratios:
        assert row["windows:ipw"] <= 60
        assert row["windows_ratio:mpw/ipw"] == pytest.approx(
            row["windows:mpw"] / row["windows:ipw"]
        )


# --- serialization ------------------------------------------------------------


@pytest.mark.parametrize("run", [run_sw, run_mpw, run_ipw, run_sipw], ids=lambda run: run.__name__)
def test_trace_jsonl_round_trip(run, tmp_path, bench_space, bench_scenes, bench_table):
    """Every detector's trace comes back equal: ``sw`` and ``mpw`` with a
    ``null`` ``p_uniform``, ``sipw`` with its rebuilds.  The budget is
    ``configs/synthetic.json``'s, at which every sampler here accepts.  Every
    record holds its window as Python ints, from which ``window`` is built."""
    config = make_detector(run.__name__.removeprefix("run_"), 410, bench_table)
    trace = run(bench_space, build_scorer(bench_scenes[1]), config, seed=31)
    for rec in trace.records:
        assert type(rec.x) is type(rec.y) is type(rec.s) is int
        assert rec.window == Window(rec.x, rec.y, rec.s)
    assert (trace.records[0].p_uniform is None) == (config.algorithm in ("sw", "mpw"))
    assert bool(trace.rebuilds) == (config.algorithm == "sipw")
    assert trace.accepted or config.algorithm == "mpw"
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, trace)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    header, body, footer = lines[0], lines[1:-1], lines[-1]
    assert header["window_count"] == bench_space.window_count
    assert header["seed"] == (None if config.algorithm == "sw" else 31)  # a scan draws nothing
    assert len(body) == len(trace.records)
    got = body[17]
    assert got == trace_record_to_dict(trace.records[17])
    assert footer["complete"] == trace.complete
    assert len(footer["accepted"]) == len(trace.accepted)

    back = read_trace_jsonl(path)
    assert isinstance(back.records, TraceRecords)
    assert (back.detector, back.algorithm, back.seed, back.window_count) == (
        trace.detector, trace.algorithm, trace.seed, trace.window_count
    )
    assert back.records == trace.records
    assert back.complete == trace.complete
    assert back.rebuilds == trace.rebuilds
    assert back == trace


def test_a_record_is_its_trace_line():
    """A record's fields are its trace line's keys, in line order, and
    ``replace(rec, window=w)`` moves the record and keeps every other field."""
    assert [f.name for f in fields(TraceRecord)] == list(harness.TRACE_KEYS)
    rec = TraceRecord(4, 1, 2, 0, -0.5, KIND_AMBIGUOUS, SOURCE_GAUSSIAN, 7, 3, 2, 0.25, 0)
    moved = replace(rec, window=Window(9, 8, 1))
    assert moved == TraceRecord(4, 9, 8, 1, -0.5, KIND_AMBIGUOUS, SOURCE_GAUSSIAN, 7, 3, 2, 0.25, 0)
    assert moved.window == Window(9, 8, 1)
    assert replace(moved, window=rec.window) == rec


def _write_records(path, records) -> list[str]:
    """The record lines ``write_trace_jsonl`` writes for ``records``."""
    write_trace_jsonl(path, RunTrace("probe", "ipw", 2**40, 2**33, records, complete=True, rebuilds=[3]))
    return path.read_text().splitlines()[1:-1]


def test_trace_lines_are_json_dumps_of_their_records(tmp_path):
    """Each record line equals ``json.dumps(trace_record_to_dict(rec))`` and
    reads back equal: every kind and source, ``p_uniform`` None and a float,
    floats that ``json`` writes as ``-0.0``, ``1e-07`` and ``1e+16``, ints
    above 2**31, and cascade records with stages evaluated."""
    responses = [-0.0, 1e-07, 1e16, 0.1, -3.25, 5e-324, 1.7976931348623157e308, 2.0, -4.999999999999999]
    pairs = itertools.product((KIND_REJECTED, KIND_AMBIGUOUS, KIND_ACCEPTED), (SOURCE_UNIFORM, SOURCE_GAUSSIAN, SOURCE_SCAN))
    records = [
        TraceRecord(
            2**31 + i,
            i,
            2**32 + i,
            i % 3,
            response,
            kind,
            source,
            2**33 + i,
            i,
            2**35,
            None if i % 2 else 1.0 / (i + 3),
            i % 4,
        )
        for i, ((kind, source), response) in enumerate(zip(pairs, responses))
    ]
    assert len(records) == 9 and any(rec.stages_evaluated > 0 for rec in records)
    path = tmp_path / "trace.jsonl"
    assert _write_records(path, records) == [json.dumps(trace_record_to_dict(rec)) for rec in records]
    assert read_trace_jsonl(path).records == records


def test_trace_lines_spell_non_finite_responses_as_json_does(tmp_path):
    """A NaN or infinite response is written as ``json.dumps`` writes it
    (``NaN``, ``Infinity``, ``-Infinity``), never as a bare ``nan``, and
    reads back as the same value."""
    responses = [math.nan, math.inf, -math.inf]
    records = [
        TraceRecord(i + 1, i, 0, 0, r, KIND_REJECTED, SOURCE_UNIFORM, 0, 0, 0, 0.5, 0)
        for i, r in enumerate(responses)
    ]
    path = tmp_path / "trace.jsonl"
    lines = _write_records(path, records)
    assert lines == [json.dumps(trace_record_to_dict(rec)) for rec in records]
    assert [line.split('"response": ')[1].split(",")[0] for line in lines] == ["NaN", "Infinity", "-Infinity"]
    back = [rec.response for rec in read_trace_jsonl(path).records]
    assert math.isnan(back[0]) and back[1:] == [math.inf, -math.inf]


def test_results_jsonl_and_csv(tmp_path):
    results = run_experiment(*small_experiment())
    jsonl_path = tmp_path / "results.jsonl"
    write_results_jsonl(jsonl_path, results)
    parsed = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert parsed == [r.to_record() for r in results]

    rows = summarize_rates(results, ["ipw", "mpw"], [30, 60])
    csv_path = tmp_path / "rates.csv"
    write_csv(csv_path, rows)
    with open(csv_path) as handle:
        got = list(csv.DictReader(handle))
    assert len(got) == 2
    assert float(got[0]["budget"]) == 30


def test_curves_csv(tmp_path, bench_space, bench_scenes, bench_table):
    trace = run_ipw(
        bench_space, build_scorer(bench_scenes[2]), make_detector("ipw", 50, bench_table), seed=1
    )
    path = tmp_path / "curves.csv"
    write_csv(path, extract_curves(trace))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 50
    assert int(rows[0]["i"]) == 1
    assert float(rows[0]["p_uniform"]) == pytest.approx(0.2)


def test_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, [])
    assert path.read_text() == ""


def test_csv_writes_what_dict_writer_writes(tmp_path):
    """Header from the first row, every row in its order whatever the order
    of its own keys, and the values ``csv.DictWriter`` would write: None as
    an empty cell, floats by ``repr``, quoted text."""
    rows = [
        {"budget": 5, "rate": 0.1, "p": None, "name": "a,b"},
        {"rate": 1e-07, "budget": 2**40, "name": 'say "hi"', "p": math.nan},
    ]
    expected = io.StringIO(newline="")
    writer = csv.DictWriter(expected, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    path = tmp_path / "table.csv"
    write_csv(path, rows)
    assert path.read_bytes() == expected.getvalue().encode()


def test_csv_with_one_column(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(path, [{"label": "xy"}, {"label": 3}])
    assert path.read_bytes() == b"label\r\nxy\r\n3\r\n"


@pytest.mark.parametrize(
    "row",
    [{"a": 3}, {"a": 3, "b": 4, "c": 5}, {"a": 3, "c": 5}],
    ids=["missing-key", "extra-key", "other-key"],
)
def test_csv_refuses_a_row_whose_keys_differ_from_the_header(tmp_path, row):
    """A later row must have exactly the first row's keys; the file is not
    written."""
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="row 2 has keys"):
        write_csv(path, [{"a": 1, "b": 2}, {"b": 0, "a": 0}, row])
    assert not path.exists()
