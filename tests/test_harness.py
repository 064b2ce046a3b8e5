"""Experiment plumbing: probabilities, metrics, scenes, grids, serialization."""

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def reference_cost(trace, model):
    """The record-by-record loop whose float additions ``cost_estimate`` must reproduce."""
    total = model.t_w
    for stages in trace.records.stages_evaluated:
        total += model.t_f + model.t_c * (stages if stages > 0 else 1)
    return total


COSTS = st.sampled_from([0.0, 0.1, 1 / 3, 1.0, 2.5, 7.0]) | st.floats(0.0, 1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
    top=st.integers(1, 12),
    model=st.tuples(COSTS, COSTS, COSTS).filter(any).map(lambda costs: CostModel(*costs)),
)
def test_cost_estimate_adds_as_the_record_loop_does(n, seed, zeros, top, model):
    """Bit for bit, not approximately: stage lists hold 0s, which pay one
    stage, and the cost models include values such as 0.1 and 1/3."""
    rng = np.random.default_rng(seed)
    stages = np.where(rng.random(n) < zeros, 0, rng.integers(1, top + 1, n)).tolist()
    trace = flat_trace(n)
    trace.records.stages_evaluated = stages
    assert cost_estimate(trace, model) == reference_cost(trace, model)


def test_cost_estimate_of_an_empty_trace_is_the_setup_cost():
    assert cost_estimate(flat_trace(0), CostModel(t_w=7.25)) == 7.25


def reference_accepted(trace):
    return [(rec.window, rec.response) for rec in trace.records if rec.kind == KIND_ACCEPTED]


@pytest.mark.parametrize(
    "accepted_at",
    [(), (0,), (11,), tuple(range(12)), (0, 3, 4, 11)],
    ids=["none", "first", "last", "every", "some"],
)
def test_accepted_finds_the_accepted_records(accepted_at, tmp_path):
    """``accepted`` and the trace file's footer list the accepted records in
    draw order, also on a trace read back from its file, whose kinds are
    strings equal to the constants."""
    records = [
        TraceRecord(i + 1, i, 2 * i, i % 3, 0.25 * i - 1.0, KIND_ACCEPTED if i in accepted_at else kind,
                    SOURCE_UNIFORM, 0, 0, 0, 0.2, 0)
        for i, kind in zip(range(12), itertools.cycle([KIND_REJECTED, KIND_AMBIGUOUS]))
    ]
    trace = RunTrace("t", "ipw", 0, 1000, records)
    assert trace.accepted == reference_accepted(trace)
    assert trace.accepted_rows == list(accepted_at)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(path, trace)
    footer = json.loads(path.read_text().splitlines()[-1])
    assert footer["accepted"] == [{"x": w.x, "y": w.y, "s": w.s, "response": r} for w, r in trace.accepted]
    back = read_trace_jsonl(path)
    assert back.accepted == reference_accepted(back) == trace.accepted


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
    curves = extract_curves(trace)
    n = len(trace.records)
    assert list(curves) == [
        "i", "n_rejected", "n_accepted", "n_free", "n_ambiguous",
        "p_uniform", "p_gaussian", "uniform_draws", "gaussian_draws",
    ]
    assert {len(column) for column in curves.values()} == {n}
    assert curves["i"] == list(range(1, n + 1))
    assert curves["p_uniform"][0] == pytest.approx(config.alpha)
    for free, rejected, accepted in zip(curves["n_free"], curves["n_rejected"], curves["n_accepted"]):
        assert free == trace.window_count - rejected - accepted
    assert curves["p_gaussian"] == pytest.approx([1.0 - p for p in curves["p_uniform"]])
    draws = zip(curves["uniform_draws"], curves["gaussian_draws"], trace.records.source)
    for j, (uniform, gaussian, source) in enumerate(draws):
        assert uniform + gaussian == j + 1
        assert (uniform, gaussian) == (
            trace.records.source[: j + 1].count(SOURCE_UNIFORM),
            trace.records.source[: j + 1].count(SOURCE_GAUSSIAN),
        )
    for column in ("uniform_draws", "gaussian_draws"):
        counts = curves[column]
        assert counts == sorted(counts)
        assert all(type(count) is int for count in counts)  # never a bool, which csv spells True
    assert 0 < curves["gaussian_draws"][-1] < n


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
    assert list(rates) == ["budget", "ipw", "mpw"]
    assert rates["budget"] == [30, 60]
    for name in ("ipw", "mpw"):
        assert len(rates[name]) == 2
        assert all(0.0 <= rate <= 1.0 for rate in rates[name])
    ratios = summarize_ratios(results, ["ipw", "mpw"], [30, 60])
    assert list(ratios) == [
        "budget", "windows:ipw", "cost:ipw", "windows:mpw", "cost:mpw", "windows_ratio:mpw/ipw", "cost_ratio:mpw/ipw",
    ]
    assert {len(column) for column in ratios.values()} == {2}
    assert all(windows <= 60 for windows in ratios["windows:ipw"])
    assert ratios["windows_ratio:mpw/ipw"] == pytest.approx(
        [mpw / ipw for mpw, ipw in zip(ratios["windows:mpw"], ratios["windows:ipw"])]
    )
    assert ratios["cost_ratio:mpw/ipw"] == pytest.approx(
        [mpw / ipw for mpw, ipw in zip(ratios["cost:mpw"], ratios["cost:ipw"])]
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _float_columns(n: int):
    """Columns of ``n`` values for a float field: all finite, finite with a
    sum that overflows, all None, None among floats, an int or a bool among
    finite floats, or a non-finite value among them."""
    def column(values):
        return st.lists(values, min_size=n, max_size=n)

    return st.one_of(
        column(_FINITE),
        st.just([sys.float_info.max] * n),
        st.just([None] * n),
        column(st.one_of(st.none(), st.floats())),
        column(st.one_of(_FINITE, st.integers(min_value=-(2**70), max_value=2**70), st.booleans())),
        column(st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))),
    )


@st.composite
def _records_over_float_columns(draw) -> list[TraceRecord]:
    n = draw(st.integers(min_value=1, max_value=6))
    responses, p_uniforms = draw(_float_columns(n)), draw(_float_columns(n))
    return [
        TraceRecord(i + 1, i, 2 * i, i % 3, response, KIND_REJECTED, SOURCE_UNIFORM, i, 0, 2**40, p_uniform, 0)
        for i, (response, p_uniform) in enumerate(zip(responses, p_uniforms))
    ]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_records_over_float_columns())
def test_trace_lines_are_json_dumps_of_any_float_columns(tmp_path, records):
    """The writer spells a float column at once or value by value; either
    way each line is ``json.dumps`` of its record."""
    lines = _write_records(tmp_path / "trace.jsonl", records)
    assert lines == [json.dumps(trace_record_to_dict(rec)) for rec in records]


def test_results_jsonl_and_csv(tmp_path):
    results = run_experiment(*small_experiment())
    jsonl_path = tmp_path / "results.jsonl"
    write_results_jsonl(jsonl_path, results)
    parsed = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert parsed == [r.to_record() for r in results]

    rates = summarize_rates(results, ["ipw", "mpw"], [30, 60])
    csv_path = tmp_path / "rates.csv"
    write_csv(csv_path, rates)
    with open(csv_path) as handle:
        got = list(csv.DictReader(handle))
    assert len(got) == 2
    assert list(got[0]) == list(rates)
    assert float(got[0]["budget"]) == 30
    assert [float(row["mpw"]) for row in got] == rates["mpw"]


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
    """No columns write an empty file; columns without values, their header."""
    path = tmp_path / "empty.csv"
    write_csv(path, {})
    assert path.read_text() == ""
    write_csv(path, {"a": [], "b": []})
    assert path.read_bytes() == b"a,b\r\n"


def _dict_writer_bytes(columns: dict) -> bytes:
    """What ``csv.DictWriter`` writes for the rows of ``columns``."""
    expected = io.StringIO(newline="")
    writer = csv.DictWriter(expected, fieldnames=list(columns))
    writer.writeheader()
    writer.writerows(dict(zip(columns, values)) for values in zip(*columns.values()))
    return expected.getvalue().encode()


def test_csv_writes_what_dict_writer_writes(tmp_path):
    """A header of the column names, then row by row the values
    ``csv.DictWriter`` would write: None as an empty cell, floats by
    ``repr``, quoted text."""
    columns = {"budget": [5, 2**40], "rate": [0.1, 1e-07], "p": [None, math.nan], "name": ["a,b", 'say "hi"']}
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _dict_writer_bytes(columns)
    assert path.read_bytes().startswith(b"budget,rate,p,name\r\n5,0.1,,\"a,b\"\r\n")


_CSV_TEXT = st.text(alphabet='ab ,"\n\r', max_size=4)
_CSV_VALUES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63, 2**64 + 1, True, False, -0.0, 5e-324, math.nan, math.inf, -math.inf, None, ""]),
    st.floats(),
    _CSV_TEXT,
)


@st.composite
def _tables(draw) -> dict:
    names = draw(st.lists(_CSV_TEXT, min_size=1, max_size=4, unique=True))
    length = draw(st.integers(min_value=0, max_value=5))
    return {name: draw(st.lists(_CSV_VALUES, min_size=length, max_size=length)) for name in names}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=_tables())
def test_csv_writes_what_dict_writer_writes_for_the_transposed_rows(tmp_path, columns):
    """Any table of one to four equal-length columns: ints above 2**63,
    bools, ``-0.0``, ``5e-324``, NaN, the infinities, None, empty text and
    text with a comma, a quote or a line break, in one column or several."""
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _dict_writer_bytes(columns)


def test_csv_with_one_column(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(path, {"label": ["xy", 3]})
    assert path.read_bytes() == b"label\r\nxy\r\n3\r\n"
    write_csv(path, {"label": [""]})
    assert path.read_bytes() == b'label\r\n""\r\n'  # a lone empty cell is quoted, else the row reads as none


@pytest.mark.parametrize(
    "row",
    [{"a": 3}, {"a": 3, "b": 4, "c": 5}, {"a": 3, "c": 5}],
    ids=["missing-key", "extra-key", "other-key"],
)
def test_csv_refuses_a_row_whose_keys_differ_from_the_header(tmp_path, row):
    """In column form a row that lacks one of the other rows' keys, or has one
    they lack, leaves its columns of unequal lengths, which ``write_csv``
    refuses before the file is opened."""
    rows = [{"a": 1, "b": 2}, {"b": 0, "a": 0}, row]
    keys = dict.fromkeys(key for r in rows for key in r)
    columns = {key: [r[key] for r in rows if key in r] for key in keys}
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="columns of unequal lengths"):
        write_csv(path, columns)
    assert not path.exists()
