"""Detector loops: full scan, staged mixture, and the incremental pair."""

import itertools
import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsearch import (
    Box,
    DentedGaussianMixture,
    DentedUniform,
    DetectorConfig,
    RadiusTable,
    RegionBook,
    RegionKind,
    RunTrace,
    SearchSpace,
    SyntheticScene,
    Window,
    mpw_schedule,
    nms,
    run_ipw,
    run_mpw,
    run_sipw,
    run_sw,
)
from pwsearch import detectors
from pwsearch.config import load_config
from pwsearch.detectors import TraceRecord, TraceRecords, detections_from_trace, schedule_for_budget
from pwsearch.harness import build_scorer, derive_seed, extract_curves, run_cell, run_detector, write_trace_jsonl
from pwsearch.proposal import default_sigma, draw_gaussian_window, mixture_weights
from pwsearch.scoring import normalize_weights

from conftest import PYRAMID, make_detector, make_radius_table, pyramid_scene


@pytest.fixture(scope="module")
def table():
    return make_radius_table()


def kinds_match_thresholds(trace, config):
    for rec in trace.records:
        if rec.response < config.t_l:
            assert rec.kind == "RPW"
        elif rec.response >= config.t_h:
            assert rec.kind == "APW"
        else:
            assert rec.kind == "ABPW"


# --- draw schedule --------------------------------------------------------


def test_stage_schedule_frozen_values():
    assert mpw_schedule(2000, 0.44, 5) == [2000, 1288, 829, 534, 344]


def test_stage_schedule_truncates_instead_of_rounding():
    # stage 3 is 2000 * exp(-0.88) = 829.52...: truncation keeps 829 where
    # rounding would give 830
    assert mpw_schedule(2000, 0.44, 3)[2] == 829
    assert math.floor(2000 * math.exp(-0.88)) == 829
    assert round(2000 * math.exp(-0.88)) == 830


def test_stage_schedule_monotone_and_positive():
    sched = mpw_schedule(500, 0.3, 6)
    assert all(a >= b for a, b in zip(sched, sched[1:]))
    assert all(n >= 1 for n in sched)


def test_stage_schedule_validation():
    with pytest.raises(ValueError):
        mpw_schedule(0, 0.44, 5)
    with pytest.raises(ValueError):
        mpw_schedule(100, -0.1, 5)
    with pytest.raises(ValueError):
        mpw_schedule(100, 0.44, 0)


def test_schedule_for_budget_spends_exactly_the_budget():
    assert schedule_for_budget(410, 0.44, 5) == [166, 105, 68, 43, 28]
    for budget in (1, 2, 17, 100, 410, 2048):
        sched = schedule_for_budget(budget, 0.44, 5)
        assert sum(sched) == budget
        assert all(n >= 1 for n in sched)
        assert len(sched) <= 5


@settings(max_examples=300, deadline=None)
@given(
    budget=st.integers(1, 10**12),
    gamma=st.floats(0.01, 3.0),
    stages=st.integers(1, 12),
)
def test_schedule_for_budget_sums_to_the_budget(budget, gamma, stages):
    """The stages sum to the budget, each holds at least one draw, and only
    the remainder goes to stage 1, never a cut: stage 2 is at most stage 1
    decayed once."""
    sched = schedule_for_budget(budget, gamma, stages)
    assert sum(sched) == budget
    assert all(n >= 1 for n in sched)
    assert len(sched) <= stages
    assert sched == sorted(sched, reverse=True)
    assert len(sched) < 2 or sched[1] <= sched[0] * math.exp(-gamma)


# --- full scan ------------------------------------------------------------


def test_scan_visits_every_window_in_order(bench_space, bench_scenes):
    space = bench_space.at_stride(8)
    config = DetectorConfig(name="sw", algorithm="sw", t_l=-2.0, t_h=0.0)
    trace = run_sw(space, build_scorer(bench_scenes[0]), config)
    assert trace.complete
    assert len(trace.records) == space.window_count
    assert [rec.window for rec in trace.records] == list(space.windows())
    kinds_match_thresholds(trace, config)
    assert trace.accepted == [
        (rec.window, rec.response) for rec in trace.records if rec.kind == "APW"
    ]


def test_scan_marks_nothing(bench_space, bench_scenes):
    space = bench_space.at_stride(8)
    config = DetectorConfig(name="sw", algorithm="sw", t_l=-2.0, t_h=0.0)
    trace = run_sw(space, build_scorer(bench_scenes[0]), config)
    assert all(rec.n_rejected == 0 and rec.n_accepted == 0 for rec in trace.records)
    assert all(rec.source == "SCAN" for rec in trace.records)


def test_scan_runs_through_the_common_call_and_ignores_the_seed(bench_space, bench_scenes):
    space = bench_space.at_stride(8)
    config = DetectorConfig(name="sw", algorithm="sw", t_l=-2.0, t_h=0.0)
    scorer = build_scorer(bench_scenes[0])
    trace = run_sw(space, scorer, config)
    assert run_sw(space, scorer, config, 1) == run_detector(space, scorer, config, 2) == trace
    assert trace.seed is None


# --- staged mixture -------------------------------------------------------


def test_staged_run_spends_budget_in_stages(bench_space, bench_scenes, table):
    config = make_detector("mpw", 410, table, gamma=0.44)
    trace = run_mpw(bench_space, build_scorer(bench_scenes[0]), config, seed=900)
    assert len(trace.records) == 410
    assert not trace.complete
    kinds_match_thresholds(trace, config)
    sched = schedule_for_budget(410, 0.44, 5)
    first_stage = trace.records[: sched[0]]
    assert all(rec.source == "UNIFORM" for rec in first_stage)
    later = trace.records[sched[0] :]
    assert any(rec.source == "GAUSSIAN" for rec in later)


def test_staged_run_concentrates_after_stage_one(bench_space, bench_scenes, table):
    """Later stages draw closer to the planted object than the uniform stage."""
    config = make_detector("mpw", 410, table, gamma=0.44)
    sched = schedule_for_budget(410, 0.44, 5)

    def mean_distance(records, target):
        return np.mean(
            [
                abs(bench_space.to_box(r.window).cx - target.cx)
                + abs(bench_space.to_box(r.window).cy - target.cy)
                for r in records
            ]
        )

    closer = 0
    for i, scene in enumerate(bench_scenes[:10]):
        trace = run_mpw(bench_space, build_scorer(scene), config, seed=900 + i)
        target = scene.objects[0][0]
        d1 = mean_distance(trace.records[: sched[0]], target)
        d2 = mean_distance(trace.records[sched[0] : sched[0] + sched[1]], target)
        closer += d2 < d1
    assert closer >= 9


def test_staged_run_deterministic(bench_space, bench_scenes, table):
    config = make_detector("mpw", 200, table, gamma=0.44)
    scorer = build_scorer(bench_scenes[1])
    a = run_mpw(bench_space, scorer, config, seed=4)
    b = run_mpw(bench_space, scorer, config, seed=4)
    assert a.records == b.records
    assert a.accepted == b.accepted


def reference_mpw(space, scorer, config, seed):
    """The staged sampler scored one window at a time: the first stage is
    uniform, each later one is drawn with ``draw_gaussian_window`` from the
    undented mixture of the previous stage, and every window is scored and
    recorded alone.  Returns the records, the accepted windows and the
    generator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    records, accepted, stage = [], [], []
    n_ab = 0
    for n_draw in schedule_for_budget(config.budget, config.gamma, config.mpw_stage_count):
        if stage:
            means = np.array([(w.x, w.y, w.s) for w, _ in stage], dtype=np.int64).T
            weights = normalize_weights([r for _, r in stage])
            mixture = DentedGaussianMixture(means, weights, default_sigma(space), RegionBook(space), space)
            x, y, s = draw_gaussian_window(mixture, rng, n_draw)
            windows = [Window(int(a), int(b), int(c)) for a, b, c in zip(x, y, s)]
            source = "GAUSSIAN"
        else:
            windows = [space.window_at(int(i)) for i in rng.integers(space.window_count, size=n_draw)]
            source = "UNIFORM"
        stage = []
        for w in windows:
            response, n_stages = scorer.score(space, w)
            kind = "RPW" if response < config.t_l else "APW" if response >= config.t_h else "ABPW"
            if kind == "APW":
                accepted.append((w, response))
            n_ab += kind == "ABPW"
            stage.append((w, response))
            i = len(records) + 1
            records.append(TraceRecord(i, w.x, w.y, w.s, response, kind, source, 0, 0, n_ab, None, n_stages))
    return records, accepted, rng


@pytest.mark.parametrize("scorer_kind", ["synthetic", "cascade"])
def test_batched_staged_run_matches_a_window_at_a_time_reference(table, scorer_kind, monkeypatch):
    """Drawing and scoring a stage in one batch changes neither the draws nor
    the records, on a pyramid whose top scale is the last that fits."""
    space = PYRAMID
    scorer = build_scorer(pyramid_scene(), scorer_kind)
    t_l, t_h = (-2.0, 0.0) if scorer_kind == "synthetic" else (0.2, 0.8)
    config = make_detector("mpw", 300, table, t_l=t_l, t_h=t_h, gamma=0.44)
    generators = []  # the generator each run_mpw call draws from
    make_rng = detectors._rng
    monkeypatch.setattr(detectors, "_rng", lambda seed: generators.append(make_rng(seed)) or generators[-1])
    for seed in range(6):
        trace = run_mpw(space, scorer, config, seed=seed)
        records, accepted, rng = reference_mpw(space, scorer, config, seed)
        assert trace.records == records
        assert trace.accepted == accepted
        assert generators[-1].bit_generator.state == rng.bit_generator.state
        assert all(type(r.response) is float and type(r.stages_evaluated) is int for r in trace.records)
        assert all(type(v) is int for r in trace.records for v in (r.window.x, r.window.y, r.window.s))
    assert {rec.window.s for rec in trace.records} == set(range(space.scale_count))


# --- incremental ----------------------------------------------------------


def test_incremental_budget_and_monotone_counters(bench_space, bench_scenes, table):
    config = make_detector("ipw", 410, table)
    trace = run_ipw(bench_space, build_scorer(bench_scenes[0]), config, seed=41)
    assert len(trace.records) == 410
    kinds_match_thresholds(trace, config)
    rej = [rec.n_rejected for rec in trace.records]
    acc = [rec.n_accepted for rec in trace.records]
    assert all(a <= b for a, b in zip(rej, rej[1:]))
    assert all(a <= b for a, b in zip(acc, acc[1:]))
    p = [rec.p_uniform for rec in trace.records]
    assert p[0] == pytest.approx(config.alpha)
    assert all(a >= b for a, b in zip(p, p[1:]))


def test_incremental_claims_ground_every_draw(bench_space, bench_scenes, table):
    """Every scored window removes at least its own cell from the free set."""
    config = make_detector("ipw", 410, table)
    trace = run_ipw(bench_space, build_scorer(bench_scenes[2]), config, seed=42)
    claimed = [rec.n_rejected + rec.n_accepted for rec in trace.records]
    assert all(c >= rec.i for c, rec in zip(claimed, trace.records))
    assert all(a < b for a, b in zip(claimed, claimed[1:]))


def test_incremental_mixture_engages_after_ambiguity(bench_space, bench_scenes, table):
    config = make_detector("ipw", 410, table)
    trace = run_ipw(bench_space, build_scorer(bench_scenes[3]), config, seed=43)
    first_ambiguous = next(rec.i for rec in trace.records if rec.kind == "ABPW")
    assert any(
        rec.source == "GAUSSIAN" for rec in trace.records if rec.i > first_ambiguous
    )
    assert all(
        rec.source == "UNIFORM" for rec in trace.records if rec.i <= first_ambiguous
    )


def test_incremental_accepts_are_recorded(bench_space, bench_scenes, table):
    config = make_detector("ipw", 410, table)
    trace = run_ipw(bench_space, build_scorer(bench_scenes[4]), config, seed=44)
    assert trace.accepted == [
        (rec.window, rec.response) for rec in trace.records if rec.kind == "APW"
    ]
    assert all(resp >= config.t_h for _, resp in trace.accepted)


def test_incremental_finds_the_object_quickly(bench_space, bench_scenes, table):
    """First acceptance lands well before a blind uniform search would expect."""
    config = make_detector("ipw", 410, table)
    firsts = []
    for i, scene in enumerate(bench_scenes):
        trace = run_ipw(bench_space, build_scorer(scene), config, seed=600 + i)
        hit = next((rec.i for rec in trace.records if rec.kind == "APW"), None)
        if hit is not None:
            firsts.append(hit)
    assert len(firsts) >= 27  # finds something in at least 90% of scenes
    # cells at or above t_h are roughly the acceptance patch around the object
    blind = bench_space.window_count / 105
    assert np.mean(firsts) < blind


def test_incremental_exhausts_small_spaces(table):
    space = SearchSpace(40, 40, 12, 12, stride=2, scale_factor=2.0, scale_count=1)
    scene_scorer = build_scorer(
        __import__("pwsearch").SyntheticScene(40, 40, (), (), floor=-6.0, sharpness=3.0)
    )
    config = make_detector("ipw", 10_000, table)
    trace = run_ipw(space, scene_scorer, config, seed=5)
    assert trace.complete
    last = trace.records[-1]
    assert last.n_rejected + last.n_accepted == space.window_count
    assert len(trace.records) < 10_000


def test_incremental_step_claims_every_scored_cell(table):
    """After each step the scored window's own cell is ACCEPTED for an APW
    record and REJECTED otherwise: for an ambiguous window, and for a
    rejected one whether or not its response interval marks a neighbourhood."""
    table = RadiusTable(table.intervals, active_intervals=5)  # [-3.0, t_l) is inactive
    config = make_detector("ipw", 400, table)
    scorer = build_scorer(pyramid_scene())
    book = RegionBook(PYRAMID)
    state = detectors._IncrementalState(
        book, DentedUniform(book, PYRAMID), detectors._mixture_from_batch([], book, PYRAMID), []
    )
    trace = RunTrace(config.name, "ipw", 3, PYRAMID.window_count)
    rng = detectors._rng(3)
    seen = set()
    for i in range(1, config.budget + 1):
        weights = mixture_weights(config.alpha, book.n_rejected, book.n_accepted, PYRAMID.window_count)
        new_ambiguous = detectors._incremental_step(state, PYRAMID, scorer, config, rng, i, weights.p_uniform, trace)
        if trace.complete:
            break
        rec = trace.records[-1]
        expected = RegionKind.ACCEPTED if rec.kind == "APW" else RegionKind.REJECTED
        assert book.state_at(rec.window) is expected, rec
        active = rec.kind == "RPW" and table.interval_index(rec.response) < table.active_intervals
        seen.add((rec.kind, active))
        if new_ambiguous:
            state.mixture = detectors._mixture_from_batch(state.ambiguous, book, PYRAMID, state.mixture)
    assert seen == {("RPW", True), ("RPW", False), ("ABPW", False), ("APW", False)}


@pytest.mark.parametrize("run", [run_mpw, run_ipw, run_sipw], ids=lambda run: run.__name__)
def test_sampling_detectors_refuse_an_empty_space(run, table):
    """No sampling detector is handed a space without windows: the space the
    template does not fit is refused before the detector runs."""
    scorer = build_scorer(SyntheticScene(8, 8, (), (), floor=-5.0, sharpness=3.0))
    config = make_detector(run.__name__.removeprefix("run_"), 10, table)
    with pytest.raises(ValueError, match="scale_count 1 runs past the image: the template fits at 0 of"):
        run(SearchSpace(8, 8, 16, 16), scorer, config, seed=0)


def test_incremental_deterministic(bench_space, bench_scenes, table):
    config = make_detector("ipw", 300, table)
    scorer = build_scorer(bench_scenes[5])
    a = run_ipw(bench_space, scorer, config, seed=77)
    b = run_ipw(bench_space, scorer, config, seed=77)
    assert a.records == b.records
    c = run_ipw(bench_space, scorer, config, seed=78)
    assert c.records != a.records


# --- staged incremental ---------------------------------------------------


def test_staged_incremental_rebuild_points(bench_space, bench_scenes, table):
    config = make_detector("sipw", 100, table, n_c_star_init=50)
    trace = run_sipw(bench_space, build_scorer(bench_scenes[0]), config, seed=9)
    # intervals shrink by exp(-0.7): 50, 24.8, 12.3, 6.1, 3.0 draws
    assert trace.rebuilds == [50, 75, 88, 95, 99]


def test_staged_incremental_default_first_rebuild_is_half_budget(
    bench_space, bench_scenes, table
):
    config = make_detector("sipw", 410, table)
    trace = run_sipw(bench_space, build_scorer(bench_scenes[1]), config, seed=10)
    assert trace.rebuilds[0] == 205


def test_staged_incremental_uniform_before_first_rebuild(
    bench_space, bench_scenes, table
):
    config = make_detector("sipw", 200, table, n_c_star_init=60)
    trace = run_sipw(bench_space, build_scorer(bench_scenes[2]), config, seed=11)
    head = [rec for rec in trace.records if rec.i <= 60]
    assert all(rec.p_uniform == 1.0 for rec in head)
    assert all(rec.source == "UNIFORM" for rec in head)
    tail = [rec for rec in trace.records if rec.i > 60]
    assert all(rec.p_uniform is not None and rec.p_uniform < 1.0 for rec in tail)
    assert any(rec.source == "GAUSSIAN" for rec in tail)


def test_staged_incremental_intervals_shrink(bench_space, bench_scenes, table):
    config = make_detector("sipw", 410, table)
    trace = run_sipw(bench_space, build_scorer(bench_scenes[3]), config, seed=12)
    gaps = np.diff([0] + trace.rebuilds)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_staged_incremental_counters_monotone(bench_space, bench_scenes, table):
    config = make_detector("sipw", 300, table)
    trace = run_sipw(bench_space, build_scorer(bench_scenes[4]), config, seed=13)
    claimed = [rec.n_rejected + rec.n_accepted for rec in trace.records]
    assert all(a < b for a, b in zip(claimed, claimed[1:]))
    kinds_match_thresholds(trace, make_detector("sipw", 300, table))


# --- overlap suppression and detections ------------------------------------


def test_nms_empty_and_single():
    assert nms([]) == []
    single = [(Box(5, 5, 10, 10), 1.0)]
    assert nms(single) == single


def test_nms_keeps_strongest_of_overlapping_pair():
    a = (Box(5.0, 5.0, 10.0, 10.0), 0.7)
    b = (Box(6.0, 5.0, 10.0, 10.0), 0.9)
    assert nms([a, b], threshold=0.5) == [b]
    assert nms([b, a], threshold=0.5) == [b]


def test_nms_chain_overlap():
    # b overlaps both a and c (IoU 0.25 each), but a and c are disjoint
    a = (Box(0.0, 0.0, 10.0, 10.0), 0.9)
    b = (Box(6.0, 0.0, 10.0, 10.0), 0.8)
    c = (Box(12.0, 0.0, 10.0, 10.0), 0.7)
    kept = nms([a, b, c], threshold=0.2)
    assert kept == [a, c]


def test_nms_input_order_invariance(rng):
    boxes = [
        (Box(float(x), float(y), 8.0, 8.0), float(score))
        for x, y, score in zip(
            rng.uniform(0, 40, 25), rng.uniform(0, 40, 25), rng.uniform(0, 1, 25)
        )
    ]
    reference = nms(boxes, threshold=0.4)
    for _ in range(5):
        shuffled = list(boxes)
        rng.shuffle(shuffled)
        assert nms(shuffled, threshold=0.4) == reference


def test_nms_threshold_validation():
    with pytest.raises(ValueError):
        nms([], threshold=1.5)


def test_detections_from_trace_applies_suppression(bench_space):
    w1 = Window(10, 10, 0)
    w2 = Window(11, 10, 0)  # IoU with w1 far above 0.5
    w3 = Window(60, 30, 0)
    trace = RunTrace("t", "ipw", 0, bench_space.window_count)
    for i, (w, response) in enumerate([(w1, 1.2), (w2, 2.0), (w3, 0.8)], start=1):
        trace.records.append(TraceRecord(i, w.x, w.y, w.s, response, "APW", "UNIFORM", 0, i, 0, 1.0, 0))
    got = detections_from_trace(bench_space, trace, nms_threshold=0.5)
    assert got == (
        (bench_space.to_box(w2), 2.0),
        (bench_space.to_box(w3), 0.8),
    )


def test_detections_from_empty_trace(bench_space):
    trace = RunTrace("t", "ipw", 0, bench_space.window_count)
    assert detections_from_trace(bench_space, trace) == ()


# --- trace records ----------------------------------------------------------


def test_record_batch_classifies_as_classify_does():
    """``_record_batch``'s array classification gives ``_classify``'s kind for
    responses below, at and above ``t_l`` and ``t_h``, for +-inf and for NaN
    (ambiguous), and its ``n_ambiguous`` runs on across two batches, as it
    does across ``mpw``'s stages.  The kind column holds the kind constants
    themselves."""
    config = DetectorConfig(name="sw", algorithm="sw", t_l=-2.0, t_h=0.0)
    edges = [-math.inf, -3.0, math.nextafter(-2.0, -math.inf), -2.0, math.nextafter(-2.0, math.inf), -1.0]
    edges += [math.nextafter(0.0, -math.inf), 0.0, -0.0, 5e-324, 1.0, math.inf, math.nan]
    batches = [np.array(edges), np.array([math.nan, -1.0, 2.0, -5.0, math.nan, -0.5])]
    trace = RunTrace("sw", "sw", None, 100)
    for responses in batches:
        n = len(responses)
        coords = np.arange(n, dtype=np.int64)
        stages = np.full(n, 3, dtype=np.int64)
        detectors._record_batch(trace, config, coords, coords, coords, "SCAN", responses, stages)
    responses = [r for batch in batches for r in batch.tolist()]
    kinds = [detectors._classify(r, config) for r in responses]
    assert kinds[len(edges) - 1] == "ABPW"  # the NaN
    records = trace.records
    assert records.kind == kinds
    constants = (detectors.KIND_REJECTED, detectors.KIND_AMBIGUOUS, detectors.KIND_ACCEPTED)
    assert all(any(k is c for c in constants) for k in records.kind)
    running = list(itertools.accumulate(k == "ABPW" for k in kinds))
    assert records.n_ambiguous == running
    assert records.n_ambiguous[-1] == running[-1] == kinds.count("ABPW")
    assert records.i == list(range(1, len(responses) + 1))
    assert all(type(v) is int for v in records.x + records.n_ambiguous + records.stages_evaluated)
    assert records.p_uniform == [None] * len(responses)


def _records(n=5):
    return [TraceRecord(i + 1, i, 2 * i, i % 2, -0.5 * i, "RPW", "UNIFORM", i, 0, 0, 0.25, 0) for i in range(n)]


def test_trace_records_are_a_sequence_of_records():
    rows = _records()
    records = TraceRecords(rows)
    assert len(records) == 5 and records and not TraceRecords()
    assert records[0] == rows[0] and records[-1] == rows[-1] and records[2] == rows[2]
    assert list(records) == rows
    with pytest.raises(IndexError):
        records[5]
    head = records[1:3]
    assert isinstance(head, TraceRecords) and head == rows[1:3]
    assert records[::-1] == rows[::-1]
    assert records == rows and rows == records and records == TraceRecords(rows)
    assert records != rows[:4] and records != rows[::-1] and records != tuple(rows)
    assert records.columns == tuple(map(list, zip(*map(astuple, rows))))
    assert records.response == [r.response for r in rows]


def test_trace_records_write_through_to_their_columns():
    rows = _records()
    records = TraceRecords(rows)
    records[1] = replace(records[1], window=records[0].window)
    assert (records.x[1], records.y[1], records.s[1]) == (rows[0].x, rows[0].y, rows[0].s)
    assert records[1] == replace(rows[1], window=rows[0].window)
    records[-1] = replace(records[-1], response=9.0)
    assert records.response[-1] == 9.0
    extra = TraceRecord(6, 1, 1, 0, 1.5, "APW", "GAUSSIAN", 9, 1, 0, 0.25, 2)
    records.append(extra)
    assert len(records) == 6 and records[5] == extra and records.kind[-1] == "APW"
    with pytest.raises(TypeError):
        records[0:2] = rows[:2]


def test_a_run_trace_stores_a_list_of_records_as_columns():
    rows = _records()
    trace = RunTrace("t", "ipw", 0, 100, rows)
    assert isinstance(trace.records, TraceRecords) and trace.records == rows
    cut = replace(trace, records=rows[:2])
    assert isinstance(cut.records, TraceRecords) and cut.records == rows[:2]
    assert isinstance(RunTrace("t", "ipw", 0, 100).records, TraceRecords)
    assert RunTrace("t", "ipw", 0, 100).records is not RunTrace("t", "ipw", 0, 100).records


def test_sw_and_mpw_build_no_record_on_the_run_path(monkeypatch, tmp_path):
    """A run, its trace file and its curves read the columns: ``sw`` and
    ``mpw`` construct no ``TraceRecord`` in ``run_cell``, ``write_trace_jsonl``
    or ``extract_curves``."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "synthetic.json")
    scene = cfg.load_scenes()[0]
    built = []
    init = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    for detector in cfg.detectors:
        if detector.algorithm not in ("sw", "mpw"):
            continue
        trace, detections, metrics = run_cell(cfg, scene, detector, derive_seed(cfg.seed, 0))
        write_trace_jsonl(tmp_path / f"{detector.name}.jsonl", trace)
        curves = extract_curves(trace)
        assert {len(column) for column in curves.values()} == {len(trace.records)}
        assert len(trace.records) == metrics.windows_used > 0
    assert built == []
    assert TraceRecords(_records(2))[0] and len(built) == 3  # the counter counts


# --- config validation ------------------------------------------------------


def test_detector_config_validation(table):
    with pytest.raises(ValueError):
        DetectorConfig(name="x", algorithm="magic", t_l=-1.0, t_h=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(name="x", algorithm="sw", t_l=0.5, t_h=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(name="x", algorithm="ipw", t_l=-1.0, t_h=0.0)  # needs a table
    with pytest.raises(ValueError):
        make_detector("ipw", 100, table, alpha=1.5)
    with pytest.raises(ValueError):
        make_detector("ipw", 0, table)
    with pytest.raises(ValueError):
        make_detector("ipw", 100, table, gamma=0.0)
    with pytest.raises(ValueError):
        make_detector("ipw", 100, table, r_a_x_ratio=-0.1)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n_c_star_init"):
            make_detector("sipw", 100, table, n_c_star_init=bad)
    # table bounds -inf, -4.9, ..., -3.0, -2.5: a rejection reads one only below t_l
    for algorithm in ("ipw", "sipw"):
        with pytest.raises(ValueError, match=r"intervals\[6\]\.lower = -2.5 is not below t_l = -2.5"):
            make_detector(algorithm, 100, table, t_l=-2.5)
        with pytest.raises(ValueError, match=r"intervals\[5\]\.lower = -3.0 is not below t_l = -3.2"):
            make_detector(algorithm, 100, table, t_l=-3.2)
        make_detector(algorithm, 100, table, t_l=math.nextafter(-2.5, 0.0))
    make_detector("mpw", 100, table, t_l=-2.5)  # mpw reads no table


def test_acceptance_radii_floor_to_cells(bench_space, table):
    config = make_detector("ipw", 100, table)
    assert config.acceptance_radii(bench_space) == (3, 7)  # 0.16 * (24, 48)


def test_ipw_grows_its_mixture_only_inside_the_rebuild(monkeypatch):
    """The bench times ``ipw``'s mixture growth by wrapping
    ``_mixture_from_batch``.  Over one ``ipw`` run of ``configs/synthetic.json``
    it is entered once for the empty mixture and then once per ABPW record,
    and every growth of the mixture happens inside it."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "synthetic.json")
    ipw = next(d for d in cfg.detectors if d.algorithm == "ipw")
    calls = {"build": 0, "add": 0, "inside": False}
    build, add = detectors._mixture_from_batch, DentedGaussianMixture._add

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        calls["inside"] = True
        try:
            return build(*args, **kwargs)
        finally:
            calls["inside"] = False

    def checked_add(self, *args, **kwargs):
        assert calls["inside"], "a mixture grew outside _mixture_from_batch"
        calls["add"] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(detectors, "_mixture_from_batch", counting_build)
    monkeypatch.setattr(DentedGaussianMixture, "_add", checked_add)
    trace, _, _ = run_cell(cfg, cfg.load_scenes()[0], ipw, derive_seed(cfg.seed, 0))
    ambiguous = sum(r.kind == "ABPW" for r in trace.records)
    assert ambiguous > 10
    assert calls["build"] == 1 + ambiguous
    assert calls["add"] == ambiguous


def test_mpw_builds_each_later_stage_through_the_constructor(monkeypatch):
    """The bench times ``mpw``'s stage builds by wrapping
    ``DentedGaussianMixture.__init__``.  Over one ``mpw`` run of
    ``configs/synthetic.json`` it is entered once per stage after the first."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "synthetic.json")
    mpw = next(d for d in cfg.detectors if d.algorithm == "mpw")
    sizes = []
    init = DentedGaussianMixture.__init__

    def counting_init(self, means, *args, **kwargs):
        sizes.append(means.shape[1])
        init(self, means, *args, **kwargs)

    monkeypatch.setattr(DentedGaussianMixture, "__init__", counting_init)
    trace, _, _ = run_cell(cfg, cfg.load_scenes()[0], mpw, derive_seed(cfg.seed, 0))
    schedule = schedule_for_budget(mpw.budget, mpw.gamma, mpw.mpw_stage_count)
    assert len(schedule) > 2
    assert sizes == schedule[:-1]  # each stage's mixture has a component per window of the stage before
    assert sum(r.source == "GAUSSIAN" for r in trace.records) == sum(schedule[1:])
