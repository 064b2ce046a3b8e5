"""Synthetic response fields, the staged scorer, and weight normalization."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsearch import (
    Box,
    CascadeScorer,
    SearchSpace,
    SyntheticScene,
    SyntheticScorer,
    Window,
    normalize_weights,
)
from pwsearch.config import load_config
from pwsearch.scoring import _BLOCK_PAIRS

from conftest import PYRAMID, pyramid_scene


def scene_with(objects=(), distractors=(), floor=-5.0, sharpness=3.0, size=(64, 48)):
    return SyntheticScene(
        image_w=size[0],
        image_h=size[1],
        objects=tuple(objects),
        distractors=tuple(distractors),
        floor=floor,
        sharpness=sharpness,
    )


@pytest.fixture
def space():
    return SearchSpace(64, 48, 12, 12, stride=1, scale_factor=1.25, scale_count=3)


def centered_target(space, w, peak):
    """A target sitting exactly on window w's box."""
    return (space.to_box(w), peak)


def test_peak_response_at_exact_center(space):
    w = Window(10, 8, 0)
    scene = scene_with(objects=[centered_target(space, w, 2.0)])
    scorer = SyntheticScorer(scene)
    assert scorer.score(space, w)[0] == pytest.approx(2.0)


def test_response_far_from_target_is_floor(space):
    scene = scene_with(objects=[(Box(6.0, 6.0, 12.0, 12.0), 2.0)])
    far = Window(50, 30, 0)
    got, _ = SyntheticScorer(scene).score(space, far)
    assert got == pytest.approx(-5.0, abs=1e-3)


def test_empty_scene_scores_floor_everywhere(space):
    scorer = SyntheticScorer(scene_with(floor=-3.5))
    for w in [Window(0, 0, 0), Window(20, 10, 0), Window(5, 5, 1)]:
        assert scorer.score(space, w) == (-3.5, 0)


def test_response_decays_with_distance(space):
    w = Window(20, 15, 0)
    scene = scene_with(objects=[centered_target(space, w, 2.0)])
    scorer = SyntheticScorer(scene)
    responses = [scorer.score(space, Window(20 + dx, 15, 0))[0] for dx in range(8)]
    assert all(a > b for a, b in zip(responses, responses[1:]))


def test_response_is_max_over_targets(space):
    w1, w2 = Window(5, 5, 0), Window(40, 20, 0)
    scene = scene_with(
        objects=[centered_target(space, w1, 1.5), centered_target(space, w2, 2.5)]
    )
    scorer = SyntheticScorer(scene)
    assert scorer.score(space, w1)[0] == pytest.approx(1.5)
    assert scorer.score(space, w2)[0] == pytest.approx(2.5)


def test_wrong_scale_scores_lower(space):
    w = Window(20, 15, 0)
    scene = scene_with(objects=[centered_target(space, w, 2.0)])
    scorer = SyntheticScorer(scene)
    right, _ = scorer.score(space, w)
    # same original-image center, one pyramid level up
    gx, gy = space.grid_at(*space.centre(w.x, w.y, w.s), 1)
    off = Window(round(gx), round(gy), 1)
    wrong, _ = scorer.score(space, off)
    assert wrong < right


def test_distractors_pull_toward_their_own_peak(space):
    w = Window(20, 15, 0)
    scene = scene_with(distractors=[centered_target(space, w, -0.8)])
    scorer = SyntheticScorer(scene)
    assert scorer.score(space, w)[0] == pytest.approx(-0.8)
    assert scorer.score(space, Window(0, 0, 0))[0] < -0.8


def test_flat_scorer_reports_no_stages(space):
    scene = scene_with(objects=[centered_target(space, Window(3, 3, 0), 2.0)])
    _, stages = SyntheticScorer(scene).score(space, Window(3, 3, 0))
    assert stages == 0


def test_scene_json_round_trip(tmp_path, space):
    scene = scene_with(
        objects=[(Box(11.25, 17.5, 12.0, 12.0), 2.125)],
        distractors=[(Box(40.0, 30.0, 15.0, 15.0), -0.75), (Box(8.0, 40.0, 12.0, 12.0), -1.1)],
        floor=-4.5,
        sharpness=2.75,
    )
    path = tmp_path / "scene.json"
    scene.save(path)
    assert SyntheticScene.from_dict(json.loads(path.read_text())) == scene
    assert SyntheticScene.from_dict(scene.to_dict()) == scene


def test_scene_validation():
    with pytest.raises(ValueError):
        scene_with(size=(0, 48))
    with pytest.raises(ValueError):
        scene_with(sharpness=-1.0)


# --- staged scorer -------------------------------------------------------


def test_cascade_full_pass_at_center(space):
    w = Window(10, 8, 0)
    scene = scene_with(objects=[centered_target(space, w, 1.5)])
    scorer = CascadeScorer(scene, stages=10)
    response, stages = scorer.score(space, w)
    assert response == pytest.approx(1.0)
    assert stages == 10


def test_cascade_background_fails_first_stage(space):
    scene = scene_with(objects=[(Box(6.0, 6.0, 12.0, 12.0), 1.5)])
    assert CascadeScorer(scene, stages=10).score(space, Window(50, 30, 0)) == (0.0, 1)


def test_cascade_responses_live_on_a_lattice(space):
    scene = scene_with(objects=[(Box(20.0, 20.0, 12.0, 12.0), 2.0)])
    scorer = CascadeScorer(scene, stages=8)
    for w in space.windows():
        response, stages = scorer.score(space, w)
        assert response * 8 == pytest.approx(round(response * 8))
        assert 1 <= stages <= 8


def test_cascade_midpoint_response(space):
    # raw halfway between floor and the full-pass level (the one peak, 1.5) clears half the stages
    scene = scene_with(objects=[(Box(18.0, 14.5, 12.0, 12.0), 1.5)], floor=-5.0)
    scorer = CascadeScorer(scene, stages=10)
    assert scorer.full_pass_response == 1.5
    w = Window(12, 8, 0)  # centred at (18, 14), the grid cell nearest the object
    raw, _ = SyntheticScorer(scene).score(space, w)
    u = (raw - scene.floor) / (1.5 - scene.floor)
    response, _ = scorer.score(space, w)
    assert response == pytest.approx(min(10, int(u * 10 + 1e-9)) / 10)


def test_cascade_stage_count_validation(space):
    scene = scene_with(objects=[(Box(20.0, 20.0, 12.0, 12.0), 2.0)])
    with pytest.raises(ValueError):
        CascadeScorer(scene, stages=0)


def test_cascade_monotone_toward_target(space):
    w = Window(20, 15, 0)
    scene = scene_with(objects=[centered_target(space, w, 2.5)])
    scorer = CascadeScorer(scene, stages=10)
    rs = [scorer.score(space, Window(20 + dx, 15, 0))[0] for dx in range(10)]
    assert all(a >= b for a, b in zip(rs, rs[1:]))


# --- batch scoring -------------------------------------------------------

PEDESTRIAN = Path(__file__).resolve().parent.parent / "configs" / "pedestrian.json"
SCORERS = {"synthetic": SyntheticScorer, "cascade": CascadeScorer}


def batch_case(name):
    """(space, scene) for one batch-scoring case."""
    if name == "pedestrian-stride-8":
        cfg = load_config(PEDESTRIAN)
        return cfg.space.at_stride(8), cfg.load_scenes()[0]
    if name == "last-bit-zoom":  # numpy's power and Python's differ at scale 4
        space = SearchSpace(96, 96, 12, 12, stride=2, scale_factor=1.2, scale_count=6)
        assert space.zoom(4) != (1.2 ** np.arange(6.0))[4]
        objects = [(space.to_box(Window(7, 9, 4)), 2.0), (space.to_box(Window(30, 3, 0)), 1.5)]
        return space, scene_with(objects, [(space.to_box(Window(10, 20, 2)), -0.8)], size=(96, 96))
    if name == "no-targets":
        return SearchSpace(64, 48, 12, 12, stride=1, scale_factor=1.25, scale_count=3), scene_with(floor=-3.5)
    assert name == "pyramid"
    return PYRAMID, pyramid_scene()


def two_spaces_case(kind):
    """One scorer over two spaces of one image that differ in template and
    scale factor, with each space's windows scored alternately by ``score``."""
    a = SearchSpace(96, 96, 12, 12, stride=2, scale_factor=1.2, scale_count=6)
    b = SearchSpace(96, 96, 16, 20, stride=3, scale_factor=1.5, scale_count=3)
    objects = [(a.to_box(Window(7, 9, 4)), 2.0), (b.to_box(Window(4, 2, 1)), 1.5)]
    scorer = SCORERS[kind](scene_with(objects, [(a.to_box(Window(10, 20, 2)), -0.8)], size=(96, 96)))
    wa, wb = list(a.windows()), list(b.windows())
    singles = {a: [], b: []}
    for k in range(max(len(wa), len(wb))):
        for space, windows in ((a, wa), (b, wb)):
            if k < len(windows):
                singles[space].append(scorer.score(space, windows[k]))
    return scorer, singles


@pytest.mark.parametrize("kind", sorted(SCORERS))
@pytest.mark.parametrize("case", ["pedestrian-stride-8", "no-targets", "pyramid", "last-bit-zoom", "two-spaces"])
def test_score_many_equals_score_window_by_window(case, kind):
    if case == "two-spaces":
        scorer, by_space = two_spaces_case(kind)
        for space, singles in by_space.items():
            responses, stages = scorer.score_many(space, *space.grid_coordinates())
            assert list(zip(responses.tolist(), stages.tolist())) == singles
            assert all(type(response) is float and type(n) is int for response, n in singles)
        return
    space, scene = batch_case(case)
    scorer = SCORERS[kind](scene)
    x, y, s = space.grid_coordinates()
    assert len(x) == space.window_count
    responses, stages = scorer.score_many(space, x, y, s)
    assert responses.dtype == np.float64 and stages.dtype == np.int64
    singles = [scorer.score(space, w) for w in space.windows()]
    # exact equality: a batch must reproduce every trace bit for bit
    assert list(zip(responses.tolist(), stages.tolist())) == singles
    # and the pair holds Python numbers, not numpy scalars
    assert all(type(response) is float and type(n) is int for response, n in singles)
    # scattered windows, not just the enumeration order
    order = np.random.default_rng(3).permutation(len(x))[:500]
    again, again_stages = scorer.score_many(space, x[order], y[order], s[order])
    assert again.tolist() == responses[order].tolist()
    assert again_stages.tolist() == stages[order].tolist()


@pytest.mark.parametrize("kind", sorted(SCORERS))
def test_score_many_of_nothing_is_empty(kind, space):
    scene = scene_with(objects=[(Box(20.0, 20.0, 12.0, 12.0), 2.0)])
    empty = np.zeros(0, dtype=np.int64)
    responses, stages = SCORERS[kind](scene).score_many(space, empty, empty, empty)
    assert responses.shape == (0,) and responses.dtype == np.float64
    assert stages.shape == (0,) and stages.dtype == np.int64


@pytest.mark.parametrize("kind", sorted(SCORERS))
def test_score_many_rejects_windows_outside_the_space(kind):
    scorer = SCORERS[kind](pyramid_scene())
    nx, ny = PYRAMID.grid_size(0)
    for bad in [(nx, 0, 0), (0, ny, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 3), (0, 0, 4)]:
        x, y, s = zip((0, 0, 0), (3, 3, 1), bad)  # the bad window last, after two good ones
        with pytest.raises(ValueError, match="outside search space"):
            scorer.score_many(PYRAMID, x, y, s)
        with pytest.raises(ValueError, match="outside search space"):
            scorer.score(PYRAMID, Window(*bad))
    with pytest.raises(ValueError):
        scorer.score_many(PYRAMID, [0, 1], [0], [0])


def blocked_case(kind, targets):
    """A scorer over pedestrian's full space, its block size ``B`` in
    windows, and ``2B + 3`` windows scattered over the space with ``score``'s
    pair for each, for a scene with or without targets."""
    cfg = load_config(PEDESTRIAN)
    space, scene = cfg.space, cfg.load_scenes()[0]
    if not targets:
        scene = scene_with(floor=-3.5, size=(scene.image_w, scene.image_h))
    scorer = SCORERS[kind](scene)
    block = _BLOCK_PAIRS // max(len(scene.objects) + len(scene.distractors), 1)
    chosen = np.random.default_rng(5).choice(space.window_count, 2 * block + 3, replace=False)
    windows = [space.window_at(int(i)) for i in chosen]
    x, y, s = (np.array([getattr(w, axis) for w in windows], dtype=np.int64) for axis in "xys")
    return scorer, space, block, (x, y, s), [scorer.score(space, w) for w in windows]


@pytest.mark.parametrize("targets", [True, False], ids=["targets", "no-targets"])
@pytest.mark.parametrize("kind", sorted(SCORERS))
def test_score_many_equals_score_across_block_edges(kind, targets):
    """Batches one window short of a block, a block, one past it and two
    blocks and three score every window as ``score`` does, bit for bit, and
    the empty batch gives empty float64 and int64 arrays."""
    scorer, space, block, (x, y, s), singles = blocked_case(kind, targets)
    assert block == (_BLOCK_PAIRS // 4 if targets else _BLOCK_PAIRS)
    for n in (0, block - 1, block, block + 1, 2 * block + 3):
        responses, stages = scorer.score_many(space, x[:n], y[:n], s[:n])
        assert responses.dtype == np.float64 and stages.dtype == np.int64
        assert list(zip(responses.tolist(), stages.tolist())) == singles[:n]


@pytest.mark.parametrize("kind", sorted(SCORERS))
def test_score_many_names_the_first_window_outside_the_space_in_a_later_block(kind):
    scorer, space, block, (x, y, s), _ = blocked_case(kind, True)
    x = x.copy()
    first, later = block + 5, 2 * block + 1  # both in the second block or after it
    for k in (later, first):
        x[k] = space.grid_size(int(s[k]))[0]
    bad = Window(int(x[first]), int(y[first]), int(s[first]))
    with pytest.raises(ValueError, match=f"^window {re.escape(str(bad))} outside search space$"):
        scorer.score_many(space, x, y, s)


# --- weight normalization ------------------------------------------------


def test_normalize_shifts_only_when_negative():
    np.testing.assert_allclose(normalize_weights([-2.0, 0.0, 2.0]), [0.0, 1 / 3, 2 / 3])
    np.testing.assert_allclose(normalize_weights([1.0, 1.0, 2.0]), [0.25, 0.25, 0.5])


def test_normalize_degenerate_batches_go_uniform():
    np.testing.assert_allclose(normalize_weights([0.0, 0.0]), [0.5, 0.5])
    np.testing.assert_allclose(normalize_weights([-1.5, -1.5, -1.5]), [1 / 3, 1 / 3, 1 / 3])


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_weights([])
    with pytest.raises(ValueError):
        normalize_weights([1.0, float("nan")])
    with pytest.raises(ValueError):
        normalize_weights([[1.0, 2.0], [3.0, 4.0]])


@settings(max_examples=100)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_normalize_properties(xs):
    w = normalize_weights(xs)
    assert w.sum() == pytest.approx(1.0)
    assert (w >= 0).all()
    # order is preserved: bigger responses never get smaller weights
    order = np.argsort(xs, kind="stable")
    assert (np.diff(w[order]) >= -1e-12).all()
