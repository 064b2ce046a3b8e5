"""Grid geometry: enumeration, indexing, box conversion, overlap."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsearch import Box, SearchSpace, Window, overlap

from conftest import PYRAMID


def test_tiling_by_hand(tiny_space):
    # 16x16 image, 8x8 template, stride 8: two positions per axis.
    assert tiny_space.grid_size(0) == (2, 2)
    assert tiny_space.window_count == 4
    assert list(tiny_space.windows()) == [
        Window(0, 0, 0),
        Window(1, 0, 0),
        Window(0, 1, 0),
        Window(1, 1, 0),
    ]


def test_grid_size_formula():
    sp = SearchSpace(100, 60, 20, 10, stride=7, scale_factor=1.5, scale_count=3)
    # (100 - 20) // 7 + 1 = 12, (60 - 10) // 7 + 1 = 8
    assert sp.grid_size(0) == (12, 8)
    # scale 1 shrinks the image to 66 x 40
    assert sp.grid_size(1) == ((66 - 20) // 7 + 1, (40 - 10) // 7 + 1)


def test_a_pyramid_past_the_image_is_refused():
    """Every scale of a space holds windows: a ``scale_count`` whose top scale
    is empty is refused, naming how many scales fit."""
    with pytest.raises(ValueError, match="scale_count 2 runs past the image: the template fits at 1 of"):
        SearchSpace(32, 32, 20, 20, stride=1, scale_factor=2.0, scale_count=2)
    with pytest.raises(ValueError, match="scale_count 1 runs past the image: the template fits at 0 of"):
        SearchSpace(8, 8, 16, 16)


def test_template_too_big_gives_empty_scale():
    """``grid_size`` past the pyramid reports the empty grid of a scale the
    template no longer fits; the space counts only the scales it holds."""
    sp = SearchSpace(32, 32, 20, 20, stride=1, scale_factor=2.0, scale_count=1)
    assert sp.grid_size(0) == (13, 13)
    assert sp.grid_size(1) == (0, 0)  # zoomed image is 16x16, template will not fit
    assert sp.window_count == 13 * 13


def test_window_count_matches_enumeration(small_space):
    windows = list(small_space.windows())
    assert len(windows) == small_space.window_count
    assert len(set(windows)) == len(windows)


def test_index_round_trip(small_space):
    for i, w in enumerate(small_space.windows()):
        assert small_space.index_of(w) == i
        assert small_space.window_at(i) == w


@pytest.mark.parametrize("name", ["small", "pyramid"])
def test_coordinates_at_matches_window_at(small_space, name):
    space = small_space if name == "small" else PYRAMID
    x, y, s = space.coordinates_at(np.arange(space.window_count))
    assert list(map(Window, x.tolist(), y.tolist(), s.tolist())) == list(space.windows())


def test_window_at_rejects_out_of_range(small_space):
    with pytest.raises(IndexError):
        small_space.window_at(-1)
    with pytest.raises(IndexError):
        small_space.window_at(small_space.window_count)


def test_contains(small_space):
    assert small_space.contains(Window(0, 0, 0))
    nx, ny = small_space.grid_size(0)
    assert small_space.contains(Window(nx - 1, ny - 1, 0))
    assert not small_space.contains(Window(nx, 0, 0))
    assert not small_space.contains(Window(0, -1, 0))
    assert not small_space.contains(Window(0, 0, small_space.scale_count))


def test_to_box_at_base_scale(tiny_space):
    box = tiny_space.to_box(Window(1, 0, 0))
    assert box == Box(12.0, 4.0, 8.0, 8.0)


def test_to_box_scales_with_zoom():
    sp = SearchSpace(640, 480, 128, 128, stride=1, scale_factor=1.05, scale_count=3)
    box = sp.to_box(Window(0, 0, 1))
    assert box.w == pytest.approx(134.4)
    assert box.h == pytest.approx(134.4)
    assert box.cx == pytest.approx(67.2)


def test_grid_at_centre_identity():
    sp = SearchSpace(48, 48, 12, 12, stride=1, scale_factor=2.0, scale_count=3)
    w = Window(6, 6, 1)
    assert sp.grid_at(*sp.centre(w.x, w.y, w.s), 1) == (6.0, 6.0)


def test_grid_at_centre_preserves_center():
    sp = SearchSpace(48, 48, 12, 12, stride=1, scale_factor=2.0, scale_count=3)
    w = Window(6, 6, 1)
    centre = sp.centre(w.x, w.y, w.s)
    assert sp.grid_at(*centre, 0) == (18.0, 18.0)
    assert sp.grid_at(*centre, 2) == (0.0, 0.0)
    # the projected grid cell covers the same original-image center
    src = sp.to_box(w)
    gx, gy = sp.grid_at(*centre, 0)
    dst = sp.to_box(Window(round(gx), round(gy), 0))
    assert dst.cx == pytest.approx(src.cx)
    assert dst.cy == pytest.approx(src.cy)


def test_at_stride():
    sp = SearchSpace(160, 120, 24, 48, stride=1, scale_factor=1.2, scale_count=4)
    coarse = sp.at_stride(4)
    assert coarse.stride == 4
    assert coarse.window_count < sp.window_count
    assert coarse.grid_size(0) == ((160 - 24) // 4 + 1, (120 - 48) // 4 + 1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SearchSpace(0, 10, 5, 5, stride=1, scale_factor=1.2, scale_count=1)
    with pytest.raises(ValueError):
        SearchSpace(10, 10, 5, 5, stride=0, scale_factor=1.2, scale_count=1)
    with pytest.raises(ValueError):
        SearchSpace(10, 10, 5, 5, stride=1, scale_factor=0.9, scale_count=1)
    with pytest.raises(ValueError):
        SearchSpace(10, 10, 5, 5, stride=1, scale_factor=1.2, scale_count=0)


def test_overlap_known_values():
    a = Box(5.0, 5.0, 10.0, 10.0)
    assert overlap(a, a) == pytest.approx(1.0)
    shifted = Box(10.0, 5.0, 10.0, 10.0)  # half-width shift: 50 / 150
    assert overlap(a, shifted) == pytest.approx(1.0 / 3.0)
    assert overlap(a, Box(50.0, 50.0, 10.0, 10.0)) == 0.0
    contained = Box(5.0, 5.0, 5.0, 5.0)
    assert overlap(a, contained) == pytest.approx(0.25)


@st.composite
def spaces(draw):
    """A valid pyramid: the drawn ``scale_count`` is clamped to the scales
    whose grid the template still fits (scale 0 always does here)."""
    base = draw(
        st.builds(
            SearchSpace,
            image_w=st.integers(12, 60),
            image_h=st.integers(12, 60),
            template_w=st.integers(4, 12),
            template_h=st.integers(4, 12),
            stride=st.integers(1, 4),
            scale_factor=st.floats(1.1, 2.0),
        )
    )
    wanted = draw(st.integers(1, 4))
    return replace(base, scale_count=sum(base.grid_size(s) != (0, 0) for s in range(wanted)))


@settings(max_examples=50, deadline=None)
@given(spaces(), st.integers(1, 8))
def test_every_scale_holds_windows_at_any_stride(sp, k):
    for space in (sp, sp.at_stride(k)):
        assert all(min(space.grid_size(s)) >= 1 for s in range(space.scale_count))


@settings(max_examples=50, deadline=None)
@given(spaces())
def test_enumeration_count_property(sp):
    assert sum(np.prod(sp.grid_size(s)) for s in range(sp.scale_count)) == sp.window_count
    assert len(list(sp.windows())) == sp.window_count


@settings(max_examples=30, deadline=None)
@given(spaces(), st.integers(0, 10**6))
def test_index_bijection_property(sp, raw):
    i = raw % sp.window_count
    w = sp.window_at(i)
    assert sp.contains(w)
    assert sp.index_of(w) == i


@settings(max_examples=50, deadline=None)
@given(spaces())
def test_centre_on_arrays_equals_the_scalar_call(sp):
    """``centre`` and ``grid_at`` on arrays equal their scalar calls bit for
    bit (the scorers' ``score``/``score_many`` agreement and the mixture's
    centre table rest on this), and ``grid_at`` inverts ``centre``."""
    x, y, s = sp.coordinates_at(np.arange(0, sp.window_count, max(1, sp.window_count // 97)))
    cx, cy = sp.centre(x, y, s)
    scales = np.arange(sp.scale_count)[:, None]
    gx, gy = sp.grid_at(cx, cy, scales)
    for j, (xj, yj, sj) in enumerate(zip(x.tolist(), y.tolist(), s.tolist())):
        centre = sp.centre(xj, yj, sj)
        assert all(type(v) is float for v in centre)
        assert centre == (cx[j], cy[j])
        for s2 in range(sp.scale_count):
            assert sp.grid_at(*centre, s2) == (gx[s2, j], gy[s2, j])
        back = sp.grid_at(*centre, sj)
        assert back == pytest.approx((xj, yj), abs=1e-9)
        box = sp.to_box(Window(xj, yj, sj))
        assert all(type(v) is float for v in (box.cx, box.cy, box.w, box.h))
        assert (box.cx, box.cy) == centre


boxes = st.builds(
    Box,
    cx=st.floats(-50, 50),
    cy=st.floats(-50, 50),
    w=st.floats(0.1, 40),
    h=st.floats(0.1, 40),
)


@settings(max_examples=100)
@given(boxes, boxes)
def test_overlap_symmetric_and_bounded(a, b):
    iou = overlap(a, b)
    assert 0.0 <= iou <= 1.0 + 1e-12
    assert iou == pytest.approx(overlap(b, a))
