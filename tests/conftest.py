"""Shared fixtures: small search spaces, a calibrated detector kit, scenes."""

import numpy as np
import pytest

from pwsearch import (
    DetectorConfig,
    RadiusInterval,
    RadiusTable,
    ScalePropagation,
    SearchSpace,
    SyntheticScene,
    Window,
)
from pwsearch.harness import SceneParams, generate_scenes

# Three scales, as many as fit: the template no longer fits at a fourth.
PYRAMID = SearchSpace(40, 40, 16, 16, stride=1, scale_factor=1.5, scale_count=3)


def pyramid_scene():
    """An object at scale 1 and distractors at scales 0 and 2 of ``PYRAMID``."""
    box = PYRAMID.to_box
    return SyntheticScene(
        40, 40,
        objects=((box(Window(5, 7, 1)), 2.0),),
        distractors=((box(Window(20, 3, 0)), -0.8), (box(Window(1, 1, 2)), -1.1)),
        floor=-5.0,
        sharpness=3.0,
    )


@pytest.fixture
def tiny_space():
    """Four windows on a single scale, small enough to check by hand."""
    return SearchSpace(16, 16, 8, 8, stride=8, scale_factor=2.0, scale_count=1)


@pytest.fixture
def small_space():
    """A few thousand windows over three scales; fast to enumerate."""
    return SearchSpace(64, 48, 12, 12, stride=1, scale_factor=1.25, scale_count=3)


@pytest.fixture(scope="session")
def bench_space():
    """The space used by the calibrated comparison suite."""
    return SearchSpace(160, 120, 24, 48, stride=1, scale_factor=1.2, scale_count=4)


def make_radius_table():
    intervals = (
        RadiusInterval(float("-inf"), 0.40, 0.40),
        RadiusInterval(-4.9, 0.22, 0.22),
        RadiusInterval(-4.5, 0.14, 0.14),
        RadiusInterval(-4.0, 0.09, 0.09),
        RadiusInterval(-3.5, 0.05, 0.05),
        RadiusInterval(-3.0, 0.02, 0.02),
        RadiusInterval(-2.5, 0.0, 0.0),
    )
    return RadiusTable(intervals, active_intervals=7)


@pytest.fixture(scope="session")
def bench_table():
    return make_radius_table()


def make_detector(algorithm, budget, table, **overrides):
    base = dict(
        name=algorithm,
        algorithm=algorithm,
        t_l=-2.0,
        t_h=0.0,
        budget=budget,
        alpha=0.2,
        gamma=0.7,
        radius_table=table,
        r_a_x_ratio=0.16,
        r_a_y_ratio=0.16,
        accept_propagation=ScalePropagation(1, 0.5),
    )
    base.update(overrides)
    return DetectorConfig(**base)


@pytest.fixture(scope="session")
def bench_scenes(bench_space):
    params = SceneParams(
        space=bench_space,
        object_count=1,
        distractor_count=2,
        scale_indices=(0, 1, 2),
    )
    return generate_scenes(params, master_seed=424242, count=30)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def report(capsys):
    """Print a line that survives pytest's output capture."""

    def _report(line):
        with capsys.disabled():
            print(line)

    return _report
