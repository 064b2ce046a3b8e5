"""Classifier-response models over a window space.

Two scorers share one interface with two entry points that compute one
formula and return one shape, a response and the classifier stages spent on
it.  ``score(space, w) -> (response, stages)`` scores a single window and
returns a Python ``float`` and ``int``; it works in Python floats over the
targets with one ``np.exp`` call on the list of exponents.
``score_many(space, x, y, s) -> (responses, stages)`` scores equal-length
integer coordinate arrays and returns a float64 and an int64 array; it makes
one numpy pass per block of at most ``_BLOCK_PAIRS`` (window, target) pairs
and fills one preallocated output, so that a block's temporaries stay in
cache however large the batch.  Both make the same float operations in the
same order, and both take the exponential from ``np.exp``, because
``math.exp`` can differ from it in the last bit; so the results agree bit for
bit, window by window.  The sliding-window scan and the staged
sampler, whose windows do not depend on each other's scores within a scan or
a stage, score through ``score_many``; the incremental samplers, which update
their regions between draws, score one window at a time, where numpy's
broadcasting over a handful of targets would cost more than the arithmetic.

* :class:`SyntheticScorer` evaluates a closed-form response landscape built
  from planted objects and distractors.  The response at a window is
  ``floor + (peak - floor) * exp(-sharpness * d)`` for the best-matching
  target, where ``d`` is the L1 distance in target-normalized units
  (dx / target_w + dy / target_h + scale-step mismatch).  Far from every
  target the response approaches ``floor``.
* :class:`CascadeScorer` emulates a staged classifier on top of a synthetic
  scene: a window passing ``j`` of ``stages`` stages emits response
  ``j / stages`` and cost proportional to the stages actually evaluated.

``normalize_weights`` turns a batch of raw responses into sampling weights:
responses are shifted to nonnegative (only if the minimum is below zero, so
already-nonnegative batches keep their proportions) and divided by their sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .space import Box, SearchSpace, Window

Placement = tuple[Box, float]


class Scorer(Protocol):
    """A classifier over one search space's windows.

    ``score`` returns the raw response and the number of classifier stages
    spent on the window (0 for a flat, single-shot scorer) as a ``float`` and
    an ``int``.  ``score_many`` returns a float array of responses and an int
    array of stages, each entry equal to ``score``'s pair for the same window.
    Both raise ``ValueError`` for a window outside the space.
    """

    def score(self, space: SearchSpace, w: Window) -> tuple[float, int]: ...

    def score_many(
        self, space: SearchSpace, x: np.ndarray, y: np.ndarray, s: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...


# (window, target) pairs that ``score_many`` scores in one block: 128 KiB per
# float64 temporary, so a block's temporaries stay in cache and reuse their memory.
_BLOCK_PAIRS = 1 << 14


@dataclass(frozen=True)
class SyntheticScene:
    """Planted ground truth: (box, peak) placements over an image.

    Object peaks are meant to sit at or above the paired detector's upper
    threshold, distractor peaks inside the ambiguity band, and ``floor``
    strictly below the lower threshold.  :meth:`save` writes a scene file,
    which a config's ``scenes.files`` loads back.
    """

    image_w: int
    image_h: int
    objects: tuple[Placement, ...]
    distractors: tuple[Placement, ...]
    floor: float
    sharpness: float

    def __post_init__(self) -> None:
        if self.image_w < 1 or self.image_h < 1:
            raise ValueError("image dimensions must be positive")
        if self.sharpness <= 0.0:
            raise ValueError("sharpness must be positive")
        for box, peak in self.objects + self.distractors:
            if peak <= self.floor:
                raise ValueError(f"target peak {peak} must exceed floor {self.floor}")
            if box.w <= 0 or box.h <= 0:
                raise ValueError("target boxes need positive extent")

    def to_dict(self) -> dict:
        def placements(items: tuple[Placement, ...]) -> list[dict]:
            return [
                {"box": {"cx": b.cx, "cy": b.cy, "w": b.w, "h": b.h}, "peak": p}
                for b, p in items
            ]

        return {
            "image_w": self.image_w,
            "image_h": self.image_h,
            "objects": placements(self.objects),
            "distractors": placements(self.distractors),
            "floor": self.floor,
            "sharpness": self.sharpness,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


class SyntheticScorer:
    """Closed-form response landscape for a :class:`SyntheticScene`.

    The distance between a window and a target combines center offsets
    normalized by the target's own extent with the scale-step mismatch, so a
    window one pyramid step away from the target's size is penalized exactly
    like one a full target-width off in x.  Targets are assumed
    template-aspect; their pyramid position is derived from width.
    """

    def __init__(self, scene: SyntheticScene):
        self.scene = scene
        targets = scene.objects + scene.distractors
        self._cx = np.array([b.cx for b, _ in targets], dtype=float)
        self._cy = np.array([b.cy for b, _ in targets], dtype=float)
        self._w = np.array([b.w for b, _ in targets], dtype=float)
        self._h = np.array([b.h for b, _ in targets], dtype=float)
        self._peak = np.array([p for _, p in targets], dtype=float)
        self._rise = (self._peak - scene.floor).tolist()
        self._space: SearchSpace | None = None  # the space ``_targets`` was built for
        self._targets: list[tuple[float, ...]] = []

    def score(self, space: SearchSpace, w: Window) -> tuple[float, int]:
        """:meth:`_response`'s operations in its order for one window, on
        Python floats.  The per-target constants are built once per space and
        kept for the last space scored."""
        if not space.contains(w):
            raise ValueError(f"window {w} outside search space")
        if space is not self._space:
            columns = (self._cx, self._cy, self._w, self._h, self._target_scales(space))
            self._space, self._targets = space, list(zip(*(c.tolist() for c in columns)))
        cx, cy = space.centre(w.x, w.y, w.s)
        s, floor, k = w.s, self.scene.floor, -self.scene.sharpness
        exponents = [
            k * (abs(cx - tx) / tw + abs(cy - ty) / th + abs(s - ts)) for tx, ty, tw, th, ts in self._targets
        ]
        return max((floor + r * e for r, e in zip(self._rise, np.exp(exponents).tolist())), default=floor), 0

    def score_many(self, space: SearchSpace, x, y, s) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_response` block by block into one output, each block at
        most ``_BLOCK_PAIRS`` (window, target) pairs and checked in order, so
        the first window outside the space is the one the error names."""
        x, y, s = (np.asarray(a, dtype=np.int64) for a in (x, y, s))
        if x.ndim != 1 or not x.shape == y.shape == s.shape:
            raise ValueError("x, y and s must be 1-D arrays of one length")
        responses = np.empty(x.size)
        step = _BLOCK_PAIRS // max(len(self._rise), 1) or 1
        for start in range(0, x.size, step):
            block = slice(start, start + step)
            bx, by, bs = x[block], y[block], s[block]
            inside = space.contains_many(bx, by, bs)
            if not inside.all():
                k = int(np.argmin(inside))
                raise ValueError(f"window {Window(int(bx[k]), int(by[k]), int(bs[k]))} outside search space")
            responses[block] = self._response(space, bx[:, None], by[:, None], bs[:, None])
        return responses, np.zeros(x.size, dtype=np.int64)

    def _target_scales(self, space: SearchSpace) -> np.ndarray:
        """Each target's (fractional) pyramid position, from its width."""
        return np.log(self._w / space.template_w) / math.log(space.scale_factor)

    def _response(self, space: SearchSpace, x, y, s):
        """Responses at the windows given as (n, 1) integer columns.

        The columns broadcast against the targets in one (n, targets) pass,
        which ``score_many`` makes once per block.  :meth:`score` makes the
        same operations in the same order for one window, and both take
        ``np.exp``, so the two agree bit for bit.
        """
        scene = self.scene
        cx, cy = space.centre(x, y, s)
        d = (
            np.abs(cx - self._cx) / self._w
            + np.abs(cy - self._cy) / self._h
            + np.abs(s - self._target_scales(space))
        )
        values = scene.floor + (self._peak - scene.floor) * np.exp(-scene.sharpness * d)
        # No value falls below the floor, so ``initial`` only answers a scene without targets.
        return values.max(axis=-1, initial=scene.floor)


class CascadeScorer:
    """Staged-classifier emulator driven by a synthetic landscape.

    The scene response is normalized into [0, 1] against ``full_pass_response``
    (the weakest object peak, so every planted object can pass all stages) and
    quantized into the number of stages passed.  Response is
    ``passed / stages``; evaluation cost is ``passed + 1`` stages, capped at
    ``stages``, since a window stops at its first failing stage.
    """

    def __init__(self, scene: SyntheticScene, stages: int = 10):
        if stages < 1:
            raise ValueError("stages must be >= 1")
        self.scene = scene
        self.stages = stages
        # Every peak lies above the floor, so each of these does too.
        if scene.objects:
            self.full_pass_response = min(p for _, p in scene.objects)
        elif scene.distractors:
            self.full_pass_response = max(p for _, p in scene.distractors) + 1.0
        else:
            self.full_pass_response = scene.floor + 1.0
        self._landscape = SyntheticScorer(scene)

    def score(self, space: SearchSpace, w: Window) -> tuple[float, int]:
        raw, _ = self._landscape.score(space, w)
        # score_many's operations in the same order, in Python floats
        u = min(max((raw - self.scene.floor) / (self.full_pass_response - self.scene.floor), 0.0), 1.0)
        passed = min(int(u * self.stages + 1e-9), self.stages)
        return passed / self.stages, min(passed + 1, self.stages)

    def score_many(self, space: SearchSpace, x, y, s) -> tuple[np.ndarray, np.ndarray]:
        raw, _ = self._landscape.score_many(space, x, y, s)
        u = (raw - self.scene.floor) / (self.full_pass_response - self.scene.floor)
        u = np.minimum(np.maximum(u, 0.0), 1.0)
        # astype truncates toward zero, as int() does in score
        passed = np.minimum((u * self.stages + 1e-9).astype(np.int64), self.stages)
        return passed / self.stages, np.minimum(passed + 1, self.stages)


def normalize_weights(responses) -> np.ndarray:
    """Shift-to-nonnegative, then divide by the sum.

    Batches whose minimum is already >= 0 are left unshifted so their
    proportions survive.  A batch that is all equal after shifting (sum zero)
    degenerates to uniform weights.
    """
    arr = np.asarray(responses, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("responses must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("responses must be finite")
    low = arr.min()
    if low < 0.0:
        arr = arr - low
    total = arr.sum()
    if total <= 0.0:
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total
