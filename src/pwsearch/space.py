"""Discrete (x, y, scale) window space: enumeration, indexing, and box geometry.

A window is a template placement on a scale pyramid.  Scale ``s`` zooms the
image out by ``scale_factor ** s`` while the template keeps its pixel size, so
the effective position grid shrinks as ``s`` grows.  Window coordinates are
grid indices in the zoomed image of their own scale.  ``centre`` maps a cell
to its original-image centre and ``grid_at`` maps a point back onto any scale:
the boxes, the synthetic scorers, the mixture's component centres and the
region marks' cross-scale rectangles all use this one map.

Every scale of a space holds at least one window: a pyramid that runs past
the scale where the template still fits the image is refused when built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np


@dataclass(frozen=True, order=True)
class Window:
    """Template placement: top-left grid cell (x, y) at pyramid scale s."""

    x: int
    y: int
    s: int


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in original-image coordinates, center based."""

    cx: float
    cy: float
    w: float
    h: float


@dataclass(frozen=True)
class SearchSpace:
    """All candidate windows for one image size / template / pyramid setup.

    ``stride`` is the grid pitch in zoomed-image pixels.  Particle-style
    samplers run on a stride-1 space; an exhaustive scan typically uses a
    coarser one (see :meth:`at_stride`).

    Every scale below ``scale_count`` holds at least one window.  The grid
    only shrinks as ``s`` grows and its emptiness does not depend on
    ``stride``, so checking the top scale is enough, at any stride.
    """

    image_w: int
    image_h: int
    template_w: int
    template_h: int
    stride: int = 1
    scale_factor: float = 1.2
    scale_count: int = 1

    def __post_init__(self) -> None:
        if self.image_w < 1 or self.image_h < 1:
            raise ValueError("image dimensions must be positive")
        if self.template_w < 1 or self.template_h < 1:
            raise ValueError("template dimensions must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.scale_factor <= 1.0:
            raise ValueError("scale_factor must be > 1")
        if self.scale_count < 1:
            raise ValueError("scale_count must be >= 1")
        if self.grid_size(self.scale_count - 1) == (0, 0):
            fit = next(s for s in range(self.scale_count) if self.grid_size(s) == (0, 0))
            raise ValueError(
                f"scale_count {self.scale_count} runs past the image: the template fits at {fit} of its scales"
            )

    def zoom(self, s: int) -> float:
        return self.scale_factor ** s

    def grid_size(self, s: int) -> tuple[int, int]:
        """(nx, ny) valid template positions at scale s; (0, 0) where the
        template no longer fits, which lies past ``scale_count``."""
        zw = int(self.image_w / self.zoom(s))
        zh = int(self.image_h / self.zoom(s))
        if zw < self.template_w or zh < self.template_h:
            return (0, 0)
        nx = (zw - self.template_w) // self.stride + 1
        ny = (zh - self.template_h) // self.stride + 1
        return (nx, ny)

    @cached_property
    def _per_scale(self) -> list[tuple[int, int]]:
        return [self.grid_size(s) for s in range(self.scale_count)]

    @cached_property
    def _offsets(self) -> np.ndarray:
        counts = [nx * ny for nx, ny in self._per_scale]
        return np.concatenate(([0], np.cumsum(counts)))

    @cached_property
    def _grid_sizes(self) -> np.ndarray:
        """``(scale_count, 2)``: ``grid_size(s)`` of every scale, (nx, ny) per row."""
        return np.array(self._per_scale, dtype=np.int64)

    @cached_property
    def _last_cells(self) -> np.ndarray:
        """``(scale_count, 2)``: the last grid cell ``(nx - 1, ny - 1)`` of every
        scale, where a proposal's position is clamped."""
        return self._grid_sizes - 1

    @cached_property
    def _scales(self) -> np.ndarray:
        """Every scale index: maps one point onto all scales at once, and its
        ``take(..., mode="clip")`` clamps an array of scales onto the pyramid."""
        return np.arange(self.scale_count)

    @cached_property
    def _zoom_table(self) -> np.ndarray:
        """``zoom(s)`` for every scale, by Python's power, so equal to it bit for bit."""
        return np.array([self.zoom(s) for s in range(self.scale_count)])

    @cached_property
    def window_count(self) -> int:
        return int(self._offsets[-1])

    def contains(self, w: Window) -> bool:
        if not 0 <= w.s < self.scale_count:
            return False
        nx, ny = self._per_scale[w.s]
        return 0 <= w.x < nx and 0 <= w.y < ny

    def index_of(self, w: Window) -> int:
        """Dense index consistent with enumeration order."""
        if not self.contains(w):
            raise ValueError(f"window {w} outside search space")
        nx, _ = self._per_scale[w.s]
        return int(self._offsets[w.s]) + w.y * nx + w.x

    def window_at(self, index: int) -> Window:
        if not 0 <= index < self.window_count:
            raise IndexError(f"window index {index} out of range")
        s = int(np.searchsorted(self._offsets, index, side="right")) - 1
        rem = index - int(self._offsets[s])
        nx, _ = self._per_scale[s]
        y, x = divmod(rem, nx)
        return Window(x, y, s)

    def coordinates_at(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`window_at` for an integer array of valid dense indices: (x, y, s) arrays."""
        s = np.searchsorted(self._offsets, index, side="right") - 1
        y, x = np.divmod(index - self._offsets[s], self._grid_sizes[s, 0])
        return x, y, s

    def contains_many(self, x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
        """:meth:`contains` for equal-length integer coordinate arrays: one flag per window."""
        inside = (s >= 0) & (s < self.scale_count)
        nx, ny = self._grid_sizes[np.where(inside, s, 0)].T
        return inside & (x >= 0) & (x < nx) & (y >= 0) & (y < ny)

    def grid_coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, s) arrays of every window, in the order of :meth:`windows`."""
        xs, ys, ss = [], [], []
        for s, (nx, ny) in enumerate(self._per_scale):
            xs.append(np.tile(np.arange(nx, dtype=np.int64), ny))
            ys.append(np.repeat(np.arange(ny, dtype=np.int64), nx))
            ss.append(np.full(nx * ny, s, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys), np.concatenate(ss)

    def windows(self) -> Iterator[Window]:
        """Every window: rows top to bottom, cells left to right, scales small to large."""
        for s in range(self.scale_count):
            nx, ny = self._per_scale[s]
            for y in range(ny):
                for x in range(nx):
                    yield Window(x, y, s)

    def centre(self, x, y, s):
        """Original-image centre ``(cx, cy)`` of grid cell ``(x, y)`` at scale
        ``s``: Python floats for integers; for integer arrays, which broadcast,
        float arrays equal bit for bit to the scalar calls."""
        z = self._zoom_table[s] if isinstance(s, np.ndarray) else self.zoom(s)
        return (x * self.stride + self.template_w * 0.5) * z, (y * self.stride + self.template_h * 0.5) * z

    def grid_at(self, cx, cy, s):
        """Real-valued grid coordinates at scale ``s`` of the image point
        ``(cx, cy)``, as-is when out of range: the inverse of :meth:`centre`."""
        z = self._zoom_table[s] if isinstance(s, np.ndarray) else self.zoom(s)
        return (cx / z - self.template_w * 0.5) / self.stride, (cy / z - self.template_h * 0.5) / self.stride

    def to_box(self, w: Window) -> Box:
        """Original-image box covered by the window."""
        if not self.contains(w):
            raise ValueError(f"window {w} outside search space")
        z = self.zoom(w.s)
        return Box(*self.centre(w.x, w.y, w.s), self.template_w * z, self.template_h * z)

    def at_stride(self, stride: int) -> "SearchSpace":
        return replace(self, stride=stride)


def overlap(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    ax0, ax1 = a.cx - a.w * 0.5, a.cx + a.w * 0.5
    ay0, ay1 = a.cy - a.h * 0.5, a.cy + a.h * 0.5
    bx0, bx1 = b.cx - b.w * 0.5, b.cx + b.w * 0.5
    by0, by1 = b.cy - b.h * 0.5, b.cy + b.h * 0.5
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return inter / union
