"""Occupancy bookkeeping for rejection and acceptance regions.

A :class:`RegionBook` holds one byte grid per pyramid scale; every cell is
FREE, REJECTED, or ACCEPTED.  A scored window claims its own cell and may mark
a rectangle around it; marks never change an already-claimed cell (first mark
wins), which keeps the three counters single-owner and makes
``n_rejected + n_accepted + free_count == window_count`` a standing identity.
The book also counts the FREE cells of every scale and of every grid row, so
``free_cell`` finds the FREE cell of a given rank by searching the scales,
then one scale's rows, then one row, without scanning the whole book.

Rejection radii come from a :class:`RadiusTable`: the lower a window's
response, the farther from any object it must be, so the larger the
neighborhood that can be labeled negative without scoring it.  Only the first
``active_intervals`` response intervals produce a neighborhood at all.  Marks
optionally propagate to adjacent pyramid scales with per-step rectangle
shrinkage (:class:`ScalePropagation`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .space import SearchSpace, Window


class RegionKind(enum.IntEnum):
    FREE = 0
    REJECTED = 1
    ACCEPTED = 2


class ContractViolation(ValueError):
    """A marking call broke its response-threshold precondition."""


@dataclass(frozen=True)
class RadiusInterval:
    """One response interval: inclusive lower bound plus rectangle ratios."""

    lower: float
    r_x_ratio: float
    r_y_ratio: float


@dataclass(frozen=True)
class RadiusTable:
    """Response-interval lookup table for rejection rectangle radii.

    Intervals are ordered by strictly increasing lower bound; a response
    falls into the last interval whose bound it reaches (responses below the
    first bound clamp to interval 0, so ``-inf`` is the conventional first
    bound).  Ratios must be componentwise nonincreasing across the active
    prefix: less confident rejections never claim more ground.
    """

    intervals: tuple[RadiusInterval, ...]
    active_intervals: int

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("radius table needs at least one interval")
        if not 0 < self.active_intervals <= len(self.intervals):
            raise ValueError("active_intervals out of range")
        bounds = [iv.lower for iv in self.intervals]
        if any(b0 >= b1 for b0, b1 in zip(bounds, bounds[1:])):
            raise ValueError("interval lower bounds must strictly increase")
        active = self.intervals[: self.active_intervals]
        for iv in active:
            if iv.r_x_ratio < 0 or iv.r_y_ratio < 0:
                raise ValueError("active ratios must be nonnegative")
        for a, b in zip(active, active[1:]):
            if b.r_x_ratio > a.r_x_ratio or b.r_y_ratio > a.r_y_ratio:
                raise ValueError("active ratios must be nonincreasing")

    def interval_index(self, response: float) -> int:
        idx = 0
        for i, iv in enumerate(self.intervals):
            if response >= iv.lower:
                idx = i
            else:
                break
        return idx

    def lookup(self, response: float, obj_w: int, obj_h: int) -> tuple[int, int] | None:
        """Rectangle radii in pixels, or None when the interval is inactive."""
        idx = self.interval_index(response)
        if idx >= self.active_intervals:
            return None
        iv = self.intervals[idx]
        return (int(iv.r_x_ratio * obj_w), int(iv.r_y_ratio * obj_h))


@dataclass(frozen=True)
class ScalePropagation:
    """Cross-scale marking rule.

    ``span`` is the maximum scale-step distance reached; with
    ``subtract_interval`` the span shrinks by the radius-table interval index
    (confident rejections reach farther).  Rectangle radii are multiplied by
    ``shrink ** step`` at each step away from the marking scale.
    """

    span: int
    shrink: float
    subtract_interval: bool = False

    def __post_init__(self) -> None:
        if self.span < 0:
            raise ValueError("span must be >= 0")
        if not 0.0 < self.shrink <= 1.0:
            raise ValueError("shrink must be in (0, 1]")


NO_PROPAGATION = ScalePropagation(span=0, shrink=1.0)


class RegionBook:
    """Per-scale occupancy grids with O(1) counters, per-scale and per-row FREE counts and cell classification."""

    def __init__(self, space: SearchSpace):
        self.space = space
        # One flat array in the space's dense index order, cut at its offsets into
        # per-scale grid views: marks, claims and vectorized checks share bytes.
        self.flat = np.zeros(space.window_count, dtype=np.uint8)
        self.grids = [
            self.flat[space._offsets[s] : space._offsets[s + 1]].reshape(ny, nx)
            for s, (nx, ny) in enumerate(space._per_scale)
        ]
        # FREE cells per scale, and per grid row of each scale: _row_free[s][y].
        self._scale_free = [nx * ny for nx, ny in space._per_scale]
        self._row_free = [np.full(ny, nx, dtype=np.int64) for nx, ny in space._per_scale]
        self._n_rejected = 0
        self._n_accepted = 0

    @property
    def n_rejected(self) -> int:
        return self._n_rejected

    @property
    def n_accepted(self) -> int:
        return self._n_accepted

    @property
    def free_count(self) -> int:
        return self.space.window_count - self._n_rejected - self._n_accepted

    def state_at(self, w: Window) -> RegionKind:
        return RegionKind(self.flat[self.space.index_of(w)])

    def mark_rect(
        self, s: int, cx: int, cy: int, rx: int, ry: int, kind: RegionKind = RegionKind.REJECTED
    ) -> int:
        """Claim all still-free cells in a clipped rectangle; returns how many."""
        if kind == RegionKind.FREE:
            raise ValueError("cannot mark cells FREE")
        grid = self.grids[s]
        ny, nx = grid.shape
        x0, x1 = max(0, cx - rx), min(nx, cx + rx + 1)
        y0, y1 = max(0, cy - ry), min(ny, cy + ry + 1)
        if x0 >= x1 or y0 >= y1:
            return 0
        view = grid[y0:y1, x0:x1]
        free = view == 0  # not RegionKind.FREE: numpy compares an array with an IntEnum slowly
        per_row = free.sum(axis=1)
        n = int(per_row.sum())
        if n:
            view[free] = kind
            self._row_free[s][y0:y1] -= per_row
            self._scale_free[s] -= n
            if kind == RegionKind.REJECTED:
                self._n_rejected += n
            else:
                self._n_accepted += n
        return n

    def claim_cell(self, w: Window, kind: RegionKind = RegionKind.REJECTED) -> int:
        """Claim a scored window's own cell so it cannot be drawn again; returns 1, or 0 if already claimed."""
        if kind == RegionKind.FREE:
            raise ValueError("cannot mark cells FREE")
        i = self.space.index_of(w)
        if self.flat[i]:  # not FREE; comparing a numpy scalar with an IntEnum costs ~9 µs
            return 0
        self.flat[i] = kind
        self._row_free[w.s][w.y] -= 1
        self._scale_free[w.s] -= 1
        if kind == RegionKind.REJECTED:
            self._n_rejected += 1
        else:
            self._n_accepted += 1
        return 1

    def free_cell(self, rank: int) -> Window:
        """The FREE cell with ``rank`` FREE cells before it in dense index
        order, for ``0 <= rank < free_count``: its scale from the per-scale
        counts, its row from that scale's row counts, then its column."""
        if not 0 <= rank < self.free_count:
            raise IndexError(f"free cell rank {rank} out of range")
        s = 0
        while rank >= self._scale_free[s]:
            rank -= self._scale_free[s]
            s += 1
        rows = self._row_free[s]
        through = np.cumsum(rows)
        y = int(through.searchsorted(rank, side="right"))
        rank -= int(through[y]) - int(rows[y])
        return Window(int(np.flatnonzero(self.grids[s][y] == 0)[rank]), y, s)


def _mark_region(
    book: RegionBook,
    space: SearchSpace,
    w: Window,
    rx: int,
    ry: int,
    kind: RegionKind,
    propagation: ScalePropagation,
    span: int,
) -> int:
    total = 0
    lo = max(0, w.s - span)
    hi = min(space.scale_count - 1, w.s + span)
    for s2 in range(lo, hi + 1):
        step = abs(s2 - w.s)
        factor = propagation.shrink ** step
        rx2 = int(factor * rx) // space.stride
        ry2 = int(factor * ry) // space.stride
        if s2 == w.s:
            cx, cy = w.x, w.y
        else:
            gx, gy = space.grid_at(*space.centre(w.x, w.y, w.s), s2)
            cx, cy = round(gx), round(gy)
        total += book.mark_rect(s2, cx, cy, rx2, ry2, kind)
    return total


def mark_rejection(
    book: RegionBook,
    space: SearchSpace,
    w: Window,
    response: float,
    table: RadiusTable,
    t_l: float,
    propagation: ScalePropagation = NO_PROPAGATION,
) -> int:
    """Label the neighborhood of a confidently negative window as REJECTED.

    Returns the number of newly claimed cells; inactive response intervals
    claim nothing.  Raises :class:`ContractViolation` unless
    ``response < t_l``.
    """
    if not response < t_l:
        raise ContractViolation(f"mark_rejection needs response < {t_l}, got {response}")
    radii = table.lookup(response, space.template_w, space.template_h)
    if radii is None:
        return 0
    span = propagation.span
    if propagation.subtract_interval:
        span = max(0, span - table.interval_index(response))
    return _mark_region(book, space, w, radii[0], radii[1], RegionKind.REJECTED, propagation, span)


def mark_acceptance(
    book: RegionBook,
    space: SearchSpace,
    w: Window,
    response: float,
    r_a_x: int,
    r_a_y: int,
    t_h: float,
    propagation: ScalePropagation = NO_PROPAGATION,
) -> int:
    """Label the neighborhood of a positively classified window as ACCEPTED.

    Returns the number of newly claimed cells.  Raises
    :class:`ContractViolation` unless ``response >= t_h``.
    """
    if not response >= t_h:
        raise ContractViolation(f"mark_acceptance needs response >= {t_h}, got {response}")
    if r_a_x < 0 or r_a_y < 0:
        raise ValueError("acceptance radii must be nonnegative")
    return _mark_region(book, space, w, r_a_x, r_a_y, RegionKind.ACCEPTED, propagation, propagation.span)
