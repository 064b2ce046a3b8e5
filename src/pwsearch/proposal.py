"""Sampling distributions with holes: dented uniform and dented Gaussians.

"Dented" means zero mass on every cell the region book has claimed.  Draws
use plain rejection sampling (up to ``n_max`` proposals from the undented
base distribution, returning the first FREE hit), so the samplers never need
the dent's normalizer; densities renormalize analytically over free cells and
are only exact where that matters, in tests and diagnostics.

Mixture components are centered on previously drawn ambiguity windows.  The
per-component spread follows the window's own scale: one eighth of the
template extent in grid cells per spatial axis and one pyramid step on the
scale axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import RegionBook, RegionKind
from .space import SearchSpace, Window


@dataclass(frozen=True)
class MixtureWeights:
    """Probability of drawing from the dented uniform vs. the dented mixture."""

    p_uniform: float
    p_gaussian: float


def mixture_weights(alpha: float, n_rejected: int, n_accepted: int, total: int) -> MixtureWeights:
    """Exploration weight decays with the claimed fraction of the space.

    ``p_uniform = alpha * (1 - (n_rejected + n_accepted) / total)``; the
    remainder goes to the Gaussian mixture.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if total <= 0:
        raise ValueError("total must be positive")
    claimed = n_rejected + n_accepted
    if not 0 <= claimed <= total:
        raise ValueError("claimed cell count out of range")
    p_u = alpha * (1.0 - claimed / total)
    return MixtureWeights(p_u, 1.0 - p_u)


def default_sigma(space: SearchSpace, s: int) -> tuple[float, float, float]:
    """Gaussian spread for a component at scale s, in grid-cell / scale-step units."""
    return (
        space.template_w / (8.0 * space.stride),
        space.template_h / (8.0 * space.stride),
        1.0,
    )


@dataclass(frozen=True)
class GaussianComponent:
    mean: Window
    weight: float
    sigma: tuple[float, float, float]


def draw_gaussian_window(
    space: SearchSpace,
    mean: Window,
    sigma: tuple[float, float, float],
    rng: np.random.Generator,
) -> Window | None:
    """One quantized 3-D Gaussian draw around ``mean``.

    The scale is drawn first (rounded, clamped to the pyramid), then the
    spatial offset in that scale's grid (rounded, clamped to its bounds).
    Returns None when the landed scale has no valid positions.
    """
    sx, sy, ss = sigma
    s = int(round(mean.s + rng.normal(0.0, ss)))
    s = min(max(s, 0), space.scale_count - 1)
    nx, ny = space.grid_size(s)
    if nx == 0:
        return None
    gx, gy = space.project(mean, s)
    x = int(round(gx + rng.normal(0.0, sx)))
    y = int(round(gy + rng.normal(0.0, sy)))
    x = min(max(x, 0), nx - 1)
    y = min(max(y, 0), ny - 1)
    return Window(x, y, s)


_BATCH = 64  # rejection-loop proposals drawn per vectorized step


class DentedUniform:
    """Uniform over FREE cells, sampled by rejection from the full grid."""

    def __init__(self, book: RegionBook, space: SearchSpace):
        if space.window_count == 0:
            raise ValueError("search space has no windows")
        self.book = book
        self.space = space

    def density_at(self, w: Window) -> float:
        if self.book.state_at(w) != RegionKind.FREE:
            return 0.0
        return 1.0 / self.book.free_count

    def sample(self, rng: np.random.Generator, n_max: int = 1000) -> Window | None:
        """A FREE cell drawn uniformly, or None once the space is exhausted.

        Up to ``n_max`` rejection proposals are tried first, in fixed-size
        batches (a speed matter only: the accepted cell is still the first
        free proposal in order).  When the loop comes up empty but free cells
        remain, one is drawn from the explicit free set, so None strictly
        means ``free_count == 0``.
        """
        if self.book.free_count == 0:
            return None
        n = self.space.window_count
        flat = self.book.flat
        remaining = n_max
        while remaining > 0:
            k = min(_BATCH, remaining)
            remaining -= k
            indices = rng.integers(0, n, size=k)
            hits = np.nonzero(flat[indices] == 0)[0]
            if hits.size:
                return self.space.window_at(int(indices[hits[0]]))
        free = np.flatnonzero(flat == 0)
        return self.space.window_at(int(rng.choice(free)))


class DentedGaussianMixture:
    """Weighted Gaussians around ambiguity windows, zeroed on claimed cells.

    An empty mixture is a valid zero density; sampling from it is a caller
    bug.  ``density_at`` renormalizes each component over the free cells of
    the current book state (cached until the book changes), so densities over
    the whole grid sum to one whenever the mixture is nonempty.
    """

    def __init__(
        self,
        components: tuple[GaussianComponent, ...],
        book: RegionBook,
        space: SearchSpace,
    ):
        self.components = components
        self.book = book
        self.space = space
        if components:
            weights = np.array([c.weight for c in components], dtype=float)
            if np.any(weights < 0.0):
                raise ValueError("component weights must be nonnegative")
            total = weights.sum()
            if total <= 0.0:
                raise ValueError("component weights must not all be zero")
            self._cumulative = np.cumsum(weights / total)
            # Component parameters as arrays for the vectorized sampler; the
            # means are kept as original-image centers so a draw landing on
            # any scale can be projected with one zoom-table lookup.
            zooms = np.array([space.zoom(c.mean.s) for c in components])
            self._mean_cx = (
                np.array([c.mean.x for c in components]) * space.stride + space.template_w * 0.5
            ) * zooms
            self._mean_cy = (
                np.array([c.mean.y for c in components]) * space.stride + space.template_h * 0.5
            ) * zooms
            self._mean_s = np.array([c.mean.s for c in components], dtype=float)
            self._sigma = np.array([c.sigma for c in components], dtype=float)
        else:
            self._cumulative = np.empty(0)
        self._norm_cache: tuple[int, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.components)

    @classmethod
    def empty(cls, book: RegionBook, space: SearchSpace) -> "DentedGaussianMixture":
        return cls((), book, space)

    def _component_scores(self, comp: GaussianComponent, s: int) -> np.ndarray:
        """Unnormalized component density over every cell of scale s."""
        nx, ny = self.space.grid_size(s)
        if nx == 0:
            return np.zeros((0, 0))
        sx, sy, ss = comp.sigma
        gx, gy = self.space.project(comp.mean, s)
        xs = (np.arange(nx) - gx) / sx
        ys = (np.arange(ny) - gy) / sy
        ds = (s - comp.mean.s) / ss
        return np.exp(-0.5 * (xs[None, :] ** 2 + ys[:, None] ** 2 + ds**2))

    def _normalizers(self) -> np.ndarray:
        """Per-component sums over currently free cells."""
        cached = self._norm_cache
        if cached is not None and cached[0] == self.book.version:
            return cached[1]
        norms = np.zeros(len(self.components))
        for i, comp in enumerate(self.components):
            total = 0.0
            for s in range(self.space.scale_count):
                scores = self._component_scores(comp, s)
                if scores.size:
                    total += float(scores[self.book.free_mask(s)].sum())
            norms[i] = total
        self._norm_cache = (self.book.version, norms)
        return norms

    def density_at(self, w: Window) -> float:
        if not self.components:
            return 0.0
        if self.book.state_at(w) != RegionKind.FREE:
            return 0.0
        norms = self._normalizers()
        weights = np.diff(np.concatenate(([0.0], self._cumulative)))
        density = 0.0
        for comp, weight, norm in zip(self.components, weights, norms):
            if norm <= 0.0:
                continue
            sx, sy, ss = comp.sigma
            gx, gy = self.space.project(comp.mean, w.s)
            score = math.exp(
                -0.5
                * (
                    ((w.x - gx) / sx) ** 2
                    + ((w.y - gy) / sy) ** 2
                    + ((w.s - comp.mean.s) / ss) ** 2
                )
            )
            density += weight * score / norm
        return density

    def sample(self, rng: np.random.Generator, n_max: int = 1000) -> Window | None:
        """Component choice, then Gaussian draws until a FREE cell or ``n_max``.

        Each proposal picks a component by weight and quantizes a 3-D
        Gaussian draw around its mean exactly like
        :func:`draw_gaussian_window`; proposals run in fixed-size batches and
        the first free one wins.
        """
        if not self.components:
            raise ValueError("cannot sample from an empty mixture")
        space = self.space
        flat = self.book.flat
        last = len(self.components) - 1
        remaining = n_max
        while remaining > 0:
            k = min(_BATCH, remaining)
            remaining -= k
            comp = np.searchsorted(self._cumulative, rng.random(k), side="right")
            np.minimum(comp, last, out=comp)
            z = rng.standard_normal((k, 3))
            s = np.rint(self._mean_s[comp] + z[:, 2] * self._sigma[comp, 2]).astype(np.int64)
            np.clip(s, 0, space.scale_count - 1, out=s)
            nx = space._nx_table[s]
            ny = space._ny_table[s]
            zoom = space._zoom_table[s]
            gx = (self._mean_cx[comp] / zoom - space.template_w * 0.5) / space.stride
            gy = (self._mean_cy[comp] / zoom - space.template_h * 0.5) / space.stride
            x = np.rint(gx + z[:, 0] * self._sigma[comp, 0]).astype(np.int64)
            y = np.rint(gy + z[:, 1] * self._sigma[comp, 1]).astype(np.int64)
            np.clip(x, 0, np.maximum(nx - 1, 0), out=x)
            np.clip(y, 0, np.maximum(ny - 1, 0), out=y)
            valid = nx > 0
            index = space._offsets[s] + y * nx + x
            free = valid & (flat[np.where(valid, index, 0)] == 0)
            hits = np.nonzero(free)[0]
            if hits.size:
                j = int(hits[0])
                return Window(int(x[j]), int(y[j]), int(s[j]))
        return None
