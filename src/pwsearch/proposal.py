"""Sampling distributions with holes: dented uniform and dented Gaussians.

"Dented" means zero mass on every cell the region book has claimed.  The
uniform draws exactly: one generator call picks a rank among the FREE cells,
and the book returns the cell of that rank.  The mixture draws by rejection:
up to ``n_max`` proposals from the undented base distribution, and the first
FREE one wins, so it never needs the dent's normalizer.  Its proposals are
drawn in groups, each in one pass of generator calls: 64 proposals, then
twice as many each time, up to 1024.  The grouping shapes the random stream,
but not the law of the proposal that wins.

``density_at`` serves tests and diagnostics, and it is exactly the law that
``sample`` draws whenever it returns a window: the undented proposal law on
the cell, divided by that law's mass on the free cells.  For the mixture the
proposal law is the weighted sum of each component's rounded and clamped
normal masses, computed as CDF differences per axis.

``draw_gaussian_window`` draws a whole ``mpw`` stage from a mixture's
undented proposal law in one pass, with the proposals ``sample`` makes.
Every proposal lands on a cell, because every scale of a space holds
windows.

Mixture components are centered on previously drawn windows and share one
spread: one eighth of the template extent in grid cells per spatial axis and
one pyramid step on the scale axis.  Each mixture, however it grew, tables
its components' centres on every scale from the space's ``centre`` and
``grid_at``, and every Gaussian draw reads that table.
"""

from __future__ import annotations

import functools
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


def default_sigma(space: SearchSpace) -> tuple[float, float, float]:
    """Gaussian spread of a component at any scale, in grid-cell / scale-step units."""
    return (
        space.template_w / (8.0 * space.stride),
        space.template_h / (8.0 * space.stride),
        1.0,
    )


_erf = np.frompyfunc(math.erf, 1, 1)  # numpy has no erf, and scipy is for tests only


def _rounded_normal_mass(centre: np.ndarray, sigma: np.ndarray, size: int) -> np.ndarray:
    """``(size, n)``: the law of ``clamp(rint(centre + sigma * z), 0, size - 1)``
    for a standard normal ``z``, one column per centre.  Each cell gets the
    normal mass between its half-integer edges; the clamped tails fall into
    the two edge cells."""
    edges = np.arange(size + 1) - 0.5
    edges[0], edges[-1] = -np.inf, np.inf
    cdf = 0.5 * (1.0 + _erf((edges[:, None] - centre) / (sigma * math.sqrt(2.0))).astype(float))
    return np.diff(cdf, axis=0)


_BATCH = 64  # proposals in a search's first group
_GROUP_CAP = 16 * _BATCH  # proposals drawn in one pass at most


class DentedUniform:
    """Uniform over FREE cells, drawn by rank from the book's free counts."""

    def __init__(self, book: RegionBook, space: SearchSpace):
        self.book = book
        self.space = space

    def density_at(self, w: Window) -> float:
        if self.book.state_at(w) != RegionKind.FREE:
            return 0.0
        return 1.0 / self.book.free_count

    def sample(self, rng: np.random.Generator) -> Window | None:
        """A FREE cell drawn uniformly, or None once the space is exhausted.

        One ``rng.integers(free_count)`` call draws a rank, and the window is
        the FREE cell of that rank in dense index order (``RegionBook.free_cell``).
        """
        free_count = self.book.free_count
        if free_count == 0:
            return None
        return self.book.free_cell(int(rng.integers(free_count)))


class DentedGaussianMixture:
    """Weighted Gaussians around ambiguity windows, zeroed on claimed cells.

    Built from ``(3, n)`` integer means (rows x, y, s), ``n`` nonnegative
    weights, and sigmas (x, y, s) per component ``(3, n)`` or shared
    ``(3,)``.  Components live in arrays: cumulative weights, means, sigmas
    and a ``(scale_count, n)`` table per axis of each mean's original-image
    centre carried onto every scale's grid by ``grid_at``.  With ``n = 0``
    the mixture is a valid zero density; sampling from it is a caller bug.
    """

    def __init__(
        self,
        means: np.ndarray,
        weights: np.ndarray,
        sigma: np.ndarray,
        book: RegionBook,
        space: SearchSpace,
    ):
        self.book = book
        self.space = space
        self.means = means
        self._free_mass = (-1, 0.0)  # (book.free_count, table mass on free cells)
        self._missed = False  # this mixture's last search came up empty (read by _incremental_step)
        self._size = means.shape[1]
        if not self._size:
            return
        if np.any(weights < 0.0):
            raise ValueError("component weights must be nonnegative")
        total = weights.sum()
        if total <= 0.0:
            raise ValueError("component weights must not all be zero")
        self._cumulative = np.cumsum(weights / total)
        self._mean_s = means[2].astype(float)
        sigma = np.asarray(sigma, dtype=float).reshape(3, -1)
        self._sx, self._sy, self._ss = np.broadcast_to(sigma, means.shape)  # read-only views, not copies
        self._gx, self._gy = space.grid_at(*space.centre(*means), np.arange(space.scale_count)[:, None])

    def __len__(self) -> int:
        return self._size

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """Probability that one undented proposal lands on each cell, in
        dense index order; it sums to 1."""
        on_scale = _rounded_normal_mass(self._mean_s, self._ss, self.space.scale_count)
        on_scale *= np.diff(self._cumulative, prepend=0.0)
        parts = []
        for s in range(self.space.scale_count):
            nx, ny = self.space.grid_size(s)
            px = _rounded_normal_mass(self._gx[s], self._sx, nx)
            py = _rounded_normal_mass(self._gy[s], self._sy, ny)
            parts.append(((py * on_scale[s]) @ px.T).ravel())
        return np.concatenate(parts)

    def density_at(self, w: Window) -> float:
        """Probability that ``sample`` returns ``w``, given that it returns a
        window: the proposal law at ``w`` over its mass on the free cells."""
        if not len(self) or self.book.state_at(w) != RegionKind.FREE:
            return 0.0
        table = self._table
        # Claims are permanent, so the free set changes exactly when its size does.
        count, mass = self._free_mass
        if count != self.book.free_count:
            mass = float(table[self.book.flat == 0].sum())
            self._free_mass = (self.book.free_count, mass)
        return float(table[self.space.index_of(w)] / mass) if mass > 0.0 else 0.0

    def _proposer(self, rng: np.random.Generator):
        """``propose(count) -> (x, y, s, index)``: ``count`` undented
        proposals in one pass.  ``rng.random(count)`` picks each proposal's
        component and the row of ``rng.standard_normal((count, 3))`` (x, y, s)
        is quantized around its mean, the scale first, then the position in
        that scale's grid, each rounded and clamped."""
        if not len(self):
            raise ValueError("cannot sample from an empty mixture")
        space = self.space
        n = len(self)
        top = space.scale_count - 1
        nx_table = space._nx_table
        x_hi = nx_table - 1
        y_hi = space._ny_table - 1
        gx = self._gx.ravel()
        gy = self._gy.ravel()

        def propose(count: int):
            comp = self._cumulative.searchsorted(rng.random(count), side="right")
            z = rng.standard_normal((count, 3))
            np.minimum(comp, n - 1, out=comp)
            s = np.rint(self._mean_s.take(comp) + z[:, 2] * self._ss.take(comp)).astype(np.int64)
            np.maximum(s, 0, out=s)
            np.minimum(s, top, out=s)
            cell = s * n + comp
            x = np.rint(gx.take(cell) + z[:, 0] * self._sx.take(comp)).astype(np.int64)
            y = np.rint(gy.take(cell) + z[:, 1] * self._sy.take(comp)).astype(np.int64)
            np.maximum(x, 0, out=x)
            np.minimum(x, x_hi.take(s), out=x)
            np.maximum(y, 0, out=y)
            np.minimum(y, y_hi.take(s), out=y)
            return x, y, s, space._offsets.take(s) + y * nx_table.take(s) + x

        return propose

    def sample(self, rng: np.random.Generator, n_max: int = 1000) -> Window | None:
        """Gaussian proposals until a FREE cell or ``n_max``; None when all missed.

        Proposals come from :meth:`_proposer`, as in
        :func:`draw_gaussian_window`, in groups of ``_BATCH``, then twice as
        many each time up to ``_GROUP_CAP``, and the first free one wins.
        ``_missed`` records whether this search came up empty.
        """
        propose = self._proposer(rng)
        flat = self.book.flat
        start, size = 0, _BATCH
        while start < n_max:
            count = min(size, n_max - start)
            x, y, s, index = propose(count)
            free = flat.take(index) == 0
            j = int(free.argmax())
            if free[j]:
                self._missed = False
                return Window(int(x[j]), int(y[j]), int(s[j]))
            start += count
            size = min(2 * size, _GROUP_CAP)
        self._missed = True
        return None


def draw_gaussian_window(
    mixture: DentedGaussianMixture,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` draws from the mixture's undented proposal law, as
    ``(x, y, s)`` arrays, in one pass of :meth:`DentedGaussianMixture._proposer`;
    on a book never marked, the law ``density_at`` reports."""
    x, y, s, _ = mixture._proposer(rng)(count)
    return x, y, s
