"""Sampling distributions with holes: dented uniform and dented Gaussians.

"Dented" means zero mass on every cell the region book has claimed.  The
uniform draws exactly: one generator call picks a rank among the FREE cells,
and the book returns the cell of that rank.  The mixture draws by rejection:
up to ``n_max`` proposals from the undented base distribution, and the first
FREE one wins, so it never needs the dent's normalizer.  Its proposals are
drawn in groups, each in one pass of generator calls: 64 proposals, then
twice as many each time, up to 1024.  A search resumes where the last one
stopped: it first scans, against the book as it is now, the proposals that
the last search with the same generator drew and did not reach, and only
then draws fresh groups.  A winner is chosen by reading only the proposals
up to it, so the unscanned ones are i.i.d. draws that nothing decided since
has read: every search still returns the first FREE cell among at most
``n_max`` i.i.d. proposals.  The grouping and the resumption shape the
random stream, but not the law of the proposal that wins.  Growing the
mixture discards what it kept, which follows the old law, and so does a call
with another generator, which then draws as from a fresh mixture.

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
one pyramid step on the scale axis.  A mixture owns its component arrays,
one row per component: means, scale means, spreads and each component's
centre on every scale from the space's ``centre`` and ``grid_at``, which the
constructor writes in place into one C-ordered table, so that the flat
(component, scale) rows a draw gathers from are a view of it.  ``ipw``
keeps one mixture and grows it in place: a new component fills the next
row, the arrays double their capacity when full, and only the cumulative
weights are renormalized over all components.  The renormalization shifts
the responses by their running minimum and makes ``normalize_weights``'
operations in its order, so a grown mixture equals a fresh build bit for
bit without checking its stored responses again; the constructor refuses
a non-finite weight or response, so every stored one is finite.  A
Gaussian draw reads the arrays as they are, a few gathers per group of
proposals, with each proposal clamped to its scale's last cell from a
per-scale table on the space.  FREE is 0, so a group's first FREE proposal
is the first minimum of its cells' states: one ``argmin``.
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
_ZERO = np.zeros((), dtype=np.int64)  # a proposal's lowest cell; a Python 0 is converted on every call
_NOTHING = (  # the (xy, s, index) of no proposals, as a mixture keeps when it has none to scan
    np.zeros((0, 2), dtype=np.int64),
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
)


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


def _with_room(a: np.ndarray, capacity: int) -> np.ndarray:
    """``a`` copied into a new array of ``capacity`` rows; the rows past it are unset."""
    room = np.empty((capacity,) + a.shape[1:], dtype=a.dtype)
    room[: len(a)] = a
    return room


class DentedGaussianMixture:
    """Weighted Gaussians around ambiguity windows, zeroed on claimed cells.

    Built from ``(3, n)`` integer means (rows x, y, s), ``n`` finite,
    nonnegative weights, sigmas (x, y, s) per component ``(3, n)`` or shared
    ``(3,)``, finite and positive, and optionally the ``n`` finite responses
    the weights were normalized from, which growth renormalizes
    (``responses`` is None without them).  Components live in arrays, one
    row per component: means, float scale means, spreads and a
    ``(n, scale_count, 2)`` table of each mean's original-image centre
    carried onto every scale's grid by ``grid_at``, next to the cumulative
    weights.  With ``n = 0`` the mixture
    is a valid zero density; sampling from it is a caller bug.
    """

    def __init__(
        self,
        means: np.ndarray,
        weights: np.ndarray,
        sigma: np.ndarray,
        book: RegionBook,
        space: SearchSpace,
        responses: np.ndarray | None = None,
    ):
        n = means.shape[1]
        if np.shape(weights) != (n,):
            raise ValueError(f"{n} components need {n} weights, got shape {np.shape(weights)}")
        if responses is not None and np.shape(responses) != (n,):
            raise ValueError(f"{n} components need {n} responses, got shape {np.shape(responses)}")
        sigma = np.asarray(sigma, dtype=float).reshape(3, -1)
        if not ((sigma > 0.0) & (sigma < math.inf)).all():
            raise ValueError("every spread must be finite and positive")
        if responses is not None and not np.isfinite(responses).all():
            raise ValueError("responses must be finite")
        cumulative = np.zeros(0)
        if n:
            if not ((weights >= 0.0) & (weights < math.inf)).all():
                raise ValueError("component weights must be finite and nonnegative")
            total = weights.sum()
            if total <= 0.0:
                raise ValueError("component weights must not all be zero")
            cumulative = np.cumsum(weights / total)
        self.book = book
        self.space = space
        self._size = n
        self._cumulative = cumulative
        self._inner = cumulative[:-1]
        # The arrays hold exactly n rows, so the first _add moves them to new
        # ones and the caller's means and responses are never written.
        self._means = np.asarray(means, dtype=np.int64).T  # row i: component i's (x, y, s)
        self._responses = None if responses is None else np.asarray(responses, dtype=float)
        # The responses' running minimum, which _add shifts them by.
        self._low = float(self._responses.min()) if n and responses is not None else math.inf
        self._mean_s = self._means[:, 2].astype(float)
        self._spread = np.broadcast_to(sigma.T, (n, 3)).copy()  # row i: (sx, sy, ss)
        gx, gy = space.grid_at(*space.centre(*means), space._scales[:, None])  # (scale_count, n): the faster order
        # Written in place into a C-ordered table, so that _centres is a view of it, not a copy.
        self._centre_table = np.stack((gx.T, gy.T), axis=-1, out=np.empty((n, space.scale_count, 2)))
        self._centres = self._centre_table.reshape(-1, 2)  # row comp * scale_count + s
        self._free_mass = (-1, 0.0)  # (book.free_count, table mass on free cells)
        self._missed = False  # this mixture's last search came up empty (read by _incremental_step)
        # The last group's (xy, s, index), the position of its first unscanned
        # proposal, and the generator that drew it.
        self._kept, self._next, self._rng = _NOTHING, 0, None

    @property
    def means(self) -> np.ndarray:
        """``(3, n)``: the components' means, rows x, y, s."""
        return self._means[: self._size].T

    @property
    def responses(self) -> np.ndarray | None:
        return None if self._responses is None else self._responses[: self._size]

    def _add(self, w: Window, response: float, sigma) -> None:
        """Grow by a component at ``w`` with spread ``sigma``, all weights
        renormalized from the responses as ``normalize_weights`` does.

        The component fills the next row of the arrays, whose capacity
        doubles when full; a search reads them whole, since it never draws a
        component index past the size.  The weights are renormalized in
        ``normalize_weights``' operations and order, bit for bit, from the
        running minimum of the responses, which are all finite: the stored
        ones are never checked again.  The tables built from the old
        components, the record of the last search and the proposals it kept
        go with them: the kept ones were drawn from the old law."""
        if self._responses is None:
            raise ValueError("a mixture built without responses cannot grow")
        if not math.isfinite(response):  # refused before any row is written
            raise ValueError("responses must be finite")
        space = self.space
        n = self._size
        if n == len(self._responses):
            capacity = max(2 * n, 16)
            self._means = _with_room(self._means, capacity)
            self._responses = _with_room(self._responses, capacity)
            self._mean_s = _with_room(self._mean_s, capacity)
            self._spread = _with_room(self._spread, capacity)
            self._centre_table = _with_room(self._centre_table, capacity)
            self._centres = self._centre_table.reshape(-1, 2)
        self._means[n] = w.x, w.y, w.s
        self._responses[n] = response
        self._mean_s[n] = w.s
        self._spread[n] = sigma
        # grid_at's operations on every scale, in place over the contiguous row
        row = self._centre_table[n]
        np.divide(space.centre(w.x, w.y, w.s), space._zoom_column, out=row)
        np.subtract(row, space._half_template, out=row)
        np.divide(row, space.stride, out=row)
        self._size = n = n + 1
        if response < self._low:
            self._low = response
        shifted = self._responses[:n]
        if self._low < 0.0:
            shifted = shifted - self._low
        total = shifted.sum()
        weights = shifted / total if total > 0.0 else np.full(n, 1.0 / n)
        self._cumulative = (weights / weights.sum()).cumsum()
        self._inner = self._cumulative[:-1]
        self.__dict__.pop("_table", None)
        self._free_mass = (-1, 0.0)
        self._missed = False
        self._kept, self._next = _NOTHING, 0

    def __len__(self) -> int:
        return self._size

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """Probability that one undented proposal lands on each cell, in
        dense index order; it sums to 1."""
        n = self._size
        spread = self._spread[:n]
        centres = self._centre_table
        on_scale = _rounded_normal_mass(self._mean_s[:n], spread[:, 2], self.space.scale_count)
        on_scale *= np.diff(self._cumulative, prepend=0.0)
        parts = []
        for s in range(self.space.scale_count):
            nx, ny = self.space.grid_size(s)
            px = _rounded_normal_mass(centres[:n, s, 0], spread[:, 0], nx)
            py = _rounded_normal_mass(centres[:n, s, 1], spread[:, 1], ny)
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

    def _propose(self, rng: np.random.Generator, count: int):
        """``(xy, s, index)``: ``count`` undented proposals in one pass, as a
        ``(count, 2)`` array of grid cells, their scales and dense indices.
        ``rng.random(count)`` picks each proposal's component and the row of
        ``rng.standard_normal((count, 3))`` (x, y, s) is quantized around its
        mean, the scale first, then the position in that scale's grid, each
        rounded and clamped."""
        if not self._size:
            raise ValueError("cannot sample from an empty mixture")
        space = self.space
        # searchsorted over all but the last cumulative weight never passes n - 1
        comp = self._inner.searchsorted(rng.random(count), side="right")
        z = rng.standard_normal((count, 3))
        z *= self._spread.take(comp, axis=0)
        s = np.rint(self._mean_s.take(comp) + z[:, 2]).astype(np.int64)
        s = space._scales.take(s, mode="clip")  # clamped to the pyramid
        xy = np.rint(self._centres.take(comp * space.scale_count + s, axis=0) + z[:, :2]).astype(np.int64)
        np.maximum(xy, _ZERO, out=xy)
        np.minimum(xy, space._last_cells.take(s, axis=0), out=xy)
        index = space._offsets.take(s) + xy[:, 1] * space._grid_sizes[:, 0].take(s) + xy[:, 0]
        return xy, s, index

    def sample(self, rng: np.random.Generator, n_max: int = 1000) -> Window | None:
        """Gaussian proposals until a FREE cell or ``n_max``; None when all missed.

        Proposals come from :meth:`_propose`, as in
        :func:`draw_gaussian_window`.  A search first scans what the last
        search with the same generator left unscanned of its last group,
        against the book as it is now; then it draws fresh groups for the
        rest of ``n_max``: ``_BATCH`` proposals, then twice as many each time
        up to ``_GROUP_CAP``.  The first free one wins: FREE is 0, so it is
        the first minimum of the scanned cells' states.  The proposals past
        it are kept for the next search, and an empty search keeps none.
        ``_missed`` records whether this search came up empty.
        """
        flat = self.book.flat
        if rng is not self._rng:  # another generator's proposals are not this stream's
            self._rng, self._kept, self._next = rng, _NOTHING, 0
        xy, s, index = self._kept
        begin, start, size = self._next, 0, _BATCH
        while start < n_max:
            if begin == len(index):  # everything kept is scanned: a fresh group
                xy, s, index = self._kept = self._propose(rng, min(size, n_max - start))
                begin, size = 0, min(2 * size, _GROUP_CAP)
            end = min(len(index), begin + n_max - start)
            states = flat.take(index[begin:end])
            j = int(states.argmin())  # a Python int keeps the cursor arithmetic off numpy scalars
            if not states[j]:
                j += begin
                self._next = j + 1
                self._missed = False
                x, y = xy[j].tolist()
                return Window(x, y, int(s[j]))
            start += end - begin
            begin = end
        self._kept, self._next = _NOTHING, 0
        self._missed = True
        return None


def draw_gaussian_window(
    mixture: DentedGaussianMixture,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` draws from the mixture's undented proposal law, as
    ``(x, y, s)`` arrays, in one pass of :meth:`DentedGaussianMixture._propose`;
    on a book never marked, the law ``density_at`` reports."""
    xy, s, _ = mixture._propose(rng, count)
    return xy[:, 0], xy[:, 1], s
