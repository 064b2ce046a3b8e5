"""Window-generation strategies over one search space.

Four detectors share a trace format:

* ``run_sw`` scores every window of its (typically coarse-stride) space, in
  one batch.
* ``run_mpw`` spends its budget in stages of geometrically decaying size: a
  uniform first stage, then each stage from the undented Gaussian mixture of
  the previous stage's windows, weighted by their normalized responses.  No
  draw within a stage depends on a score from the same stage, so each stage
  is drawn in one batch and scored in one batch.
* ``run_ipw`` draws one window at a time from a blend of a dented uniform and
  a dented Gaussian mixture, and feeds every draw straight back into the
  region book: confident negatives reject a neighborhood, positives claim an
  acceptance region, ambiguous windows become mixture components.  Every
  scored cell is claimed, so the book grows by at least one cell per
  iteration and no cell is ever scored twice.
* ``run_sipw`` is the staged variant: the mixture is rebuilt only at rebuild
  points (ambiguity windows accumulate in a batch between them, and the batch
  size decays geometrically); until the first rebuild all draws are uniform.

Classification against (t_l, t_h) splits draws into rejected / ambiguous /
accepted trace kinds (RPW / ABPW / APW).

A trace holds its records as columns, one list per :class:`TraceRecord` field
(:class:`TraceRecords`).  ``sw`` and ``mpw`` classify a scored batch in numpy
and extend each column by one list, and the incremental detectors append one
value per column per step, so no run builds a ``TraceRecord``; indexing or
iterating the records builds them for a reader that wants rows.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .proposal import (
    DentedGaussianMixture,
    DentedUniform,
    default_sigma,
    draw_gaussian_window,
)
from .regions import (
    NO_PROPAGATION,
    RadiusTable,
    RegionBook,
    RegionKind,
    ScalePropagation,
    mark_acceptance,
    mark_rejection,
)
from .scoring import Scorer, normalize_weights
from .space import Box, SearchSpace, Window, overlap

KIND_REJECTED = "RPW"
KIND_AMBIGUOUS = "ABPW"
KIND_ACCEPTED = "APW"

SOURCE_UNIFORM = "UNIFORM"
SOURCE_GAUSSIAN = "GAUSSIAN"
SOURCE_SCAN = "SCAN"


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds, budget, and marking rules for one detector run."""

    name: str
    algorithm: str  # sw | mpw | ipw | sipw
    t_l: float
    t_h: float
    budget: int = 1
    alpha: float = 0.2
    gamma: float = 0.7
    mpw_stage_count: int = 5
    n_c_star_init: int | None = None  # siPW first rebuild point; default budget // 2
    n_max: int = 1000
    radius_table: RadiusTable | None = None
    r_a_x_ratio: float = 0.0
    r_a_y_ratio: float = 0.0
    accept_propagation: ScalePropagation = NO_PROPAGATION

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.algorithm not in ("sw", "mpw", "ipw", "sipw"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.t_l >= self.t_h:
            raise ValueError("t_l must be below t_h")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.mpw_stage_count < 1:
            raise ValueError("mpw_stage_count must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.n_c_star_init is not None and self.n_c_star_init < 1:
            raise ValueError("n_c_star_init must be >= 1")
        if self.algorithm in ("ipw", "sipw"):
            if self.radius_table is None:
                raise ValueError(f"{self.algorithm} requires a radius_table")
            for k, iv in enumerate(self.radius_table.intervals):
                if iv.lower >= self.t_l:  # only a response below t_l is rejected and reads the table
                    raise ValueError(
                        f"radius_table.intervals[{k}].lower = {iv.lower} is not below t_l = {self.t_l}, "
                        "so no rejection reads that interval"
                    )
        if self.r_a_x_ratio < 0 or self.r_a_y_ratio < 0:
            raise ValueError("acceptance ratios must be nonnegative")

    def acceptance_radii(self, space: SearchSpace) -> tuple[int, int]:
        return (
            int(self.r_a_x_ratio * space.template_w),
            int(self.r_a_y_ratio * space.template_h),
        )


@dataclass(slots=True, init=False)
class TraceRecord:
    """One scored window at ``(x, y, s)`` with the book state right after its
    marks: the fields of its trace line, in line order.  ``sw`` and ``mpw``
    record scored arrays without building a :class:`Window` per window;
    ``window`` builds one on demand, and a ``window=`` argument gives the
    coordinates, so ``dataclasses.replace(rec, window=w)`` moves a record.
    Not frozen, for speed, but never mutated once appended: ``trace_at_budget``
    cuts share records."""

    i: int
    x: int
    y: int
    s: int
    response: float
    kind: str
    source: str
    n_rejected: int
    n_accepted: int
    n_ambiguous: int
    p_uniform: float | None
    stages_evaluated: int

    def __init__(self, i, x, y, s, response, kind, source, n_rejected, n_accepted, n_ambiguous, p_uniform,
                 stages_evaluated, window=None):
        if window is not None:
            x, y, s = window.x, window.y, window.s
        # Three at a time: one twelve-name tuple assignment builds a tuple, ~10% more per record.
        self.i, self.x, self.y = i, x, y
        self.s, self.response, self.kind = s, response, kind
        self.source, self.n_rejected, self.n_accepted = source, n_rejected, n_accepted
        self.n_ambiguous, self.p_uniform, self.stages_evaluated = n_ambiguous, p_uniform, stages_evaluated

    @property
    def window(self) -> Window:
        return Window(self.x, self.y, self.s)


# A trace line's keys, in file order: ``TraceRecord``'s fields, listed once for every module.
TRACE_KEYS = tuple(f.name for f in fields(TraceRecord))
# A record's values, or a TraceRecords' columns, in field order.
_field_values = operator.attrgetter(*TRACE_KEYS)


class TraceRecords(Sequence):
    """A run's records as columns: one list per :class:`TraceRecord` field,
    an attribute of the field's name.  Indexing or iterating builds a
    ``TraceRecord`` on demand, slicing gives a ``TraceRecords`` of sliced
    columns, and ``records[k] = rec`` and ``append`` write a record's values
    into the columns.  The detectors extend the columns directly, so a run
    builds no ``TraceRecord``.  Equal to another ``TraceRecords`` or to a list
    of the same records."""

    __slots__ = TRACE_KEYS

    def __init__(self, rows: Iterable[TraceRecord] = ()):
        for name in TRACE_KEYS:
            setattr(self, name, [])
        for rec in rows:
            self.append(rec)

    @classmethod
    def from_columns(cls, columns: Iterable[list]) -> TraceRecords:
        """Records over ``columns``, one list per field in field order; the lists are not copied."""
        records = cls.__new__(cls)
        for name, column in zip(TRACE_KEYS, columns, strict=True):
            setattr(records, name, column)
        return records

    columns = property(_field_values, doc="The column lists, in field order.")

    def __len__(self) -> int:
        return len(self.i)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return TraceRecords.from_columns([column[k] for column in self.columns])
        return TraceRecord(*[column[k] for column in self.columns])

    def __setitem__(self, k: int, rec: TraceRecord) -> None:
        k = operator.index(k)
        for column, value in zip(self.columns, _field_values(rec)):
            column[k] = value

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord, *self.columns)

    def append(self, rec: TraceRecord) -> None:
        for column, value in zip(self.columns, _field_values(rec)):
            column.append(value)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceRecords):
            return self.columns == other.columns
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraceRecords({list(self)!r})"


@dataclass
class RunTrace:
    """Everything one detector run produced, in draw order.  ``records`` given
    as a list of records is stored as :class:`TraceRecords`."""

    detector: str
    algorithm: str
    seed: int | None
    window_count: int
    records: TraceRecords = field(default_factory=TraceRecords)
    complete: bool = False  # free cells ran out before the budget did
    rebuilds: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.records, TraceRecords):
            self.records = TraceRecords(self.records)

    @property
    def accepted_rows(self) -> list[int]:
        """The positions of the accepted records, in draw order, found by
        ``list.index`` over the kind column; it compares by equality, so kinds
        read back from JSON match too."""
        kinds, rows, k = self.records.kind, [], -1
        try:
            while True:
                k = kinds.index(KIND_ACCEPTED, k + 1)
                rows.append(k)
        except ValueError:
            return rows

    @property
    def accepted(self) -> list[tuple[Window, float]]:
        """The accepted windows and their responses, in draw order."""
        r = self.records
        return [(Window(r.x[k], r.y[k], r.s[k]), r.response[k]) for k in self.accepted_rows]


def nms(candidates: list[tuple[Box, float]], threshold: float = 0.5) -> list[tuple[Box, float]]:
    """Greedy overlap suppression, strongest first.

    Ties break on box geometry so the result never depends on input order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    ordered = sorted(candidates, key=lambda c: (-c[1], c[0].cx, c[0].cy, c[0].w, c[0].h))
    kept: list[tuple[Box, float]] = []
    for box, score in ordered:
        if all(overlap(box, kb) < threshold for kb, _ in kept):
            kept.append((box, score))
    return kept


def mpw_schedule(n_first: int, gamma: float, stages: int) -> list[int]:
    """Geometrically decaying per-stage draw counts, truncated to integers."""
    if n_first < 1:
        raise ValueError("n_first must be >= 1")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if stages < 1:
        raise ValueError("stages must be >= 1")
    return [int(n_first * math.exp(-gamma * (i - 1))) for i in range(1, stages + 1)]


def schedule_for_budget(budget: int, gamma: float, stages: int) -> list[int]:
    """Stage sizes with the schedule's decay whose total is exactly ``budget``.

    Takes the largest first-stage size whose untruncated schedule fits, so
    the truncated one fits too, then adds the remainder to stage 1.
    Degenerates gracefully when the budget is smaller than the stage count.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    denom = sum(math.exp(-gamma * i) for i in range(stages))
    sched = mpw_schedule(max(1, int(budget / denom)), gamma, stages)
    sched[0] += budget - sum(sched)
    return [n for n in sched if n > 0]


# A window's kind by 1 + accepted - rejected: the constants themselves, so a
# batch's kind column shares them.
_KINDS = np.array([KIND_REJECTED, KIND_AMBIGUOUS, KIND_ACCEPTED], dtype=object)


def _classify(response: float, config: DetectorConfig) -> str:
    if response < config.t_l:
        return KIND_REJECTED
    if response >= config.t_h:
        return KIND_ACCEPTED
    return KIND_AMBIGUOUS


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _record_batch(
    trace: RunTrace,
    config: DetectorConfig,
    x: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    source: str,
    responses: np.ndarray,
    stages: np.ndarray,
) -> None:
    """Classify a batch scored at the arrays ``x, y, s`` and extend the trace's
    columns by it, the coordinates as ints; the running count of ambiguous
    windows goes on from the trace's last.  Classified as :func:`_classify`
    does, a NaN response as ambiguous.  No cell is marked: counters stay 0."""
    n = len(responses)
    rejected = responses < config.t_l
    accepted = responses >= config.t_h
    ambiguous = ~(rejected | accepted)
    r = trace.records
    n_ab = r.n_ambiguous[-1] if r.n_ambiguous else 0
    first = len(r) + 1
    r.i.extend(range(first, first + n))
    r.x.extend(x.tolist())
    r.y.extend(y.tolist())
    r.s.extend(s.tolist())
    r.response.extend(responses.tolist())
    r.kind.extend(_KINDS[1 + accepted - rejected].tolist())
    r.source.extend([source] * n)
    r.n_rejected.extend([0] * n)
    r.n_accepted.extend([0] * n)
    r.n_ambiguous.extend((np.cumsum(ambiguous) + n_ab).tolist())
    r.p_uniform.extend([None] * n)
    r.stages_evaluated.extend(stages.tolist())


def run_sw(
    space: SearchSpace,
    scorer: Scorer,
    config: DetectorConfig,
    seed: int | None = None,
) -> RunTrace:
    """Score every window of the space, recorded in enumeration order.

    A scan draws nothing, so ``seed`` is ignored; it is taken so that every
    detector runs through the same call."""
    trace = RunTrace(config.name, "sw", None, space.window_count)
    x, y, s = space.grid_coordinates()
    responses, stages = scorer.score_many(space, x, y, s)
    _record_batch(trace, config, x, y, s, SOURCE_SCAN, responses, stages)
    trace.complete = True
    return trace


def _mixture_from_batch(
    batch: list[tuple[Window, float]],
    book: RegionBook,
    space: SearchSpace,
    previous: DentedGaussianMixture | None = None,
) -> DentedGaussianMixture:
    """The dented mixture of an ambiguity batch: one component per window,
    weighted by its normalized response, with the default spread.  An empty
    batch gives the empty mixture.

    ``previous``, the mixture of all but the batch's last window on this
    book, grows by that window in place and is returned; the weights are
    renormalized from all the responses.
    """
    sigma = default_sigma(space)
    if previous is not None:
        if len(previous) != len(batch) - 1 or previous.book is not book:
            raise ValueError("previous must be the mixture of all but the last window, on this book")
        previous._add(*batch[-1], sigma)
        return previous
    windows = [w for w, _ in batch]
    means = np.array([[w.x for w in windows], [w.y for w in windows], [w.s for w in windows]], dtype=np.int64)
    responses = np.array([resp for _, resp in batch], dtype=float)
    weights = normalize_weights(responses) if batch else np.zeros(0)
    return DentedGaussianMixture(means, weights, sigma, book, space, responses)


def run_mpw(
    space: SearchSpace,
    scorer: Scorer,
    config: DetectorConfig,
    seed: int,
) -> RunTrace:
    """Staged mixture search: uniform first stage, then response-weighted Gaussians.

    Each later stage is drawn in one batch from the undented mixture of the
    previous stage's windows, built on a book that is never marked.
    """
    rng = _rng(seed)
    trace = RunTrace(config.name, "mpw", seed, space.window_count)
    schedule = schedule_for_budget(config.budget, config.gamma, config.mpw_stage_count)
    book = RegionBook(space)
    sigma = default_sigma(space)
    for stage, n_draw in enumerate(schedule):
        if stage:
            mixture = DentedGaussianMixture(np.stack((x, y, s)), normalize_weights(responses), sigma, book, space)
            x, y, s = draw_gaussian_window(mixture, rng, n_draw)
            source = SOURCE_GAUSSIAN
        else:
            x, y, s = space.coordinates_at(rng.integers(space.window_count, size=n_draw))
            source = SOURCE_UNIFORM
        responses, stages = scorer.score_many(space, x, y, s)
        _record_batch(trace, config, x, y, s, source, responses, stages)
    return trace


@dataclass
class _IncrementalState:
    """Book, proposals, and ambiguity batch shared by the incremental detectors."""

    book: RegionBook
    uniform: DentedUniform
    mixture: DentedGaussianMixture
    ambiguous: list[tuple[Window, float]]


def _incremental_step(
    state: _IncrementalState,
    space: SearchSpace,
    scorer: Scorer,
    config: DetectorConfig,
    rng: np.random.Generator,
    i: int,
    p_uniform: float,
    trace: RunTrace,
) -> bool:
    """Draw, score, classify, and mark one window; True if its response was
    ambiguous.  An exhausted space scores nothing, sets ``trace.complete`` and gives False.

    The Gaussian branch falls back to the dented uniform in the same
    iteration when the mixture is empty or its rejection loop exhausts.  A
    mixture whose last search came up empty is not searched again: its
    branch goes straight to the uniform until a new mixture (an ``ipw``
    extension, a ``sipw`` rebuild) replaces it.  The rule reads only the
    past, so a Gaussian draw still follows the mixture's dented law.  A
    search first scans the proposals the mixture's last search drew and did
    not reach, against the book as it is now: they are i.i.d. draws that
    nothing decided since has read, so the law is the same as with fresh
    ones.  The scored cell is claimed, as REJECTED unless accepted: an
    ambiguous response lies below t_h, so excluding it cannot lose a
    detection.
    """
    use_gaussian = len(state.mixture) > 0 and rng.random() >= p_uniform
    w: Window | None = None
    source = SOURCE_UNIFORM
    if use_gaussian and not state.mixture._missed:
        w = state.mixture.sample(rng, config.n_max)
        if w is not None:
            source = SOURCE_GAUSSIAN
    if w is None:
        w = state.uniform.sample(rng)
    if w is None:
        trace.complete = True
        return False

    response, n_stages = scorer.score(space, w)
    kind = _classify(response, config)
    state.book.claim_cell(w, RegionKind.ACCEPTED if kind == KIND_ACCEPTED else RegionKind.REJECTED)
    if kind == KIND_REJECTED:
        mark_rejection(state.book, space, w, response, config.radius_table, config.t_l)
    elif kind == KIND_ACCEPTED:
        r_a_x, r_a_y = config.acceptance_radii(space)
        mark_acceptance(state.book, space, w, response, r_a_x, r_a_y, config.t_h, config.accept_propagation)
    else:
        state.ambiguous.append((w, response))

    r = trace.records
    r.i.append(i)
    r.x.append(w.x)
    r.y.append(w.y)
    r.s.append(w.s)
    r.response.append(response)
    r.kind.append(kind)
    r.source.append(source)
    r.n_rejected.append(state.book.n_rejected)
    r.n_accepted.append(state.book.n_accepted)
    r.n_ambiguous.append(len(state.ambiguous))
    r.p_uniform.append(p_uniform)
    r.stages_evaluated.append(n_stages)
    return kind == KIND_AMBIGUOUS


def run_ipw(
    space: SearchSpace,
    scorer: Scorer,
    config: DetectorConfig,
    seed: int,
) -> RunTrace:
    """Incremental search: every draw updates the dent, ambiguity reshapes the mixture.

    Each ambiguous window extends the mixture by one component, and the
    weights of all components are renormalized from the batch's responses.
    """
    rng = _rng(seed)
    trace = RunTrace(config.name, "ipw", seed, space.window_count)
    book = RegionBook(space)
    state = _IncrementalState(book, DentedUniform(book, space), _mixture_from_batch([], book, space), [])

    for i in range(1, config.budget + 1):
        p_uniform = config.alpha * (1.0 - (book.n_rejected + book.n_accepted) / space.window_count)
        new_ambiguous = _incremental_step(state, space, scorer, config, rng, i, p_uniform, trace)
        if trace.complete:
            break
        if new_ambiguous:
            state.mixture = _mixture_from_batch(state.ambiguous, book, space, state.mixture)
    return trace


def run_sipw(
    space: SearchSpace,
    scorer: Scorer,
    config: DetectorConfig,
    seed: int,
) -> RunTrace:
    """Staged incremental search: the mixture is frozen between rebuild points.

    Until the first rebuild every draw is uniform.  At each rebuild the
    accumulated ambiguity batch becomes the new mixture, the batch is
    flushed, and the next rebuild interval shrinks by ``exp(-gamma)``.
    """
    rng = _rng(seed)
    trace = RunTrace(config.name, "sipw", seed, space.window_count)
    book = RegionBook(space)
    state = _IncrementalState(book, DentedUniform(book, space), _mixture_from_batch([], book, space), [])

    interval = config.n_c_star_init if config.n_c_star_init is not None else config.budget // 2
    interval = max(1, interval)
    threshold = float(interval)
    since_rebuild = 0

    for i in range(1, config.budget + 1):
        if not trace.rebuilds:
            p_uniform = 1.0
        else:
            p_uniform = config.alpha * (1.0 - (book.n_rejected + book.n_accepted) / space.window_count)
        _incremental_step(state, space, scorer, config, rng, i, p_uniform, trace)
        if trace.complete:
            break
        since_rebuild += 1
        if since_rebuild >= threshold:
            state.mixture = _mixture_from_batch(state.ambiguous, book, space)
            state.ambiguous = []
            trace.rebuilds.append(i)
            threshold *= math.exp(-config.gamma)
            since_rebuild = 0
    return trace


def detections_from_trace(
    space: SearchSpace,
    trace: RunTrace,
    nms_threshold: float = 0.5,
) -> tuple[tuple[Box, float], ...]:
    """Accepted windows as original-image boxes, after overlap suppression."""
    boxes = [(space.to_box(w), resp) for w, resp in trace.accepted]
    return tuple(nms(boxes, nms_threshold))
