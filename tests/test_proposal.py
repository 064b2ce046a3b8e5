"""Dented samplers: blending weights, uniform and Gaussian proposal draws."""

import numpy as np
import pytest
from scipy import stats

from pwsearch import (
    DentedGaussianMixture,
    DentedUniform,
    RegionBook,
    RegionKind,
    SearchSpace,
    Window,
    mixture_weights,
)
from pwsearch.detectors import _mixture_from_batch
from pwsearch.proposal import default_sigma, draw_gaussian_window
from pwsearch.scoring import normalize_weights

from conftest import PYRAMID


@pytest.fixture
def flat_space():
    # single scale, 40 x 25 grid: exactly 1000 cells
    return SearchSpace(84, 54, 6, 6, stride=2, scale_factor=2.0, scale_count=1)


def mark_cells(book, space, indices):
    for i in indices:
        book.claim_cell(space.window_at(int(i)), RegionKind.REJECTED)


# --- blending weights -----------------------------------------------------


def test_mixture_weights_decay_with_coverage():
    assert mixture_weights(0.2, 0, 0, 100).p_uniform == pytest.approx(0.2)
    assert mixture_weights(0.2, 30, 20, 100).p_uniform == pytest.approx(0.1)
    assert mixture_weights(0.2, 100, 0, 100).p_uniform == 0.0
    w = mixture_weights(0.35, 10, 5, 60)
    assert w.p_uniform + w.p_gaussian == pytest.approx(1.0)


def test_mixture_weights_validation():
    with pytest.raises(ValueError):
        mixture_weights(1.2, 0, 0, 100)
    with pytest.raises(ValueError):
        mixture_weights(0.2, 0, 0, 0)
    with pytest.raises(ValueError):
        mixture_weights(0.2, 80, 30, 100)


def test_default_sigma_tracks_template_and_stride():
    sp = SearchSpace(640, 480, 64, 128, stride=1, scale_factor=1.05, scale_count=2)
    assert default_sigma(sp) == (8.0, 16.0, 1.0)
    assert default_sigma(sp.at_stride(8)) == (1.0, 2.0, 1.0)


# --- dented uniform -------------------------------------------------------


def test_uniform_never_returns_marked(flat_space, rng):
    book = RegionBook(flat_space)
    marked = rng.choice(flat_space.window_count, size=300, replace=False)
    mark_cells(book, flat_space, marked)
    sampler = DentedUniform(book, flat_space)
    marked_set = set(int(i) for i in marked)
    for _ in range(2000):
        w = sampler.sample(rng)
        assert w is not None
        assert flat_space.index_of(w) not in marked_set


def test_uniform_is_uniform_over_free_cells(flat_space, rng):
    book = RegionBook(flat_space)
    marked = rng.choice(flat_space.window_count, size=300, replace=False)
    mark_cells(book, flat_space, marked)
    sampler = DentedUniform(book, flat_space)
    counts = np.zeros(flat_space.window_count, dtype=int)
    for _ in range(20000):
        counts[flat_space.index_of(sampler.sample(rng))] += 1
    free = np.ones(flat_space.window_count, dtype=bool)
    free[marked] = False
    assert counts[~free].sum() == 0
    result = stats.chisquare(counts[free])
    assert result.pvalue > 0.001


def test_uniform_density(flat_space, rng):
    book = RegionBook(flat_space)
    mark_cells(book, flat_space, range(100))
    sampler = DentedUniform(book, flat_space)
    assert sampler.density_at(flat_space.window_at(5)) == 0.0
    assert sampler.density_at(flat_space.window_at(500)) == pytest.approx(1 / 900)
    total = sum(sampler.density_at(w) for w in flat_space.windows())
    assert total == pytest.approx(1.0, abs=1e-6)


def test_uniform_exhausts_to_none(rng):
    sp = SearchSpace(16, 16, 8, 8, stride=8, scale_factor=2.0, scale_count=1)
    book = RegionBook(sp)
    mark_cells(book, sp, range(sp.window_count))
    assert DentedUniform(book, sp).sample(rng) is None


def test_uniform_finds_a_single_free_cell(flat_space, rng):
    """A single surviving cell is drawn every time, in one generator call."""
    book = RegionBook(flat_space)
    keep = 777
    mark_cells(book, flat_space, [i for i in range(flat_space.window_count) if i != keep])
    sampler = DentedUniform(book, flat_space)
    for _ in range(20):
        assert sampler.sample(rng) == flat_space.window_at(keep)


def test_uniform_deterministic_under_seed(flat_space):
    book = RegionBook(flat_space)
    mark_cells(book, flat_space, range(50))
    sampler = DentedUniform(book, flat_space)
    a = [sampler.sample(np.random.default_rng(7)) for _ in range(1)]
    b = [sampler.sample(np.random.default_rng(7)) for _ in range(1)]
    assert a == b
    seq1 = np.random.default_rng(11)
    seq2 = np.random.default_rng(11)
    assert [sampler.sample(seq1) for _ in range(20)] == [sampler.sample(seq2) for _ in range(20)]


# --- dented mixture -------------------------------------------------------


def mixture_of(components, book, space):
    """The mixture of ``(mean, weight, (sx, sy, ss))`` triples."""
    means = np.array([(m.x, m.y, m.s) for m, _, _ in components], dtype=np.int64).reshape(-1, 3).T
    weights = np.array([weight for _, weight, _ in components], dtype=float)
    sigmas = np.array([sigma for _, _, sigma in components], dtype=float).reshape(-1, 3).T
    return DentedGaussianMixture(means, weights, sigmas, book, space)


def narrow(mean, weight):
    return (mean, weight, (1.0, 1.0, 1e-9))


def test_mixture_respects_component_weights(flat_space, rng):
    book = RegionBook(flat_space)
    left = narrow(Window(5, 12, 0), 0.9)
    right = narrow(Window(34, 12, 0), 0.1)
    mixture = mixture_of((left, right), book, flat_space)
    picks = [mixture.sample(rng) for _ in range(5000)]
    frac_left = np.mean([w.x < 20 for w in picks])
    assert frac_left == pytest.approx(0.9, abs=0.03)


def test_mixture_weights_are_renormalized(flat_space, rng):
    book = RegionBook(flat_space)
    a = (Window(5, 12, 0), 3.0, (1.0, 1.0, 1e-9))
    b = (Window(34, 12, 0), 1.0, (1.0, 1.0, 1e-9))
    mixture = mixture_of((a, b), book, flat_space)
    picks = [mixture.sample(rng) for _ in range(4000)]
    frac_a = np.mean([w.x < 20 for w in picks])
    assert frac_a == pytest.approx(0.75, abs=0.03)


def test_mixture_never_returns_marked(flat_space, rng):
    book = RegionBook(flat_space)
    mean = Window(20, 12, 0)
    # wall off a ring two cells wide around the mean, leaving the mean free
    for x in range(16, 25):
        for y in range(8, 17):
            if (x, y) != (mean.x, mean.y):
                book.claim_cell(Window(x, y, 0))
    mixture = mixture_of((narrow(mean, 1.0),), book, flat_space)
    for _ in range(500):
        w = mixture.sample(rng)
        assert w is not None
        assert book.state_at(w) == RegionKind.FREE or w == mean  # the returned cell was free when drawn


def test_mixture_exhausts_to_none(rng):
    sp = SearchSpace(16, 16, 8, 8, stride=8, scale_factor=2.0, scale_count=1)
    book = RegionBook(sp)
    for w in sp.windows():
        book.claim_cell(w)
    mixture = mixture_of((narrow(Window(0, 0, 0), 1.0),), book, sp)
    assert mixture.sample(rng, n_max=100) is None


def test_empty_mixture_refuses_to_sample(flat_space, rng):
    book = RegionBook(flat_space)
    mixture = _mixture_from_batch([], book, flat_space)
    assert len(mixture) == 0
    with pytest.raises(ValueError):
        mixture.sample(rng)


def test_mixture_validation(flat_space):
    book = RegionBook(flat_space)
    with pytest.raises(ValueError):
        mixture_of((narrow(Window(0, 0, 0), -1.0),), book, flat_space)
    with pytest.raises(ValueError):
        mixture_of((narrow(Window(0, 0, 0), 0.0), narrow(Window(1, 0, 0), 0.0)), book, flat_space)


def test_mixture_density_sums_to_one(flat_space, rng):
    book = RegionBook(flat_space)
    mark_cells(book, flat_space, rng.choice(flat_space.window_count, 250, replace=False))
    comps = (
        (Window(10, 10, 0), 0.6, (2.0, 2.0, 1.0)),
        (Window(30, 14, 0), 0.4, (3.0, 1.5, 1.0)),
    )
    mixture = mixture_of(comps, book, flat_space)
    total = sum(mixture.density_at(w) for w in flat_space.windows())
    assert total == pytest.approx(1.0, abs=1e-6)


def test_mixture_density_zero_on_marked(flat_space):
    book = RegionBook(flat_space)
    book.claim_cell(Window(10, 10, 0))
    mixture = mixture_of((narrow(Window(10, 10, 0), 1.0),), book, flat_space)
    assert mixture.density_at(Window(10, 10, 0)) == 0.0


def test_mixture_density_tracks_book_changes(flat_space):
    book = RegionBook(flat_space)
    comps = ((Window(20, 12, 0), 1.0, (2.0, 2.0, 1.0)),)
    mixture = mixture_of(comps, book, flat_space)
    before = mixture.density_at(Window(21, 12, 0))
    book.mark_rect(0, 20, 12, 0, 0)  # claim the mode
    after = mixture.density_at(Window(21, 12, 0))
    assert after > before  # mass redistributes onto the remaining cells
    total = sum(mixture.density_at(w) for w in flat_space.windows())
    assert total == pytest.approx(1.0, abs=1e-6)


def test_mixture_sampling_matches_density_frequencies(flat_space, rng):
    """Observed draw frequencies agree with density_at across free cells."""
    book = RegionBook(flat_space)
    mark_cells(book, flat_space, range(0, 1000, 7))
    comps = ((Window(20, 12, 0), 1.0, (3.0, 3.0, 1.0)),)
    mixture = mixture_of(comps, book, flat_space)
    n = 30000
    counts = np.zeros(flat_space.window_count)
    for _ in range(n):
        counts[flat_space.index_of(mixture.sample(rng))] += 1
    density = np.array([mixture.density_at(w) for w in flat_space.windows()])
    expected = density * n
    keep = expected > 5  # chi-square wants populated bins
    result = stats.chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
    assert result.pvalue > 0.001


def pooled_chisquare_pvalue(counts, density):
    """Chi-square p-value of cell counts against a law over the cells."""
    expected = density * counts.sum()
    keep = expected > 5  # chi-square wants populated bins; the rest are pooled into one
    observed = np.append(counts[keep], counts[~keep].sum())
    wanted = np.append(expected[keep], expected[~keep].sum())
    if wanted[-1] <= 5:
        observed, wanted = observed[:-1], wanted[:-1] * observed[:-1].sum() / wanted[:-1].sum()
    return stats.chisquare(observed, wanted).pvalue


def stress_case(name):
    """(space, book, components) for one case the law must survive."""
    setup = np.random.default_rng(77)
    space = PYRAMID if name == "pyramid" else FLAT
    book = RegionBook(space)
    n = space.window_count
    if name == "uneven-dents":  # three quarters of the left component's neighbourhood claimed
        near_left = [i for i in range(n) if abs(space.window_at(i).x - 10) <= 6]
        mark_cells(book, space, setup.choice(near_left, size=3 * len(near_left) // 4, replace=False))
        components = ((Window(10, 12, 0), 0.5, (3.0, 3.0, 1.0)), (Window(30, 12, 0), 0.5, (3.0, 3.0, 1.0)))
    elif name == "corner":
        mark_cells(book, space, range(0, n, 7))
        components = ((Window(0, 0, 0), 1.0, (3.0, 3.0, 1.0)),)
    elif name == "pyramid":  # the scale tails clamp onto scales 0 and 2
        mark_cells(book, space, setup.choice(n, size=n // 3, replace=False))
        components = ((Window(5, 5, 1), 0.6, (1.5, 1.0, 0.8)), (Window(1, 0, 2), 0.4, (0.7, 1.2, 1.5)))
    else:  # heavy: all but 60 cells claimed
        mark_cells(book, space, setup.choice(n, size=n - 60, replace=False))
        components = ((Window(12, 8, 0), 0.3, (4.0, 2.0, 1.0)), (Window(28, 18, 0), 0.7, (2.0, 5.0, 1.0)))
    return space, book, components


@pytest.mark.parametrize("case", ["uneven-dents", "corner", "pyramid", "heavy"])
def test_mixture_sampling_matches_density_under_stress(case, rng):
    """Draw frequencies agree with density_at where components are dented
    unevenly, clamp at the grid border, span many scales, or are mostly claimed."""
    space, book, components = stress_case(case)
    mixture = mixture_of(components, book, space)
    n = 40000
    counts = np.zeros(space.window_count)
    for _ in range(n):
        counts[space.index_of(mixture.sample(rng))] += 1
    density = np.array([mixture.density_at(w) for w in space.windows()])
    assert density.sum() == pytest.approx(1.0, abs=1e-9)
    assert pooled_chisquare_pvalue(counts, density) > 0.001


def test_mixture_sample_deterministic(flat_space):
    book = RegionBook(flat_space)
    comps = (
        (Window(10, 10, 0), 0.5, (2.0, 2.0, 1.0)),
        (Window(30, 14, 0), 0.5, (2.0, 2.0, 1.0)),
    )
    mixture = mixture_of(comps, book, flat_space)
    r1, r2 = np.random.default_rng(99), np.random.default_rng(99)
    assert [mixture.sample(r1) for _ in range(50)] == [mixture.sample(r2) for _ in range(50)]
    assert mixture.sample(np.random.default_rng(3)) == mixture.sample(np.random.default_rng(3))


# --- mpw's stage draws from the undented mixture ---------------------------


def stage_counts(space, x, y, s):
    index = [space.index_of(Window(int(a), int(b), int(c))) for a, b, c in zip(x, y, s)]
    return np.bincount(index, minlength=space.window_count)


def test_stage_draws_follow_the_mixture_table(rng):
    """A stage's draws follow the mixture's proposal table, which sums to 1
    and is density_at on an unmarked book; components with their own spreads
    clamp their scale tails onto PYRAMID's bottom and top scales."""
    space = PYRAMID
    components = (
        (Window(5, 5, 1), 0.5, (1.5, 1.0, 0.8)),
        (Window(1, 0, 2), 0.3, (0.7, 1.2, 1.5)),
        (Window(20, 12, 0), 0.2, (3.0, 2.0, 1.0)),
    )
    mixture = mixture_of(components, RegionBook(space), space)
    table = mixture._table
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    density = np.array([mixture.density_at(w) for w in space.windows()])
    np.testing.assert_allclose(density, table, rtol=1e-12)
    x, y, s = draw_gaussian_window(mixture, rng, 40000)
    assert x.dtype == y.dtype == s.dtype == np.int64
    assert space.contains_many(x, y, s).all()
    assert pooled_chisquare_pvalue(stage_counts(space, x, y, s), density) > 0.001


# --- samplers against brute-force references -------------------------------


def groups(n_max):
    """``(start, count)`` of each group of proposals a mixture search of up
    to ``n_max`` draws: 64 proposals, then twice as many, up to 1024."""
    start, size = 0, 64
    while start < n_max:
        count = min(size, n_max - start)
        yield start, count
        start += count
        size = min(2 * size, 1024)


def reference_uniform(book, space, rng):
    """The FREE cell of a uniformly drawn rank, from a scan of the book."""
    if book.free_count == 0:
        return None
    return space.window_at(int(np.flatnonzero(book.flat == 0)[rng.integers(book.free_count)]))


def reference_mixture(components, book, space, rng, n_max):
    """(window, hit): the mixture's draw rule, one group of proposals at a
    time, one proposal at a time; ``hit`` is the accepted proposal's
    position, or None when no proposal was free."""
    weights = np.array([weight for _, weight, _ in components])
    cumulative = np.cumsum(weights / weights.sum())
    for start, k in groups(n_max):
        u = rng.random(k)
        z = rng.standard_normal((k, 3))
        for j in range(k):
            mean, _, (sx, sy, ss) = components[
                min(int(np.searchsorted(cumulative, u[j], side="right")), len(components) - 1)
            ]
            s = min(max(round(mean.s + z[j, 2] * ss), 0), space.scale_count - 1)
            nx, ny = space.grid_size(s)
            zoom = space.zoom(mean.s)
            cx = (mean.x * space.stride + space.template_w * 0.5) * zoom
            cy = (mean.y * space.stride + space.template_h * 0.5) * zoom
            gx = (cx / space._zoom_table[s] - space.template_w * 0.5) / space.stride
            gy = (cy / space._zoom_table[s] - space.template_h * 0.5) / space.stride
            x = min(max(round(gx + z[j, 0] * sx), 0), nx - 1)
            y = min(max(round(gy + z[j, 1] * sy), 0), ny - 1)
            w = Window(x, y, s)
            if book.state_at(w) == RegionKind.FREE:
                return w, start + j
    return None, None


FLAT = SearchSpace(84, 54, 6, 6, stride=2, scale_factor=2.0, scale_count=1)
DENTS = {"none": 0.0, "half": 0.5, "heavy": None}  # heavy: all but three cells claimed


@pytest.mark.parametrize("n_max", [1, 40, 63, 64, 65, 1000, 1024, 1025, 2500])
@pytest.mark.parametrize("dent", sorted(DENTS))
@pytest.mark.parametrize("space", [FLAT, PYRAMID], ids=["flat", "pyramid"])
def test_samplers_match_a_batch_at_a_time_reference(space, dent, n_max):
    """Same window and same generator state as the references, call after
    call: the mixture against a loop that draws each group of proposals as
    one batch, also for searches that span several groups or follow an
    empty one, and the uniform against a rank drawn over a scan of the book."""
    nones = after_empty = in_remainder = 0
    for seed in range(8):
        setup = np.random.default_rng(1000 + seed)
        book = RegionBook(space)
        n = space.window_count
        claimed = n - 3 if DENTS[dent] is None else int(DENTS[dent] * n)
        mark_cells(book, space, setup.choice(n, size=claimed, replace=False))
        means = [space.window_at(int(i)) for i in setup.choice(n, size=3, replace=False)]
        sigmas = [(1.0, 1.0, 0.5), (3.0, 2.0, 1.5), (0.5, 4.0, 1.0)]
        components = tuple(
            (mean, float(weight), sigma)
            for mean, weight, sigma in zip(means, setup.uniform(0.1, 2.0, size=3), sigmas)
        )
        mixture = mixture_of(components, book, space)
        uniform = DentedUniform(book, space)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        empty = False  # whether the mixture's last search came up empty
        for _ in range(4):
            after_empty += empty
            got = mixture.sample(rng, n_max)
            expected, hit = reference_mixture(components, book, space, ref, n_max)
            assert got == expected
            assert rng.bit_generator.state == ref.bit_generator.state
            empty = got is None
            assert mixture._missed == empty
            nones += empty
            in_remainder += hit is not None and hit >= 64  # past the first group
            assert uniform.sample(rng) == reference_uniform(book, space, ref)
            assert rng.bit_generator.state == ref.bit_generator.state
    if dent == "heavy" and n_max <= 65:
        assert nones > 0
    if dent == "heavy":
        assert after_empty > 0
        assert in_remainder > 0 or n_max < 1000


def test_mixture_from_batch_matches_the_component_constructor():
    space = PYRAMID
    book = RegionBook(space)
    setup = np.random.default_rng(5)
    mark_cells(book, space, setup.choice(space.window_count, size=400, replace=False))
    batch = [(space.window_at(int(i)), float(r)) for i, r in zip(
        setup.choice(space.window_count, size=6, replace=False), setup.uniform(-2.0, 0.0, size=6)
    )]
    weights = normalize_weights([r for _, r in batch])
    built = _mixture_from_batch(batch, book, space)
    constructed = mixture_of(
        tuple((w, float(weight), default_sigma(space)) for (w, _), weight in zip(batch, weights)),
        book,
        space,
    )
    assert len(built) == len(constructed) == 6
    assert [built.density_at(w) for w in space.windows()] == [constructed.density_at(w) for w in space.windows()]
    assert sum(built.density_at(w) for w in space.windows()) == pytest.approx(1.0, abs=1e-6)
    r1, r2 = np.random.default_rng(8), np.random.default_rng(8)
    assert [built.sample(r1, 40) for _ in range(30)] == [constructed.sample(r2, 40) for _ in range(30)]
    assert r1.bit_generator.state == r2.bit_generator.state


@pytest.mark.parametrize("space", [FLAT, PYRAMID], ids=["flat", "pyramid"])
def test_uniform_free_set_follows_the_book(space):
    """A sampler kept while the book fills draws what a fresh scan would.

    Every returned cell is claimed before the next call, and now and then a
    rectangle around a random cell, so the book's free counts change between
    calls, until None.
    """
    draws = 0
    for seed in range(4):
        setup = np.random.default_rng(2000 + seed)
        book = RegionBook(space)
        n = space.window_count
        mark_cells(book, space, setup.choice(n, size=n - 80, replace=False))
        uniform = DentedUniform(book, space)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        while True:
            got = uniform.sample(rng)
            assert got == reference_uniform(book, space, ref)
            assert rng.bit_generator.state == ref.bit_generator.state
            if got is None:
                break
            draws += 1
            book.claim_cell(got)
            if setup.random() < 0.2:
                w = space.window_at(int(setup.integers(n)))
                book.mark_rect(w.s, w.x, w.y, 1, 1)
        assert book.free_count == 0
    assert draws > 240  # of the 4 x 80 free cells, most are drawn rather than marked


def test_grown_mixture_equals_a_fresh_build():
    """Growing the mixture by each new ambiguous window equals building it
    from the whole batch: size, density on every cell, draws and generator
    state, after every one of 30 extensions, and after growing a mixture
    whose last search came up empty."""
    space = PYRAMID
    book = RegionBook(space)
    setup = np.random.default_rng(11)
    mark_cells(book, space, setup.choice(space.window_count, size=200, replace=False))
    responses = setup.uniform(-1.9, -0.1, size=30)
    responses[:3] = (0.5, 0.2, 0.9)  # no shift while the batch is nonnegative
    responses[17] = -5.0  # lowers the batch minimum, so every weight moves
    assert responses[17] < responses[:17].min()
    batch = []
    grown = _mixture_from_batch(batch, book, space)
    for response in responses:
        w = space.window_at(int(setup.choice(np.flatnonzero(book.flat == 0))))
        batch.append((w, float(response)))
        book.claim_cell(w)  # as the incremental loop does
        if len(grown):  # fill the mixture's caches for the book as it now is
            grown.density_at(space.window_at(int(np.flatnonzero(book.flat == 0)[0])))
        grown = _mixture_from_batch(batch, book, space, grown)
        fresh = _mixture_from_batch(batch, book, space)
        assert len(grown) == len(fresh) == len(batch)
        assert [grown.density_at(v) for v in space.windows()] == [fresh.density_at(v) for v in space.windows()]
        r1, r2 = np.random.default_rng(len(batch)), np.random.default_rng(len(batch))
        assert [grown.sample(r1, 40) for _ in range(30)] == [fresh.sample(r2, 40) for _ in range(30)]
        assert r1.bit_generator.state == r2.bit_generator.state
    # Searches of one proposal each, until one lands on a claimed cell.
    previous = _mixture_from_batch(batch[:-1], book, space)
    rng = np.random.default_rng(0)
    assert any(previous.sample(rng, 1) is None for _ in range(1000))
    assert previous._missed
    grown = _mixture_from_batch(batch, book, space, previous)
    assert grown is previous and not grown._missed
    fresh = _mixture_from_batch(batch, book, space)
    r1, r2 = np.random.default_rng(0), np.random.default_rng(0)
    assert [grown.sample(r1) for _ in range(30)] == [fresh.sample(r2) for _ in range(30)]
    assert r1.bit_generator.state == r2.bit_generator.state
    with pytest.raises(ValueError):
        _mixture_from_batch(batch, book, space, _mixture_from_batch(batch[:-2], book, space))
    with pytest.raises(ValueError, match="on this book"):
        _mixture_from_batch(batch, RegionBook(space), space, _mixture_from_batch(batch[:-1], book, space))
    bare = DentedGaussianMixture(np.zeros((3, 0), dtype=np.int64), np.zeros(0), default_sigma(space), book, space)
    with pytest.raises(ValueError, match="without responses"):
        _mixture_from_batch(batch[:1], book, space, bare)


def draws(mixture, seed):
    """30 searches of up to 40 proposals each, and the generator state after them."""
    rng = np.random.default_rng(seed)
    return [mixture.sample(rng, 40) for _ in range(30)], rng.bit_generator.state


def assert_equals_a_fresh_build(mixture, batch, book, space):
    fresh = _mixture_from_batch(batch, book, space)
    assert np.array_equal(mixture.means, fresh.means)
    assert np.array_equal(mixture.responses, fresh.responses)
    assert [mixture.density_at(v) for v in space.windows()] == [fresh.density_at(v) for v in space.windows()]
    assert draws(mixture, len(batch)) == draws(fresh, len(batch))


def test_a_mixture_grown_through_capacity_doublings_equals_fresh_builds():
    """A mixture grown 70 times, through several doublings of its arrays,
    equals a fresh build of its batch, as a ``sipw`` rebuild makes it, on
    either side of each doubling."""
    space = PYRAMID
    book = RegionBook(space)
    setup = np.random.default_rng(21)
    mark_cells(book, space, setup.choice(space.window_count, size=200, replace=False))
    windows = [space.window_at(int(i)) for i in setup.choice(np.flatnonzero(book.flat == 0), 72, replace=False)]
    batch = list(zip(windows, setup.uniform(-1.5, 0.5, size=72).tolist()))

    mixture = _mixture_from_batch([], book, space)
    for k in range(1, 71):
        mixture = _mixture_from_batch(batch[:k], book, space, mixture)
        if k in (1, 16, 17, 33, 70):
            assert_equals_a_fresh_build(mixture, batch[:k], book, space)


@pytest.mark.parametrize(
    "responses",
    [
        [-1.5] * 20,  # the shift leaves a zero total, so the weights go uniform
        [0.0] * 20,  # nothing to shift and a zero total: uniform again
        [0.5, 0.0, 0.2, 0.9, -0.3, 0.4, 0.1, -2.0, 0.7, 0.0],  # the minimum drops below zero, then lower
        [-0.7],  # a single component
    ],
    ids=["equal-negative", "all-zero", "nonnegative-prefix", "single"],
)
def test_a_mixture_grown_through_degenerate_batches_equals_fresh_builds(responses):
    """``_add`` renormalizes from a running minimum without
    ``normalize_weights``, so it must reproduce that function's branches
    bit for bit: after every extension the cumulative weights, the density
    on every cell and the seeded draws equal a fresh build's."""
    space = PYRAMID
    book = RegionBook(space)
    setup = np.random.default_rng(31)
    windows = [space.window_at(int(i)) for i in setup.choice(space.window_count, len(responses), replace=False)]
    batch = list(zip(windows, responses))
    mixture = _mixture_from_batch([], book, space)
    for k in range(1, len(batch) + 1):
        mixture = _mixture_from_batch(batch[:k], book, space, mixture)
        assert len(mixture) == k
        assert np.array_equal(mixture._cumulative, _mixture_from_batch(batch[:k], book, space)._cumulative)
        assert_equals_a_fresh_build(mixture, batch[:k], book, space)


def test_a_refused_extension_leaves_the_mixture_as_it_was():
    """``_add`` refuses a non-finite response before it writes a row: the
    size, means, responses, densities and a seeded draw stay as they were,
    also when the arrays are full and the next row would double them."""
    space = PYRAMID
    book = RegionBook(space)
    batch = [(Window(3, 4, 0), -0.5), (Window(10, 2, 1), -1.5)]
    mixture = _mixture_from_batch(batch, book, space)
    sigma = default_sigma(space)
    before = [mixture.density_at(v) for v in space.windows()], draws(mixture, 5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            mixture._add(Window(6, 6, 1), bad, sigma)
        assert len(mixture) == 2
        assert_equals_a_fresh_build(mixture, batch, book, space)
        assert ([mixture.density_at(v) for v in space.windows()], draws(mixture, 5)) == before


def test_a_built_mixture_keeps_its_centres_in_one_c_ordered_table():
    """The constructor writes every component's centre on every scale into
    one C-ordered table, so the flat view the draws gather from shares its
    memory; each entry is ``grid_at`` of the mean's image centre, bit for
    bit, and an ``_add`` after such a build still equals a fresh build."""
    space = SearchSpace(96, 96, 12, 12, stride=2, scale_factor=1.2, scale_count=6)  # numpy's power differs at scale 4
    book = RegionBook(space)
    setup = np.random.default_rng(41)
    windows = [space.window_at(int(i)) for i in setup.choice(space.window_count, 40, replace=False)]
    batch = list(zip(windows, setup.uniform(-1.5, 0.5, size=40).tolist()))
    mixture = _mixture_from_batch(batch[:-1], book, space)
    table = mixture._centre_table
    assert table.shape == (39, space.scale_count, 2) and table.flags.c_contiguous
    assert np.shares_memory(mixture._centres, table)
    expected = [[space.grid_at(*space.centre(w.x, w.y, w.s), t) for t in range(space.scale_count)] for w in windows[:-1]]
    assert table.tolist() == [[list(xy) for xy in row] for row in expected]
    grown = _mixture_from_batch(batch, book, space, mixture)
    fresh = _mixture_from_batch(batch, book, space)
    assert np.array_equal(grown._centre_table[: len(batch)], fresh._centre_table)
    assert np.array_equal(grown._cumulative, fresh._cumulative)
    assert_equals_a_fresh_build(grown, batch, book, space)


def test_mixture_refuses_what_it_cannot_draw(flat_space):
    """One finite, nonnegative weight per component, one finite response
    each if any, and every spread finite and positive: the constructor
    refuses anything else instead of drawing through it."""
    book = RegionBook(flat_space)
    means = np.array([[5, 34], [12, 12], [0, 0]])
    sigma = default_sigma(flat_space)
    with pytest.raises(ValueError, match="2 components need 2 weights"):
        DentedGaussianMixture(means, np.array([0.5, 0.3, 0.2]), sigma, book, flat_space)
    with pytest.raises(ValueError, match="2 components need 2 weights"):
        DentedGaussianMixture(means, np.array([1.0]), sigma, book, flat_space)
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            DentedGaussianMixture(means, np.array([0.5, 0.5]), (1.0, bad, 1.0), book, flat_space)
    with pytest.raises(ValueError, match="finite and positive"):
        DentedGaussianMixture(means, np.array([0.5, 0.5]), [[1.0, 1.0], [1.0, -2.0], [1.0, 1.0]], book, flat_space)
    with pytest.raises(ValueError, match="2 components need 2 responses"):
        DentedGaussianMixture(means, np.array([0.5, 0.5]), sigma, book, flat_space, np.array([1.0, 2.0, 3.0]))
    # A NaN weight would draw where density_at reports 0, an infinite one
    # gives a NaN cumulative table, and a NaN response would let a later
    # _add write its row and then fail.
    for bad in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DentedGaussianMixture(means, np.array([0.5, bad]), sigma, book, flat_space)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="responses must be finite"):
            DentedGaussianMixture(means, np.array([0.5, 0.5]), sigma, book, flat_space, np.array([bad, 2.0]))
    assert len(DentedGaussianMixture(means, np.array([0.5, 0.5]), sigma, book, flat_space)) == 2
