"""Radius tables, the occupancy book, and rectangle marking."""

import numpy as np
import pytest

from pwsearch import (
    RadiusInterval,
    RadiusTable,
    RegionBook,
    RegionKind,
    ScalePropagation,
    SearchSpace,
    Window,
    mark_acceptance,
    mark_rejection,
)
from pwsearch.regions import ContractViolation

from conftest import PYRAMID

NEG_INF = float("-inf")


def table_from(rows, active):
    return RadiusTable(tuple(RadiusInterval(*r) for r in rows), active_intervals=active)


@pytest.fixture
def pyramid():
    # zooms 1, 2, 4; grids 37x37, 13x13, 1x1
    return SearchSpace(48, 48, 12, 12, stride=1, scale_factor=2.0, scale_count=3)


# --- radius tables --------------------------------------------------------


def test_radius_lookup_scales_with_object_size():
    table = table_from([(NEG_INF, 0.22, 0.22)], active=1)
    assert table.lookup(-5.0, 64, 128) == (14, 28)
    assert table.lookup(-5.0, 20, 20) == (4, 4)


def test_radius_lookup_small_ratio_floors_to_int():
    table = table_from([(NEG_INF, 0.100, 0.100)], active=1)
    assert table.lookup(-1.0, 20, 20) == (2, 2)
    assert table.lookup(-1.0, 9, 9) == (0, 0)  # 0.9 truncates


def test_interval_index_picks_largest_lower_bound():
    table = table_from(
        [(NEG_INF, 0.4, 0.4), (-4.0, 0.2, 0.2), (-2.0, 0.1, 0.1)], active=3
    )
    assert table.interval_index(-9.0) == 0
    assert table.interval_index(-4.0) == 1
    assert table.interval_index(-3.1) == 1
    assert table.interval_index(-0.5) == 2


def test_interval_index_clamps_below_first_bound():
    table = table_from([(0.0, 0.3, 0.3), (0.5, 0.1, 0.1)], active=2)
    assert table.interval_index(-7.0) == 0


def test_inactive_intervals_return_none():
    table = table_from([(NEG_INF, 0.3, 0.3), (-4.0, 0.1, 0.1)], active=1)
    assert table.lookup(-9.0, 10, 10) == (3, 3)
    assert table.lookup(-3.0, 10, 10) is None


def test_zero_ratio_is_still_active():
    table = table_from([(NEG_INF, 0.3, 0.3), (-4.0, 0.0, 0.0)], active=2)
    assert table.lookup(-3.0, 10, 10) == (0, 0)


def test_table_validation():
    with pytest.raises(ValueError):
        table_from([(NEG_INF, 0.3, 0.3), (NEG_INF, 0.1, 0.1)], active=2)  # bounds not increasing
    with pytest.raises(ValueError):
        table_from([(-2.0, 0.3, 0.3), (-4.0, 0.1, 0.1)], active=2)
    with pytest.raises(ValueError):
        # active prefix must have nonincreasing radii
        table_from([(NEG_INF, 0.1, 0.1), (-4.0, 0.3, 0.3)], active=2)
    with pytest.raises(ValueError):
        table_from([(NEG_INF, 0.3, 0.3)], active=0)
    with pytest.raises(ValueError):
        table_from([(NEG_INF, 0.3, 0.3)], active=2)


def test_nonincreasing_rule_ignores_inactive_tail():
    # radii may rise again past the active prefix
    table = table_from(
        [(NEG_INF, 0.3, 0.3), (-4.0, 0.1, 0.1), (-2.0, 0.4, 0.4)], active=2
    )
    assert table.lookup(-1.0, 10, 10) is None


# --- the book -------------------------------------------------------------


def test_fresh_book_is_all_free(pyramid):
    book = RegionBook(pyramid)
    assert book.free_count == pyramid.window_count
    assert book.n_rejected == 0
    assert book.n_accepted == 0
    assert book.state_at(Window(5, 5, 0)) is RegionKind.FREE


def test_mark_rect_interior_count(pyramid):
    book = RegionBook(pyramid)
    n = book.mark_rect(0, 10, 10, 3, 2, RegionKind.REJECTED)
    assert n == (2 * 3 + 1) * (2 * 2 + 1) == 35
    assert book.n_rejected == 35
    assert book.free_count == pyramid.window_count - 35
    assert book.state_at(Window(13, 12, 0)) is RegionKind.REJECTED
    assert book.state_at(Window(14, 12, 0)) is RegionKind.FREE


def test_mark_rect_clips_at_borders(pyramid):
    book = RegionBook(pyramid)
    assert book.mark_rect(0, 0, 0, 3, 2) == 4 * 3
    assert book.mark_rect(0, 100, 100, 3, 2) == 0


def test_mark_rect_counts_only_fresh_cells(pyramid):
    book = RegionBook(pyramid)
    assert book.mark_rect(0, 10, 10, 2, 2) == 25
    assert book.mark_rect(0, 10, 10, 2, 2) == 0  # idempotent
    assert book.mark_rect(0, 12, 10, 2, 2) == 10  # two fresh columns
    assert book.n_rejected == 35


def test_first_mark_wins(pyramid):
    book = RegionBook(pyramid)
    book.mark_rect(0, 10, 10, 1, 1, RegionKind.REJECTED)
    n = book.mark_rect(0, 11, 10, 1, 1, RegionKind.ACCEPTED)
    assert n == 3
    assert book.state_at(Window(10, 10, 0)) is RegionKind.REJECTED
    assert book.state_at(Window(12, 10, 0)) is RegionKind.ACCEPTED
    assert book.n_rejected == 9
    assert book.n_accepted == 3


def test_cannot_mark_free(pyramid):
    book = RegionBook(pyramid)
    with pytest.raises(ValueError):
        book.mark_rect(0, 5, 5, 1, 1, RegionKind.FREE)
    with pytest.raises(ValueError):
        book.claim_cell(Window(5, 5, 0), RegionKind.FREE)
    assert book.free_count == pyramid.window_count


def test_claim_cell(pyramid):
    book = RegionBook(pyramid)
    assert book.claim_cell(Window(4, 4, 1)) == 1
    assert book.claim_cell(Window(4, 4, 1)) == 0
    assert book.n_rejected == 1
    assert book.claim_cell(Window(5, 4, 1), RegionKind.ACCEPTED) == 1
    assert (book.n_rejected, book.n_accepted) == (1, 1)
    assert book.state_at(Window(5, 4, 1)) is RegionKind.ACCEPTED
    with pytest.raises(ValueError):
        book.claim_cell(Window(50, 50, 1))


def test_counters_match_brute_force(pyramid, rng):
    book = RegionBook(pyramid)
    for _ in range(60):
        s = int(rng.integers(0, pyramid.scale_count))
        nx, ny = pyramid.grid_size(s)
        if nx == 0:
            continue
        kind = RegionKind.REJECTED if rng.random() < 0.7 else RegionKind.ACCEPTED
        book.mark_rect(
            s,
            int(rng.integers(0, nx)),
            int(rng.integers(0, ny)),
            int(rng.integers(0, 4)),
            int(rng.integers(0, 4)),
            kind,
        )
    states = [book.state_at(w) for w in pyramid.windows()]
    assert book.n_rejected == sum(s is RegionKind.REJECTED for s in states)
    assert book.n_accepted == sum(s is RegionKind.ACCEPTED for s in states)
    assert book.free_count == sum(s is RegionKind.FREE for s in states)


def test_row_free_counts_match_a_recount(rng):
    """The book's FREE counts per grid row and per scale equal a recount of
    the grids after every claim and propagated mark, on a three-scale
    pyramid, and ``free_cell`` gives the FREE cells in dense index order."""
    space = PYRAMID
    book = RegionBook(space)
    table = table_from([(NEG_INF, 0.25, 0.25), (-4.0, 0.1, 0.1)], active=2)
    spread = ScalePropagation(span=2, shrink=0.8)
    for step in range(120):
        w = space.window_at(int(rng.integers(space.window_count)))
        roll = rng.random()
        if roll < 0.5:
            book.claim_cell(w, RegionKind.REJECTED if roll < 0.4 else RegionKind.ACCEPTED)
        elif roll < 0.8:
            mark_rejection(book, space, w, float(rng.uniform(-6.0, -2.5)), table, -2.0, spread)
        else:
            mark_acceptance(book, space, w, 1.0, int(rng.integers(4)), int(rng.integers(4)), 0.0, spread)
        assert [rows.tolist() for rows in book._row_free] == [(grid == 0).sum(axis=1).tolist() for grid in book.grids]
        assert book._scale_free == [int((grid == 0).sum()) for grid in book.grids]
        if step % 20 == 0:
            free = np.flatnonzero(book.flat == 0)
            assert [space.index_of(book.free_cell(r)) for r in range(book.free_count)] == free.tolist()
    assert 0 < book.free_count < space.window_count
    with pytest.raises(IndexError):
        book.free_cell(book.free_count)
    with pytest.raises(IndexError):
        book.free_cell(-1)


# --- marking helpers ------------------------------------------------------


def test_mark_rejection_needs_low_response(pyramid):
    """NaN fails every comparison, so it is refused too, and claims nothing;
    it would otherwise fall into interval 0, the widest radius."""
    book = RegionBook(pyramid)
    table = table_from([(NEG_INF, 0.25, 0.25)], active=1)
    for response in (-2.0, 1.0, float("nan")):
        with pytest.raises(ContractViolation):
            mark_rejection(book, pyramid, Window(6, 6, 1), response, table, t_l=-2.0)
    assert book.n_rejected == 0 and not book.flat.any()


def test_mark_rejection_own_scale_extent(pyramid):
    book = RegionBook(pyramid)
    table = table_from([(NEG_INF, 1 / 3, 1 / 3)], active=1)  # 4px radius on a 12px template
    n = mark_rejection(book, pyramid, Window(6, 6, 1), -9.0, table, t_l=-2.0)
    assert n == 9 * 9
    assert book.state_at(Window(6, 6, 1)) is RegionKind.REJECTED
    assert book.state_at(Window(6, 6, 0)) is RegionKind.FREE  # no propagation by default


def test_mark_rejection_inactive_interval_claims_nothing(pyramid):
    book = RegionBook(pyramid)
    table = table_from([(NEG_INF, 0.25, 0.25), (-4.0, 0.1, 0.1)], active=1)
    assert mark_rejection(book, pyramid, Window(6, 6, 1), -3.0, table, t_l=-2.0) == 0
    assert book.free_count == pyramid.window_count


def test_mark_rejection_propagates_with_shrinking_radii(pyramid):
    book = RegionBook(pyramid)
    table = table_from([(NEG_INF, 1 / 3, 1 / 3)], active=1)
    n = mark_rejection(
        book, pyramid, Window(6, 6, 1), -9.0, table, t_l=-2.0,
        propagation=ScalePropagation(span=1, shrink=0.5),
    )
    # 9x9 at the marking scale, 5x5 around the projected center one level
    # down, and the single clipped cell at the 1x1 top scale
    assert n == 81 + 25 + 1
    assert book.state_at(Window(18, 18, 0)) is RegionKind.REJECTED
    assert book.state_at(Window(18 + 3, 18, 0)) is RegionKind.FREE
    assert book.state_at(Window(0, 0, 2)) is RegionKind.REJECTED


def test_cross_scale_mark_centres_on_grid_at_of_the_window_centre():
    # Window(0, 0, 2)'s centre maps to x = y = 1.4999999999999982 on scale 1,
    # a near-tie that only grid_at(centre(...)) rounds to the cell (1, 1).
    sp = SearchSpace(320, 240, 20, 20, stride=1, scale_factor=1.15, scale_count=6)
    book = RegionBook(sp)
    n = mark_acceptance(book, sp, Window(0, 0, 2), 1.0, 0, 0, 0.5, ScalePropagation(1, 1.0))
    assert n == 2  # its own cell and one on scale 1; scale 3's rounds to (-1, -1)
    assert book.state_at(Window(1, 1, 1)) is RegionKind.ACCEPTED
    assert book.state_at(Window(2, 2, 1)) is RegionKind.FREE


def test_subtract_interval_shortens_the_reach(pyramid):
    table = table_from([(NEG_INF, 1 / 3, 1 / 3), (-5.0, 1 / 6, 1 / 6)], active=2)
    prop = ScalePropagation(span=1, shrink=0.5, subtract_interval=True)
    book = RegionBook(pyramid)
    # interval 1: span drops to zero, only the marking scale is touched
    n = mark_rejection(book, pyramid, Window(6, 6, 1), -4.0, table, t_l=-2.0, propagation=prop)
    assert n == 5 * 5
    book2 = RegionBook(pyramid)
    n2 = mark_rejection(book2, pyramid, Window(6, 6, 1), -9.0, table, t_l=-2.0, propagation=prop)
    assert n2 == 81 + 25 + 1  # interval 0 keeps the full span


def test_mark_acceptance_contract_and_extent(pyramid):
    book = RegionBook(pyramid)
    for response in (-0.5, float("nan")):
        with pytest.raises(ContractViolation):
            mark_acceptance(book, pyramid, Window(6, 6, 1), response, 2, 2, t_h=0.0)
    assert book.n_accepted == 0 and not book.flat.any()
    n = mark_acceptance(book, pyramid, Window(6, 6, 1), 1.5, 2, 2, t_h=0.0)
    assert n == 25
    assert book.n_accepted == 25
    assert book.state_at(Window(6, 6, 1)) is RegionKind.ACCEPTED


def test_mark_acceptance_propagates(pyramid):
    book = RegionBook(pyramid)
    n = mark_acceptance(
        book, pyramid, Window(6, 6, 1), 1.5, 4, 4, t_h=0.0,
        propagation=ScalePropagation(span=1, shrink=0.5),
    )
    assert n == 81 + 25 + 1
    assert book.state_at(Window(18, 18, 0)) is RegionKind.ACCEPTED


def test_propagation_validation():
    with pytest.raises(ValueError):
        ScalePropagation(span=-1, shrink=0.5)
    with pytest.raises(ValueError):
        ScalePropagation(span=1, shrink=0.0)
    with pytest.raises(ValueError):
        ScalePropagation(span=1, shrink=1.5)
