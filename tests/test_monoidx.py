"""Labeling-table tests: published values, round trips, ordering, boxes."""

import math

import numpy as np
import pytest

from jetmap import monoidx as mi


def test_table_size_published_values():
    assert mi.table_size(3, 4) == 35
    assert mi.table_size(1, 5) == 6
    assert mi.table_size(2, 2) == 6


def test_table_size_rejects_bad_domain():
    with pytest.raises(ValueError):
        mi.table_size(0, 3)
    with pytest.raises(ValueError):
        mi.table_size(2, -1)


def test_rank_published_values():
    assert mi.rank((0, 0, 0)) == 1
    assert mi.rank((1, 0, 0)) == 2
    assert mi.rank((2, 0, 1)) == 13
    assert mi.rank((1, 2, 1)) == 28


def test_rank_refuses_a_negative_exponent():
    with pytest.raises(ValueError) as refused:
        mi.rank((1, -1, 0))
    assert str(refused.value) == "exponents must be non-negative, got (1, -1, 0)"


def test_rank_defined_beyond_table_degree():
    # rank is a closed formula; degree 7 exponents rank fine without a table.
    # (7,0,0) leads its degree block, right after the full degree-6 listing
    assert mi.rank((7, 0, 0)) == mi.table_size(3, 6) + 1
    assert mi.rank((0, 0, 7)) == mi.table_size(3, 7)


def test_build_table_row_17_and_first_row():
    table = mi.build_table(3, 4)
    assert table.L == 35
    assert table.unrank(17) == (0, 3, 0)
    assert table.unrank(1) == (0, 0, 0)


def test_two_variable_table_matches_published_listing():
    table = mi.build_table(2, 3)
    expected = [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
        (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
    ]
    assert [table.unrank(r) for r in range(1, 11)] == expected
    assert table.unrank(5) == (1, 1)


def test_three_variable_degree_blocks():
    # full degree-0..3 block of the three-variable listing
    table = mi.build_table(3, 3)
    expected = [
        (0, 0, 0),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2),
        (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
    ]
    assert [table.unrank(r) for r in range(1, 21)] == expected


@pytest.mark.parametrize("m,p", [(1, 0), (1, 6), (2, 4), (3, 4), (4, 3)])
def test_round_trip_rank_unrank(m, p):
    table = mi.build_table(m, p)
    for r in range(1, table.L + 1):
        j = table.unrank(r)
        assert mi.rank(j) == r


@pytest.mark.parametrize("m,p", [(2, 5), (3, 3)])
def test_rank_matches_position_search(m, p):
    # brute force: rank must equal the row position in the generated table
    table = mi.build_table(m, p)
    rows = [table.unrank(r) for r in range(1, table.L + 1)]
    for j in rows:
        assert mi.rank(j) == rows.index(j) + 1


@pytest.mark.parametrize("m,p", [(2, 4), (3, 4), (4, 2)])
def test_ordering_invariants(m, p):
    table = mi.build_table(m, p)
    degrees = table.degrees
    assert np.all(np.diff(degrees) >= 0)
    for r in range(2, table.L + 1):
        if degrees[r - 1] == degrees[r - 2]:
            # within a degree block rows descend lexicographically
            assert table.unrank(r - 1) > table.unrank(r)


@pytest.mark.parametrize("m,p", [(2, 4), (3, 4)])
def test_degree_block_counts(m, p):
    from math import comb

    table = mi.build_table(m, p)
    for d in range(p + 1):
        assert int(np.sum(table.degrees == d)) == comb(d + m - 1, d)


def test_box_published_values():
    table = mi.build_table(3, 4)
    assert list(mi.box(table, 8)) == [1, 3, 8]
    assert list(mi.box_rev(table, 8)) == [8, 3, 1]
    assert list(mi.box(table, 28)) == [1, 2, 3, 4, 6, 7, 8, 9, 14, 15, 18, 28]
    assert list(mi.box_rev(table, 28)) == [28, 18, 15, 14, 9, 8, 7, 6, 4, 3, 2, 1]


def test_box_of_constant_is_trivial():
    for m, p in [(1, 3), (3, 2)]:
        table = mi.build_table(m, p)
        assert list(mi.box(table, 1)) == [1]


@pytest.mark.parametrize("m,p", [(1, 5), (2, 4), (3, 4), (5, 3)])
def test_box_membership_and_complement_pairing(m, p):
    table = mi.build_table(m, p)
    for k in range(1, table.L + 1):
        jk = np.array(table.unrank(k))
        ranks = mi.box(table, k)
        # membership is exactly the componentwise divisibility set
        expected = [
            r for r in range(1, table.L + 1)
            if np.all(np.array(table.unrank(r)) <= jk)
        ]
        assert list(ranks) == expected
        for r, rc in zip(ranks, mi.box_rev(table, k)):
            paired = np.array(table.unrank(int(r))) + np.array(table.unrank(int(rc)))
            assert np.array_equal(paired, jk)


def test_out_of_range_access():
    table = mi.build_table(2, 2)
    with pytest.raises(IndexError):
        table.unrank(0)
    with pytest.raises(IndexError):
        table.unrank(table.L + 1)
    with pytest.raises(IndexError):
        mi.box(table, 7)
    with pytest.raises(IndexError):
        mi.box_rev(table, 0)


def test_size_cap(monkeypatch):
    with pytest.raises(mi.TableSizeError):
        mi.build_table(8, 40)
    # build_table(2, 3) has C(7, 4) = 35 box pairs
    monkeypatch.setattr(mi, "MAX_BOX_PAIRS", 35)
    mi.build_table(2, 3)
    monkeypatch.setattr(mi, "MAX_BOX_PAIRS", 34)
    with pytest.raises(mi.TableSizeError):
        mi.build_table(2, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_box_pairs_bound_the_rows(m):
    # every box holds its own rank, so the one pair cap also caps the rows
    for p in range(9):
        table = mi.build_table(m, p)
        assert table.flat_box.size == math.comb(p + 2 * m, 2 * m)
        assert table.L <= table.flat_box.size


def test_box_pair_cap_is_checked_before_any_box(monkeypatch):
    # build_table(3, 8) has 165 rows and C(14, 6) = 3,003 box pairs
    assert mi.build_table(3, 8).flat_box.size == math.comb(14, 6)
    monkeypatch.setattr(mi, "MAX_BOX_PAIRS", 3_002)
    monkeypatch.setattr(mi, "_compositions_desc", None)
    with pytest.raises(mi.TableSizeError, match="3003 box pairs"):
        mi.build_table(3, 8)


def test_variable_rank():
    table = mi.build_table(3, 2)
    assert [table.variable_rank(a) for a in (1, 2, 3)] == [2, 3, 4]
    for a in (0, 4):
        with pytest.raises(IndexError) as refused:
            table.variable_rank(a)
        assert str(refused.value) == f"variable index {a} outside [1, 3]"
    with pytest.raises(ValueError):
        mi.build_table(2, 0).variable_rank(1)


def test_csv_layout():
    table = mi.build_table(3, 4)
    lines = list(table.rows_csv())
    assert lines[0] == "r,j1,j2,j3,D"
    assert len(lines) == 36
    assert lines[17] == "17,0,3,0,3"
    # degree column is always the exponent sum, never a transcribed value
    for line in lines[1:]:
        parts = [int(v) for v in line.split(",")]
        assert parts[-1] == sum(parts[1:-1])
