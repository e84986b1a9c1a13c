from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ytl.tableaux import (DTableau, catalan, count_d_partitions, count_standard_tableaux,
                          dim_bruteforce, dim_CTL, dim_FTL, dim_TL, dim_Y,
                          enumerate_d_partitions, enumerate_partitions,
                          jones_pairs, jones_permutation, quotient_admissible,
                          standard_tableaux, tl_factors, two_column)


def test_partitions():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(8)) == 22


def test_d_partitions():
    shapes = enumerate_d_partitions(2, 2)
    assert ((2,), ()) in shapes and ((1,), (1,)) in shapes
    assert len(shapes) == 2 + 1 + 2   # |P(2)|*|P(0)| + |P(1)|^2 + |P(0)|*|P(2)|


def test_standard_tableaux_counts():
    assert count_standard_tableaux(((2, 1),)) == 2
    assert count_standard_tableaux(((2, 2),)) == 2
    assert count_standard_tableaux(((3, 2),)) == 5
    assert count_standard_tableaux(((1,), (1,), (1,))) == 6


@pytest.mark.parametrize("d,n", [(1, 0), (1, 7), (2, 5), (3, 4), (4, 3), (6, 2)])
def test_closed_form_counts_match_the_listings(d, n):
    shapes = enumerate_d_partitions(d, n)
    assert count_d_partitions(d, n) == len(shapes)
    for shape in shapes:
        assert count_standard_tableaux(shape) == len(standard_tableaux(shape)), shape


def test_tableau_structure():
    tabs = standard_tableaux(((2, 1),))
    first = tabs[0]
    assert first.entry_grid() == [[[1, 2], [3]]]
    assert first.content_exponent(1) == 0
    assert first.content_exponent(2) == 1
    assert first.content_exponent(3) == -1
    assert first.position(2) == 1


def test_apply_transposition():
    tabs = standard_tableaux(((2, 1),))
    first = tabs[0]
    assert first.apply_transposition(1) is None        # row would decrease
    swapped = first.apply_transposition(2)
    assert swapped is not None
    assert swapped.entry_grid() == [[[1, 3], [2]]]



def _grid_is_standard(tab):
    """Rows and columns of every component increase: read off the grid."""
    for grid in tab.entry_grid():
        for r, row in enumerate(grid):
            for c, v in enumerate(row):
                if c + 1 < len(row) and row[c + 1] < v:
                    return False
                if r + 1 < len(grid) and c < len(grid[r + 1]) and grid[r + 1][c] < v:
                    return False
    return True


def test_transposition_rule_matches_the_grid():
    # swapping i and i+1 leaves a standard tableau unless the two nodes
    # share a component and a row or a column
    cases = 0
    for d, n in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
                 (2, 4), (2, 5), (3, 4), (4, 3)]:
        for shape in enumerate_d_partitions(d, n):
            for tab in standard_tableaux(shape):
                for i in range(1, n):
                    placement = list(tab.placement)
                    placement[i - 1], placement[i] = placement[i], placement[i - 1]
                    swapped = DTableau(shape, tuple(placement))
                    want = swapped if _grid_is_standard(swapped) else None
                    assert tab.apply_transposition(i) == want, (tab, i)
                    cases += 1
    assert cases == 4426

def test_admissibility():
    assert two_column((2, 2, 1))
    assert not two_column((3,))
    assert quotient_admissible(((2, 1), (1, 1)), 2)
    assert not quotient_admissible(((1,), (3,)), 2)
    assert quotient_admissible(((1,), (3,)), 1)
    assert not quotient_admissible(((3,), (1,)), 1)


def test_tl_factors():
    assert tl_factors("FTL", 3) == 3
    assert tl_factors("CTL", 3) == 1
    # at d = 1 both quotients are TL_n
    assert tl_factors("FTL", 1) == tl_factors("CTL", 1) == 1
    for bad in ("ftl", "TL", None):
        with pytest.raises(ValueError):
            tl_factors(bad, 2)


def test_catalan_and_dimensions():
    assert [catalan(m) for m in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for m in range(1, 9):
        assert dim_TL(m) == sum(count_standard_tableaux((p,)) ** 2
                                for p in enumerate_partitions(m) if two_column(p))
    assert dim_Y(2, 3) == 48
    assert dim_FTL(2, 3) == 46
    assert dim_CTL(2, 3) == 47
    assert dim_FTL(2, 2) == 8 == dim_Y(2, 2)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_dimension_formulas_vs_bruteforce(d, n):
    assert dim_FTL(d, n) == dim_bruteforce(d, n, d)
    assert dim_CTL(d, n) == dim_bruteforce(d, n, 1)
    assert sum(count_standard_tableaux(s) ** 2
               for s in enumerate_d_partitions(d, n)) == dim_Y(d, n)


def test_jones_counts():
    for m in range(9):
        assert len(jones_pairs(m, "TL")) == catalan(m)
    for m in range(6):
        assert len(jones_pairs(m, "All")) == factorial(m)
    for mode in ("tl", "FTL", None):
        with pytest.raises(ValueError, match="mode must be 'All' or 'TL'"):
            jones_pairs(3, mode)


def test_jones_words_are_reduced_and_bijective():
    for m in range(2, 6):
        seen = set()
        for p in jones_pairs(m, "All"):
            w = jones_permutation(m, p)
            assert w.length() == len(p.word())
            seen.add(w)
        assert len(seen) == factorial(m)


def test_jones_tl_subset():
    tl = {p.word() for p in jones_pairs(4, "TL")}
    full = {p.word() for p in jones_pairs(4, "All")}
    assert tl <= full
    # descending-run structure: strictly increasing tops and bottoms
    for p in jones_pairs(5, "TL"):
        tops = p.i
        bottoms = tuple(i - k for i, k in zip(p.i, p.k))
        assert tops == tuple(sorted(tops))
        assert bottoms == tuple(sorted(set(bottoms))) and len(set(bottoms)) == len(bottoms)


@given(st.integers(1, 6))
@settings(max_examples=10, deadline=None)
def test_tableaux_count_consistency(n):
    # sum over one-component shapes of squared counts = n!
    assert sum(count_standard_tableaux((p,)) ** 2
               for p in enumerate_partitions(n)) == factorial(n)
