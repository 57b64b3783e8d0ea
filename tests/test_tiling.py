"""Tilings of a single column: enumeration, weights, ranks."""

import pytest

from fibrook.poly import PQRPoly, Q, q_int
from fibrook.tiling import (
    FIBONACCI,
    TRIBONACCI,
    TileFamily,
    Tiling,
    enumerate_tilings,
    fibonacci_number,
    parse_tiling,
    tiling_count,
    tiling_weight_sum,
    weight_poly,
)


def test_fibonacci_numbers():
    assert [fibonacci_number(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fibonacci_number(0) == 0


def test_tiling_validation():
    with pytest.raises(ValueError):
        Tiling(())
    with pytest.raises(ValueError):
        Tiling((2, 1))  # bottom tile must have height 1
    with pytest.raises(ValueError):
        Tiling((1, 4))
    t = parse_tiling("1,2,2")
    assert t.height == 5
    assert t.height_counts() == (1, 2, 0)
    assert str(t) == "1,2,2"


def test_family_validation():
    with pytest.raises(ValueError):
        TileFamily((2,))  # height 1 must be allowed
    with pytest.raises(ValueError):
        TileFamily((1, 5))
    assert FIBONACCI.label == "fib"
    assert TRIBONACCI.label == "trib"


def test_enumerate_small_heights():
    assert [t.tiles for t in enumerate_tilings(FIBONACCI, 3)] == [(1, 1, 1), (1, 2)]
    assert enumerate_tilings(FIBONACCI, 0) == []
    assert [t.tiles for t in enumerate_tilings(TRIBONACCI, 4)] == [
        (1, 1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 3),
    ]
    for t in enumerate_tilings(TRIBONACCI, 6):
        assert t.tiles[0] == 1
        assert t.height == 6


def test_enumerate_tilings_returns_a_fresh_list():
    first = enumerate_tilings(FIBONACCI, 5)
    second = enumerate_tilings(FIBONACCI, 5)
    assert first == second
    assert first is not second
    first.clear()
    first.append(Tiling((1, 1)))
    assert enumerate_tilings(FIBONACCI, 5) == second
    assert len(second) == 5
    assert enumerate_tilings(FIBONACCI, 0) == []


def test_tiling_counts():
    assert [tiling_count(FIBONACCI, n) for n in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert [tiling_count(TRIBONACCI, n) for n in range(1, 9)] == [1, 1, 2, 4, 7, 13, 24, 44]


def test_tall_columns_take_no_stack_depth():
    # both recursions run bottom up; recursing once per unit of height
    # overflowed the interpreter's stack near height 490
    assert tiling_count(FIBONACCI, 5000) == fibonacci_number(5000)
    assert weight_poly(FIBONACCI, 600).eval_at(1, 1, 1) == fibonacci_number(600)


def test_tiling_count_stops_at_its_limit():
    for fam in (FIBONACCI, TRIBONACCI, TileFamily((1, 3))):
        for n in range(12):
            count = tiling_count(fam, n)
            assert count == weight_poly(fam, n).eval_at(1, 1, 1)
            for limit in (1, 5, 30):
                assert tiling_count(fam, n, limit) == min(count, limit)
    # the count never falls with height, so the loop ends where it reaches
    # the limit, however tall the column
    assert tiling_count(FIBONACCI, 10**15, 1 << 64) == 1 << 64


WEIGHT_STRINGS = [
    (FIBONACCI, 1, "q"),
    (FIBONACCI, 2, "q^2"),
    (FIBONACCI, 3, "p*q + q^3"),
    (FIBONACCI, 4, "2*p*q^2 + q^4"),
    (FIBONACCI, 5, "p^2*q + 3*p*q^3 + q^5"),
    (TRIBONACCI, 3, "p*q + q^3"),
    (TRIBONACCI, 4, "q*r + 2*p*q^2 + q^4"),
]


@pytest.mark.parametrize("fam,n,text", WEIGHT_STRINGS)
def test_weight_poly_values(fam: TileFamily, n: int, text: str):
    assert str(weight_poly(fam, n)) == text


def test_weight_poly_edges():
    # no tiling of an empty column: its factor in product formulas is bare x
    assert weight_poly(FIBONACCI, 0) == 0
    with pytest.raises(ValueError):
        weight_poly(FIBONACCI, -1)


@pytest.mark.parametrize("fam", [FIBONACCI, TRIBONACCI])
def test_weight_recursion_matches_enumeration(fam: TileFamily):
    for n in range(1, 13):
        assert weight_poly(fam, n) == tiling_weight_sum(fam, n)


def test_weight_specializations():
    # q = p = 1 collapses the weight to the plain tiling count
    for n in range(1, 26):
        assert weight_poly(FIBONACCI, n).eval_at(1, 1) == fibonacci_number(n)
    trib = [0, 1, 1, 2]
    while len(trib) < 26:
        trib.append(trib[-1] + trib[-2] + trib[-3])
    for n in range(1, 26):
        assert weight_poly(TRIBONACCI, n).eval_at(1, 1, 1) == trib[n]


@pytest.mark.parametrize("fam", [FIBONACCI, TRIBONACCI])
def test_all_height_one_tiling_contributes_q_to_the_n(fam: TileFamily):
    for n in range(1, 16):
        w = weight_poly(fam, n)
        assert w.coefficient("p", 0).coefficient("r", 0) == Q**n


# tree ranks ------------------------------------------------------------------
#
# Reading the height-{1,2} tilings of a fixed height as root-to-leaf paths of a
# plane binary tree (top tile first; height 1 = left branch, height 2 = right
# branch) orders them left to right. `tree_rank` computes a tiling's position in
# that order without building the tree, and the rank generating function is the
# q-analogue [F_n]_q (acceptance criterion 13). The library has no caller for
# either, so they live here, checked against the lexicographic oracle below.


def tree_rank(t: Tiling) -> int:
    """Position of a {1,2}-tiling among all tilings of its height.

    The tilings of height n are the leaves of a plane tree: follow the tiles
    top to bottom, branching left on a height-1 tile and right on a height-2
    tile. Every right branch at remaining height m skips the whole left
    subtree, which holds F_{m-1} leaves (the completions starting with a
    height-1 tile), so the leaf index is the sum of F_{m-1} over the
    height-2 tiles.
    """
    if any(h == 3 for h in t.tiles):
        raise ValueError("tree_rank is defined for height-{1,2} tilings only")
    rank = 0
    remaining = t.height
    for h in reversed(t.tiles):  # top to bottom
        if h == 2:
            rank += fibonacci_number(remaining - 1)
        remaining -= h
    return rank


def rank_generating_poly(n: int) -> PQRPoly:
    """Sum of q^rank over all {1,2}-tilings of height n; equals [F_n]_q."""
    if n < 1:
        return PQRPoly.zero()
    out: dict[tuple[int, int, int], int] = {}
    for t in enumerate_tilings(FIBONACCI, n):
        key = (tree_rank(t), 0, 0)
        out[key] = out.get(key, 0) + 1
    return PQRPoly(out)


def _rank_oracle(n: int) -> dict[Tiling, int]:
    """Rank = position in lexicographic order of the top-to-bottom tile lists.

    Reading tiles from the top makes the lists prefix-free (the forced
    bottom height-1 tile ends every list), so lexicographic position is
    exactly the left-to-right leaf order in the decision tree.
    """
    tilings = enumerate_tilings(FIBONACCI, n)
    by_path = sorted(tilings, key=lambda t: tuple(reversed(t.tiles)))
    return {t: i for i, t in enumerate(by_path)}


@pytest.mark.parametrize("n", range(1, 11))
def test_tree_rank_matches_lex_order_of_paths(n: int):
    oracle = _rank_oracle(n)
    for t, want in oracle.items():
        assert tree_rank(t) == want


@pytest.mark.parametrize("n", range(1, 15))
def test_tree_rank_is_a_bijection(n: int):
    ranks = sorted(tree_rank(t) for t in enumerate_tilings(FIBONACCI, n))
    assert ranks == list(range(fibonacci_number(n)))


def test_rank_generating_poly_is_q_int_of_fibonacci():
    assert rank_generating_poly(4) == 1 + Q + Q**2
    for n in range(1, 15):
        assert rank_generating_poly(n) == q_int(fibonacci_number(n))


def test_tree_rank_rejects_height_three_tiles():
    with pytest.raises(ValueError):
        tree_rank(Tiling((1, 3)))
