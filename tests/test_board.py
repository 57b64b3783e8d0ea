"""Boards, cancellation, placements, and the placement polynomials."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fibrook.board as board_module
import fibrook.identities as identities
from fibrook.board import (
    FerrersBoard,
    FilePlacement,
    PlacementView,
    RookPlacement,
    _require_ferrers,
    _rule_heights,
    aug_mixed_sum,
    enumerate_file_placements,
    enumerate_rook_placements,
    file_poly,
    mixed_file_sum,
    parse_board,
    parse_placement,
    placement_count,
    rook_poly,
)
from fibrook.identities import all_ferrers_boards
from fibrook.poly import P, Q, PQRPoly, XPoly
from fibrook.tiling import FIBONACCI, TRIBONACCI, TileFamily, parse_tiling, weight_poly

FAMILIES = [FIBONACCI, TRIBONACCI]


# board basics ---------------------------------------------------------------


def test_board_construction_and_parse():
    b = FerrersBoard.staircase(4)
    assert b.heights == (0, 1, 2, 3)
    assert b.n == 4
    assert b.is_ferrers
    assert str(b) == "F(0,1,2,3)"
    assert parse_board("F(0, 1, 2, 3)") == b
    assert not FerrersBoard((3, 1, 2)).is_ferrers
    with pytest.raises(ValueError):
        FerrersBoard((1, -2))
    with pytest.raises(ValueError):
        parse_board("G(1,2)")
    with pytest.raises(ValueError):
        parse_board("F(1,x)")


# cancellation ----------------------------------------------------------------


def _check_columns(board: FerrersBoard, chosen) -> tuple[int, ...]:
    cols = tuple(chosen)
    if list(cols) != sorted(set(cols)):
        raise ValueError("chosen columns must be strictly increasing")
    if cols and (cols[0] < 1 or cols[-1] > board.n):
        raise ValueError(f"chosen columns out of range for {board}")
    return cols


def _cancellation_simulation(
    board: FerrersBoard, cols: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # literal per-cell bookkeeping; returns (tiling heights, untiled heights)
    b = board.heights
    n = board.n
    remaining = list(b)
    tiled_heights = []
    for s, col in enumerate(cols):  # s tilings already placed to the left
        tiled_heights.append(remaining[col - 1])
        for j in range(col + 1, n + 1):
            cut = b[j - s - 1] - b[j - s - 2]
            remaining[j - 1] -= cut
            if remaining[j - 1] < 0:
                raise AssertionError("cancellation removed more cells than a column has")
    chosen_set = set(cols)
    untiled = tuple(remaining[c - 1] for c in range(1, n + 1) if c not in chosen_set)
    return tuple(tiled_heights), untiled


def uncanceled_heights(board: FerrersBoard, chosen) -> tuple[int, ...]:
    """Heights left in the untiled columns once every tiling has canceled.

    The literal per-cell simulation, the reference that the closed rule of
    `fibrook.board` is checked against. On a Ferrers board the result is
    always the n - |chosen| smallest board heights, in left-to-right order.
    """
    _require_ferrers(board, "cancellation")
    cols = _check_columns(board, chosen)
    return _cancellation_simulation(board, cols)[1]


def rook_tiling_heights(board: FerrersBoard, chosen) -> tuple[int, ...]:
    """Uncanceled height of each chosen column at the moment it is tiled.

    The closed rule that the enumerator draws rook tilings by: the s-th
    chosen column i_s (1-based s) keeps b_{i_s - (s-1)} cells.
    """
    return _rule_heights(board.heights, tuple(chosen), RookPlacement.lag)


def test_simulation_matches_closed_rule_exhaustively():
    # per-cell bookkeeping vs the closed formula b_{i_s - (s-1)}, every
    # Ferrers board with up to 5 columns of height <= 5, every column subset
    for board in all_ferrers_boards(5, 5):
        cols = range(1, board.n + 1)
        for k in range(board.n + 1):
            for chosen in itertools.combinations(cols, k):
                tiled, untiled = _cancellation_simulation(board, chosen)
                assert tiled == rook_tiling_heights(board, chosen)
                # what survives in untiled columns is the n-k smallest heights
                assert untiled == board.heights[: board.n - k]


def test_uncanceled_heights_examples():
    b6 = FerrersBoard.staircase(6)
    assert uncanceled_heights(b6, (3,)) == (0, 1, 2, 3, 4)
    board = FerrersBoard((2, 3, 4, 4, 6, 6))
    assert uncanceled_heights(board, (2, 5, 6)) == (2, 3, 4)
    assert rook_tiling_heights(board, (2, 5, 6)) == (3, 4, 4)
    b4 = FerrersBoard.staircase(4)
    assert rook_tiling_heights(b4, (2, 3, 4)) == (1, 1, 1)
    assert rook_tiling_heights(b4, (3, 4)) == (2, 2)
    with pytest.raises(ValueError):
        uncanceled_heights(FerrersBoard((3, 1)), (1,))
    with pytest.raises(ValueError):
        uncanceled_heights(b4, (3, 2))


# placements -------------------------------------------------------------------


def test_placement_validation():
    board = FerrersBoard((1, 2, 3, 3))
    good = FilePlacement(board, ((2, parse_tiling("1,1")), (4, parse_tiling("1,2"))))
    assert good.k == 2
    assert good.weight() == P * Q**3
    assert str(good) == "2:1,1;4:1,2"
    with pytest.raises(ValueError):
        FilePlacement(board, ((2, parse_tiling("1"),),))  # wrong height
    with pytest.raises(ValueError):
        FilePlacement(board, ((4, parse_tiling("1,2")), (2, parse_tiling("1,1"))))
    with pytest.raises(ValueError):
        RookPlacement(FerrersBoard((3, 1)), ())
    # rook tiling must cover the uncanceled height: columns 3 and 4 keep
    # b_3 = 3 and b_3 = 3 cells here, so a height-2 tiling is rejected
    ok = RookPlacement(board, ((3, parse_tiling("1,2")), (4, parse_tiling("1,2"))))
    assert ok.weight() == P**2 * Q**2
    with pytest.raises(ValueError):
        RookPlacement(board, ((3, parse_tiling("1,1")), (4, parse_tiling("1,2"))))
    # equal board and entries, different models: not the same placement
    entries = ((3, parse_tiling("1,2")),)
    assert FilePlacement(board, entries) != RookPlacement(board, entries)


def test_parse_placement_round_trip():
    board = FerrersBoard((2, 3, 4, 4, 5))
    pl = parse_placement(board, "2:1,2;4:1,1,2", model="rook")
    assert pl.weight() == P**2 * Q**3
    assert pl in enumerate_rook_placements(board, FIBONACCI, 2)
    empty = parse_placement(board, "", model="file")
    assert empty.k == 0
    assert empty.weight() == 1


MODELS = [
    (FilePlacement, enumerate_file_placements, file_poly),
    (RookPlacement, enumerate_rook_placements, rook_poly),
]


@pytest.mark.parametrize("model,poly", [("file", file_poly), ("rook", rook_poly)])
def test_placement_count_is_the_placement_polynomial_at_one(model, poly):
    boards = list(all_ferrers_boards(4, 5))
    if model == "file":
        boards.append(FerrersBoard((3, 1, 2, 0, 4)))
    for fam in FAMILIES:
        for board in boards:
            for k in range(-1, board.n + 2):
                count = poly(board, fam, k).eval_at(1, 1, 1)
                assert placement_count(board, fam, k, model) == count
                for limit in (1, 7, 40):
                    assert placement_count(board, fam, k, model, limit) == min(count, limit)
    with pytest.raises(ValueError, match="weakly increasing"):
        placement_count(FerrersBoard((2, 1)), FIBONACCI, 1, "rook")


def _check_enumerator_contract(cls, enumerate_placements, count, boards, fam) -> int:
    # the view draws entries without validating them; iterating it builds
    # each placement once, through `cls.__init__`, which raises ValueError
    # when `entries_problem` finds one (tests/test_records.py pins this), so
    # each placement is validated once and must equal its drawn entries
    listed = 0
    for board in boards:
        for k in range(board.n + 2):
            view = enumerate_placements(board, fam, k)
            entries = list(view.entries())
            assert len(view) == len(entries) == count(board, fam, k).eval_at(1, 1, 1)
            assert [(type(pl), pl.entries) for pl in view] == [(cls, e) for e in entries]
            listed += len(entries)
    return listed


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.label)
@pytest.mark.parametrize("cls,enumerate_placements,count", MODELS, ids=["file", "rook"])
def test_enumerated_placements_satisfy_their_rule(cls, enumerate_placements, count, fam):
    boards = all_ferrers_boards(5, 5)
    assert _check_enumerator_contract(cls, enumerate_placements, count, boards, fam) > 10_000


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.label)
def test_enumerated_file_placements_satisfy_their_rule_off_ferrers(fam):
    # the file rule reads each column alone, so a smaller range of profiles
    # suffices: every non-Ferrers board of at most 4 columns, heights <= 4
    boards = [
        board
        for n in range(2, 5)
        for heights in itertools.product(range(5), repeat=n)
        if not (board := FerrersBoard(heights)).is_ferrers
    ]
    assert _check_enumerator_contract(*MODELS[0], boards, fam) > 10_000


def test_file_enumeration_counts():
    board = FerrersBoard((1, 2, 3))
    assert len(enumerate_file_placements(board, FIBONACCI, 1)) == 4
    assert len(enumerate_file_placements(board, FIBONACCI, 2)) == 5
    assert len(enumerate_file_placements(board, FIBONACCI, 3)) == 2
    assert len(enumerate_file_placements(board, FIBONACCI, 0)) == 1
    assert list(enumerate_file_placements(board, FIBONACCI, 4)) == []
    # zero-height columns can never be tiled
    b3 = FerrersBoard.staircase(3)
    assert all(
        all(c != 1 for c, _ in pl.entries)
        for k in range(4)
        for pl in enumerate_file_placements(b3, FIBONACCI, k)
    )


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.label)
@pytest.mark.parametrize("model,enumerate_placements", [
    ("file", enumerate_file_placements),
    ("rook", enumerate_rook_placements),
])
def test_placement_view_is_sized_and_drawn_afresh(model, enumerate_placements, fam):
    # the view is counted without drawing a placement, and each pass draws
    # the same placements again
    for board in all_ferrers_boards(4, 4):
        for k in range(-1, board.n + 2):
            view = enumerate_placements(board, fam, k)
            first = list(view)
            assert len(view) == len(first) == placement_count(board, fam, k, model)
            assert list(view) == first


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.label)
@pytest.mark.parametrize("model", ["file", "rook"])
def test_folded_text_and_exponents_match_the_derived_ones(model, fam):
    # the view folds each placement's text and exponents column by column:
    # each fragment of a head's last column completes one placement, the
    # entries and text of both joined, their exponents summed; a placement
    # derives both from its entries, as a parsed (validated) one does
    boards = list(all_ferrers_boards(4, 4))
    if model == "file":
        boards += [FerrersBoard((3, 1, 2)), FerrersBoard((2, 0, 5, 1))]
    for board in boards:
        for k in range(-1, board.n + 2):
            view = PlacementView(board, fam, k, model)
            completed = [
                (entries + tail, text + piece, tuple(e + c for e, c in zip(exps, counts)))
                for entries, text, exps, last in view.heads()
                for tail, piece, counts in last
            ]
            placements = list(view)
            assert len(completed) == placement_count(board, fam, k, model)
            assert completed == [(pl.entries, str(pl), pl.exponents()) for pl in placements]
            assert list(view.entries()) == [entries for entries, _, _ in completed]
            for pl in placements:
                text = str(pl)
                parsed = parse_placement(board, text, model)
                assert text == str(parsed)
                assert pl.exponents() == parsed.exponents()
                assert pl == parsed and hash(pl) == hash(parsed)
                for twin in (copy.copy(pl), pickle.loads(pickle.dumps(pl))):
                    assert twin == pl and str(twin) == text


def test_rook_enumeration_on_small_staircase():
    b3 = FerrersBoard.staircase(3)
    pls = enumerate_rook_placements(b3, FIBONACCI, 1)
    assert [str(p) for p in pls] == ["2:1", "3:1,1"]
    total = sum((p.weight() for p in pls), PQRPoly.zero())
    assert total == Q + Q**2


def test_specific_file_placement_weight_present():
    board = FerrersBoard((2, 3, 4, 4, 5))
    weights = [p.weight() for p in enumerate_file_placements(board, FIBONACCI, 3)]
    assert P**2 * Q**7 in weights
    assert sum(w == P**2 * Q**7 for w in weights) == 22


# recursion vs enumeration ------------------------------------------------------


@pytest.mark.parametrize("fam", FAMILIES)
def test_polys_match_placement_sums(fam: TileFamily):
    # the polynomial really is the weight sum over explicit placements
    boards = list(all_ferrers_boards(4, 4)) + [FerrersBoard.staircase(n) for n in (5, 6)]
    for board in boards:
        for k in range(board.n + 1):
            fsum = sum(
                (p.weight() for p in enumerate_file_placements(board, fam, k)),
                PQRPoly.zero(),
            )
            rsum = sum(
                (p.weight() for p in enumerate_rook_placements(board, fam, k)),
                PQRPoly.zero(),
            )
            assert file_poly(board, fam, k) == fsum
            assert rook_poly(board, fam, k) == rsum


def test_the_two_placement_modes_stay_independent(monkeypatch):
    # recursion reads only weight_poly, enumeration only the enumerated
    # column sums, so each mode returns with the other's input broken
    boards = (FerrersBoard((1, 2, 2, 4)), FerrersBoard((3, 1, 2)), FerrersBoard.staircase(5))
    cases = [
        (poly, board, fam, k)
        for board in boards
        for fam in FAMILIES
        for poly in ((file_poly, rook_poly) if board.is_ferrers else (file_poly,))
        for k in range(board.n + 1)
    ]

    def broken(*args):
        raise RuntimeError("the other mode's input")

    def values(mode: str, *names: str) -> list[PQRPoly]:
        board_module._placement_rec.cache_clear()
        board_module._enum_sums.cache_clear()
        with monkeypatch.context() as patch:
            for name in names:
                patch.setattr(board_module, name, broken)
            return [poly(board, fam, k, mode) for poly, board, fam, k in cases]

    recursion = values("recursion", "tiling_weight_sum", "enumerate_tilings")
    assert values("enumeration", "weight_poly") == recursion
    # the patches reach the mode that uses them
    with pytest.raises(RuntimeError):
        values("recursion", "weight_poly")
    with pytest.raises(RuntimeError):
        values("enumeration", "tiling_weight_sum")


def test_file_poly_on_non_ferrers_board():
    board = FerrersBoard((3, 1, 2))
    want = weight_poly(FIBONACCI, 3) + weight_poly(FIBONACCI, 1) + weight_poly(FIBONACCI, 2)
    assert file_poly(board, FIBONACCI, 1) == want
    assert file_poly(board, FIBONACCI, 1, mode="enumeration") == want
    with pytest.raises(ValueError):
        rook_poly(board, FIBONACCI, 1)


def test_poly_edge_cases():
    board = FerrersBoard((1, 2))
    assert file_poly(board, FIBONACCI, 0) == 1
    assert file_poly(board, FIBONACCI, 3) == 0
    assert rook_poly(board, FIBONACCI, 0) == 1
    with pytest.raises(ValueError):
        file_poly(board, FIBONACCI, 1, mode="nope")


# product formulas ---------------------------------------------------------------


heights_lists = st.lists(st.integers(0, 5), min_size=1, max_size=5)
ferrers_boards = heights_lists.map(lambda hs: FerrersBoard(tuple(sorted(hs))))
any_boards = heights_lists.map(lambda hs: FerrersBoard(tuple(hs)))
families = st.sampled_from(FAMILIES)


@given(any_boards, families)
def test_file_product_identity(board: FerrersBoard, fam: TileFamily):
    # prod_i (x + W(b_i)) = sum_k fT_k(B) x^(n-k), no shape condition needed
    product = identities._board_product(board, fam)
    assert identities._product_identities(board, fam, product) == []


@given(ferrers_boards, families)
def test_rook_product_identity(board: FerrersBoard, fam: TileFamily):
    # x^n = sum_k rT_{n-k}(B) prod_{i<k} (x - W(b_i)), Ferrers shape required
    product = identities._board_product(board, fam)
    assert identities._product_identities(board, fam, product) == []


# mixed and augmented placements -------------------------------------------------


def test_mixed_sum_single_column():
    mixed = mixed_file_sum(FerrersBoard((1,)), FIBONACCI)
    aug = aug_mixed_sum(FerrersBoard((1,)), FIBONACCI)
    assert mixed == XPoly([Q, 1])
    assert aug == XPoly.x_power(1)
    assert (str(mixed), str(aug)) == ("x + q", "x")
