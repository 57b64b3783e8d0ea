"""Ferrers boards and tiling placements, file and rook-style.

A board is a sequence of column heights b_1 <= ... <= b_n (weakly
increasing for the rook model; arbitrary nonnegative heights are allowed
for the file model, where columns never interact).

File placements choose k columns and tile each chosen column to its full
height. Rook-style placements add cancellation: processing the chosen
columns left to right, the s-th tiling removes from every column j to its
right the top b_{j-(s-1)} - b_{j-s} cells (original heights, 1-based), so
each tiling it meets later is shorter. The bookkeeping has a closed form
on Ferrers boards: the s-th tiled column i_s has exactly b_{i_s-(s-1)}
uncanceled cells, and the untiled columns keep the k smallest heights
b_1, ..., b_{n-k} in left-to-right order. The closed rule feeds
everything here; the tests run the literal per-cell simulation and
assert that the two agree.

Both models are one placement model whose parameter is the cancellation
rule `lag`: the s-th tiled column (s = 0, 1, ...) at column c gets
b_{c - lag*s} cells, with lag 0 for file placements and lag 1 for rook
placements. The placement classes, their validation, both enumerators and
both placement polynomials read that one rule, and each polynomial can be
computed two independent ways:
"recursion" peels the last column by whether it is tiled (if tiled, as the
k-th chosen column it has b_n cells in the file model and b_{n-(k-1)} in
the rook model), while "enumeration" walks every subset of columns and
multiplies per-column weight sums obtained by exhaustively listing
tilings. Mixed and augmented placement sums re-derive the product formulas
column by column as polynomials in x, the number of rook rows below the
board, each walking its tilings under its model's `lag`: the augmented sum
expands the rook product placement by placement, so it is x^n only under
the rook rule.

A placement is a plain (board, entries) record that derives its text and
weight on demand. The enumerators return a `PlacementView`, not a list: its
`len()` is the exact `placement_count`, and each pass over it draws the
placements afresh, so a walk over all of them holds one at a time.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, product
from typing import ClassVar, Iterator

from fibrook.poly import PQRPoly, XPoly
from fibrook.tiling import (
    Record,
    TileFamily,
    Tiling,
    enumerate_tilings,
    parse_tiling,
    tiling_count,
    tiling_weight_sum,
    weight_poly,
)

# ──────────────────────────────────────────────────────────────────────────
# boards
# ──────────────────────────────────────────────────────────────────────────


class FerrersBoard(Record):
    """Column heights, left to right. Non-Ferrers profiles are allowed but
    flagged; the rook model requires weakly increasing heights."""

    __slots__ = ("heights",)

    def __init__(self, heights: tuple[int, ...]) -> None:
        hts = tuple(int(h) for h in heights)
        if any(h < 0 for h in hts):
            raise ValueError("column heights must be nonnegative")
        self._set(hts)

    @classmethod
    @lru_cache(maxsize=None)
    def staircase(cls, n: int) -> FerrersBoard:
        """The board with heights (0, 1, ..., n-1)."""
        if n < 0:
            raise ValueError("staircase needs n >= 0")
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.heights)

    @property
    def is_ferrers(self) -> bool:
        return all(a <= b for a, b in zip(self.heights, self.heights[1:]))

    def __str__(self) -> str:
        return "F(" + ",".join(str(h) for h in self.heights) + ")"


_BOARD_RE = re.compile(r"^F\(\s*(.*?)\s*\)$")


def parse_board(text: str) -> FerrersBoard:
    """Parse the text form "F(0,1,2,3)"; "F()" is the empty board."""
    m = _BOARD_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad board text {text!r}, expected like 'F(0,1,2)'")
    inner = m.group(1)
    if not inner:
        return FerrersBoard(())
    try:
        heights = tuple(int(part) for part in inner.split(","))
    except ValueError as exc:
        raise ValueError(f"bad board text {text!r}") from exc
    return FerrersBoard(heights)


# ──────────────────────────────────────────────────────────────────────────
# cancellation bookkeeping
# ──────────────────────────────────────────────────────────────────────────


def _require_ferrers(board: FerrersBoard, what: str) -> None:
    if not board.is_ferrers:
        raise ValueError(f"{what} needs weakly increasing heights, got {board}")


def _rule_heights(heights: tuple[int, ...], cols, lag: int) -> tuple[int, ...]:
    """Cells of each chosen column (1-based, ascending) under the rule `lag`."""
    return tuple(heights[col - 1 - lag * s] for s, col in enumerate(cols))


# ──────────────────────────────────────────────────────────────────────────
# placements
# ──────────────────────────────────────────────────────────────────────────


def skeleton_problem(
    board: FerrersBoard, skeleton: tuple[tuple[int, int], ...], lag: int
) -> str | None:
    """Why the (column, height) pairs of `skeleton` break the placement rule
    `lag` on `board`, or None: the columns must be ints, strictly increasing
    and in range, the s-th (s = 0, 1, ...) at column c of the height
    b_{c - lag*s} the rule leaves it. The board's shape is not checked: the
    rook rule needs a Ferrers board, which the caller knows or checks once."""
    b = board.heights
    n = len(b)
    prev = 0
    for s, (col, h) in enumerate(skeleton):
        if type(col) is not int:
            return f"placement column {col!r} is not an int"
        if not 1 <= col <= n:
            return f"placement columns out of range for {board}"
        if col <= prev:
            return "placement columns must be strictly increasing"
        want = b[col - 1 - lag * s]
        if h != want:
            return f"column {col} has {want} uncanceled cells, tiling covers {h}"
        prev = col
    return None


def entries_problem(
    board: FerrersBoard, entries: tuple[tuple[int, Tiling], ...], lag: int
) -> str | None:
    """Why (column, tiling) `entries` break the placement rule `lag` on
    `board`, or None: the `skeleton_problem` of their columns and heights."""
    return skeleton_problem(board, [(col, t._height) for col, t in entries], lag)


class Placement(Record):
    """A plain (board, entries) record: k chosen columns, the s-th
    (s = 0, 1, ...) at column c tiled to the b_{c - lag*s} cells the
    cancellation rule leaves it. `__init__` raises on entries that break the
    rule; `str()` and `exponents()` are derived from the entries on demand."""

    __slots__ = ("board", "entries")
    lag: ClassVar[int]

    def __init__(self, board: FerrersBoard, entries: tuple[tuple[int, Tiling], ...]) -> None:
        if self.lag:
            _require_ferrers(board, "a rook-style placement")
        entries = tuple(entries)
        problem = entries_problem(board, entries, self.lag)
        if problem is not None:
            raise ValueError(problem)
        self._set(board, entries)

    @property
    def k(self) -> int:
        return len(self.entries)

    def exponents(self) -> tuple[int, int, int]:
        """(e_q, e_p, e_r) of the weight: the tiles of each height, summed."""
        ones = twos = threes = 0
        for _, t in self.entries:
            a, b, c = t._counts
            ones, twos, threes = ones + a, twos + b, threes + c
        return ones, twos, threes

    def weight(self) -> PQRPoly:
        return PQRPoly.term(1, *self.exponents())

    def __str__(self) -> str:
        return ";".join([f"{c}:{t._text}" for c, t in self.entries])


class FilePlacement(Placement):
    """k chosen columns, each tiled to its full board height."""

    __slots__ = ()
    lag = 0


class RookPlacement(Placement):
    """k chosen columns tiled under cancellation: the s-th tiling covers the
    b_{i_s-(s-1)} cells its column still has."""

    __slots__ = ()
    lag = 1


_MODELS = {"file": FilePlacement, "rook": RookPlacement}


def parse_placement(board: FerrersBoard, text: str, model: str = "file"):
    """Parse "2:1;4:1,2" (column:tiling pairs) into a placement object."""
    entries: list[tuple[int, Tiling]] = []
    text = text.strip()
    if text:
        for chunk in text.split(";"):
            col_text, _, tiling_text = chunk.partition(":")
            entries.append((int(col_text), parse_tiling(tiling_text)))
    if model not in _MODELS:
        raise ValueError(f"unknown placement model {model!r}")
    return _MODELS[model](board, tuple(entries))


class PlacementView:
    """The k-column placements of one model on a board, drawn lazily.

    `len()` is the exact `placement_count`, found on integers without
    drawing a placement. Each pass draws the placements afresh, in a fixed
    order (column subsets in ascending order, tilings lexicographic), so a
    caller that does not keep them holds one at a time; `list(view)` holds
    them all.

    `skeletons()` walks the column subsets, each with the heights the rule
    gives its columns. The placements of one skeleton share all but their
    last column, so `heads()` folds each skeleton once: each head (one
    tiling per leading column, drawn lazily, so one is held at a time) is
    joined into an entries prefix, a text prefix and an exponent sum, which
    each fragment of the last column completes. `entries()` completes the
    entries alone, and iterating builds a `Placement` record from each
    through its constructor; callers that need no record read
    `skeletons()`, `heads()` or `entries()`.
    """

    __slots__ = ("board", "fam", "k", "model")

    def __init__(self, board: FerrersBoard, fam: TileFamily, k: int, model: str):
        self.board = board
        self.fam = fam
        self.k = k
        self.model = model

    def __len__(self) -> int:
        return placement_count(self.board, self.fam, self.k, self.model)

    def skeletons(self) -> Iterator[tuple[tuple[int, int], ...]]:
        """The skeleton ((column, height), ...) of each column subset with no
        zero height, in the view's order: the placements that tile each column
        to the height the rule gives it. k = 0 gives one empty skeleton."""
        # `combinations` would allocate k indices before finding none
        board, k = self.board, self.k
        if k < 0 or k > board.n:
            return
        lag = _MODELS[self.model].lag
        for combo in combinations(range(1, board.n + 1), k):
            hts = _rule_heights(board.heights, combo, lag)
            if 0 not in hts:
                yield tuple(zip(combo, hts))

    def heads(self) -> Iterator[tuple[tuple, str, tuple[int, int, int], list[tuple]]]:
        """(entries, text, exponents, last) per head, in the view's order.

        Each (entries, text, counts) fragment in `last`, a list shared by
        the heads of one skeleton, completes the head into one placement:
        the entries and text concatenated, the counts summed. k = 0 gives
        one head with one empty fragment; k < 0 or k > n none.
        """
        # every tiling comes from the pool of the height the skeleton gives
        # its column, so the entries hold by construction and need no validation
        if self.k == 0:
            yield (), "", (0, 0, 0), [((), "", (0, 0, 0))]
            return
        fam = self.fam
        for skeleton in self.skeletons():
            *leading, last = [
                [(((col, t),), f"{col}:{t._text}", t._counts) for t in enumerate_tilings(fam, h)]
                for col, h in skeleton
            ]
            for head in product(*leading):
                entries = tuple([entry for (entry,), _, _ in head])
                text = "".join([piece + ";" for _, piece, _ in head])
                exps = tuple(map(sum, zip((0, 0, 0), *[cts for _, _, cts in head])))
                yield entries, text, exps, last

    def entries(self) -> Iterator[tuple[tuple[int, Tiling], ...]]:
        """The entries of each placement, in the view's order, from `heads()`."""
        return (head + tail for head, _, _, last in self.heads() for tail, _, _ in last)

    def __iter__(self) -> Iterator[Placement]:
        cls, board = _MODELS[self.model], self.board
        return (cls(board, entries) for entries in self.entries())


def enumerate_file_placements(board: FerrersBoard, fam: TileFamily, k: int) -> PlacementView:
    """Every file placement with k tiled columns, as a `PlacementView`."""
    return PlacementView(board, fam, k, "file")


def enumerate_rook_placements(board: FerrersBoard, fam: TileFamily, k: int) -> PlacementView:
    """Every rook-style placement with k tiled columns, as a `PlacementView`."""
    _require_ferrers(board, "a rook-style placement")
    return PlacementView(board, fam, k, "rook")


# ──────────────────────────────────────────────────────────────────────────
# placement polynomials, two independent modes
# ──────────────────────────────────────────────────────────────────────────


@lru_cache(maxsize=None)
def _placement_rec(heights: tuple[int, ...], fam: TileFamily, k: int, lag: int) -> PQRPoly:
    if k < 0 or k > len(heights):
        return PQRPoly.zero()
    if k == 0:
        return PQRPoly.one()
    body = heights[:-1]
    keep = _placement_rec(body, fam, k, lag)
    # tiled, the last column is the k-th tiled one
    last = len(heights) - 1 - lag * (k - 1)
    use = weight_poly(fam, heights[last]) * _placement_rec(body, fam, k - 1, lag)
    return keep + use


@lru_cache(maxsize=None)
def _enum_sums(heights: tuple[int, ...], fam: TileFamily, lag: int) -> tuple[PQRPoly, ...]:
    n = len(heights)
    sums = [PQRPoly.zero() for _ in range(n + 1)]
    col_weight = [tiling_weight_sum(fam, h) for h in heights]

    def walk(start: int, count: int, acc: PQRPoly) -> None:
        sums[count] = sums[count] + acc
        for j in range(start, n):
            w = col_weight[j - lag * count]
            if w:
                walk(j + 1, count + 1, acc * w)

    walk(0, 0, PQRPoly.one())
    return tuple(sums)


def _placement_poly(
    board: FerrersBoard, fam: TileFamily, k: int, mode: str, lag: int
) -> PQRPoly:
    if mode == "recursion":
        return _placement_rec(board.heights, fam, k, lag)
    if mode == "enumeration":
        if k < 0 or k > board.n:
            return PQRPoly.zero()
        return _enum_sums(board.heights, fam, lag)[k]
    raise ValueError(f"unknown mode {mode!r}")


def file_poly(
    board: FerrersBoard, fam: TileFamily, k: int, mode: str = "recursion"
) -> PQRPoly:
    """Total weight of the k-column file placements on `board`.

    mode="recursion" peels the last column; mode="enumeration" walks the
    column subsets and multiplies exhaustively enumerated per-column sums.
    """
    return _placement_poly(board, fam, k, mode, FilePlacement.lag)


def rook_poly(
    board: FerrersBoard, fam: TileFamily, k: int, mode: str = "recursion"
) -> PQRPoly:
    """Total weight of the k-column rook-style placements on `board`."""
    _require_ferrers(board, "a rook-style placement")
    return _placement_poly(board, fam, k, mode, RookPlacement.lag)


def placement_count(
    board: FerrersBoard, fam: TileFamily, k: int, model: str = "file", limit: int | None = None
) -> int:
    """How many k-column placements of `model` the board has, or
    min(count, limit): its placement polynomial at q = p = r = 1.

    Counted on integers, not by `file_poly`/`rook_poly`: those build each
    column's weight polynomial, which for a column 5000 cells tall takes
    about 7 s and 2 GB. Left to right, ways[s] counts the placements of s
    tilings on the columns seen so far; a column tiled as the (s+1)-th gets
    the height b_(c - lag*s) the rule gives it. With `limit`, every sum and
    product is capped there, which leaves any count below it exact and
    bounds the work a tall column costs.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown placement model {model!r}")
    lag = _MODELS[model].lag
    if lag:
        _require_ferrers(board, "a rook-style placement")
    if k < 0 or k > board.n:
        return 0
    tilings = {h: tiling_count(fam, h, limit) for h in set(board.heights)}
    ways = [1] + [0] * k
    for c in range(board.n):
        for s in range(min(c, k - 1), -1, -1):
            if ways[s]:
                ways[s + 1] += ways[s] * tilings[board.heights[c - lag * s]]
                if limit is not None and ways[s + 1] > limit:
                    ways[s + 1] = limit
    return ways[k] if limit is None else min(ways[k], limit)


# ──────────────────────────────────────────────────────────────────────────
# mixed and augmented placements
# ──────────────────────────────────────────────────────────────────────────


def mixed_file_sum(board: FerrersBoard, fam: TileFamily) -> XPoly:
    """Sum of weights over mixed placements with x rook rows below the board,
    as a polynomial in x.

    Every column takes either a tiling under the file rule (its full height,
    its weight) or a rook in one of the x interchangeable rows (weight x).
    The coefficient of x^j sums the placements with j rooks; the total
    factors column by column, so it must equal prod_i (x + W_{b_i}) and
    hence sum_k file_poly(k) * x^(n-k).
    """
    n, lag = board.n, FilePlacement.lag
    # the tile counts of each tiling of each column's full height
    tiles = [[t.height_counts() for t in enumerate_tilings(fam, h)] for h in board.heights]
    acc: list[dict[tuple[int, int, int], int]] = [{} for _ in range(n + 1)]

    def walk(i: int, rooks: int, tiled: int, exps: tuple[int, int, int]) -> None:
        if i == n:
            acc[rooks][exps] = acc[rooks].get(exps, 0) + 1
            return
        walk(i + 1, rooks + 1, tiled, exps)
        for a, b, c in tiles[i - lag * tiled]:
            walk(i + 1, rooks, tiled + 1, (exps[0] + a, exps[1] + b, exps[2] + c))

    walk(0, 0, 0, (0, 0, 0))
    return XPoly([PQRPoly(terms) for terms in acc])


def aug_mixed_sum(board: FerrersBoard, fam: TileFamily) -> XPoly:
    """Signed sum over placements on the board augmented below the x rook
    rows with a mirrored copy of itself, as a polynomial in x.

    Per column i, with s columns tiled above so far: a tiling above under the
    rook rule (b_{i - s} cells, cancelling later columns), a rook in one of
    the x rows (weight x), or, with sign -1, a tiling of the mirrored column
    below, which as the (i - s)-th untiled column has b_{i - s} cells and no
    cancellation. The walk so expands, placement by placement, the right side
    of the rook product x^n = sum_k rT_{n-k} prod_{i<k} (x - W_{b_i}) (the
    augmented board of Goldman, Joichi and White), and the total is x^n only
    under the rook rule: with the file rule above, or an off-by-one rule, it
    differs on most small boards.
    """
    _require_ferrers(board, "the augmented board")
    n, lag = board.n, RookPlacement.lag
    # the tile counts of each tiling of each column's full height
    tiles = [[t.height_counts() for t in enumerate_tilings(fam, h)] for h in board.heights]
    acc: list[dict[tuple[int, int, int], int]] = [{} for _ in range(n + 1)]

    def walk(i: int, rooks: int, tiled: int, exps: tuple[int, int, int], sign: int) -> None:
        if i == n:
            acc[rooks][exps] = acc[rooks].get(exps, 0) + sign
            return
        walk(i + 1, rooks + 1, tiled, exps, sign)
        for a, b, c in tiles[i - lag * tiled]:  # tiling above, under the rule
            walk(i + 1, rooks, tiled + 1, (exps[0] + a, exps[1] + b, exps[2] + c), sign)
        for a, b, c in tiles[i - tiled]:  # mirrored tiling below, in an untiled column
            walk(i + 1, rooks, tiled, (exps[0] + a, exps[1] + b, exps[2] + c), -sign)

    walk(0, 0, 0, (0, 0, 0), 1)
    return XPoly([PQRPoly(terms) for terms in acc])
