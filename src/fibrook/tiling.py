"""Column tilings by tiles of height 1, 2 or 3 and their weight polynomials.

A tiling of a height-n column stacks tiles bottom to top; the bottom tile
always has height 1. Weights are multiplicative: q per height-1 tile, p per
height-2 tile, r per height-3 tile. With tile heights {1, 2} the tilings of
height n are counted by the Fibonacci number F_n, and the weight sum
satisfies W_n = q W_{n-1} + p W_{n-2}; allowing height 3 as well gives
tribonacci counts and the three-term analogue of the recursion.

`Record` is the immutable base of every record class in the package.
`TRIANGLE_RULES`, the table of the triangle kinds of `fibrook.stirling`,
is kept here, so the parser reads the kinds without compiling triangles.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from fibrook.poly import P, Q, R, PQRPoly

_ALLOWED_HEIGHTS = (1, 2, 3)


# ──────────────────────────────────────────────────────────────────────────
# integer counting sequences
# ──────────────────────────────────────────────────────────────────────────


@lru_cache(maxsize=None)
def fibonacci_number(n: int) -> int:
    """F_n with F_0 = 0, F_1 = F_2 = 1."""
    if n < 0:
        raise ValueError("fibonacci_number needs n >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ──────────────────────────────────────────────────────────────────────────
# tile families and tilings
# ──────────────────────────────────────────────────────────────────────────


class Record:
    """An immutable record, compared and hashed by its fields: the public
    names of its `__slots__`, in order (underscored slots hold derived values).
    Like a frozen dataclass, it equals only a record of its class with equal
    fields, prints as `Name(field=value, ...)` and refuses assignment and
    deletion. Unlike one, it imports no `inspect` and compiles no methods per
    class, which every command would pay; its key is one C-level `attrgetter`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()  # each slot's own `__set__`, faster than object.__setattr__

    def __init_subclass__(cls) -> None:
        slots = cls.__dict__.get("__slots__", ())
        cls._fields += tuple(name for name in slots if name[0] != "_")
        cls._setters += tuple(cls.__dict__[name].__set__ for name in slots)
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values) -> None:  # every slot, in order; for __init__ only
        for put, value in zip(self._setters, values):
            put(self, value)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # a copy is rebuilt by __init__, with its checks and caches
        return type(self), tuple(getattr(self, name) for name in self._fields)


class TileFamily(Record):
    """The set of tile heights a tiling may use; must contain height 1."""

    __slots__ = ("heights",)

    def __init__(self, heights: tuple[int, ...]) -> None:
        hts = tuple(heights)
        if hts != tuple(sorted(set(hts))):
            raise ValueError("tile heights must be strictly increasing and distinct")
        if 1 not in hts:
            raise ValueError("a tile family must contain height 1")
        if any(h not in _ALLOWED_HEIGHTS for h in hts):
            raise ValueError("tile heights must be drawn from {1, 2, 3}")
        self._set(hts)

    @property
    def label(self) -> str:
        return {(1, 2): "fib", (1, 2, 3): "trib"}.get(self.heights, str(self.heights))


FIBONACCI = TileFamily((1, 2))
TRIBONACCI = TileFamily((1, 2, 3))


class _Rule(Record):
    """How one kind of triangle of `fibrook.stirling` arises: its tile
    family; the factor m(n, k) in T[n+1][k] = T[n][k-1] + m(n, k) T[n][k],
    W_n ("n"), W_k ("k") or W_k + W_n ("k+n"); whether its entries take the
    sign (-1)^(n-k); the staircase placements that count them ("file",
    "rook" or None); and its basis expansion "A-in-B", basis A's n-th
    member = sum_k T[n][k] B_k."""

    __slots__ = ("family", "factor", "signed", "model", "basis")

    def __init__(
        self, family: TileFamily, factor: str, signed: bool, model: str | None, basis: str
    ) -> None:
        self._set(family, factor, signed, model, basis)


TRIANGLE_RULES = {
    "cf": _Rule(FIBONACCI, "n", False, "file", "rising-in-powers"),
    "sf": _Rule(FIBONACCI, "n", True, None, "falling-in-powers"),
    "Sf": _Rule(FIBONACCI, "k", False, "rook", "power-in-falling"),
    "Lf": _Rule(FIBONACCI, "k+n", False, None, "rising-in-falling"),
    "cp": _Rule(TRIBONACCI, "n", False, "file", "rising-in-powers"),
    "sp": _Rule(TRIBONACCI, "n", True, None, "falling-in-powers"),
    "Sp": _Rule(TRIBONACCI, "k", False, "rook", "power-in-falling"),
}
TRIANGLE_KINDS = tuple(TRIANGLE_RULES)


def family_for_kind(kind: str) -> TileFamily:
    try:
        return TRIANGLE_RULES[kind].family
    except KeyError:
        raise ValueError(f"unknown triangle kind {kind!r}") from None


class Tiling(Record):
    """A stack of tiles listed bottom to top; the bottom tile has height 1."""

    # tilings are shared cached objects, so each is counted, summed and joined once
    __slots__ = ("tiles", "_counts", "_height", "_text")

    def __init__(self, tiles: tuple[int, ...]) -> None:
        tiles = tuple(tiles)
        if not tiles:
            raise ValueError("a tiling has at least one tile")
        if tiles[0] != 1:
            raise ValueError("the bottom tile must have height 1")
        if any(h not in _ALLOWED_HEIGHTS for h in tiles):
            raise ValueError("tile heights must be drawn from {1, 2, 3}")
        counts = (tiles.count(1), tiles.count(2), tiles.count(3))
        self._set(tiles, counts, sum(tiles), ",".join(str(h) for h in tiles))

    @property
    def height(self) -> int:
        return self._height

    def height_counts(self) -> tuple[int, int, int]:
        """(number of height-1 tiles, height-2 tiles, height-3 tiles)."""
        return self._counts

    def __str__(self) -> str:
        return self._text


def parse_tiling(text: str) -> Tiling:
    """Parse the text form "1,2,1" (tiles bottom to top)."""
    try:
        tiles = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad tiling text {text!r}") from exc
    return Tiling(tiles)


@lru_cache(maxsize=None)
def _stacks(heights: tuple[int, ...], remaining: int) -> tuple[tuple[int, ...], ...]:
    # all tile sequences with the given total, free choice of every tile
    if remaining == 0:
        return ((),)
    out = []
    for h in heights:
        if h <= remaining:
            out.extend((h,) + rest for rest in _stacks(heights, remaining - h))
    return tuple(out)


@lru_cache(maxsize=None)
def _tilings(heights: tuple[int, ...], n: int) -> tuple[Tiling, ...]:
    if n < 1:
        return ()
    return tuple(Tiling((1,) + rest) for rest in _stacks(heights, n - 1))


def enumerate_tilings(fam: TileFamily, n: int) -> list[Tiling]:
    """All tilings of a height-n column, lexicographic by tile sequence.

    There are none for n <= 0 (the bottom tile needs height 1 to stand on
    the floor, so height 0 admits no tiling here). The tilings of each
    height are built once and cached; every call returns a new list.
    """
    return list(_tilings(fam.heights, n))


_TILE_WEIGHT = {1: Q, 2: P, 3: R}


# W_0, W_1, ... per family, extended upward as taller columns are asked for
_WEIGHTS: dict[tuple[int, ...], list[PQRPoly]] = {}


def weight_poly(fam: TileFamily, n: int) -> PQRPoly:
    """Total weight of all height-n tilings, computed by the tiling recursion.

    Peeling the top tile gives W_n = sum over tile heights h of w_h * W_{n-h}
    with W_1 = q and W_m = 0 for m <= 0; for the {1,2} family this is
    W_n = q W_{n-1} + p W_{n-2}, the weighted Fibonacci recursion.
    """
    if n < 0:
        raise ValueError("weight_poly needs n >= 0")
    # bottom up from the last value known, so a tall column costs no stack depth
    known = _WEIGHTS.setdefault(fam.heights, [PQRPoly.zero(), _TILE_WEIGHT[1]])
    while len(known) <= n:
        m = len(known)
        total = PQRPoly.zero()
        for h in fam.heights:
            if h < m and known[m - h]:
                total = total + _TILE_WEIGHT[h] * known[m - h]
        known.append(total)
    return known[n]


@lru_cache(maxsize=None)
def tiling_weight_sum(fam: TileFamily, n: int) -> PQRPoly:
    """Total weight of all height-n tilings, by exhaustive enumeration.

    Same value as `weight_poly` but computed independently of the recursion;
    board enumeration uses this one so the two placement-polynomial modes
    stay genuinely independent.
    """
    total: dict[tuple[int, int, int], int] = {}
    for t in enumerate_tilings(fam, n):
        key = t.height_counts()
        total[key] = total.get(key, 0) + 1
    return PQRPoly(total)


def tiling_count(fam: TileFamily, n: int, limit: int | None = None) -> int:
    """How many height-n tilings the family admits, or min(count, limit).

    W_n at q = p = r = 1, where each tile counts once, so the tiling
    recursion reads W_n = sum of W_{n-h} over the family's heights h, run
    on integers: a column thousands of cells tall would take seconds and
    gigabytes as a polynomial. Only the last max(heights) values are kept,
    and W_n never falls as n grows (every family has the height-1 tile), so
    the loop stops as soon as it reaches `limit`.
    """
    if n < 0:
        raise ValueError("tiling_count needs n >= 0")
    # W_m for m = 2 - max(heights) .. 1, oldest first; W_m = 0 for m <= 0
    window = [0] * (fam.heights[-1] - 1) + [1]
    for _ in range(n - 1):
        if limit is not None and window[-1] >= limit:
            return limit
        window.append(sum(window[-h] for h in fam.heights))
        del window[0]
    count = window[-1] if n else 0
    return count if limit is None else min(count, limit)
