"""Connection-coefficient triangles between the power and factorial bases.

For a tile family with weight sums W_1, W_2, ... (W_m is the total weight
of the height-m tilings) define the falling and rising factorial bases

    down_n(x) = x (x - W_1) ... (x - W_{n-1}),
    up_n(x)   = x (x + W_1) ... (x + W_{n-1}).

The triangles built here are the coefficients connecting these bases to
the powers x^n. All satisfy two-term recursions from the boundary
T[0][0] = 1, T[n][k] = 0 outside 0 <= k <= n:

    kind "cf"/"cp":  T[n+1][k] = T[n][k-1] + W_n T[n][k]   (up_n = sum cf x^k)
    kind "sf"/"sp":  T[n+1][k] = T[n][k-1] - W_n T[n][k]   (down_n = sum sf x^k)
    kind "Sf"/"Sp":  T[n+1][k] = T[n][k-1] + W_k T[n][k]   (x^n = sum Sf down_k)
    kind "Lf":       T[n+1][k] = T[n][k-1] + (W_k + W_n) T[n][k]
                                                (up_n = sum Lf down_k)

Lowercase kinds use the {1,2} family, the trailing-p kinds use {1,2,3}.
The same numbers fall out of staircase-board placements: cf[n][k] counts
file placements of n-k tilings on the staircase with n columns, Sf[n][k]
counts the rook-style placements, and `triangle_from_boards` rebuilds the
triangles that way. The table `_RULES` states these facts once per kind
(family, factor, sign, staircase model and basis expansion), and every
step that depends on the kind reads them there.

The recursions run on integers, in the image of q -> 2**w (Kronecker
substitution): an entry is one int per (p, r) monomial whose base-2**w
digits are the coefficients of the powers of q. Each W_n has one power of
q per (p, r) monomial, so W_n times an entry is a shift, a small multiply
and an add per pair of rows. The slot width w is safe because cf, cp, Sf,
Sp and Lf have nonnegative coefficients: each is at most the entry's value
at q = p = r = 1, and that integer triangle is built first. sf and sp are
cf and cp with the sign (-1)^(n-k) on each entry, and the integer pass
also tracks total degrees, so `check_degree` refuses a row before its
(p, r) keys could overflow. `fibrook table` prints straight from the image
(`triangle_text`). The checks compare images, never decoded: the inverse,
basis and formula checks at a slot from their own l1 bounds, the q = 1
checks at slot 0, where q -> 2**0 = 1. `build_triangle` runs the same
recursions in the ring: the reference for the images, and a failing
check's counterexample text.

The Sf/sf matrices are mutually inverse. `involution` realizes the
orthogonality bijectively: on pairs (j, rook, file), the entries of a
rook-style placement of n-j tilings on the n-staircase and of a file
placement of j-k tilings on the j-staircase, signed by (-1)^(j-k), it
flips the sign and keeps the weight by moving one tiling, whole, from one
board to the other; its recursion unrolls to a closed form. It reads only
columns, so `involution_verify` runs it on skeletons ((column, height),
...), each standing for every pair that tiles its columns to those heights.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from math import prod
from typing import Callable, Iterator

from fibrook.poly import (
    PQRPoly,
    XPoly,
    check_degree,
    horner_step,
    q_image_row,
    q_image_text,
)
from fibrook.tiling import (
    FIBONACCI,
    TRIBONACCI,
    Record,
    TileFamily,
    enumerate_tilings,
    tiling_count,
    weight_poly,
)


class _Rule(Record):
    """How one kind of triangle arises: its tile family; the factor m(n, k)
    in T[n+1][k] = T[n][k-1] + m(n, k) T[n][k], W_n ("n"), W_k ("k") or
    W_k + W_n ("k+n"); whether its entries take the sign (-1)^(n-k); the
    staircase placements that count them ("file", "rook" or None); and its
    basis expansion "A-in-B", basis A's n-th member = sum_k T[n][k] B_k."""

    __slots__ = ("family", "factor", "signed", "model", "basis")

    def __init__(
        self, family: TileFamily, factor: str, signed: bool, model: str | None, basis: str
    ) -> None:
        self._set(family, factor, signed, model, basis)


_RULES = {
    "cf": _Rule(FIBONACCI, "n", False, "file", "rising-in-powers"),
    "sf": _Rule(FIBONACCI, "n", True, None, "falling-in-powers"),
    "Sf": _Rule(FIBONACCI, "k", False, "rook", "power-in-falling"),
    "Lf": _Rule(FIBONACCI, "k+n", False, None, "rising-in-falling"),
    "cp": _Rule(TRIBONACCI, "n", False, "file", "rising-in-powers"),
    "sp": _Rule(TRIBONACCI, "n", True, None, "falling-in-powers"),
    "Sp": _Rule(TRIBONACCI, "k", False, "rook", "power-in-falling"),
}
TRIANGLE_KINDS = tuple(_RULES)


def family_for_kind(kind: str) -> TileFamily:
    try:
        return _RULES[kind].family
    except KeyError:
        raise ValueError(f"unknown triangle kind {kind!r}") from None


def _kinds_by_basis(fam: TileFamily) -> dict[str, str]:
    """The family's kinds, in table order, keyed by their basis expansion."""
    kinds = {rule.basis: kind for kind, rule in _RULES.items() if rule.family == fam}
    if not kinds:
        raise ValueError(f"no triangles are defined for family {fam}")
    return kinds


# ──────────────────────────────────────────────────────────────────────────
# reports
# ──────────────────────────────────────────────────────────────────────────


def verdict(failed: bool, warned: bool) -> str:
    """A check's or a suite's status: FAIL on any failure, else WARN on any warning, else PASS."""
    return "FAIL" if failed else ("WARN" if warned else "PASS")


def report(
    check: str, scope: str, bad: list, warnings: list | None = None, *, holds: bool = True, **fields
) -> dict:
    """A check's JSON-ready report {check, range, status, *fields,
    counterexamples[, warnings]}: it fails on a counterexample in `bad` or
    when `holds` is false, else warns on a warning, else passes."""
    status = verdict(bool(bad) or not holds, bool(warnings))
    out = {"check": check, "range": scope, "status": status, **fields, "counterexamples": bad}
    return out if warnings is None else {**out, "warnings": warnings}


# ──────────────────────────────────────────────────────────────────────────
# triangles
# ──────────────────────────────────────────────────────────────────────────


class CoeffTriangle(Record):
    """Rows 0..N of one coefficient family; row n holds entries k = 0..n,
    or k = 0..min(n, width) when the triangle was built to a column bound."""

    __slots__ = ("kind", "N", "rows", "width")

    def __init__(
        self, kind: str, N: int, rows: tuple[tuple[PQRPoly, ...], ...], width: int | None = None
    ) -> None:
        self._set(kind, N, rows, width)

    def entry(self, n: int, k: int) -> PQRPoly:
        if n < 0 or n > self.N:
            raise ValueError(f"row {n} not in triangle (N={self.N})")
        if k < 0 or k > n:
            return PQRPoly.zero()
        if self.width is not None and k > self.width:
            raise ValueError(f"column {k} not built (width={self.width})")
        return self.rows[n][k]


def _slot_width(bound: int) -> int:
    """The narrowest image slot that holds every coefficient in [0, bound]."""
    return bound.bit_length()


def _rule_factor(kind: str, N: int, lift: Callable, plus: Callable) -> Callable:
    """The factor m(n, k) of T[n][k] in T[n+1][k] = T[n][k-1] + m(n, k) T[n][k],
    W_n, W_k or W_k + W_n as the kind's rule says, negated for sf/sp, with
    each (signed) W_j as lift(W_j) and a sum of two as `plus` makes it."""
    fam, rule = family_for_kind(kind), _RULES[kind]
    parts = [lift((-1 if rule.signed else 1) * weight_poly(fam, j)) for j in range(N + 1)]
    return {"n": lambda n, k: parts[n], "k": lambda n, k: parts[k],
            "k+n": lambda n, k: plus(parts[k], parts[n])}[rule.factor]


def _multipliers(kind: str, N: int) -> Callable[[int, int], tuple[list, int, int]]:
    """`_rule_factor` for the image recursion: each factor comes as (terms, l1
    norm, total degree), its terms as (row key, e_q, coeff) triples; W_0 = 0
    has no terms, norm 0 and degree -1."""

    def lift(weight: PQRPoly) -> tuple[list, int, int]:
        terms = [(q_image_row(e_p, e_r), e_q, c) for (e_q, e_p, e_r), c in weight.terms.items()]
        return terms, abs(weight.eval_at(1, 1, 1)), weight.total_degree()

    return _rule_factor(kind, N, lift, lambda a, b: (a[0] + b[0], a[1] + b[1], max(a[2], b[2])))


def _row_tops(N: int, width: int | None) -> Iterator[tuple[int, int]]:
    """(n, top): row n + 1 of the recursion holds the entries k = 0..top."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if width is not None and width < 0:
        raise ValueError("width must be >= 0")
    for n in range(N):
        yield n, n + 1 if width is None else min(n + 1, width)


def triangle_text(kind: str, N: int) -> Iterator[list[str]]:
    """The printed entries of rows 0..N of the `kind` triangle, row by row,
    equal to `str` of the entries of `build_triangle(kind, N)`, printed
    from the image rows at the natural slot by `q_image_text`.

    The integer pass runs at the call, so an oversized degree raises before
    any row is drawn; the rows are then drawn lazily, each image row from
    the one before, so at most two image rows are held.
    """
    slot, rows_at, _, _ = triangle_images(kind, N)
    return ([q_image_text(image, slot) for image in row] for row in rows_at(slot))


def triangle_images(
    kind: str, N: int, width: int | None = None
) -> tuple[
    int, Callable[[int], Iterator[tuple[dict[int, int], ...]]], list[list[int]], list[list[int]]
]:
    """Rows 0..N of the `kind` triangle in ring images, and the integer
    pass behind them: (slot, rows_at, norms, degrees).

    `rows_at(s)` draws the rows in the image q -> 2**s. Image row n holds,
    per k, the image `{q_image_row(e_p, e_r): sum coeff * 2**(s * e_q)}`
    of entry (n, k), signed for sf/sp, as `PQRPoly.q_image` maps it; a
    term of the factor times an entry is one shift by s * e_q, one small
    multiply and one add per row. With a
    `width`, row n holds the entries k = 0..min(n, width). norms[n][k] is
    the entry's value at q = p = r = 1, its l1 norm, since cf, cp, Sf, Sp
    and Lf have nonnegative coefficients and sf/sp are cf/cp signed; and
    degrees[n][k] is its total degree (-1 for 0). Nothing cancels, so
    degrees add under products and take the max under sums, and
    `check_degree` refuses each row before its row keys, which add the way
    packed keys do, could carry from the r field into the p field.

    `slot` is the natural width, the bit length of the largest norm: at
    that slot every coefficient is below 2**slot in absolute value, and an
    entry reads back digit by digit. A check that compares images under a
    bound of its own draws the rows at a wider slot, or at slot 0, the
    homomorphism q -> 1, where a row's value is the q = 1 coefficient of
    its (p, r) monomial. The integer pass runs once, at the call, so an
    oversized degree raises before any image is built; each `rows_at` call
    draws its rows lazily, each from the one before.
    """
    factor = _multipliers(kind, N)
    # With nonnegative coefficients nothing cancels, so values at 1 are l1
    # norms, and degrees add under products and take the max under sums.
    norms, degrees = [[1]], [[0]]
    for n, top in _row_tops(N, width):
        ones, degs = norms[-1], degrees[-1]
        size = len(ones)
        row, row_deg = [], []
        for k in range(top + 1):
            value, deg = (ones[k - 1], degs[k - 1]) if 0 < k <= size else (0, -1)
            if k < size and ones[k]:
                _, at_one, m_deg = factor(n, k)
                if at_one:
                    value += at_one * ones[k]
                    deg = max(deg, m_deg + degs[k])
            row.append(value)
            row_deg.append(deg)
        check_degree(max(row_deg))
        norms.append(row)
        degrees.append(row_deg)
    slot = _slot_width(max(map(max, norms)))
    return slot, partial(_recur_images, factor, N, width), norms, degrees


def _recur_images(
    factor: Callable[[int, int], tuple[list, int, int]], N: int, width: int | None, slot: int
) -> Iterator[tuple[dict[int, int], ...]]:
    """The image rows 0..N, each computed from the one before and then dropped."""
    prev: tuple[dict[int, int], ...] = ({0: 1},)
    yield prev
    for n, top in _row_tops(N, width):
        size = len(prev)
        row_images = []
        for k in range(top + 1):
            out = dict(prev[k - 1]) if 0 < k <= size else {}
            source = prev[k] if k < size else None
            if source:
                get = out.get
                for shift_row, e_q, c in factor(n, k)[0]:
                    shift = slot * e_q
                    if c == 1:
                        for row, value in source.items():
                            key = row + shift_row
                            out[key] = get(key, 0) + (value << shift)
                    else:
                        for row, value in source.items():
                            key = row + shift_row
                            out[key] = get(key, 0) + (c * value << shift)
            row_images.append(out)
        prev = tuple(row_images)
        yield prev


def build_triangle(kind: str, N: int, width: int | None = None) -> CoeffTriangle:
    """Rows 0..N of the `kind` triangle by its two-term recursion in the ring,
    on `PQRPoly` entries: the reference for `triangle_images`, and the text
    of a failing check's counterexample.

    Entry (n+1, k) reads only entries (n, k-1) and (n, k), so column k
    depends on columns <= k alone. With a `width`, row n holds only the
    entries k = 0..min(n, width), which equal the leading entries of the
    full row; `entry` then raises for width < k <= n instead of guessing.
    """
    factor = _rule_factor(kind, N, lambda weight: weight, PQRPoly.__add__)
    rows = [(PQRPoly.one(),)]
    for n, top in _row_tops(N, width):
        # the zero after the last entry is read as T[n][n+1], and as T[n][-1] for k = 0
        prev = rows[-1] + (PQRPoly.zero(),)
        rows.append(tuple(prev[k - 1] + factor(n, k) * prev[k] for k in range(top + 1)))
    return CoeffTriangle(kind, N, tuple(rows), width)


def triangle_from_boards(kind: str, N: int) -> CoeffTriangle:
    """Rebuild a cf/cp or Sf/Sp triangle from staircase-board placements.

    Entry (n, k) is the total weight of the placements of n-k tilings on
    the n-column staircase: file placements for cf/cp, rook-style for
    Sf/Sp, both computed in enumeration mode so the result is independent
    of every recursion in this module.
    """
    from fibrook.board import FerrersBoard, file_poly, rook_poly

    fam, model = family_for_kind(kind), _RULES[kind].model
    if model is None:
        raise ValueError(f"kind {kind!r} has no placement interpretation here")
    counted = file_poly if model == "file" else rook_poly
    rows = []
    for n in range(N + 1):
        board = FerrersBoard.staircase(n)
        rows.append(
            tuple(counted(board, fam, n - k, mode="enumeration") for k in range(n + 1))
        )
    return CoeffTriangle(kind, N, tuple(rows))


# ──────────────────────────────────────────────────────────────────────────
# basis expansions
# ──────────────────────────────────────────────────────────────────────────


def _add_product(acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """acc += a * b on q-images: row keys add and values multiply, as
    `PQRPoly.q_image` maps a product."""
    get = acc.get
    right = b.items()
    for ra, va in a.items():
        for rb, vb in right:
            key = ra + rb
            acc[key] = get(key, 0) + va * vb


def _nonzero(image: dict[int, int]) -> dict[int, int]:
    return {row: value for row, value in image.items() if value}


def _image_horner(poly: list[dict], c: dict[int, int], const: dict[int, int]) -> list[dict]:
    """`horner_step` on q-images: const + (x + c) * poly, where poly and the
    result list the images of the coefficients of x**0, x**1, ..."""
    out = [dict(const), *map(dict, poly)]
    for coeff, image in zip(out, poly):
        _add_product(coeff, c, image)
    return out


def _newton_bounds(shift: list[PQRPoly]) -> tuple[list[int], list[int]]:
    """Per k, bounds on the l1 norm and total degree of prod_{i<k} (x + c_i),
    with each c_i 0 or +-W_i, whose coefficients share one sign."""
    norms, degrees = [1], [0]
    for c in shift[:-1]:
        norms.append(norms[-1] * (1 + abs(c.eval_at(1, 1, 1))))
        degrees.append(degrees[-1] + max(c.total_degree(), 0))
    return norms, degrees


def verify_basis_expansions(N: int, fam: TileFamily) -> dict:
    """Check the basis expansion of every triangle of the family up to row N.

    For {1,2}: up_n = sum_k cf[n][k] x^k, down_n = sum_k sf[n][k] x^k,
    x^n = sum_k Sf[n][k] down_k and up_n = sum_k Lf[n][k] down_k.
    For {1,2,3}: up_n = sum_k cp[n][k] x^k, down_n = sum_k sp[n][k] x^k and
    x^n = sum_k Sp[n][k] down_k.

    All three bases are Newton bases, basis_k = (x - a_0) ... (x - a_{k-1}),
    with nodes a_k = W_k (falling), -W_k (rising) or 0 (power); a_0 = 0 in
    each since W_0 = 0. So the left side grows by one factor per row,
    lhs_n = lhs_{n-1} (x - a_{n-1}), and the right side is evaluated in
    Horner form, P = T[n][n], then P = T[n][k] + (x - a_k) P for
    k = n-1, ..., 0. Every product is a node (one W_k) times a coefficient
    of P, never a basis polynomial times a triangle entry.

    Both sides are compared in the image q -> 2**w of `triangle_images`,
    one list of images per side, so a product is a handful of integer
    products. The width comes from the integer pass: with c_i = -a_i, every
    coefficient of lhs_n is at most prod_{i<n} (1 + |c_i|_1), and every one
    of the right side at most sum_k |T[n][k]|_1 prod_{i<k} (1 + |c_i|_1);
    with B the largest of these bounds and w = B.bit_length() + 2, both
    sides and their difference have coefficients below 2**(w-1), where the
    image is injective (balanced base-2**w digits). The same pass bounds
    the total degree of every product, which `check_degree` refuses before
    a row key could carry from the r field into the p field. Only a
    failing n is recomputed as polynomials, from `build_triangle`, for the
    text of its counterexample.
    """
    zero = PQRPoly.zero()
    weights = [weight_poly(fam, k) for k in range(N + 1)]
    # c_k = -a_k, so that each factor x - a_k reads x + c_k
    shifts = {
        "power": [zero] * (N + 1),
        "falling": [-w for w in weights],
        "rising": weights,
    }
    counterexamples = []
    for name, kind in _kinds_by_basis(fam).items():
        # "A-in-B" puts basis A on the left, B on the right ("powers" is "power")
        lhs_shift, rhs_shift = (shifts[side.rstrip("s")] for side in name.split("-in-"))
        (lhs_norm, lhs_deg), (rhs_norm, rhs_deg) = map(_newton_bounds, (lhs_shift, rhs_shift))
        _, rows_at, norms, degrees = triangle_images(kind, N)
        bound = top_degree = 0
        for n in range(N + 1):
            bound = max(bound, lhs_norm[n], sum(norms[n][k] * rhs_norm[k] for k in range(n + 1)))
            top_degree = max(top_degree, lhs_deg[n], *map(sum, zip(degrees[n], rhs_deg)))
        check_degree(top_degree)
        w = bound.bit_length() + 2
        lhs_nodes = [c.q_image(w) for c in lhs_shift]
        rhs_nodes = [c.q_image(w) for c in rhs_shift]
        lhs: list[dict] = [{0: 1}]
        tri = None
        for n, row in enumerate(rows_at(w)):
            if n:
                lhs = _image_horner(lhs, lhs_nodes[n - 1], {})
            rhs: list[dict] = []
            for k in range(n, -1, -1):
                rhs = _image_horner(rhs, rhs_nodes[k], row[k])
            if all(_nonzero(a) == _nonzero(b) for a, b in zip(lhs, rhs)):
                continue
            if tri is None:
                tri = build_triangle(kind, N)
            lhs_poly, rhs_poly = XPoly.one(), XPoly.zero()
            for i in range(n):
                lhs_poly = horner_step(lhs_poly, lhs_shift[i], zero)
            for k in range(n, -1, -1):
                rhs_poly = horner_step(rhs_poly, rhs_shift[k], tri.entry(n, k))
            counterexamples.append(
                {"identity": name, "n": n, "lhs": str(lhs_poly), "rhs": str(rhs_poly)}
            )
    return report("basis-expansions", f"family={fam.label}, n<={N}", counterexamples)


def matrix_inverse_check(N: int, fam: TileFamily) -> dict:
    """Check sum_j Sf[n][j] sf[j][k] = [n == k] (and the {1,2,3} analogue).

    Each sum is checked in the image of the ring homomorphism q -> 2**w,
    taken separately for each (p, r) monomial: both triangles are built
    directly at slot w by `triangle_images`, so one product of two entries
    is a handful of integer products instead of a term-by-term dict
    product. The width w comes from the data: since |fg|_inf <= |f|_1 |g|_1,
    every coefficient of the (n, k) sum is at most
    B = max over n, k of sum_j |Sf[n][j]|_1 |sf[j][k]|_1, with the norms
    from the integer pass, and with w = B.bit_length() + 2 both the sum
    and [n == k] have coefficients below 2**(w-1) in absolute value. The
    image is injective there (each row is read as digits in balanced base
    2**w), so the images are equal exactly when the polynomials are. Only
    a failing entry is recomputed as a polynomial, from `build_triangle`,
    for the text of its counterexample.
    """
    kinds = _kinds_by_basis(fam)
    big, small = kinds["power-in-falling"], kinds["falling-in-powers"]
    _, rows_big, norm_big, deg_big = triangle_images(big, N)
    _, rows_small, norm_small, deg_small = triangle_images(small, N)
    check_degree(max(map(max, deg_big)) + max(map(max, deg_small)))
    bound = max(
        sum(norm_big[n][j] * norm_small[j][k] for j in range(k, n + 1))
        for n in range(N + 1)
        for k in range(n + 1)
    )
    w = bound.bit_length() + 2
    image_big = list(rows_big(w))
    image_small = list(rows_small(w))
    counterexamples = []
    tris = None
    for n in range(N + 1):
        for k in range(n + 1):
            rows: dict[int, int] = {}
            for j in range(k, n + 1):
                _add_product(rows, image_big[n][j], image_small[j][k])
            if _nonzero(rows) != ({0: 1} if n == k else {}):
                if tris is None:
                    tris = build_triangle(big, N), build_triangle(small, N)
                terms = (tris[0].entry(n, j) * tris[1].entry(j, k) for j in range(k, n + 1))
                counterexamples.append({"n": n, "k": k, "value": str(sum(terms, PQRPoly.zero()))})
    return report("matrix-inverse", f"family={fam.label}, n,k<={N}", counterexamples)


# ──────────────────────────────────────────────────────────────────────────
# the sign-reversing involution behind the inverse
# ──────────────────────────────────────────────────────────────────────────


def _skeletons(n: int, k: int) -> Iterator[tuple[tuple, int]]:
    """Each skeleton (j, rook, file) behind the (n, k) entry of Sf * sf,
    rook-major, with the prod t(h) pairs (t = `tiling_count`) that tile its
    columns to their heights. Its parts are the views' `skeletons()`: n-j
    rook tilings on the n-staircase, j-k file tilings on the j-staircase."""
    from fibrook.board import FerrersBoard, enumerate_file_placements, enumerate_rook_placements

    t = [tiling_count(FIBONACCI, h) for h in range(n)]  # t(h) for each staircase height
    for j in range(k, n + 1):
        rooks = enumerate_rook_placements(FerrersBoard.staircase(n), FIBONACCI, n - j).skeletons()
        files = enumerate_file_placements(FerrersBoard.staircase(j), FIBONACCI, j - k).skeletons()
        for rook, file in product(rooks, files):
            yield (j, rook, file), prod([t[h] for _, h in rook + file])


def _skeleton_problem(n: int, k: int, skeleton: tuple) -> str | None:
    """Why `skeleton` is not one of `_skeletons(n, k)`, or None: its j, then
    each part's count and, by `skeleton_problem` on the staircase (n, j)
    implies, its columns and heights; the involution's images need this."""
    import fibrook.board as board  # one module lookup per call, cheaper than a `from` import

    j, rook, file = skeleton
    if not k <= j <= n:
        return f"pair has j={j} outside {k}..{n}"
    for label, part, size, count, lag in (("rook", rook, n, n - j, board.RookPlacement.lag),
                                          ("file", file, j, j - k, board.FilePlacement.lag)):
        if len(part) != count:
            return f"{label} part has the wrong number of tilings"
        problem = board.skeleton_problem(board.FerrersBoard.staircase(size), part, lag)
        if problem is not None:
            return f"{label} part: {problem}"
    return None


def _domain_problem(n: int, k: int, pair: tuple) -> str | None:
    """Why the pair (j, rook entries, file entries) is not behind the (n, k)
    entry, or None: a tile outside the {1,2} family, else the
    `_skeleton_problem` of its columns and tiling heights."""
    j, rook, file = pair
    for label, entries in (("rook", rook), ("file", file)):
        if any(3 in t.tiles for _, t in entries):
            return f"{label} part has a tile outside {{1,2}}"
    heights = [[(col, t._height) for col, t in part] for part in (rook, file)]
    return _skeleton_problem(n, k, (j, *heights))


def involution(n: int, k: int, pair: tuple) -> tuple:
    """The sign-reversing, weight-preserving involution on the (n, k) pairs.

    Sends j to j +- 1, so it cancels the signed pairs in matched couples;
    only the all-empty pair at j = n = k would survive, and for k < n there
    is none, which is exactly the inverse-matrix identity off the diagonal.

    Case 1: the rook part tiles the last staircase column. As the
    rightmost of n-j tilings it has b_{j+1} = j uncanceled cells, exactly
    the height of the new last column when the file board grows to j+1, so
    move it there. Case 2 (the exact inverse): the rook part leaves column
    n empty but the file part tiles its own last column, of height j-1;
    moved onto column n of the rook board it again fits exactly, because
    the rightmost of n-j+1 tilings keeps b_{n-(n-j)} = j-1 cells. Case 3:
    both last columns empty; drop both, apply the map at (n-1, k-1), and
    put the empty columns back. Repeated, case 3 stops at the first depth
    d = min(d_rook, d_file) where a last column is tiled, with d_rook = n
    minus the last rook column (n if none) and d_file = j minus the last
    file column (j if none). A staircase's first columns do not depend on
    its size, so case 1 (if d_rook == d) moves the rook's last tiling to
    file column j+1-d, and otherwise case 2 moves the file's last tiling to
    rook column n-d. d < k because a file placement of j-1 tilings on the
    j-staircase (the k = 1 shape) cannot avoid its last column: only j-2
    earlier columns are nonempty. Raises on pairs outside the domain, then
    applies `_involution_step`, the map itself, which `involution_verify`
    runs on skeletons.
    """
    if not 1 <= k < n:
        raise ValueError("the involution is defined for 1 <= k < n")
    problem = _domain_problem(n, k, pair)
    if problem is not None:
        raise ValueError(problem)
    return _involution_step(n, k, pair)


def _involution_step(n: int, k: int, pair: tuple) -> tuple:
    """`involution` on a pair known to be in the (n, k) domain, without
    testing membership. It reads only columns and moves each entry whole,
    so it maps skeletons too. The image is not validated;
    `_domain_problem` and `_skeleton_problem` check it."""
    j, rook, file = pair
    d_rook = n - rook[-1][0] if rook else n
    d_file = j - file[-1][0] if file else j
    d = min(d_rook, d_file)
    if d >= k:
        raise ValueError(f"both last columns stay empty to depth {d} >= k={k}")
    if d_rook == d:
        return j + 1, rook[:-1], file + ((j + 1 - d, rook[-1][1]),)
    return j - 1, rook + ((n - d, file[-1][1]),), file[:-1]


def involution_verify(n: int, k: int) -> dict:
    """Exhaustively check the involution on the full (n, k) domain.

    Confirms: the map stays inside the domain, is a fixed-point-free
    involution, flips the sign, preserves the weight, and therefore the
    signed weight sum over the domain vanishes. `_involution_step` moves
    entries whole, so each check runs once per trusted skeleton and holds
    for all its pairs: `_skeleton_problem` tests the image, the map runs
    again only on an image inside the domain, and the weight is kept with
    the multiset of heights. Counts weigh a skeleton by its pairs; the sum
    is a signed count per sorted multiset of heights, multiplied out only
    where nonzero. A failing skeleton is reported pair by pair."""
    if not 1 <= k < n:
        raise ValueError("the involution is defined for 1 <= k < n")
    signed: dict[tuple[int, ...], int] = {}
    counterexamples = []
    per_j: dict[int, int] = {}
    for skeleton, pairs in _skeletons(n, k):
        j, rook, file = skeleton
        per_j[j] = per_j.get(j, 0) + pairs
        heights = tuple(sorted([h for _, h in rook + file]))
        signed[heights] = signed.get(heights, 0) + (-pairs if len(file) % 2 else pairs)
        image = _involution_step(n, k, skeleton)
        inside = _skeleton_problem(n, k, image) is None
        problems = []
        if not inside:
            problems.append("image outside domain")
        if image == skeleton:
            problems.append("fixed point")
        if len(image[2]) % 2 == len(file) % 2:
            problems.append("sign not flipped")
        if tuple(sorted([h for _, h in image[1] + image[2]])) != heights:
            problems.append("weight changed")
        if inside and _involution_step(n, k, image) != skeleton:
            problems.append("not an involution")
        if problems:  # each pair of the skeleton, as "j=... rook;file" placement texts
            for tilings in product(*[enumerate_tilings(FIBONACCI, h) for _, h in rook + file]):
                texts = [f"{col}:{t}" for (col, _), t in zip(rook + file, tilings)]
                pair = f"j={j} {';'.join(texts[:len(rook)])};{';'.join(texts[len(rook):])}"
                counterexamples.append({"pair": pair, "problems": problems})
    weights = partial(weight_poly, FIBONACCI)
    signed_total = sum((prod(map(weights, key), start=PQRPoly.one()) * count
                        for key, count in signed.items() if count), PQRPoly.zero())
    return report(
        "involution", f"n={n}, k={k}", counterexamples, holds=not signed_total,
        domain_size=sum(per_j.values()),
        pairs_per_j={str(j): per_j[j] for j in sorted(per_j)},
        signed_sum=str(signed_total),
    )
