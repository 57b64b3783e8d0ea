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
(`triangle_text`); `build_triangle` unpacks it into `PQRPoly` entries.

The Sf/sf matrices are mutually inverse. `involution` realizes the
orthogonality bijectively: on pairs (j, rook, file), the entries of a
rook-style placement of n-j tilings on the n-staircase and of a file
placement of j-k tilings on the j-staircase, signed by (-1)^(j-k), it
flips the sign while preserving total weight, by moving one tiling from
one board to the other. (n, j) fixes both boards, so the map reads and
returns entries only. Its recursion on shrunken boards, while both last
columns are empty, unrolls to a closed form.
"""

from __future__ import annotations

from typing import Callable, Iterator

from fibrook.board import (
    FerrersBoard,
    FilePlacement,
    RookPlacement,
    _entries_exponents,
    _entries_problem,
    enumerate_file_placements,
    enumerate_rook_placements,
    file_poly,
    rook_poly,
)
from fibrook.poly import (
    PQRPoly,
    XPoly,
    check_degree,
    horner_step,
    q_image_row,
    q_image_text,
)
from fibrook.tiling import FIBONACCI, TRIBONACCI, Record, TileFamily, weight_poly


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


def _entry_sign(kind: str, n: int, k: int) -> int:
    return -1 if _RULES[kind].signed and (n - k) % 2 else 1


def _slot_width(bound: int) -> int:
    """The narrowest image slot that holds every coefficient in [0, bound]."""
    return bound.bit_length()


def _multipliers(kind: str, N: int) -> Callable[[int, int], tuple[list, int, int]]:
    """The factor m(n, k) of T[n][k] in T[n+1][k] = T[n][k-1] + m(n, k) T[n][k].

    Each factor comes as (terms, value at q = p = r = 1, total degree), its
    terms as (row key, e_q, coeff) triples; W_0 = 0 has no terms, value 0
    and degree -1.
    """
    fam, factor = family_for_kind(kind), _RULES[kind].factor
    parts = []
    for j in range(N + 1):
        weight = weight_poly(fam, j)
        terms = [(q_image_row(e_p, e_r), e_q, c) for (e_q, e_p, e_r), c in weight.terms.items()]
        parts.append((terms, weight.eval_at(1, 1, 1), weight.total_degree()))
    if factor == "n":
        return lambda n, k: parts[n]
    if factor == "k":
        return lambda n, k: parts[k]

    def sum_of_weights(n: int, k: int) -> tuple[list, int, int]:  # "k+n": W_k + W_n
        (ta, va, da), (tb, vb, db) = parts[k], parts[n]
        return ta + tb, va + vb, max(da, db)

    return sum_of_weights


def _row_tops(N: int, width: int | None) -> Iterator[tuple[int, int]]:
    """(n, top): row n + 1 of the recursion holds the entries k = 0..top."""
    for n in range(N):
        yield n, n + 1 if width is None else min(n + 1, width)


def triangle_text(kind: str, N: int) -> Iterator[list[str]]:
    """The printed entries of rows 0..N of the `kind` triangle, row by row,
    equal to `str` of the entries of `build_triangle(kind, N)`.

    The integer pass runs at the call, so an oversized degree raises before
    any row is drawn; the rows are then drawn lazily, each image row from
    the one before, so at most two image rows are held.
    """
    slot, rows = _image_rows(kind, N, None)
    return (
        [q_image_text(image, slot, _entry_sign(kind, n, k)) for k, image in enumerate(row)]
        for n, row in enumerate(rows)
    )


def _image_rows(
    kind: str, N: int, width: int | None
) -> tuple[int, Iterator[tuple[dict[int, int], ...]]]:
    """The slot width of the `kind` triangle's image, and its image rows,
    drawn lazily.

    Image row n holds, per k, the image `{q_image_row(e_p, e_r):
    sum coeff * 2**(slot * e_q)}` of the unsigned entry (the cf/cp entry for
    sf/sp), which gets its sign back when it is read. Every coefficient
    lies in [0, 2**slot), so an entry reads back digit by digit.

    Two passes of the same recursion: the first, on integers at
    q = p = r = 1 and on total degrees, runs here, so that the slot is known
    and an oversized degree raises before any image is built; the second
    runs on the images as the rows are drawn.
    """
    factor = _multipliers(kind, N)
    if N < 0:
        raise ValueError("N must be >= 0")
    if width is not None and width < 0:
        raise ValueError("width must be >= 0")

    # The unsigned triangle at q = p = r = 1, and the total degree of every
    # entry; with nonnegative coefficients nothing cancels, so degrees add
    # under products and take the max under sums.
    ones, degrees, largest = [1], [0], 1
    for n, top in _row_tops(N, width):
        size = len(ones)
        row, row_deg = [], []
        for k in range(top + 1):
            value, deg = (ones[k - 1], degrees[k - 1]) if 0 < k <= size else (0, -1)
            if k < size and ones[k]:
                _, at_one, m_deg = factor(n, k)
                if at_one:
                    value += at_one * ones[k]
                    deg = max(deg, m_deg + degrees[k])
            row.append(value)
            row_deg.append(deg)
        check_degree(max(row_deg))
        largest = max(largest, *row)
        ones, degrees = row, row_deg
    slot = _slot_width(largest)
    return slot, _recur_images(factor, slot, N, width)


def _recur_images(
    factor: Callable[[int, int], tuple[list, int, int]], slot: int, N: int, width: int | None
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
    """Rows 0..N of the `kind` triangle by its two-term recursion.

    The recursion runs in the q-image q -> 2**w of `_image_rows`: each
    entry is one int per (p, r) monomial, `{q_image_row(e_p, e_r):
    sum coeff * 2**(w * e_q)}`, as `PQRPoly.q_image` maps it. A term of the
    factor (W_n, W_k or W_k + W_n) times an entry is then one shift by
    w * e_q, one small-int multiply and one add per (term, row) pair, with
    no dict of terms. One slot width w serves the whole triangle. cf, cp,
    Sf, Sp and Lf have nonnegative coefficients, so nothing cancels and
    each coefficient of an entry is at most the entry's value at
    q = p = r = 1; w is the bit length of the largest value of that integer
    triangle, and below 2**w the base-2**w digits of a row are exactly its
    coefficients. sf and sp are cf and cp with the sign (-1)**(n - k) on
    each entry. Degree guard: the integer pass also carries the exact total
    degree of every entry (degrees add under products and take the max
    under sums, again since nothing cancels) and calls `check_degree` on
    each row before it is built, so row keys, which add the way packed keys
    do, never carry from the r field into the p field. The image is then
    unpacked into a `CoeffTriangle` of `PQRPoly`s.

    Entry (n+1, k) reads only entries (n, k-1) and (n, k), so column k
    depends on columns <= k alone. With a `width`, row n holds only the
    entries k = 0..min(n, width), which equal the leading entries of the
    full row; `entry` then raises for width < k <= n instead of guessing.
    """
    slot, images = _image_rows(kind, N, width)
    rows = tuple(
        tuple(
            PQRPoly.from_q_image(image, slot, _entry_sign(kind, n, k))
            for k, image in enumerate(row)
        )
        for n, row in enumerate(images)
    )
    return CoeffTriangle(kind, N, rows, width)


def triangle_from_boards(kind: str, N: int) -> CoeffTriangle:
    """Rebuild a cf/cp or Sf/Sp triangle from staircase-board placements.

    Entry (n, k) is the total weight of the placements of n-k tilings on
    the n-column staircase: file placements for cf/cp, rook-style for
    Sf/Sp, both computed in enumeration mode so the result is independent
    of every recursion in this module.
    """
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
        tri = build_triangle(kind, N)
        # "A-in-B" puts basis A on the left, B on the right ("powers" is "power")
        lhs_shift, rhs_shift = (shifts[side.rstrip("s")] for side in name.split("-in-"))
        lhs = XPoly.one()
        for n in range(N + 1):
            if n:
                lhs = horner_step(lhs, lhs_shift[n - 1], zero)
            rhs = XPoly.zero()
            for k in range(n, -1, -1):
                rhs = horner_step(rhs, rhs_shift[k], tri.entry(n, k))
            if lhs != rhs:
                counterexamples.append(
                    {"identity": name, "n": n, "lhs": str(lhs), "rhs": str(rhs)}
                )
    return report("basis-expansions", f"family={fam.label}, n<={N}", counterexamples)


def matrix_inverse_check(N: int, fam: TileFamily) -> dict:
    """Check sum_j Sf[n][j] sf[j][k] = [n == k] (and the {1,2,3} analogue).

    Each sum is checked in the image of the ring homomorphism q -> 2**w,
    taken separately for each (p, r) monomial (`PQRPoly.q_image`), so one
    product of two entries is a handful of integer products instead of a
    term-by-term dict product. The width w comes from the data: since
    |fg|_inf <= |f|_1 |g|_1, every coefficient of the (n, k) sum is at most
    B = max over n, k of sum_j |Sf[n][j]|_1 |sf[j][k]|_1, and with
    w = B.bit_length() + 2 both the sum and [n == k] have coefficients
    below 2**(w-1) in absolute value. The image is injective there (each
    row is read as digits in balanced base 2**w), so the images are equal
    exactly when the polynomials are. Only a failing entry is recomputed
    as a polynomial, for the text of its counterexample.
    """
    kinds = _kinds_by_basis(fam)
    big, small = kinds["power-in-falling"], kinds["falling-in-powers"]
    tri_big = build_triangle(big, N)
    tri_small = build_triangle(small, N)
    check_degree(_max_degree(tri_big) + _max_degree(tri_small))
    norm_big = [[e.abs_sum() for e in row] for row in tri_big.rows]
    norm_small = [[e.abs_sum() for e in row] for row in tri_small.rows]
    bound = max(
        sum(norm_big[n][j] * norm_small[j][k] for j in range(k, n + 1))
        for n in range(N + 1)
        for k in range(n + 1)
    )
    w = bound.bit_length() + 2
    image_big = [[e.q_image(w) for e in row] for row in tri_big.rows]
    image_small = [[e.q_image(w) for e in row] for row in tri_small.rows]
    counterexamples = []
    for n in range(N + 1):
        for k in range(n + 1):
            rows: dict[int, int] = {}
            get = rows.get
            for j in range(k, n + 1):
                right = image_small[j][k].items()
                for ra, va in image_big[n][j].items():
                    for rb, vb in right:
                        key = ra + rb
                        rows[key] = get(key, 0) + va * vb
            got = {key: value for key, value in rows.items() if value}
            if got != ({0: 1} if n == k else {}):
                total = PQRPoly.zero()
                for j in range(k, n + 1):
                    total = total + tri_big.entry(n, j) * tri_small.entry(j, k)
                counterexamples.append({"n": n, "k": k, "value": str(total)})
    return report("matrix-inverse", f"family={fam.label}, n,k<={N}", counterexamples)


def _max_degree(tri: CoeffTriangle) -> int:
    return max(e.total_degree() for row in tri.rows for e in row)


# ──────────────────────────────────────────────────────────────────────────
# the sign-reversing involution behind the inverse
# ──────────────────────────────────────────────────────────────────────────


def involution_domain(n: int, k: int) -> Iterator[tuple]:
    """All pairs behind the (n, k) entry of the product Sf * sf, rook-major.

    A pair is the tuple (j, rook, file) of the entries of a rook-style
    placement of n-j tilings on the n-staircase and of a file placement of
    j-k tilings on the j-staircase, signed by (-1)^(j-k); (n, j) fixes both
    boards. The placements are drawn lazily; a j with more than one rook
    placement holds its file entries as a list, and one with a single rook
    (j = n) holds none.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    for j in range(k, n + 1):
        rooks = enumerate_rook_placements(FerrersBoard.staircase(n), FIBONACCI, n - j)
        file_board = FerrersBoard.staircase(j)
        files = (fp.entries for fp in enumerate_file_placements(file_board, FIBONACCI, j - k))
        if len(rooks) > 1:
            files = list(files)  # drawn once, walked once per rook
        for rp in rooks:
            rook = rp.entries
            for file in files:
                yield j, rook, file


def _domain_problem(n: int, k: int, pair: tuple) -> str | None:
    """Why `pair` is not in `involution_domain(n, k)`, or None if it is.

    The complete membership test: it checks the entries of both parts
    against their placement rule on the staircase (n, j) implies, because
    the involution builds its images without validation.
    """
    j, rook, file = pair
    if not k <= j <= n:
        return f"pair has j={j} outside {k}..{n}"
    for label, entries, size, count, lag in (("rook", rook, n, n - j, RookPlacement.lag),
                                             ("file", file, j, j - k, FilePlacement.lag)):
        if len(entries) != count:
            return f"{label} part has the wrong number of tilings"
        problem = _entries_problem(FerrersBoard.staircase(size), entries, lag)
        if problem is not None:
            return f"{label} part: {problem}"
        if any(3 in t.tiles for _, t in entries):
            return f"{label} part has a tile outside {{1,2}}"
    return None


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
    applies `_involution_step`, the map itself. `involution_verify` calls
    that step directly: its pairs come from `involution_domain`, whose
    enumerators are trusted, and it runs `_domain_problem` once per pair,
    on the image.
    """
    if not 1 <= k < n:
        raise ValueError("the involution is defined for 1 <= k < n")
    problem = _domain_problem(n, k, pair)
    if problem is not None:
        raise ValueError(problem)
    return _involution_step(n, k, pair)


def _involution_step(n: int, k: int, pair: tuple) -> tuple:
    """`involution` on a pair known to be in the (n, k) domain, without
    testing membership. The image's entries are not validated;
    `_domain_problem` checks them."""
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
    signed weight sum over the domain vanishes. The domain is streamed and
    its pairs are trusted, so the domain predicate runs once per pair, on
    the image, and the map is applied again only to an image inside the
    domain. Weights are compared as exponent triples, and the signed sum
    is kept as a signed count per triple until the end.
    """
    if not 1 <= k < n:
        raise ValueError("the involution is defined for 1 <= k < n")
    signed: dict[tuple[int, int, int], int] = {}
    counterexamples = []
    per_j: dict[int, int] = {}
    for pair in involution_domain(n, k):
        j, rook, file = pair
        per_j[j] = per_j.get(j, 0) + 1
        weight = _entries_exponents(rook + file)
        sign = -1 if len(file) % 2 else 1
        signed[weight] = signed.get(weight, 0) + sign
        image = _involution_step(n, k, pair)
        inside = _domain_problem(n, k, image) is None
        problems = []
        if not inside:
            problems.append("image outside domain")
        if image == pair:
            problems.append("fixed point")
        if len(image[2]) % 2 == len(file) % 2:
            problems.append("sign not flipped")
        if _entries_exponents(image[1] + image[2]) != weight:
            problems.append("weight changed")
        if inside and _involution_step(n, k, image) != pair:
            problems.append("not an involution")
        if problems:  # a drawn pair is in the domain, so its parts validate
            rook_part = RookPlacement(FerrersBoard.staircase(n), rook)
            file_part = FilePlacement(FerrersBoard.staircase(j), file)
            counterexamples.append({"pair": f"j={j} {rook_part};{file_part}", "problems": problems})
    signed_total = PQRPoly(signed)
    return report(
        "involution", f"n={n}, k={k}", counterexamples, holds=signed_total.is_zero,
        domain_size=sum(per_j.values()),
        pairs_per_j={str(j): per_j[j] for j in sorted(per_j)},
        signed_sum=str(signed_total),
    )
