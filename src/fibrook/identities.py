"""The identity checks, and the registry that runs every check as suites.

The matrix-inverse, basis-expansion and involution checks
(`matrix_inverse_check`, `verify_basis_expansions`, `involution_verify`)
live in `fibrook.stirling`, beside the triangles and the involution. The
board-level checks compare the two independent modes of the placement
polynomials (recursion and enumeration) and the product identities they
satisfy. Everything else is a prediction about the triangles of
`fibrook.stirling`: the triangle recursion is the source of truth, and the
formulas are evaluated independently and compared entrywise, in the
triangles' images under q -> 2**w (`_triangle_sides`, and slot 0 for the
q = 1 checks). Every check returns a JSON-ready report dict built by
`fibrook.stirling.report`.

Covered: the generating function for a fixed column of the Sf triangle,
the small-column closed forms, the p^0 and p^1 coefficient extractions,
the q = 1 binomial specializations, the first two cf columns, Fibonacci
binomial coefficients (with the quotient cross-check), log-concavity and
unimodality of coefficient sequences, and bundled integer-sequence
fixtures exported by name.

`run_suite` is the one registry of suites and their default sizes; the
command line only validates a request, calls it and formats the reports.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb
from pathlib import Path

from fibrook.board import FerrersBoard, aug_mixed_sum, file_poly, mixed_file_sum, rook_poly
from fibrook.poly import (
    PQRPoly, XPoly, horner_step, p_sequence, q_binomial, q_image_row, q_int, xpoly_product,
)
from fibrook.stirling import (
    build_triangle,
    involution_verify,
    matrix_inverse_check,
    report,
    triangle_images,
    verify_basis_expansions,
)
from fibrook.tiling import FIBONACCI, TRIBONACCI, Record, TileFamily, fibonacci_number, weight_poly

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


# ──────────────────────────────────────────────────────────────────────────
# generating function for one column of the Sf triangle
# ──────────────────────────────────────────────────────────────────────────


def sf_column_series(k: int, order: int) -> XPoly:
    """Sum over n <= order of Sf[n][k] t^n, as a polynomial in t: the
    expansion of t^k / ((1 - W_1 t)(1 - W_2 t) ... (1 - W_k t)) cut at t^order.

    The quotient is the Cauchy product of the geometric series
    1 + W_i t + W_i^2 t^2 + ..., each cut at t^(order - k) before the
    shift by t^k, so it is computed independently of the triangle's
    column recursion.
    """
    if k < 1:
        raise ValueError("column index k must be >= 1")
    if order < k:
        raise ValueError("order must be >= k")
    cut = order - k
    series = [PQRPoly.one()] + [PQRPoly.zero()] * cut
    for i in range(1, k + 1):
        w = weight_poly(FIBONACCI, i)
        powers = [PQRPoly.one()]
        for _ in range(cut):
            powers.append(powers[-1] * w)
        series = [
            sum((series[j] * powers[n - j] for j in range(n + 1)), PQRPoly.zero())
            for n in range(cut + 1)
        ]
    return XPoly([0] * k + series)


# ──────────────────────────────────────────────────────────────────────────
# closed forms for the extreme columns
# ──────────────────────────────────────────────────────────────────────────

def closed_form(kind: str, n: int) -> PQRPoly:
    """Closed forms: Sf_n1 = q^(n-1) (n >= 1), Sf_n2 = q^(n-2) [n-1]_q
    (n >= 2), cf_n1 = W_1 W_2 ... W_{n-1} (n >= 1), and col_nm1 =
    W_1 + ... + W_{n-1} (n >= 2), the shared value of the cf and Sf
    triangles at k = n-1."""
    if kind == "Sf_n1":
        if n < 1:
            raise ValueError("Sf_n1 needs n >= 1")
        return PQRPoly.term(1, e_q=n - 1)
    if kind == "Sf_n2":
        if n < 2:
            raise ValueError("Sf_n2 needs n >= 2")
        return PQRPoly.term(1, e_q=n - 2) * q_int(n - 1)
    if kind == "cf_n1":
        if n < 1:
            raise ValueError("cf_n1 needs n >= 1")
        out = PQRPoly.one()
        for i in range(1, n):
            out = out * weight_poly(FIBONACCI, i)
        return out
    if kind == "col_nm1":
        if n < 2:
            raise ValueError("col_nm1 needs n >= 2")
        out = PQRPoly.zero()
        for i in range(1, n):
            out = out + weight_poly(FIBONACCI, i)
        return out
    raise ValueError(f"unknown closed form kind {kind!r}")


# ──────────────────────────────────────────────────────────────────────────
# low p-degree coefficients of Sf, as polynomials in q
# ──────────────────────────────────────────────────────────────────────────


def sf_p_coefficient_formula(n: int, k: int, s: int) -> PQRPoly:
    """The coefficient of p^s in Sf[n][k] for s in {0, 1}, in closed form.

    s = 0 (n >= k >= 1): tilings use height-1 tiles only, giving
        q^(n-k) * qbinom(n-1, k-1).
    s = 1 (n > k >= 3): one height-2 tile; summing over its position gives
        q^(n-k) * sum over m of m q^(m-1) *
        sum over i of q^(i(m+1)) qbinom(i+k-m-2, i) qbinom(m+n-k-i, m+1).
    """
    if s == 0:
        if not 1 <= k <= n:
            raise ValueError("s=0 needs n >= k >= 1")
        return PQRPoly.term(1, e_q=n - k) * q_binomial(n - 1, k - 1)
    if s == 1:
        if not 3 <= k < n:
            raise ValueError("s=1 needs n > k >= 3")
        total = PQRPoly.zero()
        for m in range(1, k - 1):
            inner = PQRPoly.zero()
            for i in range(0, n - k):
                inner = inner + (
                    PQRPoly.term(1, e_q=i * (m + 1))
                    * q_binomial(i + k - m - 2, i)
                    * q_binomial(m + n - k - i, m + 1)
                )
            total = total + m * PQRPoly.term(1, e_q=m - 1) * inner
        return PQRPoly.term(1, e_q=n - k) * total
    raise ValueError("only s in {0, 1} have displayed formulas")


def sf_q1_coefficient(n: int, k: int, s: int) -> int:
    """Predicted integer coefficient of p^s in Sf[n][k] with q set to 1.

    Columns 3, 4 and 5 have binomial forms for every stated s; for other
    columns only s = 0 (from the qbinom formula) and s = 1 (the product
    C(k-1, 2) C(n-1, k)) are available.
    """
    if k == 3:
        if n < 3 or s < 0:
            raise ValueError("column 3 needs n >= 3 and s >= 0")
        return comb(n - 1, s + 2)
    if k == 4:
        if n < 4 or s < 0:
            raise ValueError("column 4 needs n >= 4 and s >= 0")
        return (2 ** (s + 1) - 1) * comb(n - 1, s + 3)
    if k == 5:
        if n < 5:
            raise ValueError("column 5 needs n >= 5")
        if s == 0:
            return comb(n - 1, 4)
        if s == 1:
            return 6 * comb(n - 1, 5)
        if s == 2:
            return 25 * comb(n - 1, 6) + comb(n - 1, 5)
        if s == 3:
            return 90 * comb(n - 1, 7) + 9 * comb(n - 1, 6)
        if s == 4:
            return 301 * comb(n - 1, 8) + 52 * comb(n - 1, 7) + comb(n - 1, 6)
        raise ValueError("column 5 has stated formulas for s <= 4 only")
    if s == 0:
        if not 1 <= k <= n:
            raise ValueError("s=0 needs n >= k >= 1")
        return comb(n - 1, k - 1)
    if s == 1:
        if not 3 <= k <= n:
            raise ValueError("s=1 needs n >= k >= 3")
        return comb(k - 1, 2) * comb(n - 1, k)
    raise ValueError(f"no stated formula for column {k} at s={s}")


# ──────────────────────────────────────────────────────────────────────────
# the first two columns of cf
# ──────────────────────────────────────────────────────────────────────────


def cf_column_coefficient_formula(n: int, col: int, s: int) -> PQRPoly:
    """The coefficient of p^s in cf[n][col] for col=1 (s <= 3), col=2 (s <= 1).

    Column 1 collects a single q-power; column 2 at s = 1 is a two-part sum.
    Below each formula's threshold the coefficient is zero.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if col == 1:
        if s == 0:
            return PQRPoly.term(1, e_q=comb(n, 2))
        if s == 1:
            c = comb(n - 2, 2) if n >= 4 else 0
            return PQRPoly.term(c, e_q=comb(n, 2) - 2) if c else PQRPoly.zero()
        if s == 2:
            c = cf_col1_p2_count(n) if n >= 5 else 0
            return PQRPoly.term(c, e_q=comb(n, 2) - 4) if c else PQRPoly.zero()
        if s == 3:
            c = cf_col1_p3_count(n) if n >= 6 else 0
            return PQRPoly.term(c, e_q=comb(n, 2) - 6) if c else PQRPoly.zero()
        raise ValueError("column 1 has stated formulas for s <= 3 only")
    if col == 2:
        if s == 0:
            if n < 2:
                return PQRPoly.zero()
            return PQRPoly.term(1, e_q=comb(n - 1, 2)) * q_int(n - 1)
        if s == 1:
            if n < 4:
                return PQRPoly.zero()
            first = PQRPoly.term(comb(n - 2, 2), e_q=comb(n, 2) - 3)
            ramp = PQRPoly.zero()
            for i in range(0, n - 2):
                ramp = ramp + PQRPoly.term(comb(n - 3, 2) + i, e_q=i)
            return first + PQRPoly.term(1, e_q=comb(n - 1, 2) - 2) * ramp
        raise ValueError("column 2 has stated formulas for s <= 1 only")
    raise ValueError("only columns 1 and 2 have stated formulas")


def cf_col1_p2_count(n: int) -> int:
    """The coefficient of p^2 q^(C(n,2)-4) in cf[n][1], for n >= 5."""
    return 3 * comb(n - 1, 4) - comb(n - 3, 2)


def cf_col1_p3_count(n: int) -> int:
    """The coefficient of p^3 q^(C(n,2)-6) in cf[n][1], for n >= 6."""
    return 15 * comb(n, 6) - 6 * comb(n - 2, 4) + comb(n - 4, 4)


def cf_col2_p_coefficient_at_q1(n: int) -> int:
    """Total number of weight contributions to p^1 in cf[n][2]: (n-2) C(n-2, 2)."""
    if n < 4:
        raise ValueError("needs n >= 4")
    return (n - 2) * comb(n - 2, 2)


# ──────────────────────────────────────────────────────────────────────────
# Fibonacci binomial coefficients
# ──────────────────────────────────────────────────────────────────────────


@lru_cache(maxsize=None)
def fibonomial(n: int, k: int) -> int:
    """Fibonacci binomial by Gould's recursion
    C_F(n,k) = F_{k+1} C_F(n-1,k) + F_{n-k-1} C_F(n-1,k-1),
    with C_F(n,0) = C_F(n,n) = 1."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0 or k == n:
        return 1
    return fibonacci_number(k + 1) * fibonomial(n - 1, k) + fibonacci_number(
        n - k - 1
    ) * fibonomial(n - 1, k - 1)


def fibonomial_quotient(n: int, k: int) -> int:
    """The quotient definition n_F! / (k_F! (n-k)_F!), exact division enforced."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")

    def fib_factorial(m: int) -> int:
        out = 1
        for i in range(1, m + 1):
            out *= fibonacci_number(i)
        return out

    num = fib_factorial(n)
    den = fib_factorial(k) * fib_factorial(n - k)
    quotient, remainder = divmod(num, den)
    if remainder:
        raise AssertionError(f"fibonomial({n},{k}) is not integral, which is impossible")
    return quotient


# ──────────────────────────────────────────────────────────────────────────
# shape properties of coefficient sequences
# ──────────────────────────────────────────────────────────────────────────


def _strip_zeros(seq: list[int]) -> list[int]:
    lo, hi = 0, len(seq)
    while lo < hi and seq[lo] == 0:
        lo += 1
    while hi > lo and seq[hi - 1] == 0:
        hi -= 1
    return seq[lo:hi]


def log_concave(seq) -> bool:
    """a_i^2 >= a_{i-1} a_{i+1} for the zero-stripped sequence (out-of-range
    terms count as 0, so the endpoints never fail)."""
    inner = _strip_zeros(list(seq))
    return all(
        inner[i] * inner[i] >= inner[i - 1] * inner[i + 1]
        for i in range(1, len(inner) - 1)
    )


def unimodal(seq) -> bool:
    """Weakly rises to a single peak, then weakly falls (after zero-stripping)."""
    inner = _strip_zeros(list(seq))
    if not inner:
        return True
    i = 0
    while i + 1 < len(inner) and inner[i] <= inner[i + 1]:
        i += 1
    while i + 1 < len(inner) and inner[i] >= inner[i + 1]:
        i += 1
    return i == len(inner) - 1


def p_sequences(kind: str, N: int, width: int | None = None) -> list[list[list[int]]]:
    """seqs[n][k]: the integer coefficients of p^0, p^1, ... of the `kind`
    entry (n, k) at q = r = 1, for rows 0..N and columns k <= width.

    Read from the triangle at slot 0, the image q -> 2**0 = 1, where each
    row value is already a q = 1 coefficient; no entry is built as a
    polynomial.
    """
    rows_at = triangle_images(kind, N, width)[1]
    return [[p_sequence(image) for image in row] for row in rows_at(0)]


# ──────────────────────────────────────────────────────────────────────────
# bundled integer sequences
# ──────────────────────────────────────────────────────────────────────────


class SequenceReport(Record):
    """A sequence's fixture values, the values its formula generates, and
    their status, MATCH or MISMATCH, with a note on a known variant."""

    __slots__ = ("values", "generated", "status", "warn")

    def __init__(
        self, values: tuple[int, ...], generated: tuple[int, ...], status: str,
        warn: str | None = None,
    ) -> None:
        self._set(values, generated, status, warn)


def _read_fixture(filename: str) -> tuple[int, ...]:
    text = (_FIXTURE_DIR / filename).read_text(encoding="utf-8")
    return tuple(int(line) for line in text.split())


# name: (formula, first n, fixture file, file of a known variant transcription or None)
_SEQUENCES = {
    # 3*C(n-1,4) - C(n-3,2), n >= 5; the p^2 count in cf[n][1]; OEIS A086602
    "A086602": (cf_col1_p2_count, 5, "A086602.txt", None),
    # 15*C(n,6) - 6*C(n-2,4) + C(n-4,4), n >= 6; the p^3 count in cf[n][1]
    "cfn1p3": (cf_col1_p3_count, 6, "cfn1p3.txt", None),
    # (n-2)*C(n-2,2), n >= 4; the p^1 count in cf[n][2] at q = 1; OEIS A006002
    "A006002": (cf_col2_p_coefficient_at_q1, 4, "A006002.txt", "A006002_variant.txt"),
}

SEQUENCE_NAMES = tuple(sorted(_SEQUENCES))


def sequence_export(name: str) -> SequenceReport:
    """Regenerate a registered sequence from its formula and compare with the
    bundled fixture prefix. A registered variant transcription that is known
    to disagree produces a WARN note, never a failure."""
    if name not in _SEQUENCES:
        raise KeyError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCE_NAMES)}")
    fn, start_n, fixture_file, variant_file = _SEQUENCES[name]
    values = _read_fixture(fixture_file)
    generated = tuple(fn(n) for n in range(start_n, start_n + len(values)))
    status = "MATCH" if generated == values else "MISMATCH"
    warn = None
    if variant_file is not None:
        variant = _read_fixture(variant_file)
        if variant != values[: len(variant)]:
            missing = sorted(set(values) - set(variant))
            warn = (
                "a previously circulated transcription of this sequence reads "
                + ",".join(str(v) for v in variant[:6])
                + ",...; it omits "
                + ",".join(str(v) for v in missing)
                + " relative to the formula values"
            )
    return SequenceReport(values, generated, status, warn)


# ──────────────────────────────────────────────────────────────────────────
# verification reports
# ──────────────────────────────────────────────────────────────────────────


def _triangle_sides(kind: str, N: int, width: int | None, cases: list[tuple]) -> list:
    """For each case (n, k, s, formula): None when the formula equals the
    `kind` entry (n, k), or its coefficient of p**s when s is not None, and
    else that triangle side as a `PQRPoly`, from `build_triangle`, which
    runs only when a case fails.

    Both sides are compared in the image q -> 2**w of `triangle_images`.
    Each coefficient of an entry is at most its l1 norm from the integer
    pass, and each of a formula at most the formula's l1 norm; with B the
    largest of these and w = B.bit_length() + 2, both sides and their
    difference have coefficients below 2**(w-1), where the image is
    injective (balanced base-2**w digits). Sf and cf carry no r, so the
    coefficient of p**s of an entry is its image row `q_image_row(s, 0)`.
    """
    _, rows_at, norms, _ = triangle_images(kind, N, width)
    bound = max(chain(map(max, norms), (sum(map(abs, f.terms.values())) for *_, f in cases)))
    w = bound.bit_length() + 2
    wanted = {(n, k) for n, k, _, _ in cases}
    images = {(n, k): image for n, row in enumerate(rows_at(w))
              for k, image in enumerate(row) if (n, k) in wanted}
    sides, tri = [], None
    for n, k, s, formula in cases:
        image = images.get((n, k), {})
        if s is not None:
            value = image.get(q_image_row(s, 0))
            image = {0: value} if value else {}
        if image == formula.q_image(w):
            sides.append(None)
            continue
        if tri is None:
            tri = build_triangle(kind, N, width)
        entry = tri.entry(n, k)
        sides.append(entry if s is None else entry.coefficient("p", s))
    return sides


def check_series_columns(N: int = 12) -> dict:
    """Series coefficients equal triangle entries: t^n coefficient = Sf[n][k],
    for columns k <= min(N, 6)."""
    kmax = min(N, 6)
    cases = []
    for k in range(1, kmax + 1):
        series = sf_column_series(k, N)
        cases += [(n, k, None, series.coefficient(n)) for n in range(N + 1)]
    bad = [
        {"n": n, "k": k, "series": str(got), "triangle": str(want)}
        for (n, k, _, got), want in zip(cases, _triangle_sides("Sf", N, kmax, cases))
        if want is not None
    ]
    return report("sf-column-series", f"k<={kmax}, order {N}", bad)


def check_closed_forms(N: int = 20) -> dict:
    """The four extreme-column closed forms against the triangles."""
    forms = []  # (label, triangle, n, k, closed form), in report order
    for n in range(1, N + 1):
        forms.append(("Sf_n1", "Sf", n, 1, closed_form("Sf_n1", n)))
        if n >= 2:
            forms.append(("Sf_n2", "Sf", n, 2, closed_form("Sf_n2", n)))
        forms.append(("cf_n1", "cf", n, 1, closed_form("cf_n1", n)))
        if n >= 2:
            shared = closed_form("col_nm1", n)
            forms.append(("col_nm1(cf)", "cf", n, n - 1, shared))
            forms.append(("col_nm1(Sf)", "Sf", n, n - 1, shared))
    sides = {}  # the results of each triangle, in report order
    for kind in ("Sf", "cf"):
        cases = [(n, k, None, want) for _, t, n, k, want in forms if t == kind]
        sides[kind] = iter(_triangle_sides(kind, N, None, cases))
    bad = []
    for label, kind, n, _, want in forms:
        side = next(sides[kind])
        if side is not None:
            bad.append({"form": label, "n": n, "triangle": str(side), "formula": str(want)})
    return report("closed-forms", f"n<={N}", bad)


# the sf-p check runs at most at this size, and fibonomials at least at this one
SF_P_MAX_N = 12
FIBONOMIAL_MIN_N = 30


def check_sf_p_coefficients(N: int = SF_P_MAX_N) -> dict:
    """p^0 and p^1 coefficient formulas for Sf against the triangle."""
    cases = [(n, k, 0, sf_p_coefficient_formula(n, k, 0))
             for n in range(1, N + 1) for k in range(1, n + 1)]
    cases += [(n, k, 1, sf_p_coefficient_formula(n, k, 1))
              for n in range(4, N + 1) for k in range(3, n)]
    bad = [
        {"n": n, "k": k, "s": s, "formula": str(got), "triangle": str(want)}
        for (n, k, s, got), want in zip(cases, _triangle_sides("Sf", N, None, cases))
        if want is not None
    ]
    return report("sf-p-coefficients", f"s=0: k<=n<={N}; s=1: 3<=k<n<={N}", bad)


def check_q1_specializations(N: int = 20) -> dict:
    """Binomial formulas for Sf columns 3..5 at q = 1, plus the single-p
    product formula for every column of the rows up to min(N, 14)."""
    n_single = min(N, 14)
    columns = p_sequences("Sf", N, width=5)
    rows = p_sequences("Sf", n_single)
    bad = []
    for k in (3, 4, 5):
        for n in range(k, N + 1):
            coeffs = columns[n][k]
            smax = (n - 1) if k != 5 else 4
            for s in range(0, smax + 1):
                got = sf_q1_coefficient(n, k, s)
                have = coeffs[s] if s < len(coeffs) else 0
                if got != have:
                    bad.append({"n": n, "k": k, "s": s, "formula": got, "triangle": have})
    for n in range(3, n_single + 1):
        for k in range(3, n):
            coeffs = rows[n][k]
            have = coeffs[1] if len(coeffs) > 1 else 0
            got = sf_q1_coefficient(n, k, 1)
            if got != have:
                bad.append({"n": n, "k": k, "s": 1, "formula": got, "triangle": have})
    scope = f"k in 3..5, n<={N}; single-p product for 3<=k<n<={n_single}"
    return report("sf-q1-specializations", scope, bad)


def check_cf_columns(N: int = 20) -> dict:
    """Column 1 (s <= 3) and column 2 (s <= 1) formulas for cf, plus the
    integer count of the column-2 p coefficient at q = 1."""
    cases = [(n, col, s, cf_column_coefficient_formula(n, col, s))
             for n in range(1, N + 1) for col, top in ((1, 4), (2, 2)) for s in range(top)]
    at_q1 = p_sequences("cf", N, width=2)
    bad = []
    for (n, col, s, got), want in zip(cases, _triangle_sides("cf", N, 2, cases)):
        if want is not None:
            bad.append({"col": col, "n": n, "s": s, "formula": str(got), "triangle": str(want)})
        if (col, s) == (2, 1) and n >= 4:  # the last case of row n
            seq = at_q1[n][2]
            want_int = seq[1] if len(seq) > 1 else 0
            got_int = cf_col2_p_coefficient_at_q1(n)
            if got_int != want_int:
                bad.append({"col": 2, "n": n, "s": 1, "at_q1": True,
                            "formula": got_int, "triangle": want_int})
    return report("cf-column-coefficients", f"n<={N}", bad)


def check_fibonomials(N: int = FIBONOMIAL_MIN_N) -> dict:
    """Gould recursion vs quotient definition, positivity, symmetry."""
    bad = []
    for n in range(N + 1):
        for k in range(n + 1):
            value = fibonomial(n, k)
            quotient = fibonomial_quotient(n, k)
            if value != quotient:
                bad.append({"n": n, "k": k, "recursion": value, "quotient": quotient})
            if value <= 0:
                bad.append({"n": n, "k": k, "value": value, "problem": "not positive"})
            if value != fibonomial(n, n - k):
                bad.append({"n": n, "k": k, "problem": "not symmetric"})
    return report("fibonomials", f"n<={N}", bad)


def check_sequences() -> dict:
    """Every registered sequence regenerates its fixture; known variant
    transcriptions surface as WARN."""
    bad = []
    warnings = []
    for name in SEQUENCE_NAMES:
        exported = sequence_export(name)
        if exported.status != "MATCH":
            bad.append({"name": name, "generated": list(exported.generated),
                        "fixture": list(exported.values)})
        if exported.warn:
            warnings.append({"name": name, "note": exported.warn})
    return report("sequences", ", ".join(SEQUENCE_NAMES), bad, warnings)


def check_log_concavity() -> dict:
    """Log-concavity of Sf[n][k](p, 1) coefficient sequences: proved for
    k <= 4 (FAIL on violation, rows n <= 25), empirical for k = 5..8 (WARN
    on violation, rows n <= 18); cf[n][1](p, 1) is log-concave via
    real-rootedness (FAIL on violation, rows n <= 20).
    `scripts/scan_log_concavity.py` scans further."""
    sf_N, sf_kmax, empirical_N, empirical_kmax, cf_N = 25, 4, 18, 8, 20
    sf = p_sequences("Sf", max(sf_N, empirical_N), width=max(sf_kmax, empirical_kmax))
    cf = p_sequences("cf", cf_N, width=1)
    bad = []
    warnings = []
    for n in range(1, sf_N + 1):
        for k in range(1, min(sf_kmax, n) + 1):
            seq = sf[n][k]
            if not log_concave(seq):
                bad.append({"kind": "Sf", "n": n, "k": k, "sequence": seq})
    for n in range(1, empirical_N + 1):
        for k in range(sf_kmax + 1, min(empirical_kmax, n) + 1):
            seq = sf[n][k]
            if not log_concave(seq):
                warnings.append({"kind": "Sf", "n": n, "k": k, "sequence": seq})
    for n in range(1, cf_N + 1):
        seq = cf[n][1]
        if not log_concave(seq):
            bad.append({"kind": "cf", "n": n, "k": 1, "sequence": seq})
    scope = (f"Sf k<={sf_kmax} n<={sf_N} and cf col 1 n<={cf_N} asserted; "
             f"Sf k={sf_kmax + 1}..{empirical_kmax} n<={empirical_N} empirical")
    return report("log-concavity", scope, bad, warnings)


# ──────────────────────────────────────────────────────────────────────────
# placement polynomials on boards
# ──────────────────────────────────────────────────────────────────────────

SMALL_BOARD_MAX = 4  # the exhaustive board set: columns and heights up to this


def all_ferrers_boards(max_n: int, max_height: int) -> Iterator[FerrersBoard]:
    """Every Ferrers board with 1..max_n columns and heights <= max_height,
    in lexicographic order."""
    for n in range(1, max_n + 1):
        for heights in combinations_with_replacement(range(max_height + 1), n):
            yield FerrersBoard(heights)


_BOARDS_RANGE = f"boards n<={SMALL_BOARD_MAX} heights<={SMALL_BOARD_MAX}"


def _small_boards_and_staircases(N: int) -> list[FerrersBoard]:
    """The small boards, then the staircases up to N that are not among
    them, each board once."""
    boards = [*all_ferrers_boards(SMALL_BOARD_MAX, SMALL_BOARD_MAX)]
    return list(dict.fromkeys(boards + [FerrersBoard.staircase(n) for n in range(N + 1)]))


def _recursion_vs_enumeration(board: FerrersBoard, fam: TileFamily) -> list[dict]:
    bad = []
    for k in range(board.n + 1):
        for model, poly in (("file", file_poly), ("rook", rook_poly)):
            rec_val = poly(board, fam, k)
            enum_val = poly(board, fam, k, mode="enumeration")
            if rec_val != enum_val:
                bad.append({
                    "board": str(board), "family": fam.label, "model": model,
                    "k": k, "recursion": str(rec_val), "enumeration": str(enum_val),
                })
    return bad


def check_recursion_vs_enumeration(N: int) -> dict:
    """File and rook polynomials by recursion equal those by enumeration,
    for both tile families and every k, on the small boards and the
    staircases up to N."""
    bad = []
    for board in _small_boards_and_staircases(N):
        for fam in (FIBONACCI, TRIBONACCI):
            bad.extend(_recursion_vs_enumeration(board, fam))
    return report("recursion-vs-enumeration", f"{_BOARDS_RANGE}, staircases n<={N}", bad)


def _board_product(board: FerrersBoard, fam: TileFamily) -> XPoly:
    """prod_i (x + W_{b_i}) over the heights b_i of `board`."""
    return xpoly_product([weight_poly(fam, h) for h in board.heights])


def _product_identities(board: FerrersBoard, fam: TileFamily, lhs: XPoly) -> list[dict]:
    """The file and rook product identities; `lhs` is `_board_product(board, fam)`."""
    bad = []
    n = board.n
    # file side: prod_i (x + W_{b_i}) = sum_k fT_k x^(n-k), any heights
    rhs = XPoly([file_poly(board, fam, n - i) for i in range(n + 1)])
    if lhs != rhs:
        bad.append({"board": str(board), "family": fam.label, "identity": "file-product",
                    "lhs": str(lhs), "rhs": str(rhs)})
    # rook side: x^n = sum_k rT_{n-k} prod_{i<k} (x - W_{b_i}), Ferrers only,
    # summed in Horner form over the nodes W_{b_i}
    if board.is_ferrers:
        rhs = XPoly([rook_poly(board, fam, 0)])
        for k in range(n - 1, -1, -1):
            node = weight_poly(fam, board.heights[k])
            rhs = horner_step(rhs, -node, rook_poly(board, fam, n - k))
        if XPoly.x_power(n) != rhs:
            bad.append({"board": str(board), "family": fam.label, "identity": "rook-product",
                        "rhs": str(rhs)})
    return bad


def _placement_sums(board: FerrersBoard, fam: TileFamily, want: XPoly) -> list[dict]:
    """The mixed sum against `want`, prod_i (x + W_{b_i}), and the augmented
    sum against x^n, both in Z[q,p,r][x]; "aug-power" holds under any rule,
    so it checks only the walk."""
    bad = []
    mixed = mixed_file_sum(board, fam)
    if mixed != want:
        bad.append({"board": str(board), "family": fam.label, "identity": "mixed-product",
                    "sum": str(mixed), "product": str(want)})
    aug = aug_mixed_sum(board, fam)
    if aug != XPoly.x_power(board.n):
        bad.append({"board": str(board), "family": fam.label, "identity": "aug-power",
                    "sum": str(aug)})
    return bad


def check_products(N: int) -> dict:
    """The file and rook (cancellation rule) product identities on the small
    boards, the staircases up to N and a few non-Ferrers boards; on the small
    boards, the mixed and augmented (the walk's signs only) sums against
    their product forms as polynomials in x. Each board's linear product is
    built once, for both the file-product and the mixed-product comparison."""
    bad = []
    products = {}
    for board in _small_boards_and_staircases(N):
        for fam in (FIBONACCI, TRIBONACCI):
            products[board, fam] = _board_product(board, fam)
            bad.extend(_product_identities(board, fam, products[board, fam]))
    # the product identities do not need weakly increasing heights on the file side
    for heights in ((3, 1, 2), (2, 0, 5, 1), (4, 4, 1)):
        board = FerrersBoard(heights)
        for fam in (FIBONACCI, TRIBONACCI):
            bad.extend(_product_identities(board, fam, _board_product(board, fam)))
    for board in all_ferrers_boards(SMALL_BOARD_MAX, SMALL_BOARD_MAX):
        for fam in (FIBONACCI, TRIBONACCI):
            bad.extend(_placement_sums(board, fam, products[board, fam]))
    # the sums hold for every x; "x<=3" stays in the range text because the
    # goldens and perfbench/expected.json pin the stdout of `verify all`
    return report("products", f"{_BOARDS_RANGE}, staircases n<={N}, x<=3", bad)


# ──────────────────────────────────────────────────────────────────────────
# the suite registry
# ──────────────────────────────────────────────────────────────────────────

# each suite, in report order, with its default size N and the cap on N:
# the enumeration cap for the suites on staircase boards of up to N
# columns, the triangle cap for those that build triangles to row N; the
# identities suite runs every check at its own default size unless N is given
SUITE_SIZES = {
    "recursion-vs-enumeration": (8, "enumeration"),
    "products": (6, "enumeration"),
    "inverse": (12, "triangle"),
    "involution": (6, "enumeration"),
    "identities": (None, "triangle"),
}
SUITES = (*SUITE_SIZES, "all")


def run_suite(
    name: str, N: int | None = None, n: int | None = None, k: int | None = None
) -> list[dict]:
    """The reports of one suite in order; "all" runs every suite in turn.

    N sizes the suite (None: its default size). n and k select a single
    involution domain instead of every one up to the staircase N. Checks
    are called by their module-level names, so a patched check takes effect.
    """
    if name == "all":
        return [found for suite in SUITE_SIZES for found in run_suite(suite, N, n, k)]
    if name not in SUITE_SIZES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if N is None:
        N = SUITE_SIZES[name][0]
    if name == "recursion-vs-enumeration":
        return [check_recursion_vs_enumeration(N)]
    if name == "products":
        return [check_products(N)]
    if name == "inverse":
        # the tribonacci checks stop at 10, and the basis expansions at 12
        tops = ((FIBONACCI, N), (TRIBONACCI, min(N, 10)))
        return [matrix_inverse_check(top, fam) for fam, top in tops] + [
            verify_basis_expansions(min(top, 12), fam) for fam, top in tops
        ]
    if name == "involution":
        if n is not None:
            return [involution_verify(n, k)]
        return [involution_verify(m, j) for m in range(2, N + 1) for j in range(1, m)]
    # each identity check at its own default size (None), or at N kept in its bounds
    sized = [
        (check_series_columns, N),
        (check_closed_forms, N),
        (check_sf_p_coefficients, None if N is None else min(N, SF_P_MAX_N)),
        (check_q1_specializations, N),
        (check_cf_columns, N),
        (check_fibonomials, None if N is None else max(N, FIBONOMIAL_MIN_N)),
        (check_sequences, None),
        (check_log_concavity, None),
    ]
    return [check() if size is None else check(size) for check, size in sized]
