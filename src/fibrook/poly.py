"""Exact sparse polynomial arithmetic in the weight variables q, p and r.

All counting in this package is exact, so polynomials live in Z[q, p, r]
stored sparsely: a map from monomials to nonzero integer coefficients. The
empty map is the zero polynomial. Equality is equality of term maps, and
printing follows a fixed graded term order, so equal values always print
identically; the CLI and the golden tests rely on that.

Each monomial q^a p^b r^c is stored under one packed int key

    d << 3W | a << 2W | b << W | c,    where d = a + b + c and W = _EXP_BITS,

after the packed exponent vectors of Monagan and Pearce (CASC 2007).
Multiplying two monomials is one int addition, and sorting the keys as
plain ints gives the graded print order: total degree first, then the
exponents of q, p and r. A field can only overflow once a total degree
reaches 2**W, so every polynomial carries an upper bound on its total
degree (a sum under `*`, a max under `+`), and an operation that would
reach the limit raises OverflowError instead of wrapping. The packing is
private: the constructor, `term` and `.terms` speak exponent triples
(e_q, e_p, e_r). `q_image` maps a polynomial to its image under q -> 2**w,
one integer per (p, r) monomial. Images are never decoded: `q_image_text`
prints one with a single `%` format, its digits into the term templates
(`%d*p^2*q^3`) cached per (p, r) row, and `str` composes each monomial
from cached factor pieces, so it grows no row cache.

On top of the ring this module provides the q-analogues ([n]_q with the
convention [0]_q = 1, q-factorials, q-binomials built by the Pascal-type
recursion so no division is ever performed), and XPoly, a coefficient value
type for polynomials in one formal variable, built from a list or by
`horner_step` (it also holds the column series in t cut at some order).
There is deliberately no division or rational-function support: 1/(1 - c*t)
exists only as a geometric series cut at some power of t.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat, zip_longest
from typing import Iterable, Mapping

Exponents = tuple[int, int, int]  # (e_q, e_p, e_r)

_EXP_BITS = 16  # W, the width of each packed field
_DEG_LIMIT = 1 << _EXP_BITS  # every total degree must stay below this
_MASK = _DEG_LIMIT - 1
_ROW_MASK = (1 << 2 * _EXP_BITS) - 1  # the (e_p, e_r) fields of a packed key
_P_SHIFT = _EXP_BITS
_Q_SHIFT = 2 * _EXP_BITS
_DEG_SHIFT = 3 * _EXP_BITS
_SHIFT = {"q": _Q_SHIFT, "p": _P_SHIFT, "r": 0}  # variable name -> field shift

def check_degree(deg: int) -> None:
    """Raise OverflowError unless total degree `deg` fits the packed fields.

    Sums of packed keys, and of `q_image` row keys, are exact only below it.
    """
    if deg >= _DEG_LIMIT:
        raise OverflowError(
            f"total degree {deg} reaches the packed-exponent limit 2**{_EXP_BITS}"
        )


def _pack(e_q: int, e_p: int, e_r: int) -> int:
    if e_q < 0 or e_p < 0 or e_r < 0:
        raise ValueError(f"negative exponent in term {(e_q, e_p, e_r)!r}")
    deg = e_q + e_p + e_r
    check_degree(deg)
    return deg << _DEG_SHIFT | e_q << _Q_SHIFT | e_p << _P_SHIFT | e_r


def _unpack(key: int) -> Exponents:
    return (key >> _Q_SHIFT & _MASK, key >> _P_SHIFT & _MASK, key & _MASK)


def q_image_row(e_p: int, e_r: int) -> int:
    """The row key of p**e_p * r**e_r in `PQRPoly.q_image`."""
    return e_p << _P_SHIFT | e_r


def _row_digits(value: int, w: int) -> tuple[int, list[int]]:
    """(low, digits) with value = sum digits[i] * 2**(w * (low + i)).

    `value` must be positive. The digits are its base-2**w digits from the
    lowest nonzero one up, so the zero digits at the low end of a row cost
    one shift. They are peeled 16 at a time: each block is cut off the row
    with one mask and one shift, and its digits off the block, so a row of
    m digits is shifted m/16 times rather than m times.
    """
    low = ((value & -value).bit_length() - 1) // w
    value >>= low * w
    mask = (1 << w) - 1
    block = w << 4
    block_mask = (1 << block) - 1
    digits: list[int] = []
    while value:
        part = value & block_mask
        value >>= block
        end = len(digits) + 16
        while part:
            digits.append(part & mask)
            part >>= w
        if value:
            digits += [0] * (end - len(digits))
    return low, digits


# row key -> the `%` templates of its terms at q**0, q**1, ...: "%d" and the
# monomial's text, such as "%d*p^2*q^3" ("%d" for the constant monomial)
_ROW_TEXT: dict[int, list[str]] = {}


@lru_cache(maxsize=None)
def _factor(name: str, e: int) -> str:
    return "" if e == 0 else f"*{name}" if e == 1 else f"*{name}^{e}"


def _row_text(row: int, stop: int) -> list[str]:
    """The term templates of row `row` times q**0 .. q**(stop-1) (at least), cached.

    Raises OverflowError, as `_pack` does, once a total degree reaches 2**16.
    """
    texts = _ROW_TEXT.get(row)
    if texts is None:
        texts = _ROW_TEXT[row] = []
    if len(texts) < stop:
        e_p, e_r = row >> _P_SHIFT, row & _MASK
        check_degree(e_p + e_r + stop - 1)
        p, r = _factor("p", e_p), _factor("r", e_r)
        texts += ["%d" + p + _factor("q", e_q) + r for e_q in range(len(texts), stop)]
    return texts


def q_image_text(rows: Mapping[int, int], w: int) -> str:
    """str(f) for the f with f.q_image(w) == rows, read from the image alone.

    Only for images of polynomials whose coefficients all have one sign and
    absolute values below 2**w: each row is read as plain base-2**w digits
    of its absolute value (`_row_digits`). A row's nonzero digits form one
    run in e_q, and its term at e_q has total degree e_q plus the row's
    degree, so the graded order is a degree-skewed merge: the rows are
    sorted by degree, descending, then by row key, offset by their lowest
    total degree and read column by column. The merge joins the rows' term
    templates by the sign, then reads their digits in the same order, zeros
    dropped, so the text is one `%` format.
    """
    if not rows:
        return "0"
    negative = next(iter(rows.values())) < 0
    lead = " - " if negative else " + "
    runs = []
    for minus_deg, row in sorted([(-(row >> _P_SHIFT) - (row & _MASK), row) for row in rows]):
        low, digits = _row_digits(abs(rows[row]), w)
        pieces = _row_text(row, low + len(digits))[low : low + len(digits)]
        if 0 in digits:
            pieces = [piece if digit else "" for piece, digit in zip(pieces, digits)]
        runs.append((low - minus_deg, pieces, digits))
    base = min(start for start, _, _ in runs)
    cells = zip_longest(*[chain(repeat(0, start - base), digits) for start, _, digits in runs])
    digits = tuple(filter(None, chain.from_iterable(cells)))
    cells = zip_longest(*[chain(repeat("", start - base), pieces) for start, pieces, _ in runs])
    text = (lead + lead.join(filter(None, chain.from_iterable(cells)))) % digits
    text = text.replace(lead + "1*", lead)  # a unit digit before a monomial
    return "-" + text[3:] if negative else text[3:]


def p_sequence(rows: Mapping[int, int]) -> list[int]:
    """The coefficients of p**0, p**1, ... of an image at slot 0, with r = 1.

    At slot 0, q -> 2**0 = 1, so each row's value is the q = 1 coefficient
    of its (p, r) monomial, and the rows of one power of p add up.
    """
    seq = [0] * ((max(rows, default=-1) >> _P_SHIFT) + 1)
    for row, value in rows.items():
        seq[row >> _P_SHIFT] += value
    while seq and not seq[-1]:
        seq.pop()
    return seq


def _from_packed(terms: dict[int, int], deg: int) -> PQRPoly:
    """Wrap a packed term map with no zero coefficients; `deg` bounds its total degree."""
    poly = object.__new__(PQRPoly)
    poly._terms = terms
    poly._deg = deg
    return poly


# ──────────────────────────────────────────────────────────────────────────
# core ring
# ──────────────────────────────────────────────────────────────────────────


class PQRPoly:
    """Polynomial in q, p, r with integer coefficients, canonical sparse form."""

    __slots__ = ("_terms", "_deg")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for (e_q, e_p, e_r), coeff in terms.items():
                if coeff:
                    clean[_pack(e_q, e_p, e_r)] = coeff
        self._terms = clean
        self._deg = max(clean) >> _DEG_SHIFT if clean else 0

    # construction helpers ------------------------------------------------

    @classmethod
    def zero(cls) -> PQRPoly:
        return _ZERO

    @classmethod
    def one(cls) -> PQRPoly:
        return _ONE

    @classmethod
    def constant(cls, c: int) -> PQRPoly:
        return _from_packed({0: c}, 0) if c else _ZERO

    @classmethod
    def term(cls, coeff: int, e_q: int = 0, e_p: int = 0, e_r: int = 0) -> PQRPoly:
        if not coeff:
            return _ZERO
        key = _pack(e_q, e_p, e_r)
        return _from_packed({key: coeff}, key >> _DEG_SHIFT)

    # inspection -----------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, int]:
        """Copy of the term map; keys are (e_q, e_p, e_r)."""
        return {_unpack(key): coeff for key, coeff in self._terms.items()}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(self._terms) >> _DEG_SHIFT

    def coefficient(self, var: str, power: int) -> PQRPoly:
        """The polynomial in the remaining variables multiplying var**power."""
        shift = _SHIFT[var]
        drop = power << _DEG_SHIFT | power << shift
        picked = {
            key - drop: coeff
            for key, coeff in self._terms.items()
            if (key >> shift & _MASK) == power
        }
        return _from_packed(picked, self._deg)

    def eval_at(self, q: int, p: int = 0, r: int = 0) -> int:
        """Exact integer evaluation at q, p, r."""
        total = 0
        for key, coeff in self._terms.items():
            e_q, e_p, e_r = _unpack(key)
            total += coeff * q**e_q * p**e_p * r**e_r
        return total

    def q_image(self, w: int) -> dict[int, int]:
        """The image under q -> 2**w, one integer per (p, r) monomial.

        Maps each row key, the (e_p, e_r) part of the packed key, to
        sum coeff * 2**(w * e_q) over the terms of that row; rows that sum
        to 0 are left out. This is a ring homomorphism Z[q, p, r] -> Z[p, r],
        so the image of f + g is the row-wise sum of the images and the image
        of f * g their row convolution, where row keys add the way packed
        keys do (exactly while total degrees stay below 2**16, see
        `check_degree`). Within the bound |coeff| < 2**(w-1) it is
        injective: the coefficients of a row are its digits in balanced base
        2**w, and an integer has only one such digit string. Without the
        bound it is not; q - 2**w maps to {}.
        """
        rows: dict[int, int] = {}
        get = rows.get
        for key, coeff in self._terms.items():
            row = key & _ROW_MASK
            rows[row] = get(row, 0) + (coeff << w * (key >> _Q_SHIFT & _MASK))
        return {row: value for row, value in rows.items() if value}

    # arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(value: PQRPoly | int) -> PQRPoly | None:
        if isinstance(value, PQRPoly):
            return value
        if isinstance(value, int):
            return PQRPoly.constant(value)
        return None

    def __add__(self, other: PQRPoly | int) -> PQRPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # copying the left operand shares its key objects with the result,
        # which keeps running sums such as triangle rows small in memory
        out = dict(self._terms)
        for key, coeff in rhs._terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                del out[key]
        return _from_packed(out, self._deg if self._deg >= rhs._deg else rhs._deg)

    __radd__ = __add__

    def __neg__(self) -> PQRPoly:
        return _from_packed({key: -c for key, c in self._terms.items()}, self._deg)

    def __sub__(self, other: PQRPoly | int) -> PQRPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: int) -> PQRPoly:
        return PQRPoly.constant(other) - self

    def __mul__(self, other: PQRPoly | int) -> PQRPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        left, right = self._terms, rhs._terms
        if not left or not right:
            return _ZERO
        deg = self._deg + rhs._deg
        if deg >= _DEG_LIMIT:  # the bound may be loose after cancellation
            deg = (max(left) >> _DEG_SHIFT) + (max(right) >> _DEG_SHIFT)
            check_degree(deg)
        # packed keys add as monomials multiply, so each term pair is one
        # int addition; the sums that cancel to 0 are dropped at the end
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in left.items():
            for kb, cb in right.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        return _from_packed(out, deg)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> PQRPoly:
        if exponent < 0:
            raise ValueError("negative powers are not defined in this ring")
        out = _ONE
        for _ in range(exponent):
            out = out * self
        return out

    # identity and printing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other) if isinstance(other, (PQRPoly, int)) else None
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for key, coeff in sorted(self._terms.items()):
            e_q, e_p, e_r = _unpack(key)
            mono = _factor("p", e_p) + _factor("q", e_q) + _factor("r", e_r)
            if coeff > 0:
                sign = " + "
            else:
                sign = " - "
                coeff = -coeff
            if coeff == 1 and mono:
                parts.append(sign + mono[1:])
            else:
                parts.append(f"{sign}{coeff}{mono}")
        first = parts[0]
        parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(parts)

    def __repr__(self) -> str:
        return f"PQRPoly({self})"


_ZERO = PQRPoly()
_ONE = PQRPoly.constant(1)

# the weights of tiles of height 1, 2 and 3
Q = PQRPoly.term(1, e_q=1)
P = PQRPoly.term(1, e_p=1)
R = PQRPoly.term(1, e_r=1)


# ──────────────────────────────────────────────────────────────────────────
# q-analogues
# ──────────────────────────────────────────────────────────────────────────


def q_int(n: int) -> PQRPoly:
    """[n]_q = 1 + q + ... + q^(n-1) for n >= 1, with [0]_q = 1."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    if n == 0:
        return _ONE
    return PQRPoly({(i, 0, 0): 1 for i in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> PQRPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q, empty product for n = 0."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    if n == 0:
        return _ONE
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> PQRPoly:
    """Gaussian binomial, built by the Pascal-type recursion (no division)."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return _ONE
    return q_binomial(n - 1, k - 1) + PQRPoly.term(1, e_q=k) * q_binomial(n - 1, k)


# ──────────────────────────────────────────────────────────────────────────
# polynomials in x over Z[q, p, r]
# ──────────────────────────────────────────────────────────────────────────


class XPoly:
    """Polynomial in x with PQRPoly coefficients: a coefficient value, built
    from a list (lowest power first) or by `horner_step`, with no arithmetic."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[PQRPoly | int] = ()):
        lifted = [c if isinstance(c, PQRPoly) else PQRPoly.constant(c) for c in coeffs]
        while lifted and not lifted[-1]:
            lifted.pop()
        self._coeffs = tuple(lifted)

    @classmethod
    def zero(cls) -> XPoly:
        return cls(())

    @classmethod
    def one(cls) -> XPoly:
        return cls((_ONE,))

    @classmethod
    def x_power(cls, n: int) -> XPoly:
        if n < 0:
            raise ValueError("x_power needs n >= 0")
        return cls([_ZERO] * n + [_ONE])

    @property
    def coeffs(self) -> tuple[PQRPoly, ...]:
        return self._coeffs

    def coefficient(self, i: int) -> PQRPoly:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return _ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        chunks = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
            if not c:
                continue
            xpart = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if not xpart:
                chunks.append(str(c))
            elif c == _ONE:
                chunks.append(xpart)
            else:
                chunks.append(f"({c})*{xpart}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"XPoly({self})"


def horner_step(poly: XPoly, c: PQRPoly, const: PQRPoly) -> XPoly:
    """const + (x + c) * poly: one step of a Newton-form evaluation.

    Each product is c times one coefficient of `poly`, so every x-polynomial
    that is not given by its coefficient list is built a linear factor at a
    time, never by multiplying two polynomials in x.
    """
    coeffs = poly.coeffs
    if not coeffs:
        return XPoly((const,))
    out = [const + c * coeffs[0]]
    out += [coeffs[i - 1] + c * coeffs[i] for i in range(1, len(coeffs))]
    out.append(coeffs[-1])
    return XPoly(out)


def xpoly_product(cs: Iterable[PQRPoly]) -> XPoly:
    """The product of the linear factors x + c for c in `cs`, by Horner steps.

    A falling factor x - c is passed as -c; the empty product is 1.
    """
    out = XPoly.one()
    for c in cs:
        out = horner_step(out, c, _ZERO)
    return out
