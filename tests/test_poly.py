"""Ring arithmetic, canonical printing, q-analogues and XPoly."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fibrook.poly as poly_module
from conftest import l1_norm, linear_product, xpoly_add, xpoly_mul
from fibrook.poly import (
    P,
    Q,
    R,
    PQRPoly,
    XPoly,
    horner_step,
    p_sequence,
    q_binomial,
    q_factorial,
    q_image_row,
    q_image_text,
    q_int,
    xpoly_product,
)

exponent_triples = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exponent_triples, st.integers(-5, 5), max_size=5).map(PQRPoly)
eval_points = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))


# canonical text form: graded order, ascending degree, p*q*r alphabetical
CANONICAL_STRINGS = [
    (PQRPoly.zero(), "0"),
    (PQRPoly.one(), "1"),
    (PQRPoly.constant(-7), "-7"),
    (P * Q, "p*q"),
    (3 * P**2 * Q**5, "3*p^2*q^5"),
    (Q + Q**2, "q + q^2"),
    (2 * P * Q**2 + Q**4, "2*p*q^2 + q^4"),
    (Q**3 - 1, "-1 + q^3"),
    (2 * R - Q, "2*r - q"),
    (P * Q**2 + Q**3 + P * Q**3 + Q**4 + Q**5, "p*q^2 + q^3 + p*q^3 + q^4 + q^5"),
]


@pytest.mark.parametrize("poly,text", CANONICAL_STRINGS)
def test_canonical_string(poly: PQRPoly, text: str):
    assert str(poly) == text


def test_string_round_trips_through_equality():
    # equal values print identically because the term order is fixed
    a = (Q + P) * (Q - P)
    b = Q * Q - P * P
    assert a == b
    assert str(a) == str(b)


def test_int_comparison_and_constants():
    assert PQRPoly.constant(5) == 5
    assert PQRPoly.zero() == 0
    assert Q != 1
    assert (Q - Q) == 0
    assert not PQRPoly.constant(0)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        PQRPoly({(-1, 0, 0): 1})
    with pytest.raises(ValueError):
        PQRPoly({(0, -1, 0): 2})
    with pytest.raises(ValueError):
        PQRPoly.term(1, e_q=2, e_r=-1)


def test_eval_at():
    f = Q**2 * P + 3
    assert f.eval_at(q=2, p=5) == 23
    assert f.eval_at(1, 1, 1) == 4
    assert PQRPoly.zero().eval_at(3, 3, 3) == 0


def test_coefficient_extraction():
    f = 2 * P * Q**2 + Q**4  # p-degree 1
    assert f.coefficient("p", 0) == Q**4
    assert f.coefficient("p", 1) == 2 * Q**2
    assert f.coefficient("p", 2) == 0
    assert f.total_degree() == 4
    assert PQRPoly.zero().total_degree() == -1


@given(polys, polys, polys)
def test_ring_axioms(a: PQRPoly, b: PQRPoly, c: PQRPoly):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * PQRPoly.one() == a
    assert a - b == a + (-b)


@given(polys, polys, eval_points)
def test_eval_is_a_ring_map(a: PQRPoly, b: PQRPoly, point):
    q0, p0, r0 = point
    assert (a + b).eval_at(q0, p0, r0) == a.eval_at(q0, p0, r0) + b.eval_at(q0, p0, r0)
    assert (a * b).eval_at(q0, p0, r0) == a.eval_at(q0, p0, r0) * b.eval_at(q0, p0, r0)


# differential checks against a tuple-keyed dict reference ------------------


def _ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (aq, ap, ar), ac in a.items():
        for (bq, bp, br), bc in b.items():
            key = (aq + bq, ap + bp, ar + br)
            out[key] = out.get(key, 0) + ac * bc
    return _ref_clean(out)


def _ref_str(terms: dict) -> str:
    if not terms:
        return "0"
    text = ""
    for e in sorted(terms, key=lambda e: (sum(e), e)):
        coeff = terms[e]
        factors = [
            name if k == 1 else f"{name}^{k}"
            for name, k in (("p", e[1]), ("q", e[0]), ("r", e[2]))
            if k
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        else:
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        if not text:
            text = body if coeff > 0 else f"-{body}"
        else:
            text += (" + " if coeff > 0 else " - ") + body
    return text


def _ref_eval(terms: dict, q: int, p: int, r: int) -> int:
    return sum(c * q**eq * p**ep * r**er for (eq, ep, er), c in terms.items())


def _ref_substitute(terms: dict, values: dict) -> dict:
    out: dict = {}
    for exps, c in terms.items():
        kept = []
        for name, e in zip("qpr", exps):
            if name in values:
                c *= values[name] ** e
                e = 0
            kept.append(e)
        out[tuple(kept)] = out.get(tuple(kept), 0) + c
    return _ref_clean(out)


# few distinct monomials and signed coefficients, so that sums and products cancel
term_maps = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    st.integers(-3, 3),
    max_size=6,
)


@given(term_maps, term_maps, eval_points)
def test_ring_matches_tuple_dict_reference(a: dict, b: dict, point):
    pa, pb = PQRPoly(a), PQRPoly(b)
    ra, rb = _ref_clean(a), _ref_clean(b)
    results = {
        "a": (pa, ra),
        "a+b": (pa + pb, _ref_add(ra, rb)),
        "a-b": (pa - pb, _ref_add(ra, {e: -c for e, c in rb.items()})),
        "a*b": (pa * pb, _ref_mul(ra, rb)),
    }
    for name, (got, want) in results.items():
        assert got.terms == want, name
        assert str(got) == _ref_str(want), name
        assert got.eval_at(*point) == _ref_eval(want, *point), name
        # equal values built along another route hash alike
        assert hash(got) == hash(PQRPoly(want)), name


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@given(term_maps, term_maps, eval_points)
def test_ring_matches_sympy(sympy, a: dict, b: dict, point):
    gens = sympy.symbols("q p r")
    sa = sympy.Poly.from_dict(a, *gens) if a else sympy.Poly(0, *gens)
    sb = sympy.Poly.from_dict(b, *gens) if b else sympy.Poly(0, *gens)
    pa, pb = PQRPoly(a), PQRPoly(b)
    for got, want in ((pa + pb, sa + sb), (pa - pb, sa - sb), (pa * pb, sa * sb)):
        assert got.terms == {e: int(c) for e, c in want.as_dict().items()}
        # the printed form parses back to the same polynomial
        assert sympy.Poly(sympy.sympify(str(got)), *gens) == want
        assert got.eval_at(*point) == int(want.eval(dict(zip(gens, point))))


# the q-image -------------------------------------------------------------------


def _row(e_p: int, e_r: int) -> int:
    """The row key of the (p, r) monomial p^e_p r^e_r."""
    [key] = PQRPoly.term(1, e_p=e_p, e_r=e_r).q_image(1)
    return key


def _row_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


def _row_convolution(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return {key: value for key, value in out.items() if value}


q_widths = st.integers(1, 8)
# |coeff| <= 2, so f + h stays below 2**3 for the polys strategy's f
small_polys = st.dictionaries(exponent_triples, st.integers(-2, 2), max_size=3).map(PQRPoly)


@given(polys, q_widths)
def test_q_image_substitutes_a_power_of_two_for_q(f: PQRPoly, w: int):
    want = {_row(e_p, e_r): c for (_, e_p, e_r), c in _ref_substitute(f.terms, {"q": 2**w}).items()}
    assert f.q_image(w) == want


@given(polys, polys, q_widths)
def test_q_image_is_a_ring_map_onto_rows(a: PQRPoly, b: PQRPoly, w: int):
    assert (a + b).q_image(w) == _row_sum(a.q_image(w), b.q_image(w))
    assert (a * b).q_image(w) == _row_convolution(a.q_image(w), b.q_image(w))


@given(polys, small_polys, st.integers(4, 8))
def test_q_image_is_injective_below_the_coefficient_bound(f: PQRPoly, h: PQRPoly, w: int):
    # every coefficient of f and of g = f + h is below 2**3 <= 2**(w-1)
    g = f + h
    assert (f.q_image(w) == g.q_image(w)) == (f == g)


def test_q_image_is_not_injective_beyond_the_bound():
    for w in (1, 4, 74):
        assert (Q - 2**w) != 0
        assert (Q - 2**w).q_image(w) == {}


def test_q_image_row_is_the_row_key():
    assert q_image_row(3, 2) == _row(3, 2)
    assert q_image_row(0, 0) == 0


# nonnegative coefficients below 2**4, read back at slots of 4 to 9 bits
digit_polys = st.dictionaries(exponent_triples, st.integers(0, 15), max_size=6).map(PQRPoly)


@given(digit_polys, st.integers(4, 9), st.sampled_from([1, -1]))
def test_q_image_text_is_str_of_the_polynomial_behind_the_image(f: PQRPoly, w: int, sign: int):
    # every coefficient of sign * f has the sign `sign`, and so has each row of its image
    assert q_image_text((sign * f).q_image(w), w) == str(sign * f)


def test_q_image_text_reads_inner_zero_digits_and_long_rows():
    f = 5 * Q**7 + Q**2 * P + 3 * P + 1 + R**2 * Q**3
    for w in (3, 12, 68):
        assert q_image_text(f.q_image(w), w) == str(f)
        assert q_image_text((-f).q_image(w), w) == str(-f)
    big = (2**67 - 1) * Q**3 + 2**66 * P
    assert q_image_text(big.q_image(68), 68) == str(big)
    # rows of 16 digits and more are cut into blocks of 16 before the digits,
    # and a block whose top digits are 0 must still fill its 16 places
    gappy = sum(Q**i for i in range(40) if i % 16 not in (14, 15))
    rows = [sum((i % 7) * Q**i for i in range(3, 3 + m)) * P for m in (15, 16, 17, 40)]
    for row in rows + [gappy]:
        assert q_image_text(row.q_image(5), 5) == str(row)
    assert q_image_text({}, 8) == "0"


def test_q_image_text_merges_rows_by_degree_then_row_key():
    # rows of one p+r degree whose q-runs overlap: at each total degree the
    # terms come by e_q, so the rows of higher p+r degree first, and a tie
    # goes by e_p then e_r, the row key's order
    f = (1 + 2 * Q + 3 * Q**2) * R + (Q + Q**2) * P
    f += (Q + 4 * Q**2) * P * R + (2 + 5 * Q) * P**2
    text = "r + 2*p^2 + 2*q*r + p*q + p*q*r + 5*p^2*q + 3*q^2*r + p*q^2 + 4*p*q^2*r"
    assert str(f) == text
    for w in (4, 9):
        assert q_image_text(f.q_image(w), w) == text
        assert q_image_text((-f).q_image(w), w) == "-" + text.replace(" + ", " - ")


def test_q_image_text_pads_rows_whose_degrees_do_not_meet():
    # the row of highest p+r degree, read first, starts at total degree 9,
    # and the rows below it end at degrees 6 and 1
    f = 1 + 2 * Q + 3 * P * Q**5 + Q**4 * P**3 * R**2 + 5 * Q**5 * P**3 * R**2
    text = "1 + 2*q + 3*p*q^5 + p^3*q^4*r^2 + 5*p^3*q^5*r^2"
    assert str(f) == text
    for w in (3, 8):
        assert q_image_text(f.q_image(w), w) == text
        assert q_image_text((-f).q_image(w), w) == "-" + text.replace(" + ", " - ")


def test_reading_an_image_keeps_the_degree_limit():
    # q^535 r^65000 has total degree 2**16 - 1, the highest a term may have
    row = q_image_row(0, 65000)
    assert q_image_text({row: 1 << 535}, 1) == "q^535*r^65000"
    with pytest.raises(OverflowError):
        q_image_text({row: 1 << 536}, 1)


def test_str_of_a_high_power_of_q_grows_no_row_cache():
    sizes = {row: len(texts) for row, texts in poly_module._ROW_TEXT.items()}
    assert str(PQRPoly.term(1, e_q=65535)) == "q^65535"
    assert str(-3 * Q**700 * P**2 * R) == "-3*p^2*q^700*r"
    assert {row: len(texts) for row, texts in poly_module._ROW_TEXT.items()} == sizes


@given(polys, polys)
def test_abs_sum_bounds_sums_and_products(a: PQRPoly, b: PQRPoly):
    # the l1 bounds behind the image widths of the inverse and basis checks
    assert l1_norm(a + b) <= l1_norm(a) + l1_norm(b)
    assert max(map(abs, (a * b).terms.values()), default=0) <= l1_norm(a) * l1_norm(b)


def test_abs_sum_values():
    assert l1_norm(PQRPoly.zero()) == 0
    assert l1_norm(3 * P * Q - 2 * R + 1) == 6


def test_p_sequence_reads_a_slot_zero_image():
    # at q = 1: 2*q*p + p*q^3 - p^2 + 5*r*p^2 + 7 has p-coefficients 7, 3, 4
    f = 2 * Q * P + P * Q**3 - P**2 + 5 * R * P**2 + 7
    assert p_sequence(f.q_image(0)) == [7, 3, 4]
    assert p_sequence((P**3 - P**3 * R + Q).q_image(0)) == [1]
    assert p_sequence({}) == []


# the packed-key guards -------------------------------------------------------


def test_packed_degree_limit_raises():
    limit = poly_module._DEG_LIMIT
    poly_module.check_degree(limit - 1)
    with pytest.raises(OverflowError):
        poly_module.check_degree(limit)
    with pytest.raises(OverflowError):
        PQRPoly({(limit, 0, 0): 1})
    with pytest.raises(OverflowError):
        PQRPoly({(0, limit // 2, limit // 2): 1})  # each exponent fits, the degree does not
    with pytest.raises(OverflowError):
        PQRPoly.term(1, e_r=limit)
    with pytest.raises(OverflowError):
        PQRPoly.term(1, e_q=1, e_p=limit - 1)
    top = PQRPoly.term(1, e_r=limit - 1)
    assert top.total_degree() == limit - 1
    assert top * 7 == PQRPoly.term(7, e_r=limit - 1)
    with pytest.raises(OverflowError):
        top * R  # e_r would carry into the e_p field
    with pytest.raises(OverflowError):
        PQRPoly.term(1, e_r=limit // 2) * PQRPoly.term(1, e_r=limit // 2)
    # sums and negation carry the bound of their largest term
    with pytest.raises(OverflowError):
        (Q + top) * R
    with pytest.raises(OverflowError):
        (1 - top) * R
    # a degree bound left loose by cancellation does not refuse a product that fits
    assert ((top + Q - top) * Q).terms == {(2, 0, 0): 1}


def test_term_with_zero_coefficient_is_zero():
    z = PQRPoly.term(0, 3, 1, 2)
    assert not z
    assert z == 0
    assert len(z) == 0
    assert str(z) == "0"
    assert z.terms == {}
    assert not z * Q
    assert z + Q == Q


def test_equal_values_from_different_routes_hash_alike():
    routes = [
        (Q + P) ** 2,
        Q * Q + 2 * P * Q + P * P,
        PQRPoly({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}),
        PQRPoly.term(1, 0, 2) + PQRPoly.term(2, 1, 1) + PQRPoly.term(1, 2),
        (Q + P + R) * (Q + P - R) + R * R,
        PQRPoly(_ref_substitute(((Q + P + R) ** 2).terms, {"r": 0})),
        (Q + P) ** 2 * P - (Q + P) ** 2 * (P - 1),
    ]
    assert all(f == routes[0] for f in routes)
    assert len({hash(f) for f in routes}) == 1
    assert len(set(routes)) == 1


@pytest.mark.parametrize("c", [0, 1, -3, 5])
def test_a_constant_hashes_like_its_int(c: int):
    # equal values must hash alike, and a constant equals its int
    for const in (PQRPoly.constant(c), PQRPoly.term(c), Q + c - Q):
        assert const == c
        assert hash(const) == hash(c)
        assert len({const, c}) == 1
        assert const in {c} and c in {const}


@given(polys, st.integers(0, 4))
def test_pow_is_repeated_multiplication(a: PQRPoly, e: int):
    expected = PQRPoly.one()
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


# q-analogues ---------------------------------------------------------------


def test_q_int_values():
    assert q_int(0) == 1  # empty-product convention used throughout
    assert q_int(1) == 1
    assert q_int(4) == 1 + Q + Q**2 + Q**3
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial_values():
    assert q_factorial(0) == 1
    assert q_factorial(3) == 1 + 2 * Q + 2 * Q**2 + Q**3
    assert str(q_binomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"


def _box_partition_poly(rows: int, cols: int) -> PQRPoly:
    """Sum of q^|lam| over partitions with <= rows parts, each part <= cols."""

    def sizes(left: int, cap: int):
        if left == 0:
            yield 0
            return
        for first in range(cap + 1):
            for rest in sizes(left - 1, first):
                yield first + rest

    total = PQRPoly.zero()
    for size in sizes(rows, cols):
        total = total + PQRPoly.term(1, e_q=size)
    return total


@pytest.mark.parametrize("n", range(8))
def test_q_binomial_counts_partitions_in_a_box(n: int):
    for k in range(n + 1):
        assert q_binomial(n, k) == _box_partition_poly(k, n - k)


def test_q_binomial_symmetry_and_quotient():
    for n in range(11):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
            # the quotient definition, checked multiplicatively (no division)
            assert q_binomial(n, k) * q_factorial(k) * q_factorial(n - k) == q_factorial(n)


def test_q_binomial_domain():
    with pytest.raises(ValueError):
        q_binomial(3, 4)
    with pytest.raises(ValueError):
        q_binomial(3, -1)


# XPoly ----------------------------------------------------------------------


def test_xpoly_rising_product():
    # x (x + q) (x + q^2) written out
    f = xpoly_product([PQRPoly.zero(), Q, Q**2])
    assert f.coefficient(3) == 1
    assert f.coefficient(2) == Q + Q**2
    assert f.coefficient(1) == Q**3
    assert f.coefficient(0) == 0
    assert len(f.coeffs) - 1 == 3


def test_xpoly_normalizes_leading_zeros():
    assert XPoly([1, Q, PQRPoly.zero()]) == XPoly([1, Q])
    assert len(XPoly([]).coeffs) - 1 == -1
    assert str(XPoly.zero()) == "0"


xpolys = st.lists(polys, max_size=4).map(XPoly)


@given(xpolys, xpolys, st.integers(-3, 3), eval_points)
def test_xpoly_ops_match_integer_evaluation(f: XPoly, g: XPoly, x0: int, point):
    # the test-side sum and product are ring maps under evaluation at integers
    q0, p0, r0 = point

    def ev(h: XPoly) -> int:
        return sum(c.eval_at(q0, p0, r0) * x0**i for i, c in enumerate(h.coeffs))

    assert ev(xpoly_add(f, g)) == ev(f) + ev(g)
    assert ev(xpoly_mul(f, g)) == ev(f) * ev(g)
    assert ev(xpoly_mul(f, XPoly([3]))) == 3 * ev(f)
    assert ev(xpoly_mul(f, XPoly([Q]))) == q0 * ev(f)


# the generic product of conftest.py is the reference for the Horner step


@given(st.lists(polys, max_size=4))
def test_xpoly_product_matches_the_ring_product(cs: list[PQRPoly]):
    assert xpoly_product(cs) == linear_product(cs)


@given(xpolys, polys, polys)
def test_horner_step_is_const_plus_linear_factor_times_poly(f: XPoly, c: PQRPoly, d: PQRPoly):
    assert horner_step(f, c, d) == xpoly_add(XPoly([d]), xpoly_mul(XPoly([c, 1]), f))
