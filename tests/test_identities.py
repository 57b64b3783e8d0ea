"""Closed forms, coefficient formulas, fibonomials, sequences, shape checks."""

from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import fibrook.identities as identities
from fibrook.identities import (
    SEQUENCE_NAMES,
    cf_col2_p_coefficient_at_q1,
    cf_column_coefficient_formula,
    check_cf_columns,
    check_closed_forms,
    check_fibonomials,
    check_log_concavity,
    check_q1_specializations,
    check_sequences,
    check_series_columns,
    check_sf_p_coefficients,
    closed_form,
    fibonomial,
    log_concave,
    p_sequences,
    run_suite,
    sequence_export,
    sf_column_series,
    sf_p_coefficient_formula,
    sf_q1_coefficient,
    unimodal,
)
from conftest import linear_product, xpoly_add, xpoly_mul
from fibrook.board import FerrersBoard
from fibrook.poly import P, Q, PQRPoly, XPoly
import fibrook.stirling as stirling
from fibrook.stirling import TRIANGLE_KINDS, build_triangle
from fibrook.tiling import FIBONACCI, TRIBONACCI, weight_poly


# generating series -----------------------------------------------------------


def test_series_frozen_coefficient():
    assert str(sf_column_series(2, 4).coefficient(3)) == "q + q^2"
    with pytest.raises(ValueError):
        sf_column_series(0, 5)
    with pytest.raises(ValueError):
        sf_column_series(3, 2)


def test_series_times_its_denominator_is_t_to_the_k():
    # t^k / prod (1 - W_i t) pinned without the triangle: the generic
    # product of conftest.py is the reference for the cut Cauchy product
    for k in range(1, 7):
        denominator = XPoly.one()
        for i in range(1, k + 1):
            denominator = xpoly_mul(denominator, XPoly([1, -weight_poly(FIBONACCI, i)]))
        for order in range(k, 13):
            series = sf_column_series(k, order)
            assert len(series.coeffs) - 1 == order
            product = xpoly_mul(series, denominator)
            assert XPoly(product.coeffs[: order + 1]) == XPoly.x_power(k)


# closed forms ------------------------------------------------------------------


def test_closed_form_frozen_values():
    assert closed_form("Sf_n1", 5) == Q**4
    assert closed_form("Sf_n2", 4) == Q**2 + Q**3 + Q**4
    assert closed_form("cf_n1", 4) == P * Q**4 + Q**6
    assert str(closed_form("col_nm1", 4)) == "q + p*q + q^2 + q^3"
    with pytest.raises(ValueError):
        closed_form("Sf_n2", 1)
    with pytest.raises(ValueError):
        closed_form("nope", 5)


# p-coefficients of Sf ------------------------------------------------------------


def test_sf_p_formula_frozen_and_domain():
    assert str(sf_p_coefficient_formula(5, 3, 1)) == "q^2 + q^3 + 2*q^4"
    with pytest.raises(ValueError):
        sf_p_coefficient_formula(4, 4, 1)  # needs k < n
    with pytest.raises(ValueError):
        sf_p_coefficient_formula(5, 3, 2)  # no displayed formula


def test_sf_q1_values_match_triangle():
    # the all-column s = 0 formula; sf-q1-specializations checks s = 0 in columns 3..5 only
    seqs = p_sequences("Sf", 14)
    for n in range(3, 15):
        for k in range(1, n + 1):
            assert sf_q1_coefficient(n, k, 0) == seqs[n][k][0]


def test_sf_q1_frozen_spot_values():
    assert sf_q1_coefficient(5, 3, 1) == 4
    assert sf_q1_coefficient(7, 5, 2) == 31
    assert sf_q1_coefficient(9, 4, 2) == 7 * comb(8, 5)
    with pytest.raises(ValueError):
        sf_q1_coefficient(8, 6, 2)


# cf columns -----------------------------------------------------------------------


def test_cf_column_frozen_values():
    assert cf_column_coefficient_formula(5, 1, 2) == 2 * Q**6
    assert cf_column_coefficient_formula(6, 1, 3) == 9 * Q**9
    assert cf_column_coefficient_formula(4, 2, 1) == Q**2 + Q**3
    assert cf_column_coefficient_formula(3, 1, 1) == 0  # below threshold
    with pytest.raises(ValueError):
        cf_column_coefficient_formula(5, 3, 0)


def test_cf_col2_count_at_q1():
    assert cf_col2_p_coefficient_at_q1(4) == 2
    assert cf_col2_p_coefficient_at_q1(7) == 50
    with pytest.raises(ValueError):
        cf_col2_p_coefficient_at_q1(3)


# fibonomials -----------------------------------------------------------------------


def test_fibonomial_rows():
    rows = [[fibonomial(n, k) for k in range(n + 1)] for n in range(6)]
    assert rows == [
        [1],
        [1, 1],
        [1, 1, 1],
        [1, 2, 2, 1],
        [1, 3, 6, 3, 1],
        [1, 5, 15, 15, 5, 1],
    ]
    with pytest.raises(ValueError):
        fibonomial(3, 4)


# log-concavity and unimodality ------------------------------------------------------


def test_shape_predicates_on_known_sequences():
    assert log_concave([1, 2, 3, 2, 1])
    assert unimodal([1, 2, 3, 2, 1])
    assert not log_concave([1, 1, 4, 1])
    assert unimodal([1, 1, 4, 1])
    assert not unimodal([1, 3, 2, 3, 1])
    assert log_concave([0, 0, 2, 5, 3, 0])  # padding zeros are stripped
    assert not log_concave([1, 0, 1])
    assert log_concave([])
    assert unimodal([])
    assert unimodal([7])


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_log_concave_positive_implies_unimodal(seq):
    assume(log_concave(seq))
    assert unimodal(seq)


def p_coefficient_sequence(entry: PQRPoly) -> list[int]:
    """Integer coefficients of p^0, p^1, ... after setting q = r = 1, from
    the terms of `entry`: the polynomial reference for `p_sequences`."""
    at_q1: dict[int, int] = {}
    for (_, e_p, _), coeff in entry.terms.items():
        at_q1[e_p] = at_q1.get(e_p, 0) + coeff
    powers = [e_p for e_p, coeff in at_q1.items() if coeff]
    return [at_q1.get(s, 0) for s in range(max(powers, default=-1) + 1)]


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_slot_zero_sequences_match_the_unpacked_entries(kind: str):
    for N in range(13):
        want = [[p_coefficient_sequence(e) for e in row] for row in build_triangle(kind, N).rows]
        assert p_sequences(kind, N) == want
    for width in (0, 1, 5):
        want = [[p_coefficient_sequence(e) for e in row]
                for row in build_triangle(kind, 12, width).rows]
        assert p_sequences(kind, 12, width) == want


def test_triangle_p_coefficients_are_well_shaped():
    seqs = p_sequences("Sf", 16)
    for n in range(3, 17):
        for k in range(3, min(n, 4) + 1):
            seq = seqs[n][k]
            assert log_concave(seq)
            assert unimodal(seq)


# bundled sequences -------------------------------------------------------------------


def test_sequence_registry():
    assert SEQUENCE_NAMES == ("A006002", "A086602", "cfn1p3")
    with pytest.raises(KeyError):
        sequence_export("nope")


def test_a086602_prefix():
    report = sequence_export("A086602")
    assert report.status == "MATCH"
    assert report.generated == (2, 12, 39, 95, 195, 357, 602, 954)
    assert report.warn is None
    # the generating formula is the q=1 count of p^2 tilings in cf[n][1]
    cf = build_triangle("cf", 12)
    for i, n in enumerate(range(5, 13)):
        assert report.generated[i] == cf.entry(n, 1).coefficient("p", 2).eval_at(1)


def test_cfn1p3_prefix():
    report = sequence_export("cfn1p3")
    assert report.status == "MATCH"
    assert report.generated[:4] == (9, 75, 331, 1055)
    cf = build_triangle("cf", 10)
    for i, n in enumerate(range(6, 11)):
        assert report.generated[i] == cf.entry(n, 1).coefficient("p", 3).eval_at(1)


def test_a006002_match_with_variant_warning():
    report = sequence_export("A006002")
    assert report.status == "MATCH"
    assert report.generated[:6] == (2, 9, 24, 50, 90, 147)
    assert report.generated == tuple(
        (n - 2) * comb(n - 2, 2) for n in range(4, 4 + len(report.generated))
    )
    assert report.warn is not None
    assert "50" in report.warn


# report plumbing ----------------------------------------------------------------------


def test_check_reports_pass():
    assert check_series_columns(8)["status"] == "PASS"
    assert check_closed_forms(10)["status"] == "PASS"
    assert check_fibonomials(12)["status"] == "PASS"


def test_check_sequences_warns_but_passes():
    report = check_sequences()
    assert report["status"] == "WARN"
    assert report["counterexamples"] == []
    assert len(report["warnings"]) == 1


def test_check_sequences_catches_a_wrong_generator(monkeypatch):
    # A086602 is 2, 12, 39, 95, ... from n = 5; the generator is made one off at n = 7
    fn, *rest = identities._SEQUENCES["A086602"]
    monkeypatch.setitem(identities._SEQUENCES, "A086602",
                        (lambda n: fn(n) + (n == 7), *rest))
    report = check_sequences()
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"name": "A086602", "generated": [2, 12, 40, 95, 195, 357, 602, 954],
         "fixture": [2, 12, 39, 95, 195, 357, 602, 954]}
    ]
    assert [w["name"] for w in report["warnings"]] == ["A006002"]


def test_log_concavity_catches_a_wrong_sf_entry(perturb_entry):
    # Sf[6][3] at q = 1 has p-sequence [10, 10, 5, 1]; taking 9 from p^1 makes a dip
    perturb_entry("Sf", 6, 3, PQRPoly.term(-9, e_p=1))
    report = check_log_concavity()
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"kind": "Sf", "n": 6, "k": 3, "sequence": [10, 1, 5, 1]}
    ]


def test_log_concavity_catches_a_wrong_cf_entry(perturb_entry):
    # cf[6][1] at q = 1 has p-sequence [1, 6, 12, 9, 2]; zeroing p^1 leaves an inner 0
    perturb_entry("cf", 6, 1, PQRPoly.term(-6, e_p=1))
    report = check_log_concavity()
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"kind": "cf", "n": 6, "k": 1, "sequence": [1, 0, 12, 9, 2]}
    ]


def test_cf_columns_catch_a_wrong_entry(perturb_entry):
    perturb_entry("cf", 5, 2, Q)
    report = check_cf_columns()
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"col": 2, "n": 5, "s": 0, "formula": "q^6 + q^7 + q^8 + q^9",
         "triangle": "q + q^6 + q^7 + q^8 + q^9"}
    ]


# the five checks below run at the sizes of acceptance criteria 08, 09 and 14, and
# each perturbed entry sits at the top of that range, so a shrunken loop misses it


def test_closed_forms_catch_a_wrong_entry(perturb_entry):
    perturb_entry("Sf", 20, 1, Q)
    report = check_closed_forms(20)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"form": "Sf_n1", "n": 20, "triangle": "q + q^19", "formula": "q^19"}
    ]


def test_sf_p_coefficients_catch_a_wrong_entry(perturb_entry):
    want = sf_p_coefficient_formula(12, 11, 1)
    perturb_entry("Sf", 12, 11, P)
    report = check_sf_p_coefficients(12)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"n": 12, "k": 11, "s": 1, "formula": str(want), "triangle": str(want + 1)}
    ]


def test_series_columns_catch_a_wrong_entry(perturb_entry):
    want = build_triangle("Sf", 12).entry(12, 6)
    perturb_entry("Sf", 12, 6, Q)
    report = check_series_columns(12)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"n": 12, "k": 6, "series": str(want), "triangle": str(want + Q)}
    ]


# each formula below is made wrong by Q - 2**s at one case, with s the natural
# slot of the triangle the check builds: at slot s that difference maps to 0,
# so the check must compare at a slot of its own


def _slot_blind(kind: str, N: int, width: int | None = None) -> PQRPoly:
    slot = stirling.triangle_images(kind, N, width)[0]
    off = Q - 2**slot
    assert off.q_image(slot) == {}
    return off


def test_closed_forms_catch_a_formula_off_by_the_natural_slot(monkeypatch):
    off = _slot_blind("Sf", 20)
    real = identities.closed_form
    monkeypatch.setattr(identities, "closed_form",
                        lambda kind, n: real(kind, n) + off if (kind, n) == ("Sf_n1", 20)
                        else real(kind, n))
    report = check_closed_forms(20)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"form": "Sf_n1", "n": 20, "triangle": "q^19", "formula": str(Q**19 + off)}
    ]


def test_sf_p_coefficients_catch_a_formula_off_by_the_natural_slot(monkeypatch):
    off = _slot_blind("Sf", 12)
    real = identities.sf_p_coefficient_formula
    want = real(12, 11, 1)
    monkeypatch.setattr(identities, "sf_p_coefficient_formula",
                        lambda n, k, s: real(n, k, s) + off if (n, k, s) == (12, 11, 1)
                        else real(n, k, s))
    report = check_sf_p_coefficients(12)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"n": 12, "k": 11, "s": 1, "formula": str(want + off), "triangle": str(want)}
    ]


def test_series_columns_catch_a_formula_off_by_the_natural_slot(monkeypatch):
    off = _slot_blind("Sf", 12, 6)
    real = identities.sf_column_series
    want = real(6, 12).coefficient(12)

    def series(k: int, order: int) -> XPoly:
        coeffs = real(k, order).coeffs
        return XPoly([c + off if (k, n) == (6, 12) else c for n, c in enumerate(coeffs)])

    monkeypatch.setattr(identities, "sf_column_series", series)
    report = check_series_columns(12)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"n": 12, "k": 6, "series": str(want + off), "triangle": str(want)}
    ]


def test_cf_columns_catch_a_formula_off_by_the_natural_slot(monkeypatch):
    off = _slot_blind("cf", 20, 2)
    real = identities.cf_column_coefficient_formula
    want = real(20, 1, 0)
    monkeypatch.setattr(identities, "cf_column_coefficient_formula",
                        lambda n, col, s: real(n, col, s) + off if (n, col, s) == (20, 1, 0)
                        else real(n, col, s))
    report = check_cf_columns(20)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"col": 1, "n": 20, "s": 0, "formula": str(want + off), "triangle": str(want)}
    ]


def test_q1_specializations_catch_a_wrong_entry(perturb_entry):
    # 25 C(19, 6) + C(19, 5) = 689928 at q = 1
    perturb_entry("Sf", 20, 5, P**2)
    report = check_q1_specializations(20)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"n": 20, "k": 5, "s": 2, "formula": 689928, "triangle": 689929}
    ]


def test_fibonomials_catch_a_wrong_quotient(monkeypatch):
    real = identities.fibonomial_quotient

    def perturbed(n: int, k: int) -> int:
        return real(n, k) + 1 if (n, k) == (30, 30) else real(n, k)

    monkeypatch.setattr(identities, "fibonomial_quotient", perturbed)
    report = check_fibonomials(30)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [{"n": 30, "k": 30, "recursion": 1, "quotient": 2}]


# board-level checks and the suite registry ---------------------------------------------


def test_small_boards_are_every_weakly_increasing_profile():
    top = identities.SMALL_BOARD_MAX
    boards = list(identities.all_ferrers_boards(top, top))
    assert len(boards) == 5 + 15 + 35 + 70
    assert [str(b) for b in boards[:6]] == ["F(0)", "F(1)", "F(2)", "F(3)", "F(4)", "F(0,0)"]
    assert str(boards[-1]) == "F(4,4,4,4)"
    assert all(b.is_ferrers for b in boards)


def _perturb_placement_poly(monkeypatch, name: str, board: str, k: int, mode: str) -> None:
    """Make the checks in `identities` see `name`(board, fib, k, mode) + q."""
    real = getattr(identities, name)
    target = (board, FIBONACCI, k, mode)

    def perturbed(board_, fam, k_, mode="recursion"):
        value = real(board_, fam, k_, mode=mode)
        return value + Q if (str(board_), fam, k_, mode) == target else value

    monkeypatch.setattr(identities, name, perturbed)


def test_recursion_vs_enumeration_passes():
    report = identities.check_recursion_vs_enumeration(3)
    assert report["status"] == "PASS"
    assert report["range"] == "boards n<=4 heights<=4, staircases n<=3"


def test_recursion_vs_enumeration_catches_a_wrong_enumeration(monkeypatch):
    board = FerrersBoard((1, 1, 3))
    want = identities.rook_poly(board, FIBONACCI, 2)
    _perturb_placement_poly(monkeypatch, "rook_poly", "F(1,1,3)", 2, "enumeration")
    report = identities.check_recursion_vs_enumeration(2)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"board": "F(1,1,3)", "family": FIBONACCI.label, "model": "rook", "k": 2,
         "recursion": str(want), "enumeration": str(want + Q)}
    ]


def test_products_catch_a_wrong_file_polynomial(monkeypatch):
    heights = (1, 2, 2)
    lhs = linear_product([weight_poly(FIBONACCI, h) for h in heights])
    _perturb_placement_poly(monkeypatch, "file_poly", "F(1,2,2)", 1, "recursion")
    report = identities.check_products(2)
    assert report["status"] == "FAIL"
    # file_poly(k=1) is the coefficient of x^(n-1) = x^2 in the file product
    assert report["counterexamples"] == [
        {"board": "F(1,2,2)", "family": FIBONACCI.label, "identity": "file-product",
         "lhs": str(lhs), "rhs": str(xpoly_add(lhs, XPoly([0, 0, Q])))}
    ]


def test_a_staircase_among_the_small_boards_is_checked_once(monkeypatch):
    # F(0,1,2) is both a small board and the staircase n = 3
    board = FerrersBoard.staircase(3)
    want = identities.rook_poly(board, FIBONACCI, 1)
    _perturb_placement_poly(monkeypatch, "rook_poly", "F(0,1,2)", 1, "enumeration")
    report = identities.check_recursion_vs_enumeration(3)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"board": "F(0,1,2)", "family": FIBONACCI.label, "model": "rook", "k": 1,
         "recursion": str(want), "enumeration": str(want + Q)}
    ]


def test_products_catch_a_wrong_rook_polynomial(monkeypatch):
    # rook_poly(k=n) multiplies the empty product, so the rhs is x^3 + q
    _perturb_placement_poly(monkeypatch, "rook_poly", "F(1,2,2)", 3, "recursion")
    report = identities.check_products(2)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"board": "F(1,2,2)", "family": FIBONACCI.label, "identity": "rook-product",
         "rhs": str(xpoly_add(XPoly.x_power(3), XPoly([Q])))}
    ]


def _perturb_placement_sum(monkeypatch, name: str, board: str, extra: XPoly) -> None:
    """Make the checks in `identities` see `name`(board, fib) + extra."""
    real = getattr(identities, name)

    def perturbed(board_, fam):
        value = real(board_, fam)
        return xpoly_add(value, extra) if (str(board_), fam) == (board, FIBONACCI) else value

    monkeypatch.setattr(identities, name, perturbed)


def test_products_catch_a_wrong_mixed_sum(monkeypatch):
    want = linear_product([weight_poly(FIBONACCI, h) for h in (1, 2, 3, 4)])
    _perturb_placement_sum(monkeypatch, "mixed_file_sum", "F(1,2,3,4)", XPoly([Q]))
    report = identities.check_products(2)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"board": "F(1,2,3,4)", "family": FIBONACCI.label, "identity": "mixed-product",
         "sum": str(xpoly_add(want, XPoly([Q]))), "product": str(want)}
    ]


def test_products_catch_a_wrong_augmented_sum(monkeypatch):
    _perturb_placement_sum(monkeypatch, "aug_mixed_sum", "F(0,2,2,3)", XPoly([Q]))
    report = identities.check_products(2)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"board": "F(0,2,2,3)", "family": FIBONACCI.label, "identity": "aug-power",
         "sum": str(xpoly_add(XPoly.x_power(4), XPoly([Q])))}
    ]


def test_products_catch_a_mixed_sum_wrong_only_above_x_3(monkeypatch):
    # q x(x-1)(x-2)(x-3) is zero at x = 0..3, so only the identity in x sees it
    extra = XPoly([0, -6 * Q, 11 * Q, -6 * Q, Q])
    assert all(sum(c * x**i for i, c in enumerate(extra.coeffs)) == 0 for x in range(4))
    want = linear_product([weight_poly(FIBONACCI, h) for h in (2, 2, 3)])
    _perturb_placement_sum(monkeypatch, "mixed_file_sum", "F(2,2,3)", extra)
    report = identities.check_products(2)
    assert report["status"] == "FAIL"
    assert report["counterexamples"] == [
        {"board": "F(2,2,3)", "family": FIBONACCI.label, "identity": "mixed-product",
         "sum": str(xpoly_add(want, extra)), "product": str(want)}
    ]


def test_products_walk_each_small_board_once_per_family(monkeypatch):
    calls = {"mixed_file_sum": [], "aug_mixed_sum": []}

    def counted(real, seen):
        def wrapped(board, fam):
            seen.append((str(board), fam))
            return real(board, fam)
        return wrapped

    for name, seen in calls.items():
        monkeypatch.setattr(identities, name, counted(getattr(identities, name), seen))
    assert identities.check_products(2)["status"] == "PASS"
    top = identities.SMALL_BOARD_MAX
    want = [(str(board), fam) for board in identities.all_ferrers_boards(top, top)
            for fam in (FIBONACCI, TRIBONACCI)]
    assert len(want) == 250
    assert calls == {"mixed_file_sum": want, "aug_mixed_sum": want}


def test_products_build_each_linear_product_once(monkeypatch):
    # one prod_i (x + W_{b_i}) per (board, family), shared by the file-product
    # and the mixed-product comparison
    built = []
    real = identities.xpoly_product

    def counted(cs):
        built.append(cs)
        return real(cs)

    monkeypatch.setattr(identities, "xpoly_product", counted)
    assert identities.check_products(2)["status"] == "PASS"
    boards = identities._small_boards_and_staircases(2)
    assert len(boards) == 126
    # two families on each board and on the three non-Ferrers boards
    assert len(built) == 2 * (len(boards) + 3)


def test_all_is_every_suite_in_order():
    reports = identities.run_suite("all", 2)
    parts = [r for suite in identities.SUITE_SIZES for r in identities.run_suite(suite, 2)]
    assert reports == parts
    assert [r["check"] for r in reports[:6]] == [
        "recursion-vs-enumeration", "products", "matrix-inverse", "matrix-inverse",
        "basis-expansions", "basis-expansions",
    ]


def test_run_suite_calls_the_checks_by_name(monkeypatch):
    monkeypatch.setattr(identities, "check_products", lambda N: {"check": "stub", "N": N})
    assert identities.run_suite("products") == [{"check": "stub", "N": 6}]
    assert identities.run_suite("products", 2) == [{"check": "stub", "N": 2}]


def test_every_suite_passes_without_building_a_triangle(monkeypatch):
    calls = []
    real_build = stirling.build_triangle

    def build(*args):
        calls.append(args)
        return real_build(*args)

    monkeypatch.setattr(stirling, "build_triangle", build)
    monkeypatch.setattr(identities, "build_triangle", build)
    assert "FAIL" not in [r["status"] for r in run_suite("all")]
    assert calls == []
    # the spy sees the build that a failing check makes for its counterexample text
    real_form = identities.closed_form
    monkeypatch.setattr(identities, "closed_form", lambda kind, n: real_form(kind, n) + Q)
    assert check_closed_forms(3)["status"] == "FAIL"
    assert calls == [("Sf", 3, None), ("cf", 3, None)]


def test_identity_suite_passes_at_size_zero():
    # at N = 0 some triangle checks have no case to compare
    reports = run_suite("identities", 0)
    assert reports and "FAIL" not in [r["status"] for r in reports]


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        identities.run_suite("everything")
