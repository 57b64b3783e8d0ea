"""Acceptance checks: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
check is exact (integer polynomial identities, zero tolerance); the only
non-failures by design are the recorded WARN notes.
"""

import time

import fibrook.identities as identities
from fibrook.board import FerrersBoard
from fibrook.identities import (
    all_ferrers_boards,
    cf_column_coefficient_formula,
    check_cf_columns,
    check_closed_forms,
    check_fibonomials,
    check_log_concavity,
    check_q1_specializations,
    check_series_columns,
    check_sf_p_coefficients,
    sequence_export,
)
from fibrook.poly import Q, q_int
from fibrook.stirling import (
    build_triangle,
    involution_verify,
    matrix_inverse_check,
    triangle_from_boards,
    verify_basis_expansions,
)
from fibrook.tiling import (
    FIBONACCI,
    TRIBONACCI,
    enumerate_tilings,
    fibonacci_number,
    tiling_weight_sum,
    weight_poly,
)
from test_tiling import rank_generating_poly, tree_rank


def _boards() -> list[FerrersBoard]:
    """Every Ferrers board up to 6 columns of height up to 6, plus the
    staircases up to n = 9 (those up to n = 6 are among the former)."""
    return [*all_ferrers_boards(6, 6), *(FerrersBoard.staircase(n) for n in (7, 8, 9))]


def _assert_pass(report: dict) -> None:
    assert report["status"] == "PASS", report["counterexamples"]


def test_criterion_01_weight_polynomials():
    start = time.monotonic()
    for fam in (FIBONACCI, TRIBONACCI):
        for n in range(1, 17):
            assert weight_poly(fam, n) == tiling_weight_sum(fam, n)
    for n in range(1, 17):
        assert weight_poly(FIBONACCI, n).eval_at(1, 1) == fibonacci_number(n)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 01 PASS: weight recursion = enumeration, n <= 16, both families ({elapsed:.2f}s)")


def test_criterion_02_placement_recursions():
    start = time.monotonic()
    boards = _boards()
    for board in boards:
        for fam in (FIBONACCI, TRIBONACCI):
            assert identities._recursion_vs_enumeration(board, fam) == []
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 02 PASS: file/rook recursion = enumeration on {len(boards)} boards ({elapsed:.2f}s)")


def test_criterion_03_product_formulas():
    boards = _boards()
    for board in boards:
        for fam in (FIBONACCI, TRIBONACCI):
            assert identities._product_identities(board, fam) == []
    small = list(all_ferrers_boards(4, 4))
    for board in small:
        for fam in (FIBONACCI, TRIBONACCI):
            assert identities._placement_sums(board, fam) == []
    print(f"criterion 03 PASS: product identities on {len(boards)} boards, "
          f"mixed/augmented sums in x on {len(small)} boards")


def test_criterion_04_triangles_are_placement_counts():
    for kind in ("cf", "Sf"):
        assert triangle_from_boards(kind, 9).rows == build_triangle(kind, 9).rows
    print("criterion 04 PASS: cf and Sf match staircase placements entrywise, n <= 9")


def test_criterion_05_basis_expansions():
    start = time.monotonic()
    fib = verify_basis_expansions(12, FIBONACCI)
    trib = verify_basis_expansions(10, TRIBONACCI)
    assert fib["status"] == "PASS", fib["counterexamples"]
    assert trib["status"] == "PASS", trib["counterexamples"]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 05 PASS: basis expansions, {{1,2}} n <= 12 and {{1,2,3}} n <= 10 ({elapsed:.2f}s)")


def test_criterion_06_matrix_inverse():
    fib = matrix_inverse_check(12, FIBONACCI)
    trib = matrix_inverse_check(10, TRIBONACCI)
    assert fib["status"] == "PASS", fib["counterexamples"]
    assert trib["status"] == "PASS", trib["counterexamples"]
    print("criterion 06 PASS: triangles are mutually inverse, n <= 12 and n <= 10")


def test_criterion_07_involution():
    start = time.monotonic()
    sizes = []
    for n in range(2, 8):
        for k in range(1, n):
            report = involution_verify(n, k)
            assert report["status"] == "PASS", report["counterexamples"]
            sizes.append(f"({n},{k})={report['domain_size']}")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 07 PASS: involution exhaustive for 1 <= k < n <= 7 ({elapsed:.2f}s)")
    print("  domain sizes: " + " ".join(sizes))


def test_criterion_08_closed_forms_and_series():
    _assert_pass(check_closed_forms(20))
    _assert_pass(check_sf_p_coefficients(12))
    _assert_pass(check_series_columns(12))
    print("criterion 08 PASS: closed forms n <= 20, p-coefficient formulas n <= 12, series k <= 6")


def test_criterion_09_integer_coefficient_formulas():
    _assert_pass(check_q1_specializations(20))
    print("criterion 09 PASS: q = 1 coefficient formulas, columns 3..5 to n <= 20, all columns s = 1 to n <= 14")


def test_criterion_10_cf_column_formulas():
    _assert_pass(check_cf_columns(20))
    assert cf_column_coefficient_formula(5, 1, 2) == 2 * Q**6
    assert cf_column_coefficient_formula(6, 1, 3) == 9 * Q**9
    assert build_triangle("cf", 4).entry(4, 2).coefficient("p", 1) == Q**2 + Q**3
    print("criterion 10 PASS: cf column formulas n <= 20 and the three spot values")


def test_criterion_11_sequences():
    a = sequence_export("A086602")
    assert a.status == "MATCH"
    assert a.generated == (2, 12, 39, 95, 195, 357, 602, 954)
    b = sequence_export("cfn1p3")
    assert b.status == "MATCH"
    assert b.generated == (9, 75, 331, 1055, 2745, 6209, 12670, 23886, 42285, 71115)
    c = sequence_export("A006002")
    assert c.status == "MATCH"
    assert c.warn is not None and "50" in c.warn
    print("criterion 11 PASS: sequence prefixes exact; transcription discrepancy is WARN, not failure")


def test_criterion_12_log_concavity():
    report = check_log_concavity()
    assert report["status"] in ("PASS", "WARN")
    assert report["counterexamples"] == []
    print(f"criterion 12 PASS: log-concavity asserted (Sf k <= 4 n <= 25, cf col 1 n <= 20); "
          f"empirical sweep k <= 8 n <= 18: {len(report['warnings'])} warnings")


def test_criterion_13_rank_statistic():
    for n in range(1, 15):
        tilings = enumerate_tilings(FIBONACCI, n)
        ranks = sorted(tree_rank(t) for t in tilings)
        assert ranks == list(range(fibonacci_number(n)))
        assert rank_generating_poly(n) == q_int(fibonacci_number(n))
    print("criterion 13 PASS: tree rank is a bijection and sums to [F_n]_q, n <= 14")


def test_criterion_14_fibonomials():
    _assert_pass(check_fibonomials(30))
    print("criterion 14 PASS: fibonomials integral, symmetric, recursion = quotient, n <= 30")
