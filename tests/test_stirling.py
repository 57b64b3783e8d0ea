"""Coefficient triangles, basis expansions, inversion, and the involution."""

import json

import pytest

import fibrook.stirling as stirling
from fibrook.board import FerrersBoard, FilePlacement, RookPlacement, parse_placement
from fibrook.cli import main
from conftest import involution_domain, l1_norm, linear_product, reference_involution_verify
from fibrook.poly import P, Q, R, PQRPoly, XPoly, horner_step, q_image_text, xpoly_product
from fibrook.stirling import (
    TRIANGLE_KINDS,
    build_triangle,
    family_for_kind,
    involution,
    involution_verify,
    matrix_inverse_check,
    triangle_from_boards,
    triangle_text,
    verify_basis_expansions,
)
from fibrook.tiling import FIBONACCI, TRIBONACCI, TileFamily, weight_poly


# triangles --------------------------------------------------------------------


FROZEN_ENTRIES = [
    ("Sf", 3, 1, "q^2"),
    ("Sf", 4, 2, "q^2 + q^3 + q^4"),
    ("Sf", 4, 3, "q + p*q + q^2 + q^3"),
    ("Sf", 5, 1, "q^4"),
    ("cf", 4, 1, "p*q^4 + q^6"),
    ("cf", 4, 2, "p*q^2 + q^3 + p*q^3 + q^4 + q^5"),
    ("sf", 4, 1, "-p*q^4 - q^6"),
    ("Lf", 2, 1, "2*q"),
    ("Lf", 3, 1, "2*q^2 + 2*q^3"),
    ("Sp", 3, 1, "q^2"),
    ("Sp", 5, 3, "q^2 + p*q^2 + q^3 + p^2*q^2 + p*q^3 + 2*q^4 + 2*p*q^4 + q^5 + q^6"),
    ("cp", 5, 4, "q + q*r + p*q + q^2 + 2*p*q^2 + q^3 + q^4"),
]


@pytest.mark.parametrize("kind,n,k,text", FROZEN_ENTRIES)
def test_frozen_triangle_entries(kind: str, n: int, k: int, text: str):
    tri = build_triangle(kind, n)
    assert str(tri.entry(n, k)) == text


def test_triangle_boundaries():
    tri = build_triangle("Sf", 6)
    assert tri.entry(0, 0) == 1
    for n in range(1, 7):
        assert tri.entry(n, 0) == 0
        assert tri.entry(n, n) == 1
    assert tri.entry(4, 7) == 0
    assert tri.entry(4, -1) == 0
    with pytest.raises(ValueError):
        tri.entry(7, 0)
    with pytest.raises(ValueError):
        build_triangle("zz", 3)


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_column_bound_keeps_the_leading_entries(kind: str):
    N = 6
    full = build_triangle(kind, N)
    for width in range(N + 1):
        tri = build_triangle(kind, N, width)
        for n in range(N + 1):
            assert tri.rows[n] == full.rows[n][: min(n, width) + 1]
            for k in range(width + 1, n + 1):
                with pytest.raises(ValueError, match=f"column {k} not built"):
                    tri.entry(n, k)
            assert tri.entry(n, n + 1) == 0
            assert tri.entry(n, -1) == 0
    with pytest.raises(ValueError):
        build_triangle(kind, N, -1)


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_image_build_matches_the_dict_recursion(kind: str):
    # `build_triangle` runs the recursions in the ring, on dict-backed
    # `PQRPoly` entries, with no image and no slot width: the reference for
    # the image rows at slot 0, at the natural slot and wider. Both builds
    # read each kind's factor from `_rule_factor`, so this test does not pin
    # the rule itself; the table goldens and FROZEN_ENTRIES do.
    for N in (0, 1, 12):
        for width in (None, 0, 1, 3, 12):
            want = build_triangle(kind, N, width).rows
            slot, rows_at, _, _ = stirling.triangle_images(kind, N, width)
            for s in (0, slot, slot + 9):
                assert list(rows_at(s)) == [tuple(e.q_image(s) for e in row) for row in want]


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_table_text_is_str_of_the_entries(kind: str):
    want = [[str(e) for e in row] for row in build_triangle(kind, 9).rows]
    assert list(triangle_text(kind, 9)) == want


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_entry_text_is_str_of_the_polynomial_read_from_its_image(kind: str):
    want = [[str(e) for e in row] for row in build_triangle(kind, 12).rows]
    slot, rows_at, _, _ = stirling.triangle_images(kind, 12)
    for s in (slot, slot + 9):
        assert [[q_image_text(image, s) for image in row] for row in rows_at(s)] == want


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_slot_width_holds_every_coefficient_and_no_less(monkeypatch, kind: str):
    N = 12
    rows = build_triangle(kind, N).rows
    want = [[str(e) for e in row] for row in rows]
    tight = max(abs(c) for row in rows for e in row for c in e.terms.values()).bit_length()
    assert stirling.triangle_images(kind, N)[0] >= tight
    monkeypatch.setattr(stirling, "_slot_width", lambda bound: tight)
    assert list(triangle_text(kind, N)) == want
    # one bit narrower, the widest coefficient carries into its neighbour
    monkeypatch.setattr(stirling, "_slot_width", lambda bound: tight - 1)
    assert list(triangle_text(kind, N)) != want


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_degree_guard_sees_the_exact_degree_of_every_row(monkeypatch, kind: str):
    seen: list[int] = []
    monkeypatch.setattr(stirling, "check_degree", seen.append)
    triangle_text(kind, 10)  # the integer pass runs before any row is drawn
    want = build_triangle(kind, 10).rows
    assert seen == [max(e.total_degree() for e in row) for row in want[1:]]


def test_degree_guard_refuses_a_row_past_the_packed_fields():
    # cf[n][1] = W_1 ... W_{n-1} has total degree n(n-1)/2, which first
    # reaches 2**16 at n = 363; the integer pass raises before any image
    with pytest.raises(OverflowError, match="total degree 65703"):
        stirling.triangle_images("cf", 363, width=1)


def test_kind_families():
    assert set(TRIANGLE_KINDS) == {"cf", "sf", "Sf", "Lf", "cp", "sp", "Sp"}
    assert family_for_kind("cf") == FIBONACCI
    assert family_for_kind("Sp") == TRIBONACCI


def test_signed_kind_is_signed_unsigned_kind():
    for small, big in (("sf", "cf"), ("sp", "cp")):
        tri_s = build_triangle(small, 10)
        tri_c = build_triangle(big, 10)
        for n in range(11):
            for k in range(n + 1):
                want = tri_c.entry(n, k) * ((-1) ** ((n - k) % 2))
                assert tri_s.entry(n, k) == want


@pytest.mark.parametrize("kind", ["cf", "cp", "Sf", "Sp"])
def test_triangles_match_staircase_placements(kind: str):
    assert triangle_from_boards(kind, 7).rows == build_triangle(kind, 7).rows


def test_triangle_from_boards_rejects_other_kinds():
    with pytest.raises(ValueError):
        triangle_from_boards("Lf", 3)


def test_json_and_csv_views(capsys):
    assert main(["table", "Sf", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "n,k,poly\r\n0,0,1\r\n1,0,0\r\n1,1,1\r\n2,0,0\r\n2,1,q\r\n2,2,1\r\n"
    )
    assert main(["table", "Sf", "2", "--format", "json"]) == 0
    entries = [["1"], ["0", "1"], ["0", "q", "1"]]
    assert json.loads(capsys.readouterr().out) == {"kind": "Sf", "N": 2, "entries": entries}


# basis expansions ----------------------------------------------------------------


def falling_factorial_basis(fam: TileFamily, k: int) -> XPoly:
    """x (x - W_1) ... (x - W_{k-1}); the empty product 1 for k = 0.

    A reference for the triangle rows, multiplied out by the generic product
    of conftest.py: the basis check itself works on Newton nodes and never
    builds a basis polynomial.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return XPoly.one()
    return linear_product([PQRPoly.zero()] + [-weight_poly(fam, i) for i in range(1, k)])


def rising_factorial_basis(fam: TileFamily, k: int) -> XPoly:
    """x (x + W_1) ... (x + W_{k-1}); the empty product 1 for k = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return XPoly.one()
    return linear_product([PQRPoly.zero()] + [weight_poly(fam, i) for i in range(1, k)])


def test_factorial_bases():
    up3 = rising_factorial_basis(FIBONACCI, 3)
    assert up3.coefficient(2) == Q + Q**2
    assert up3.coefficient(1) == Q**3
    down3 = falling_factorial_basis(FIBONACCI, 3)
    assert down3.coefficient(2) == -(Q + Q**2)
    assert down3.coefficient(1) == Q**3
    assert rising_factorial_basis(FIBONACCI, 0) == XPoly.one()
    # the Horner-step product agrees, a falling factor x - W passing -W
    for k in range(1, 7):
        nodes = [PQRPoly.zero()] + [weight_poly(TRIBONACCI, i) for i in range(1, k)]
        assert xpoly_product(nodes) == rising_factorial_basis(TRIBONACCI, k)
        assert xpoly_product([-w for w in nodes]) == falling_factorial_basis(TRIBONACCI, k)


def test_rising_factorial_expands_in_cf_row():
    # x (x + q) (x + q^2) = q^3 x + (q + q^2) x^2 + x^3 reads off row 3 of cf
    tri = build_triangle("cf", 3)
    up3 = rising_factorial_basis(FIBONACCI, 3)
    for k in range(4):
        assert up3.coefficient(k) == tri.entry(3, k)


@pytest.mark.parametrize("fam,N", [(FIBONACCI, 10), (TRIBONACCI, 8)])
def test_basis_expansions_verified(fam, N):
    report = verify_basis_expansions(N, fam)
    assert report["status"] == "PASS"
    assert report["counterexamples"] == []


@pytest.mark.parametrize(
    "kind,fam,identity",
    [
        pytest.param(kind, fam, identity, id=f"{kind}-{identity}")
        for kind, fam, identity in [
            ("Sf", FIBONACCI, "power-in-falling"),  # right side in the falling basis, W_k nodes
            ("cf", FIBONACCI, "rising-in-powers"),  # right side in the power basis, zero nodes
            ("sf", FIBONACCI, "falling-in-powers"),  # left side in the falling basis
            ("Lf", FIBONACCI, "rising-in-falling"),  # left side in the rising basis
            ("cp", TRIBONACCI, "rising-in-powers"),
            ("sp", TRIBONACCI, "falling-in-powers"),
            ("Sp", TRIBONACCI, "power-in-falling"),
        ]
    ],
)
def test_basis_expansions_catch_a_wrong_entry(perturb_entry, kind, fam, identity):
    perturb_entry(kind, 4, 2, Q)
    report = verify_basis_expansions(6, fam)
    assert report["status"] == "FAIL"
    assert [(c["identity"], c["n"]) for c in report["counterexamples"]] == [(identity, 4)]


def test_basis_expansions_slot_width_comes_from_the_data(monkeypatch, perturb_entry):
    widths = _requested_slots(monkeypatch)
    assert verify_basis_expansions(6, FIBONACCI)["status"] == "PASS"
    assert set(widths) == {"cf", "sf", "Sf", "Lf"}
    [w] = widths["Sf"]
    # Sf[4][2] + q - 2**w has the same image as Sf[4][2] at width w
    perturb_entry("Sf", 4, 2, Q - 2**w)
    report = verify_basis_expansions(6, FIBONACCI)
    assert [(c["identity"], c["n"]) for c in report["counterexamples"]] == [("power-in-falling", 4)]
    assert max(widths["Sf"]) > w


def test_basis_expansions_keep_the_degree_guard(perturb_entry):
    # Sp[5][5] = 1 + r^65535 fits the packed fields, but in the Horner sum
    # for x^5 it meets the node -W_4, whose term q*r makes r^65536: that
    # row key would carry into the p field and alias p*q. The check must
    # refuse from the degrees of the integer pass, 65535 + (1+2+3+4), before
    # it compares any image or rebuilds any polynomial.
    perturb_entry("Sp", 5, 5, PQRPoly.term(1, e_r=65535))
    with pytest.raises(OverflowError, match="total degree 65545"):
        verify_basis_expansions(5, TRIBONACCI)


def _reference_basis_expansions(N: int, fam: TileFamily) -> dict:
    """`verify_basis_expansions` on `PQRPoly` entries: the term-by-term
    reference for the image check."""
    zero = PQRPoly.zero()
    weights = [weight_poly(fam, k) for k in range(N + 1)]
    shifts = {"power": [zero] * (N + 1), "falling": [-w for w in weights], "rising": weights}
    counterexamples = []
    for name, kind in stirling._kinds_by_basis(fam).items():
        tri = stirling.build_triangle(kind, N)
        lhs_shift, rhs_shift = (shifts[side.rstrip("s")] for side in name.split("-in-"))
        lhs = XPoly.one()
        for n in range(N + 1):
            if n:
                lhs = horner_step(lhs, lhs_shift[n - 1], zero)
            rhs = XPoly.zero()
            for k in range(n, -1, -1):
                rhs = horner_step(rhs, rhs_shift[k], tri.entry(n, k))
            if lhs != rhs:
                counterexamples.append({"identity": name, "n": n, "lhs": str(lhs), "rhs": str(rhs)})
    return stirling.report("basis-expansions", f"family={fam.label}, n<={N}", counterexamples)


def _reference_matrix_inverse(N: int, fam: TileFamily) -> dict:
    """`matrix_inverse_check` on `PQRPoly` entries, each mapped to its image
    at a width from their l1 norms: the reference for the image check."""
    kinds = stirling._kinds_by_basis(fam)
    tri_big = stirling.build_triangle(kinds["power-in-falling"], N)
    tri_small = stirling.build_triangle(kinds["falling-in-powers"], N)
    norm_big = [[l1_norm(e) for e in row] for row in tri_big.rows]
    norm_small = [[l1_norm(e) for e in row] for row in tri_small.rows]
    bound = max(
        sum(norm_big[n][j] * norm_small[j][k] for j in range(k, n + 1))
        for n in range(N + 1)
        for k in range(n + 1)
    )
    w = bound.bit_length() + 2
    counterexamples = []
    for n in range(N + 1):
        for k in range(n + 1):
            total = PQRPoly.zero()
            for j in range(k, n + 1):
                total = total + tri_big.entry(n, j) * tri_small.entry(j, k)
            if total.q_image(w) != ({0: 1} if n == k else {}):
                counterexamples.append({"n": n, "k": k, "value": str(total)})
    return stirling.report("matrix-inverse", f"family={fam.label}, n,k<={N}", counterexamples)


@pytest.mark.parametrize(
    "fam,N,perturbations",
    [
        (FIBONACCI, 10, []),
        (TRIBONACCI, 8, []),
        (FIBONACCI, 9, [("sf", 7, 3, Q), ("Sf", 6, 2, -P * R)]),
        (TRIBONACCI, 8, [("sp", 6, 2, R), ("Sp", 7, 7, 3 * Q**2), ("cp", 5, 1, -Q)]),
        (FIBONACCI, 7, [("cf", 4, 2, P), ("Lf", 6, 3, Q - 2), ("sf", 3, 3, PQRPoly.constant(-1))]),
    ],
)
def test_image_checks_match_the_polynomial_references(perturb_entry, fam, N, perturbations):
    for kind, n, k, delta in perturbations:
        perturb_entry(kind, n, k, delta)
    assert matrix_inverse_check(N, fam) == _reference_matrix_inverse(N, fam)
    assert verify_basis_expansions(N, fam) == _reference_basis_expansions(N, fam)


def test_report_fails_on_a_counterexample_beside_warnings():
    report = stirling.report("demo", "n<=1", [{"n": 1}], [{"note": "w"}], size=2)
    assert list(report) == ["check", "range", "status", "size", "counterexamples", "warnings"]
    assert report["status"] == "FAIL"


# matrix inversion -----------------------------------------------------------------


@pytest.mark.parametrize("fam", [FIBONACCI, TRIBONACCI])
def test_triangles_are_mutually_inverse(fam):
    report = matrix_inverse_check(8, fam)
    assert report["status"] == "PASS"


@pytest.mark.parametrize(
    "fam,N,kind,n,k,delta,failing",
    [
        # sf[7][3] feeds every (n, 3) with n >= 7 through Sf[n][7]
        (FIBONACCI, 9, "sf", 7, 3, Q, [(7, 3), (8, 3), (9, 3)]),
        (TRIBONACCI, 8, "sp", 6, 2, R, [(6, 2), (7, 2), (8, 2)]),
    ],
)
def test_inverse_check_catches_a_wrong_entry(perturb_entry, fam, N, kind, n, k, delta, failing):
    perturb_entry(kind, n, k, delta)
    report = matrix_inverse_check(N, fam)
    assert report["status"] == "FAIL"
    assert [(c["n"], c["k"]) for c in report["counterexamples"]] == failing
    big = stirling.build_triangle("Sf" if kind == "sf" else "Sp", N)
    small = stirling.build_triangle(kind, N)
    for c in report["counterexamples"]:
        total = PQRPoly.zero()
        for j in range(c["k"], c["n"] + 1):
            total = total + big.entry(c["n"], j) * small.entry(j, c["k"])
        assert c["value"] == str(total)


def _requested_slots(monkeypatch) -> dict[str, set[int]]:
    """Record, per kind, every slot a check draws image rows at."""
    slots: dict[str, set[int]] = {}
    real = stirling.triangle_images

    def spy(kind, N, width=None):
        natural, rows_at, norms, degrees = real(kind, N, width)

        def recorded(slot):
            slots.setdefault(kind, set()).add(slot)
            return rows_at(slot)

        return natural, recorded, norms, degrees

    monkeypatch.setattr(stirling, "triangle_images", spy)
    return slots


def test_inverse_check_slot_width_comes_from_the_data(monkeypatch, perturb_entry):
    widths = _requested_slots(monkeypatch)
    assert matrix_inverse_check(8, FIBONACCI)["status"] == "PASS"
    assert widths["Sf"] == widths["sf"]
    [w] = widths["sf"]
    # q - 2**w has image 0 at width w, so only a wider slot can see it
    bad = Q - 2**w
    assert bad.q_image(w) == {}
    perturb_entry("sf", 5, 5, bad)
    report = matrix_inverse_check(8, FIBONACCI)
    assert report["status"] == "FAIL"
    assert (5, 5) in [(c["n"], c["k"]) for c in report["counterexamples"]]
    assert max(widths["sf"]) > w


@pytest.mark.parametrize("fam", [FIBONACCI, TRIBONACCI])
def test_checks_run_the_integer_pass_once_per_kind(monkeypatch, fam: TileFamily):
    passes = []
    real = stirling.triangle_images

    def counted(kind, N, width=None):
        passes.append(kind)
        return real(kind, N, width)

    monkeypatch.setattr(stirling, "triangle_images", counted)
    kinds = stirling._kinds_by_basis(fam)
    assert matrix_inverse_check(6, fam)["status"] == "PASS"
    assert sorted(passes) == sorted([kinds["power-in-falling"], kinds["falling-in-powers"]])
    passes.clear()
    assert verify_basis_expansions(6, fam)["status"] == "PASS"
    assert sorted(passes) == sorted(kinds.values())


def test_inverse_check_keeps_the_degree_guard(perturb_entry):
    # Each entry fits the packed fields, but r^40000 * r^25536 does not: its
    # row key would carry into the p field and alias p, and the (2, 0) sum
    # r^65536 - p would pass in the image. The check must refuse instead.
    r_power = PQRPoly.term(1, e_r=25536)
    perturb_entry("Sf", 2, 1, PQRPoly.term(1, e_r=40000))
    perturb_entry("sf", 1, 0, r_power)
    perturb_entry("sf", 2, 0, -P - Q * r_power)
    with pytest.raises(OverflowError):
        matrix_inverse_check(3, FIBONACCI)


def test_inverse_by_hand_row_three():
    Sf = build_triangle("Sf", 3)
    sf = build_triangle("sf", 3)
    for k in range(4):
        total = PQRPoly.zero()
        for j in range(4):
            total = total + Sf.entry(3, j) * sf.entry(j, k)
        assert total == (1 if k == 3 else 0)


# the involution -------------------------------------------------------------------


def _pair(n: int, j: int, rook_text: str, file_text: str) -> tuple:
    rook = parse_placement(FerrersBoard.staircase(n), rook_text, model="rook")
    file = parse_placement(FerrersBoard.staircase(j), file_text, model="file")
    return j, rook.entries, file.entries


def _placements(n: int, pair: tuple) -> tuple[int, RookPlacement, FilePlacement]:
    """The pair's j and its two parts as validated placements on their staircases."""
    j, rook, file = pair
    rook_part = RookPlacement(FerrersBoard.staircase(n), rook)
    return j, rook_part, FilePlacement(FerrersBoard.staircase(j), file)


def _recursive_involution(
    n: int, k: int, j: int, rook: RookPlacement, file: FilePlacement
) -> tuple[int, RookPlacement, FilePlacement]:
    """The involution as first stated, case 3 by recursion on smaller staircases.

    The differential reference for the closed form: every level builds its
    own boards and placements, so each level's placements revalidate.
    """
    if not 1 <= k < n:
        raise ValueError("the involution is defined for 1 <= k < n")
    r, f = rook.entries, file.entries
    if r and r[-1][0] == n:
        return (
            j + 1,
            RookPlacement(rook.board, r[:-1]),
            FilePlacement(FerrersBoard.staircase(j + 1), f + ((j + 1, r[-1][1]),)),
        )
    if f and f[-1][0] == j:
        return (
            j - 1,
            RookPlacement(rook.board, r + ((n, f[-1][1]),)),
            FilePlacement(FerrersBoard.staircase(j - 1), f[:-1]),
        )
    image_j, image_rook, image_file = _recursive_involution(
        n - 1,
        k - 1,
        j - 1,
        RookPlacement(FerrersBoard.staircase(n - 1), r),
        FilePlacement(FerrersBoard.staircase(j - 1), f),
    )
    return (
        image_j + 1,
        RookPlacement(FerrersBoard.staircase(n), image_rook.entries),
        FilePlacement(FerrersBoard.staircase(image_j + 1), image_file.entries),
    )


def test_closed_form_matches_the_recursion_on_every_small_domain():
    # the unchecked step that involution_verify applies is the public map
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            for pair in involution_domain(n, k):
                image = involution(n, k, pair)
                j, rook, file = _recursive_involution(n, k, *_placements(n, pair))
                assert image == (j, rook.entries, file.entries)
                assert stirling._involution_step(n, k, pair) == image
                checked += 1
    assert checked == 16062


def test_involution_verify_tests_membership_once_per_pair(monkeypatch):
    # the skeletons are trusted; only each skeleton's image is tested, once
    # for all the pairs it stands for, and no pair is tested on its own
    real = stirling._skeleton_problem
    calls = []

    def counted(n: int, k: int, skeleton: tuple) -> str | None:
        calls.append(skeleton)
        return real(n, k, skeleton)

    def per_pair(n: int, k: int, pair: tuple) -> str | None:
        raise AssertionError("a pair was tested on its own")

    monkeypatch.setattr(stirling, "_skeleton_problem", counted)
    monkeypatch.setattr(stirling, "_domain_problem", per_pair)
    report = involution_verify(6, 2)
    assert report["status"] == "PASS"
    skeletons = list(stirling._skeletons(6, 2))
    assert calls == [stirling._involution_step(6, 2, skeleton) for skeleton, _ in skeletons]
    assert len(calls) == 80
    assert sum(pairs for _, pairs in skeletons) == report["domain_size"] == 512


def test_involution_base_case_swaps_the_two_pairs():
    a = _pair(2, 1, "2:1", "")
    b = _pair(2, 2, "", "2:1")
    assert involution(2, 1, a) == b
    assert involution(2, 1, b) == a
    (_, rook_a, file_a), (_, rook_b, file_b) = _placements(2, a), _placements(2, b)
    assert (file_a.k, file_b.k) == (0, 1)  # signs +1 and -1
    assert rook_a.weight() * file_a.weight() == rook_b.weight() * file_b.weight() == Q


def test_involution_moves_a_tiling_between_boards():
    # rook part tiles the last staircase column: its height-3 tiling moves
    # onto the new last column when the file board grows from B_3 to B_4
    pair = _pair(6, 3, "4:1,2;5:1,2;6:1,2", "2:1")
    image = involution(6, 2, pair)
    j, rook, file = _placements(6, image)
    assert (j, str(rook), str(file)) == (4, "4:1,2;5:1,2", "2:1;4:1,2")
    assert involution(6, 2, image) == pair
    _, pair_rook, pair_file = _placements(6, pair)
    assert (file.k, pair_file.k) == (2, 1)  # the sign flips
    assert rook.weight() * file.weight() == pair_rook.weight() * pair_file.weight()
    assert rook.weight() * file.weight() == P**3 * Q**4


def test_involution_recursive_case():
    # neither last column is used, so the pair shrinks to (n-1, k-1),
    # where the rook part does use the last column
    pair = _pair(5, 3, "3:1,1;4:1,1", "2:1")
    image = involution(5, 2, pair)
    j, rook, file = _placements(5, image)
    assert (j, str(rook), str(file)) == (4, "3:1,1", "2:1;3:1,1")
    assert involution(5, 2, image) == pair
    _, pair_rook, pair_file = _placements(5, pair)
    assert rook.weight() * file.weight() == pair_rook.weight() * pair_file.weight() == Q**5


def test_involution_rejects_bad_input():
    with pytest.raises(ValueError):
        involution(3, 3, _pair(3, 3, "", ""))  # needs k < n
    with pytest.raises(ValueError):
        involution(4, 2, _pair(5, 3, "4:1,1;5:1,1", "2:1"))  # wrong boards
    with pytest.raises(ValueError, match="outside 2..4"):
        involution(4, 2, _pair(5, 5, "", "2:1;3:1,1;5:1,1,1,1"))
    with pytest.raises(ValueError, match="wrong number of tilings"):
        involution(4, 2, _pair(4, 3, "", "2:1"))
    with pytest.raises(ValueError, match="tile outside"):
        involution(5, 2, _pair(5, 4, "5:1,3", "2:1;3:1,1"))


def test_involution_domain_size():
    pairs = list(involution_domain(2, 1))
    assert len(pairs) == 2
    report = involution_verify(5, 2)
    assert report["status"] == "PASS"
    assert report["domain_size"] == 78
    assert report["pairs_per_j"] == {"2": 4, "3": 22, "4": 35, "5": 17}
    assert report["signed_sum"] == "0"


@pytest.mark.parametrize("n", range(2, 7))
def test_involution_verified_small_range(n: int):
    for k in range(1, n):
        assert involution_verify(n, k)["status"] == "PASS"


def _counterexamples(report: dict) -> dict[str, list[str]]:
    assert report["status"] == "FAIL"
    return {c["pair"]: c["problems"] for c in report["counterexamples"]}


def _identity(real):
    return lambda n, k, pair: pair


def _leaky(real):
    # images at j = n are sent to j = n + 1
    def leaky(n: int, k: int, pair: tuple) -> tuple:
        j, rook, file = real(n, k, pair)
        return (n + 1 if j == n else j), rook, file

    return leaky


def _shifted(real):
    # each image's last file entry moves one column right
    def shifted(n: int, k: int, pair: tuple) -> tuple:
        j, rook, file = real(n, k, pair)
        if not file:
            return j, rook, file
        *kept, (col, tiling) = file
        return j, rook, (*kept, (col + 1, tiling))

    return shifted


def test_involution_check_fails_on_the_identity(monkeypatch):
    monkeypatch.setattr(stirling, "_involution_step", _identity(stirling._involution_step))
    found = _counterexamples(involution_verify(4, 2))
    assert len(found) == 16
    assert all(problems == ["fixed point", "sign not flipped"] for problems in found.values())
    assert found["j=2 2:1;4:1,1;"] == ["fixed point", "sign not flipped"]


def test_involution_check_fails_on_a_map_that_does_not_map_back(monkeypatch):
    # the skeletons a and b have the same sign and heights; exchanging their
    # images keeps every image in the domain, sign-flipped and with its
    # heights. Each column has one tiling, so each stands for one pair
    real = stirling._involution_step
    a, b = (2, ((2, 1), (4, 2)), ()), (4, (), ((2, 1), (3, 2)))
    assert {a: 1, b: 1}.items() <= dict(stirling._skeletons(4, 2)).items()
    swap = {a: real(4, 2, b), b: real(4, 2, a)}
    monkeypatch.setattr(stirling, "_involution_step", lambda n, k, pair: swap.get(pair) or real(n, k, pair))
    found = _counterexamples(involution_verify(4, 2))
    assert found == {
        "j=2 2:1;4:1,1;": ["not an involution"],
        "j=3 2:1;3:1,1": ["not an involution"],
        "j=3 3:1,1;2:1": ["not an involution"],
        "j=4 ;2:1;3:1,1": ["not an involution"],
    }


def test_involution_check_fails_on_an_image_outside_the_domain(monkeypatch):
    # images at j = n are sent to j = n + 1; the check reports them instead
    # of applying the map to a pair it is not defined on
    monkeypatch.setattr(stirling, "_involution_step", _leaky(stirling._involution_step))
    found = _counterexamples(involution_verify(4, 2))
    outside = {pair for pair, problems in found.items() if problems == ["image outside domain"]}
    assert outside == {
        "j=3 3:1,1;2:1",
        "j=3 4:1,1,1;2:1",
        "j=3 4:1,1,1;3:1,1",
        "j=3 4:1,2;2:1",
        "j=3 4:1,2;3:1,1",
    }
    assert len(found) == 10
    assert all(problems == ["not an involution"] for pair, problems in found.items()
               if pair not in outside)


def test_involution_check_fails_on_a_mis_sized_image(monkeypatch, capsys):
    # each image's last file tiling moves one column right, unvalidated as
    # the involution's images are: reported, not raised while being built
    real = stirling._involution_step
    monkeypatch.setattr(stirling, "_involution_step", _shifted(real))
    found = _counterexamples(involution_verify(5, 2))
    expected = {}
    for pair in involution_domain(5, 2):
        image = real(5, 2, pair)
        # an image with an empty file part is the real one, but the map
        # then sends it to a shifted copy of the pair
        problem = "image outside domain" if image[2] else "not an involution"
        j, rook, file = _placements(5, pair)
        expected[f"j={j} {rook};{file}"] = [problem]
    assert found == expected
    assert len(found) == 78
    assert sum(p == ["image outside domain"] for p in found.values()) == 74
    pair = _pair(5, 3, "3:1,1;4:1,1", "2:1")  # real image: j=4, file 2:1;3:1,1
    assert stirling._domain_problem(5, 2, stirling.involution(5, 2, pair)) == (
        "file part: column 4 has 3 uncanceled cells, tiling covers 2"
    )
    assert main(["verify", "involution", "--n", "5", "--k", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "FAIL"


SMALL_DOMAINS = [(n, k) for n in range(2, 9) for k in range(1, n)]


def test_skeleton_check_equals_the_per_pair_reference():
    # every report key, the counts per j and the signed sum among them
    for n, k in SMALL_DOMAINS:
        assert involution_verify(n, k) == reference_involution_verify(n, k), (n, k)


@pytest.mark.parametrize("perturb", [_identity, _leaky, _shifted], ids=["identity", "leaky", "shifted"])
def test_skeleton_check_fails_on_the_pairs_the_reference_fails_on(monkeypatch, perturb):
    # the skeleton check expands each failing skeleton into its pairs; the
    # reference tests the same perturbed map pair by pair. Up to n = 7: at
    # n = 8 the identity fails all 227,906 pairs, and the three cases take 20 s
    monkeypatch.setattr(stirling, "_involution_step", perturb(stirling._involution_step))
    for n, k in [(n, k) for n, k in SMALL_DOMAINS if n < 8]:
        found, want = involution_verify(n, k), reference_involution_verify(n, k)
        assert found["status"] == want["status"] == "FAIL"
        assert _counterexamples(found) == _counterexamples(want), (n, k)
