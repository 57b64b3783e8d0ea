import hypothesis
import pytest

import fibrook.identities as identities
import fibrook.stirling as stirling
from fibrook.board import (
    FerrersBoard,
    FilePlacement,
    RookPlacement,
    enumerate_file_placements,
    enumerate_rook_placements,
)
from fibrook.poly import PQRPoly, XPoly
from fibrook.tiling import FIBONACCI

hypothesis.settings.register_profile("fibrook", max_examples=50, deadline=None)
hypothesis.settings.load_profile("fibrook")


def l1_norm(poly: PQRPoly) -> int:
    """The sum of |coeff| over all terms of `poly`."""
    return sum(map(abs, poly.terms.values()))


def xpoly_add(f: XPoly, g: XPoly) -> XPoly:
    """f + g, coefficient by coefficient."""
    size = max(len(f.coeffs), len(g.coeffs))
    return XPoly([f.coefficient(i) + g.coefficient(i) for i in range(size)])


def xpoly_mul(f: XPoly, g: XPoly) -> XPoly:
    """f * g by coefficient convolution: the generic product that the Horner
    steps of `fibrook.poly` and the cut column series are checked against."""
    out = [PQRPoly.zero()] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return XPoly(out)


def linear_product(cs) -> XPoly:
    """prod (x + c) for c in `cs`, by `xpoly_mul`; the empty product is 1."""
    out = XPoly.one()
    for c in cs:
        out = xpoly_mul(out, XPoly([c, 1]))
    return out


def involution_domain(n: int, k: int):
    """All pairs behind the (n, k) entry of the product Sf * sf, rook-major.

    A pair is the tuple (j, rook, file) of the entries of a rook-style
    placement of n-j tilings on the n-staircase and of a file placement of
    j-k tilings on the j-staircase, signed by (-1)^(j-k); (n, j) fixes both
    boards. The entries are drawn lazily from the views' `entries()`, not
    from their skeletons; a j with more than one rook placement holds its
    file entries as a list.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    for j in range(k, n + 1):
        rooks = enumerate_rook_placements(FerrersBoard.staircase(n), FIBONACCI, n - j)
        files = enumerate_file_placements(FerrersBoard.staircase(j), FIBONACCI, j - k).entries()
        if len(rooks) > 1:
            files = list(files)  # drawn once, walked once per rook
        for rook in rooks.entries():
            for file in files:
                yield j, rook, file


def reference_involution_verify(n: int, k: int) -> dict:
    """`stirling.involution_verify` pair by pair: the reference model that
    the skeleton check is compared against.

    Each pair of `involution_domain` is mapped by `stirling._involution_step`
    (looked up per call, so a patched map takes effect), its image tested by
    `stirling._domain_problem`, and its weight compared as exponent triples;
    the signed sum is a signed count per triple.
    """
    if not 1 <= k < n:
        raise ValueError("the involution is defined for 1 <= k < n")
    signed: dict[tuple[int, int, int], int] = {}
    counterexamples = []
    per_j: dict[int, int] = {}
    def entries_exponents(entries: tuple) -> tuple[int, int, int]:
        return tuple(map(sum, zip((0, 0, 0), *[t.height_counts() for _, t in entries])))

    for pair in involution_domain(n, k):
        j, rook, file = pair
        per_j[j] = per_j.get(j, 0) + 1
        weight = entries_exponents(rook + file)
        sign = -1 if len(file) % 2 else 1
        signed[weight] = signed.get(weight, 0) + sign
        image = stirling._involution_step(n, k, pair)
        inside = stirling._domain_problem(n, k, image) is None
        problems = []
        if not inside:
            problems.append("image outside domain")
        if image == pair:
            problems.append("fixed point")
        if len(image[2]) % 2 == len(file) % 2:
            problems.append("sign not flipped")
        if entries_exponents(image[1] + image[2]) != weight:
            problems.append("weight changed")
        if inside and stirling._involution_step(n, k, image) != pair:
            problems.append("not an involution")
        if problems:  # a drawn pair is in the domain, so its parts validate
            rook_part = RookPlacement(FerrersBoard.staircase(n), rook)
            file_part = FilePlacement(FerrersBoard.staircase(j), file)
            counterexamples.append({"pair": f"j={j} {rook_part};{file_part}", "problems": problems})
    signed_total = PQRPoly(signed)
    return stirling.report(
        "involution", f"n={n}, k={k}", counterexamples, holds=not signed_total,
        domain_size=sum(per_j.values()),
        pairs_per_j={str(j): per_j[j] for j in sorted(per_j)},
        signed_sum=str(signed_total),
    )


@pytest.fixture
def perturb_entry(monkeypatch):
    """`perturb_entry(kind, n, k, delta)` makes every check see the `kind`
    entry (n, k) plus the `PQRPoly` delta, in every triangle that reaches
    row n; an entry beyond the width a check asks for makes the call raise.

    `triangle_images` adds the delta's l1 norm and total degree to the
    entry's norm and degree from the integer pass, and its `rows_at` adds
    the delta's image to the entry's image at every slot, and
    `build_triangle`, which the checks call for counterexample text, adds
    the delta to the entry. Perturbations stack, each on top of the ones
    before.
    """

    def apply(kind: str, n: int, k: int, delta: PQRPoly) -> None:
        for module in (stirling, identities):
            monkeypatch.setattr(module, "triangle_images",
                                _perturbed_images(module.triangle_images, kind, n, k, delta))
            monkeypatch.setattr(module, "build_triangle",
                                _perturbed_build(module.build_triangle, kind, n, k, delta))

    return apply


def _perturbed_images(real, kind: str, n: int, k: int, delta: PQRPoly):
    def images(kind_: str, N: int, width: int | None = None):
        found = real(kind_, N, width)
        if kind_ != kind or n > N:
            return found
        natural, rows_at, norms, degrees = found
        norms[n][k] += l1_norm(delta)
        degrees[n][k] = max(degrees[n][k], delta.total_degree())

        def perturbed_rows(slot: int):
            return _add_to_row(rows_at(slot), n, k, delta.q_image(slot))

        return natural, perturbed_rows, norms, degrees

    return images


def _add_to_row(rows, n: int, k: int, image: dict[int, int]):
    for m, row in enumerate(rows):
        if m == n:
            row = list(row)
            entry = dict(row[k])
            for key, value in image.items():
                entry[key] = entry.get(key, 0) + value
            row[k] = {key: value for key, value in entry.items() if value}
            row = tuple(row)
        yield row


def _perturbed_build(real, kind: str, n: int, k: int, delta: PQRPoly):
    def build(kind_: str, N: int, width: int | None = None) -> stirling.CoeffTriangle:
        tri = real(kind_, N, width)
        if kind_ != kind or n > N:
            return tri
        rows = [list(row) for row in tri.rows]
        rows[n][k] = rows[n][k] + delta
        return stirling.CoeffTriangle(kind_, N, tuple(tuple(row) for row in rows), width)

    return build
