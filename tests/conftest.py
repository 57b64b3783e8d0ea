import hypothesis
import pytest

import fibrook.identities as identities
import fibrook.stirling as stirling
from fibrook.poly import PQRPoly, XPoly

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
