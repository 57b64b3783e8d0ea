"""Exact tiling-weighted rook and file polynomials on Ferrers boards.

Everything is computed over Z[q, p, r] with arbitrary-precision integers;
there is no floating point anywhere. The submodules build on each other:

    poly       sparse exact polynomials, q-analogues, polynomials in x or t
    tiling     height-1/2/3 column tilings, weight polynomials, the Record base
    board      Ferrers boards, file and rook placements, product formulas
    stirling   connection-coefficient triangles, basis expansions, involution
    identities closed forms, coefficient formulas, sequences, log-concavity,
               and the registry of verification suites
    cli        command line front end (`fibrook ...`)
"""

from fibrook.poly import PQRPoly, q_binomial, q_factorial, q_int
from fibrook.tiling import FIBONACCI, TRIBONACCI, TileFamily, Tiling, weight_poly

__version__ = "0.1.0"

__all__ = [
    "PQRPoly",
    "q_int",
    "q_factorial",
    "q_binomial",
    "TileFamily",
    "Tiling",
    "FIBONACCI",
    "TRIBONACCI",
    "weight_poly",
    "__version__",
]
