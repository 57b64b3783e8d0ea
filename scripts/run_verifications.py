#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per report.

Equivalent to `fibrook verify all` but with a compact human-readable
rollup instead of the full JSON. Exits 1 if anything fails (or, with
--strict, warns), and 2 for a request that `fibrook verify all` refuses,
such as an involution staircase over the enumeration cap.
"""

import argparse
import sys

from fibrook.cli import (
    _config_from_args,
    _verify_identities,
    _verify_inverse,
    _verify_involution,
    _verify_products,
    _verify_recursion_vs_enumeration,
    _verify_refusal,
)
from fibrook.stirling import verify_basis_expansions
from fibrook.tiling import FIBONACCI, TRIBONACCI


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=None, help="override the main size bounds")
    parser.add_argument("--strict", action="store_true", help="treat WARN as failure")
    args = parser.parse_args()

    # the caps of `fibrook verify all`, FIBROOK_MAX_N included, checked up front
    try:
        cfg = _config_from_args(argparse.Namespace(command="verify", name="all", N=args.N))
    except SystemExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    refusal = _verify_refusal(cfg)
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    reports = []
    reports.append(_verify_recursion_vs_enumeration(args.N or 8))
    reports.append(_verify_products(args.N or 6))
    reports.extend(_verify_inverse(args.N or 12))
    reports.append(verify_basis_expansions(args.N or 12, FIBONACCI))
    reports.append(verify_basis_expansions(min(args.N or 10, 10), TRIBONACCI))
    reports.extend(_verify_involution(cfg))
    reports.extend(_verify_identities(args.N))

    width = max(len(r["check"]) for r in reports)
    failed = warned = 0
    for r in reports:
        extras = ""
        if r.get("warnings"):
            extras = f"  ({len(r['warnings'])} warnings)"
        if r["counterexamples"]:
            extras = f"  ({len(r['counterexamples'])} counterexamples)"
        print(f"{r['check']:<{width}}  {r['status']:<4}  {r['range']}{extras}")
        failed += r["status"] == "FAIL"
        warned += r["status"] == "WARN"

    print(f"\n{len(reports)} reports: {failed} FAIL, {warned} WARN")
    if failed or (args.strict and warned):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
