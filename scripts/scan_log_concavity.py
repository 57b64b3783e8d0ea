#!/usr/bin/env python3
"""Scan p-coefficient sequences of Sf columns for log-concavity failures.

The sequences of p-coefficients at q = 1 look log-concave (hence unimodal)
as far as we have checked. This script pushes the scan beyond the asserted
range: every column k <= --kmax, rows up to --N, printing any violation
and, with --show, the sequences themselves.

Nothing here is proved for general k; a violation found by this script
would be a discovery, not a bug.
"""

import argparse

from fibrook.identities import log_concave, p_sequences, unimodal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=22, help="largest row (default 22)")
    parser.add_argument("--kmax", type=int, default=10, help="largest column (default 10)")
    parser.add_argument("--show", action="store_true", help="print every sequence")
    args = parser.parse_args()

    # column k depends on columns <= k alone, so build no further than kmax
    seqs = p_sequences("Sf", args.N, width=max(args.kmax, 0))
    violations = []
    for k in range(1, args.kmax + 1):
        for n in range(k, args.N + 1):
            seq = seqs[n][k]
            lc = log_concave(seq)
            uni = unimodal(seq)
            if args.show:
                print(f"n={n:3d} k={k:2d}  {seq}")
            if not lc or not uni:
                violations.append((n, k, seq, lc, uni))

    checked = sum(args.N + 1 - k for k in range(1, args.kmax + 1))
    if violations:
        print(f"{len(violations)} violations in {checked} sequences:")
        for n, k, seq, lc, uni in violations:
            tags = [] if lc else ["not log-concave"]
            if not uni:
                tags.append("not unimodal")
            print(f"  n={n} k={k} {', '.join(tags)}: {seq}")
        return 1
    print(f"all {checked} sequences (k <= {args.kmax}, n <= {args.N}) are log-concave and unimodal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
