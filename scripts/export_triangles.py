#!/usr/bin/env python3
"""Export every coefficient triangle to CSV (and optionally JSON) files.

Writes one file per kind into --out-dir, e.g. Sf.csv with rows n,k,poly.
Useful for eyeballing in a spreadsheet or diffing across versions.
"""

import argparse
import csv
import json
from pathlib import Path

from fibrook.stirling import TRIANGLE_KINDS, triangle_image


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=12, help="rows per triangle (default 12)")
    parser.add_argument("--out-dir", type=Path, default=Path("triangles"))
    parser.add_argument("--json", action="store_true", help="also write .json files")
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for kind in TRIANGLE_KINDS:
        tri = triangle_image(kind, args.N)
        # sf/Sf and sp/Sp would collide on case-insensitive filesystems
        stem = {"sf": "sf_signed", "sp": "sp_signed"}.get(kind, kind)
        csv_path = args.out_dir / f"{stem}.csv"
        with csv_path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "k", "poly"])
            for row in tri.csv_rows():
                writer.writerow(row)
        print(f"wrote {csv_path}")
        if args.json:
            json_path = args.out_dir / f"{stem}.json"
            json_path.write_text(
                json.dumps(tri.to_json_dict(), indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
