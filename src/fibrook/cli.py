"""Command line front end: tables, verification suites, enumeration, series.

Subcommands:

    table KIND N          print a coefficient triangle (text, json or csv)
    verify SUITE          run a verification suite, exit 1 on failure
    enumerate BOARD       list placements on one board with their weights
    series K              dump the generating series for an Sf column
    sequences [NAME]      regenerate bundled integer sequences

Exit codes: 0 success, 1 verification failure, 2 usage error. Warn-level
findings exit 0 unless --strict. Output is deterministic for a fixed
command line; no timings are printed. Triangles are capped at N <= 40 and
enumeration-backed commands at n <= 9: `enumerate` takes --force, and the
involution suite refuses a larger --n (or --N) outright. The env var
FIBROOK_MAX_N replaces both caps. `verify` accepts --n/--k only for the
involution and all suites.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from dataclasses import dataclass

from fibrook.board import (
    FerrersBoard,
    aug_mixed_sum,
    aug_mixed_sum_row_explicit,
    enumerate_file_placements,
    enumerate_rook_placements,
    file_poly,
    mixed_file_sum,
    mixed_file_sum_row_explicit,
    parse_board,
    rook_poly,
)
from fibrook.identities import (
    SEQUENCE_NAMES,
    check_cf_columns,
    check_closed_forms,
    check_fibonomials,
    check_log_concavity,
    check_q1_specializations,
    check_sequences,
    check_series_columns,
    check_sf_p_coefficients,
    sequence_export,
    sf_column_series,
)
from fibrook.poly import PQRPoly, XPoly, xpoly_product
from fibrook.stirling import (
    TRIANGLE_KINDS,
    involution_verify,
    matrix_inverse_check,
    triangle_from_boards,
    triangle_image,
    verify_basis_expansions,
)
from fibrook.tiling import FIBONACCI, TRIBONACCI, TileFamily, weight_poly

SUITES = (
    "recursion-vs-enumeration",
    "products",
    "inverse",
    "involution",
    "identities",
    "all",
)

_FAMILIES = {"fib": FIBONACCI, "trib": TRIBONACCI}

DEFAULT_TRIANGLE_MAX = 40
DEFAULT_ENUM_MAX = 9


@dataclass
class RunConfig:
    """Everything one invocation needs, assembled from argv and environment."""

    command: str
    N: int | None = None
    n: int | None = None
    k: int | None = None
    kind: str | None = None
    board: str | None = None
    name: str | None = None
    show_all: bool = False
    order: int | None = None
    family: str = "fib"
    model: str = "file"
    fmt: str = "text"
    out: str | None = None
    strict: bool = False
    force: bool = False
    triangle_max: int = DEFAULT_TRIANGLE_MAX
    enum_max: int = DEFAULT_ENUM_MAX


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    cap = os.environ.get("FIBROOK_MAX_N")
    if cap is not None:
        try:
            cap_n = int(cap)
        except ValueError:
            cap_n = 0
        if cap_n <= 0:
            raise SystemExit(f"FIBROOK_MAX_N must be a positive integer, got {cap!r}")
        cfg.triangle_max = cap_n
        cfg.enum_max = cap_n
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.out:
        _write_out(cfg.out, text)
    else:
        sys.stdout.write(text)


def _write_out(path: str, text: str) -> None:
    """Write `text` to `path`, replacing a plain file atomically.

    A new file, or a regular file with one link, is written beside itself
    and renamed over, so a failed run never leaves it truncated; symlinks
    are followed and stay in place, and the file keeps its mode. Devices,
    FIFOs, hard-linked files and files in read-only directories are written
    in place, as `open` would.
    """
    path = os.path.realpath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            handle = open(tmp, "x", encoding="utf-8")
        except PermissionError:
            pass
        else:
            try:
                with handle:
                    handle.write(text)
                if st is not None:
                    os.chmod(tmp, stat.S_IMODE(st.st_mode))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ──────────────────────────────────────────────────────────────────────────
# table
# ──────────────────────────────────────────────────────────────────────────


def cmd_table(cfg: RunConfig) -> int:
    if cfg.kind not in TRIANGLE_KINDS:
        return _usage_error(f"unknown kind {cfg.kind!r}; choose from {', '.join(TRIANGLE_KINDS)}")
    if cfg.N is None or cfg.N < 0:
        return _usage_error("table needs a row count N >= 0")
    if cfg.N > cfg.triangle_max and not cfg.force:
        return _usage_error(
            f"N={cfg.N} exceeds the triangle cap {cfg.triangle_max}; pass --force to override"
        )
    tri = triangle_image(cfg.kind, cfg.N)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(tri.to_json_dict(), indent=2))
    elif cfg.fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["n", "k", "poly"])
        for n, k, text in tri.csv_rows():
            writer.writerow([n, k, text])
        _emit(cfg, buffer.getvalue())
    else:
        lines = [f"{cfg.kind} triangle, rows 0..{cfg.N}"]
        for n, row in enumerate(tri.text_rows()):
            lines.append(f"n={n}: " + " | ".join(row))
        _emit(cfg, "\n".join(lines))
    return 0


# ──────────────────────────────────────────────────────────────────────────
# verify
# ──────────────────────────────────────────────────────────────────────────


def _small_boards(max_n: int, max_height: int):
    """Every Ferrers board with 1..max_n columns and heights <= max_height."""
    def rec(prefix: tuple[int, ...], n: int):
        if n == 0:
            yield FerrersBoard(prefix)
            return
        lo = prefix[-1] if prefix else 0
        for h in range(lo, max_height + 1):
            yield from rec(prefix + (h,), n - 1)

    for n in range(1, max_n + 1):
        yield from rec((), n)


def _verify_recursion_vs_enumeration(N: int) -> dict:
    bad = []
    boards = list(_small_boards(4, 4)) + [FerrersBoard.staircase(n) for n in range(N + 1)]
    for board in boards:
        for fam in (FIBONACCI, TRIBONACCI):
            for k in range(board.n + 1):
                pairs = [
                    ("file", file_poly(board, fam, k), file_poly(board, fam, k, mode="enumeration")),
                    ("rook", rook_poly(board, fam, k), rook_poly(board, fam, k, mode="enumeration")),
                ]
                for model, rec_val, enum_val in pairs:
                    if rec_val != enum_val:
                        bad.append({
                            "board": str(board), "family": fam.label, "model": model,
                            "k": k, "recursion": str(rec_val), "enumeration": str(enum_val),
                        })
    return {
        "check": "recursion-vs-enumeration",
        "range": f"boards n<=4 heights<=4, staircases n<={N}",
        "status": "PASS" if not bad else "FAIL",
        "counterexamples": bad,
    }


def _product_identities(board: FerrersBoard, fam: TileFamily) -> list[dict]:
    bad = []
    n = board.n
    # file side: prod_i (x + W_{b_i}) = sum_k fT_k x^(n-k), any heights
    lhs = xpoly_product([(1, weight_poly(fam, h)) for h in board.heights])
    rhs = XPoly.zero()
    for k in range(n + 1):
        rhs = rhs + XPoly.x_power(n - k) * file_poly(board, fam, k)
    if lhs != rhs:
        bad.append({"board": str(board), "family": fam.label, "identity": "file-product",
                    "lhs": str(lhs), "rhs": str(rhs)})
    # rook side: x^n = sum_k rT_{n-k} prod_{i<=k} (x - W_{b_i}), Ferrers only
    if board.is_ferrers:
        rhs = XPoly.zero()
        for k in range(n + 1):
            factors = [(-1, weight_poly(fam, board.heights[i])) for i in range(k)]
            rhs = rhs + xpoly_product(factors) * rook_poly(board, fam, n - k)
        if XPoly.x_power(n) != rhs:
            bad.append({"board": str(board), "family": fam.label, "identity": "rook-product",
                        "rhs": str(rhs)})
    return bad


def _verify_products(N: int) -> dict:
    bad = []
    boards = list(_small_boards(4, 4)) + [FerrersBoard.staircase(n) for n in range(N + 1)]
    for board in boards:
        for fam in (FIBONACCI, TRIBONACCI):
            bad.extend(_product_identities(board, fam))
    # the product identities do not need weakly increasing heights on the file side
    for heights in ((3, 1, 2), (2, 0, 5, 1), (4, 4, 1)):
        board = FerrersBoard(heights)
        for fam in (FIBONACCI, TRIBONACCI):
            bad.extend(_product_identities(board, fam))
    # mixed and augmented sums against their product forms
    for board in _small_boards(4, 4):
        for fam in (FIBONACCI, TRIBONACCI):
            for x in range(4):
                mixed = mixed_file_sum(board, fam, x)
                want = PQRPoly.one()
                for h in board.heights:
                    want = want * (weight_poly(fam, h) + x)
                if mixed != want:
                    bad.append({"board": str(board), "family": fam.label, "x": x,
                                "identity": "mixed-product", "sum": str(mixed), "product": str(want)})
                aug = aug_mixed_sum(board, fam, x)
                if aug != PQRPoly.constant(x**board.n):
                    bad.append({"board": str(board), "family": fam.label, "x": x,
                                "identity": "aug-power", "sum": str(aug)})
                if board.n <= 3:
                    if mixed_file_sum_row_explicit(board, fam, x) != mixed:
                        bad.append({"board": str(board), "family": fam.label, "x": x,
                                    "identity": "mixed-row-explicit"})
                    if aug_mixed_sum_row_explicit(board, fam, x) != aug:
                        bad.append({"board": str(board), "family": fam.label, "x": x,
                                    "identity": "aug-row-explicit"})
    return {
        "check": "products",
        "range": f"boards n<=4 heights<=4, staircases n<={N}, x<=3",
        "status": "PASS" if not bad else "FAIL",
        "counterexamples": bad,
    }


def _verify_inverse(N: int) -> list[dict]:
    return [
        matrix_inverse_check(N, FIBONACCI),
        matrix_inverse_check(min(N, 10), TRIBONACCI),
    ]


def _involution_top(cfg: RunConfig) -> int:
    """The largest staircase the involution suite enumerates."""
    if cfg.n is not None:
        return cfg.n
    return cfg.N if cfg.N is not None else 6


def _verify_involution(cfg: RunConfig) -> list[dict]:
    if cfg.n is not None:
        return [involution_verify(cfg.n, cfg.k)]
    top = _involution_top(cfg)
    return [
        involution_verify(n, k)
        for n in range(2, top + 1)
        for k in range(1, n)
    ]


def _verify_identities(N: int | None) -> list[dict]:
    if N is None:
        return [
            check_series_columns(),
            check_closed_forms(),
            check_sf_p_coefficients(),
            check_q1_specializations(),
            check_cf_columns(),
            check_fibonomials(),
            check_sequences(),
            check_log_concavity(),
        ]
    return [
        check_series_columns(N, min(6, N)),
        check_closed_forms(N),
        check_sf_p_coefficients(min(N, 12)),
        check_q1_specializations(N, min(N, 14)),
        check_cf_columns(N),
        check_fibonomials(max(N, 30)),
        check_sequences(),
        check_log_concavity(),
    ]


def _verify_refusal(cfg: RunConfig) -> str | None:
    """Why `cfg` is not a runnable verify request (a usage error), or None."""
    suite = cfg.name
    if suite not in SUITES:
        return f"unknown suite {suite!r}; choose from {', '.join(SUITES)}"
    if cfg.N is not None and cfg.N < 0:
        return "N must be >= 0"
    if suite in ("involution", "all"):
        if (cfg.n is None) != (cfg.k is None):
            return "involution needs both --n and --k (or neither)"
        top = _involution_top(cfg)
        if top > cfg.enum_max:
            return (
                f"involution n={top} exceeds the enumeration cap {cfg.enum_max}; "
                "set FIBROOK_MAX_N to change the cap"
            )
    elif cfg.n is not None or cfg.k is not None:
        return f"--n and --k select an involution domain; suite {suite} takes neither"
    return None


def cmd_verify(cfg: RunConfig) -> int:
    refusal = _verify_refusal(cfg)
    if refusal:
        return _usage_error(refusal)
    suite = cfg.name
    reports: list[dict] = []
    if suite in ("recursion-vs-enumeration", "all"):
        reports.append(_verify_recursion_vs_enumeration(cfg.N if cfg.N is not None else 8))
    if suite in ("products", "all"):
        reports.append(_verify_products(cfg.N if cfg.N is not None else 6))
    if suite in ("inverse", "all"):
        reports.extend(_verify_inverse(cfg.N if cfg.N is not None else 12))
        for fam, cap in ((FIBONACCI, 12), (TRIBONACCI, 10)):
            top = cap if cfg.N is None else min(cfg.N, cap)
            reports.append(verify_basis_expansions(top, fam))
    if suite in ("involution", "all"):
        reports.extend(_verify_involution(cfg))
    if suite in ("identities", "all"):
        reports.extend(_verify_identities(cfg.N))
    if not reports:
        return _usage_error(f"suite {suite} has nothing to check at N={cfg.N}")
    statuses = {r["status"] for r in reports}
    overall = "FAIL" if "FAIL" in statuses else ("WARN" if "WARN" in statuses else "PASS")
    _emit(cfg, json.dumps({"suite": suite, "status": overall, "reports": reports}, indent=2))
    if overall == "FAIL":
        return 1
    if overall == "WARN" and cfg.strict:
        return 1
    return 0


# ──────────────────────────────────────────────────────────────────────────
# enumerate
# ──────────────────────────────────────────────────────────────────────────


def cmd_enumerate(cfg: RunConfig) -> int:
    try:
        board = parse_board(cfg.board or "")
    except ValueError as exc:
        return _usage_error(str(exc))
    fam = _FAMILIES[cfg.family]
    k = cfg.k if cfg.k is not None else 0
    if k < 0:
        return _usage_error("k must be >= 0")
    if board.n > cfg.enum_max and not cfg.force:
        return _usage_error(
            f"board has {board.n} columns, over the enumeration cap {cfg.enum_max}; "
            "pass --force to override"
        )
    if cfg.model == "rook" and not board.is_ferrers:
        return _usage_error(f"{board} is not a Ferrers board; the rook model needs weakly increasing heights")
    if cfg.model == "rook":
        placements = enumerate_rook_placements(board, fam, k)
    else:
        placements = enumerate_file_placements(board, fam, k)
    total = PQRPoly.zero()
    for placement in placements:
        total = total + placement.weight()
    if cfg.fmt == "json":
        payload = {
            "board": str(board),
            "family": fam.label,
            "model": cfg.model,
            "k": k,
            "placements": [
                {"placement": str(pl), "weight": str(pl.weight())} for pl in placements
            ],
            "total": str(total),
        }
        _emit(cfg, json.dumps(payload, indent=2))
    else:
        lines = [f"{str(pl) or '(empty)'}  {pl.weight()}" for pl in placements]
        lines.append(f"total  {total}")
        _emit(cfg, "\n".join(lines))
    return 0


# ──────────────────────────────────────────────────────────────────────────
# series and sequences
# ──────────────────────────────────────────────────────────────────────────


def cmd_series(cfg: RunConfig) -> int:
    k = cfg.k if cfg.k is not None else 1
    order = cfg.order if cfg.order is not None else max(k, 12)
    if k < 1:
        return _usage_error("the series column k must be >= 1")
    if order < k:
        return _usage_error("order must be >= k")
    if order > cfg.triangle_max and not cfg.force:
        return _usage_error(
            f"order {order} exceeds the cap {cfg.triangle_max}; pass --force to override"
        )
    series = sf_column_series(k, order)
    if cfg.fmt == "json":
        payload = {
            "k": k,
            "order": order,
            "coefficients": [str(series.coefficient(n)) for n in range(order + 1)],
        }
        _emit(cfg, json.dumps(payload, indent=2))
    else:
        lines = [f"t^{n}  {series.coefficient(n)}" for n in range(order + 1)]
        _emit(cfg, "\n".join(lines))
    return 0


def cmd_sequences(cfg: RunConfig) -> int:
    if cfg.show_all:
        names = SEQUENCE_NAMES
    elif cfg.name:
        if cfg.name not in SEQUENCE_NAMES:
            return _usage_error(
                f"unknown sequence {cfg.name!r}; known: {', '.join(SEQUENCE_NAMES)}"
            )
        names = (cfg.name,)
    else:
        return _usage_error("pass a sequence name or --all")
    lines = []
    failed = False
    for name in names:
        report = sequence_export(name)
        values = ",".join(str(v) for v in report.generated)
        prefix = f"{name}: " if cfg.show_all else ""
        lines.append(f"{prefix}{values} {report.status}")
        if report.warn:
            lines.append(f"{prefix}WARN: {report.warn}")
        if report.status != "MATCH":
            failed = True
    _emit(cfg, "\n".join(lines))
    return 1 if failed else 0


# ──────────────────────────────────────────────────────────────────────────
# parser and entry point
# ──────────────────────────────────────────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrook",
        description="Tiling-weighted rook and file polynomials on Ferrers boards.",
        epilog="FIBROOK_MAX_N replaces the default size caps (triangles 40, enumeration 9).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a coefficient triangle")
    p_table.add_argument("kind", choices=TRIANGLE_KINDS)
    p_table.add_argument("N", type=int)
    p_table.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--out", help="write to this path instead of stdout")
    p_table.add_argument("--force", action="store_true", help="ignore the size cap")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("name", metavar="suite", choices=SUITES)
    p_verify.add_argument("--N", type=int, help="main size bound of the suite")
    p_verify.add_argument("--n", type=int, help="involution: staircase size")
    p_verify.add_argument("--k", type=int, help="involution: target column")
    p_verify.add_argument("--strict", action="store_true", help="treat WARN as failure")
    p_verify.add_argument("--out", help="write the JSON report to this path")

    p_enum = sub.add_parser("enumerate", help="list placements on one board")
    p_enum.add_argument("board", help='board text, like "F(0,1,2)"')
    p_enum.add_argument("--k", type=int, default=0, help="number of tiled columns")
    p_enum.add_argument("--family", choices=tuple(_FAMILIES), default="fib")
    p_enum.add_argument("--model", choices=("file", "rook"), default="file")
    p_enum.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p_enum.add_argument("--out", help="write to this path instead of stdout")
    p_enum.add_argument("--force", action="store_true", help="ignore the size cap")

    p_series = sub.add_parser("series", help="generating series of an Sf column")
    p_series.add_argument("k", type=int)
    p_series.add_argument("--order", type=int)
    p_series.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p_series.add_argument("--out", help="write to this path instead of stdout")
    p_series.add_argument("--force", action="store_true", help="ignore the size cap")

    p_seq = sub.add_parser("sequences", help="regenerate bundled integer sequences")
    p_seq.add_argument("name", nargs="?", help="sequence name")
    p_seq.add_argument("--all", dest="show_all", action="store_true")
    p_seq.add_argument("--out", help="write to this path instead of stdout")

    return parser


_COMMANDS = {
    "table": cmd_table,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "series": cmd_series,
    "sequences": cmd_sequences,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except SystemExit as exc:
        message = str(exc)
        if message:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
