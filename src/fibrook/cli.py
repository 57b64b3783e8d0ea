"""Command line front end: tables, verification suites, enumeration, series.

Subcommands:

    table KIND N          print a coefficient triangle (text, json or csv)
    verify SUITE          run a verification suite, exit 1 on failure; the
                          report is JSON, or with --format summary one line
                          per check plus the FAIL/WARN totals
    enumerate BOARD       list placements on one board with their weights
    series K              dump the generating series for an Sf column
    sequences [NAME]      regenerate bundled integer sequences

Exit codes: 0 success, 1 verification failure, 2 usage error, which
includes a request past the packed-exponent limit, an --out path that
cannot be written, a failed write to stdout and a stdout closed at start.
Warn-level findings exit 0 unless --strict. Output is deterministic for a
fixed command line; no timings are printed. Triangles are capped at
N <= 40 and enumeration-backed commands at n <= 9; `table`, `series` and
`enumerate` take --force. `verify` refuses outright a suite past its cap:
recursion-vs-enumeration, products and involution (--N or --n) past the
enumeration cap, inverse and identities past the triangle cap, and all
past either. The env var FIBROOK_MAX_N replaces both caps. `enumerate`
also refuses a request of more than PLACEMENT_MAX placements, counted
exactly before listing any; --force lifts that cap too. `verify` accepts
--n/--k only for the involution and all suites. `table` and `enumerate`
write their output row by row, as it is rendered, to stdout or to the
--out file. Only `enumerate`, `verify`, `series` and `sequences` import
`fibrook.board`, only the last three `fibrook.identities`, and only JSON
output imports `json`. A document held whole (`verify`, `series`) is
`json.dumps(..., indent=2)`; the streamed ones (`table`, `enumerate`) are
written in a fixed frame of those bytes around the `json.dumps` of each
string.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

from fibrook.poly import PQRPoly
from fibrook.stirling import TRIANGLE_KINDS, triangle_text, verdict
from fibrook.tiling import FIBONACCI, TRIBONACCI

if TYPE_CHECKING:
    from fibrook.board import PlacementView

_FAMILIES = {"fib": FIBONACCI, "trib": TRIBONACCI}

DEFAULT_TRIANGLE_MAX = 40
DEFAULT_ENUM_MAX = 9
# `enumerate` refuses more placements than this without --force
PLACEMENT_MAX = 250_000
# the placement count is exact below 2**_COUNT_BITS + 1 and capped there,
# so a tall column is counted at once; past about 4,300 digits (14,284
# bits), Python refuses to print an int in decimal
_COUNT_BITS = 14_000
_COUNT_LIMIT = (1 << _COUNT_BITS) + 1


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write `chunks`, which end the output with a newline, to the --out
    path or to stdout as they are drawn, gathered into writes of whole
    `_WRITE_SIZE`-character blocks and a last partial one."""
    with _output(args) as handle:
        _write_all(handle, chunks)


# chunks are gathered into writes of whole blocks of this many characters:
# stdout may be unbuffered (PYTHONUNBUFFERED), and one write per chunk (a
# table entry, a placement line) then costs a system call each
_WRITE_SIZE = 1 << 16


def _write_all(handle, chunks: Iterable[str]) -> None:
    pending: list[str] = []
    size = 0
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk)
        if size >= _WRITE_SIZE:
            # whole blocks only, so that a reader draining a pipe in reads of
            # the pipe's 64 KiB gets full reads, as from one large write
            text = "".join(pending)
            whole = size - size % _WRITE_SIZE
            handle.write(text[:whole])
            pending, size = [text[whole:]], size - whole
    if size:
        handle.write("".join(pending))


@contextmanager
def _output(args: argparse.Namespace) -> Iterator:
    """The handle a command writes its output to: stdout, flushed at the
    end so that a failed write shows before `main` returns, or the --out
    path, opened before the command computes anything.

    A new --out file, or a regular file with one link, is written beside
    itself and renamed over once the command is done, so a failed run, in
    computing the output or in writing it, never leaves it truncated;
    symlinks are followed and stay in place, and the file keeps its mode.
    Devices, FIFOs, hard-linked files and files in read-only directories
    are written in place, as `open` would, so a failed run leaves them
    part-written.
    """
    if not args.out:
        if sys.stdout is None:  # descriptor 1 was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        yield sys.stdout
        sys.stdout.flush()
        return
    path = os.path.realpath(args.out)
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
                    yield handle
                if st is not None:
                    os.chmod(tmp, stat.S_IMODE(st.st_mode))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            return
    with open(path, "w", encoding="utf-8") as handle:
        yield handle


def _silence_stdout() -> None:
    """Point the stdout descriptor at the null device, so that the flush at
    exit has no failed write left to repeat; a stdout closed at start has
    nothing to flush."""
    if sys.stdout is None:
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ──────────────────────────────────────────────────────────────────────────
# table
# ──────────────────────────────────────────────────────────────────────────


def cmd_table(args: argparse.Namespace) -> int:
    if args.N < 0:
        return _usage_error("table needs a row count N >= 0")
    if args.N > args.triangle_max and not args.force:
        return _usage_error(
            f"N={args.N} exceeds the triangle cap {args.triangle_max}; pass --force to override"
        )
    rows = triangle_text(args.kind, args.N)
    if args.fmt == "json":
        _emit(args, _table_json(args.kind, args.N, rows))
    elif args.fmt == "csv":
        _emit(args, _csv_chunks(rows))
    else:
        _emit(args, _text_chunks(args.kind, args.N, rows))
    return 0


def _text_chunks(kind: str, N: int, rows: Iterable[list[str]]) -> Iterator[str]:
    yield f"{kind} triangle, rows 0..{N}\n"
    for n, row in enumerate(rows):
        sep = f"n={n}: "
        for text in row:
            yield sep
            yield text
            sep = " | "
        del row  # free this row's text before the next row is drawn
        yield "\n"


def _table_json(kind: str, N: int, rows: Iterable[list[str]]) -> Iterator[str]:
    """`json.dumps({"kind", "N", "entries": rows}, indent=2)` and a newline,
    entry by entry in a fixed frame; no row, nor the list of rows, is empty."""
    import json

    dumps = json.dumps
    yield dumps({"kind": kind, "N": N}, indent=2)[:-2] + ',\n  "entries": ['
    lead = "\n    ["
    for row in rows:
        sep = lead
        for text in row:
            yield sep + "\n      " + dumps(text)
            sep = ","
        lead = "\n    ],\n    ["
        del row  # free this row's text before the next row is drawn
    yield "\n    ]\n  ]\n}\n"


def _csv_chunks(rows: Iterable[list[str]]) -> Iterator[str]:
    # entry text holds only digits, p q r ^ * + - and spaces, so no field needs quoting
    yield "n,k,poly\r\n"
    for n, row in enumerate(rows):
        for k, text in enumerate(row):
            yield f"{n},{k},{text}\r\n"
        del row  # free this row's text before the next row is drawn


# ──────────────────────────────────────────────────────────────────────────
# verify
# ──────────────────────────────────────────────────────────────────────────


def _verify_refusal(args: argparse.Namespace) -> str | None:
    """Why `args` is not a runnable verify request (a usage error), or None."""
    from fibrook.identities import SUITE_SIZES, SUITES

    suite = args.name
    if suite not in SUITES:
        return f"unknown suite {suite!r}; choose from {', '.join(SUITES)}"
    if args.N is not None and args.N < 0:
        return "N must be >= 0"
    runs = tuple(SUITE_SIZES) if suite == "all" else (suite,)
    if "involution" in runs:
        if (args.n is None) != (args.k is None):
            return "involution needs both --n and --k (or neither)"
        if args.n is not None and not 1 <= args.k < args.n:
            return "the involution is defined for 1 <= k < n"
    elif args.n is not None or args.k is not None:
        return f"--n and --k select an involution domain; suite {suite} takes neither"
    caps = {"enumeration": args.enum_max, "triangle": args.triangle_max}
    # the involution first: past the enumeration cap it is the costliest suite
    for name in sorted(runs, key=lambda s: s != "involution"):
        top, cap = SUITE_SIZES[name]
        if args.N is not None:
            top = args.N
        if name == "involution" and args.n is not None:
            top = args.n
        if top is not None and top > caps[cap]:
            return (
                f"{name} n={top} exceeds the {cap} cap {caps[cap]}; "
                "set FIBROOK_MAX_N to change the cap"
            )
    return None


def _summary(reports: list[dict], failed: int, warned: int) -> str:
    """One line per report (check, status, range), then the totals."""
    width = max(len(r["check"]) for r in reports)
    lines = []
    for r in reports:
        extras = ""
        if r["counterexamples"]:
            extras = f"  ({len(r['counterexamples'])} counterexamples)"
        elif r.get("warnings"):
            extras = f"  ({len(r['warnings'])} warnings)"
        lines.append(f"{r['check']:<{width}}  {r['status']:<4}  {r['range']}{extras}")
    lines.append(f"\n{len(reports)} reports: {failed} FAIL, {warned} WARN")
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    from fibrook.identities import run_suite

    refusal = _verify_refusal(args)
    if refusal:
        return _usage_error(refusal)
    # the --out file is opened before any check runs, so that an unwritable
    # path is refused at once; a usage error raised inside removes it
    with _output(args) as handle:
        reports = run_suite(args.name, args.N, args.n, args.k)
        if not reports:
            raise ValueError(f"suite {args.name} has nothing to check at N={args.N}")
        failed = sum(r["status"] == "FAIL" for r in reports)
        warned = sum(r["status"] == "WARN" for r in reports)
        if args.fmt == "summary":
            _write_all(handle, [_summary(reports, failed, warned), "\n"])
        else:
            import json

            suite = {"suite": args.name, "status": verdict(failed, warned), "reports": reports}
            _write_all(handle, [json.dumps(suite, indent=2), "\n"])
    return 1 if failed or (warned and args.strict) else 0


# ──────────────────────────────────────────────────────────────────────────
# enumerate
# ──────────────────────────────────────────────────────────────────────────


def cmd_enumerate(args: argparse.Namespace) -> int:
    from fibrook.board import enumerate_file_placements, enumerate_rook_placements, parse_board, placement_count

    try:
        board = parse_board(args.board)
    except ValueError as exc:
        return _usage_error(str(exc))
    fam = _FAMILIES[args.family]
    k = args.k
    if k < 0:
        return _usage_error("k must be >= 0")
    if board.n > args.enum_max and not args.force:
        return _usage_error(
            f"board has {board.n} columns, over the enumeration cap {args.enum_max}; "
            "pass --force to override"
        )
    if args.model == "rook" and not board.is_ferrers:
        return _usage_error(f"{board} is not a Ferrers board; the rook model needs weakly increasing heights")
    count = placement_count(board, fam, k, args.model, _COUNT_LIMIT)
    if count > PLACEMENT_MAX and not args.force:
        shown = str(count) if count < _COUNT_LIMIT else f"more than 2**{_COUNT_BITS}"
        return _usage_error(
            f"{board} has {shown} {args.model} placements with k={k}, over the "
            f"placement cap {PLACEMENT_MAX}; pass --force to override"
        )
    enum = enumerate_rook_placements if args.model == "rook" else enumerate_file_placements
    view = enum(board, fam, k)
    if args.fmt == "json":
        head = {"board": str(board), "family": fam.label, "model": args.model, "k": k}
        _emit(args, _placement_json(head, view))
    else:
        _emit(args, _placement_lines(view))
    return 0


def _weighed(view: PlacementView, counts: dict) -> Iterator[tuple[str, str]]:
    """(placement, weight) texts per placement of `view`, read from its
    heads, adding up in `counts` the placements per weight, as exponent
    triples. The heads of one skeleton share `last`, so per head exponent
    sum the completions' texts and their counts per weight are built once
    and reused: each weight is printed once, and no placement is built."""
    weight_text: dict[tuple[int, int, int], str] = {}
    shared, tails = None, {}
    for _, text, head, last in view.heads():
        if last is not shared:
            shared, tails = last, {}
        if head not in tails:
            exps = [(head[0] + a, head[1] + b, head[2] + c) for _, _, (a, b, c) in last]
            for weight in set(exps) - weight_text.keys():
                weight_text[weight] = str(PQRPoly.term(1, *weight))
            pieces = [(piece, weight_text[e]) for (_, piece, _), e in zip(last, exps)]
            tails[head] = pieces, Counter(exps)
        pieces, per_weight = tails[head]
        for weight, placements in per_weight.items():
            counts[weight] = counts.get(weight, 0) + placements
        for piece, weight in pieces:
            yield text + piece, weight


def _placement_lines(view: PlacementView) -> Iterator[str]:
    counts: dict[tuple[int, int, int], int] = {}
    for text, weight in _weighed(view, counts):
        yield f"{text or '(empty)'}  {weight}\n"
    yield f"total  {PQRPoly(counts)}\n"


# one placement record at its depth in the indented dump, after its separator
_JSON_RECORD = '%s\n    {\n      "placement": %s,\n      "weight": %s\n    }'


def _placement_json(head: dict, view: PlacementView) -> Iterator[str]:
    """The indented dump of `head`, the placements as a list of
    {"placement", "weight"} records, and their total, with each record
    framed by `_JSON_RECORD` around the `json.dumps` of its two strings."""
    import json

    dumps = json.dumps
    counts: dict[tuple[int, int, int], int] = {}
    yield dumps(head, indent=2)[:-2] + ',\n  "placements": ['
    sep = ""
    for text, weight in _weighed(view, counts):
        yield _JSON_RECORD % (sep, dumps(text), dumps(weight))
        sep = ","
    yield ("\n  ]" if sep else "]") + f',\n  "total": {dumps(str(PQRPoly(counts)))}\n}}\n'


# ──────────────────────────────────────────────────────────────────────────
# series and sequences
# ──────────────────────────────────────────────────────────────────────────


def cmd_series(args: argparse.Namespace) -> int:
    from fibrook.identities import sf_column_series

    k = args.k
    order = args.order if args.order is not None else max(k, 12)
    if k < 1:
        return _usage_error("the series column k must be >= 1")
    if order < k:
        return _usage_error("order must be >= k")
    if order > args.triangle_max and not args.force:
        return _usage_error(
            f"order {order} exceeds the cap {args.triangle_max}; pass --force to override"
        )
    series = sf_column_series(k, order)
    if args.fmt == "json":
        import json

        payload = {
            "k": k,
            "order": order,
            "coefficients": [str(series.coefficient(n)) for n in range(order + 1)],
        }
        _emit(args, [json.dumps(payload, indent=2), "\n"])
    else:
        _emit(args, [f"t^{n}  {series.coefficient(n)}\n" for n in range(order + 1)])
    return 0


def cmd_sequences(args: argparse.Namespace) -> int:
    from fibrook.identities import SEQUENCE_NAMES, sequence_export

    if args.show_all:
        names = SEQUENCE_NAMES
    elif args.name:
        if args.name not in SEQUENCE_NAMES:
            return _usage_error(
                f"unknown sequence {args.name!r}; known: {', '.join(SEQUENCE_NAMES)}"
            )
        names = (args.name,)
    else:
        return _usage_error("pass a sequence name or --all")
    lines = []
    failed = False
    for name in names:
        report = sequence_export(name)
        values = ",".join(str(v) for v in report.generated)
        prefix = f"{name}: " if args.show_all else ""
        lines.append(f"{prefix}{values} {report.status}")
        if report.warn:
            lines.append(f"{prefix}WARN: {report.warn}")
        if report.status != "MATCH":
            failed = True
    _emit(args, ["\n".join(lines), "\n"])
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
    p_verify.add_argument("name", metavar="suite", help="a verification suite, or all")
    p_verify.add_argument("--N", type=int, help="main size bound of the suite")
    p_verify.add_argument("--n", type=int, help="involution: staircase size")
    p_verify.add_argument("--k", type=int, help="involution: target column")
    p_verify.add_argument("--format", dest="fmt", choices=("json", "summary"), default="json",
                          help="full JSON reports, or one line per report and the totals")
    p_verify.add_argument("--strict", action="store_true", help="treat WARN as failure")
    p_verify.add_argument("--out", help="write the report to this path instead of stdout")

    p_enum = sub.add_parser("enumerate", help="list placements on one board")
    p_enum.add_argument("board", help='board text, like "F(0,1,2)"')
    p_enum.add_argument("--k", type=int, default=0, help="number of tiled columns")
    p_enum.add_argument("--family", choices=tuple(_FAMILIES), default="fib")
    p_enum.add_argument("--model", choices=("file", "rook"), default="file")
    p_enum.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p_enum.add_argument("--out", help="write to this path instead of stdout")
    p_enum.add_argument("--force", action="store_true", help="ignore the column and placement caps")

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
    args.triangle_max, args.enum_max = DEFAULT_TRIANGLE_MAX, DEFAULT_ENUM_MAX
    cap = os.environ.get("FIBROOK_MAX_N")
    if cap is not None:
        try:
            cap_n = int(cap)
        except ValueError:
            cap_n = 0
        if cap_n <= 0:
            return _usage_error(f"FIBROOK_MAX_N must be a positive integer, got {cap!r}")
        args.triangle_max = args.enum_max = cap_n
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OverflowError) as exc:
        return _usage_error(str(exc))
    except OSError as exc:
        if args.out:
            return _usage_error(f"cannot write --out {args.out}: {exc.strerror or exc}")
        _silence_stdout()
        return _usage_error(f"cannot write stdout: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
