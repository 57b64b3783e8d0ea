"""Outside-in tracing of one fibrook CLI command, run in its own process.

    python perfbench/tracer.py REPORT_FD ARGV...

installs timing wrappers around the public calls of every layer
(poly -> tiling -> board -> stirling -> identities -> cli), runs
`fibrook.cli.main(ARGV)` with stdout untouched, writes a JSON report to
the inherited file descriptor REPORT_FD and exits with the command's code.
The library itself is not edited: the wrappers replace attributes on the
imported modules and classes.

Spans are aggregated per (name, parent name) rather than stored one per
call: a `verify` run makes about 10^5 ring operations. Each record keeps
calls, total time and self time (total minus the time of child spans), so
the self times of all records add up to the root span's total.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

# the split of poly.mul by the smaller operand's term count
MONO_MAX = 1
SMALL_MAX = 64
MUL_BUCKETS = ("poly.mul.mono", "poly.mul.small", "poly.mul.large")

ROOT_SPAN = "cli.main"

# module -> public functions wrapped as plain spans named "<layer>.<function>"
PLAIN_SPANS = {
    "tiling": ("weight_poly", "enumerate_tilings", "tiling_weight_sum"),
    "board": ("mixed_file_sum", "aug_mixed_sum"),
    "stirling": ("matrix_inverse_check", "verify_basis_expansions", "involution"),
    "identities": (
        "check_series_columns",
        "check_closed_forms",
        "check_sf_p_coefficients",
        "check_q1_specializations",
        "check_cf_columns",
        "check_fibonomials",
        "check_sequences",
        "check_log_concavity",
    ),
}


class Tracer:
    """Span stack plus aggregated records and counters for one process."""

    def __init__(self) -> None:
        self.stack: list[list] = [["", 0.0]]  # [name, child time]
        self.spans: dict[tuple[str, str], list[float]] = {}  # -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.max_terms = 0

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def close(self, name: str, frame: list, parent: list, elapsed: float) -> None:
        parent[1] += elapsed
        rec = self.spans.get((name, parent[0]))
        if rec is None:
            rec = self.spans[(name, parent[0])] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def wrap(self, fn, name, after=None, name_of=None):
        """A wrapper timing `fn` as a span.

        `name_of(args, kwargs)` picks the span name per call when given;
        `after(result, args, span)` records counters once the call returned.
        """
        stack = self.stack
        close = self.close

        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                close(span, frame, parent, elapsed)
            if after is not None:
                after(result, args, span)
            return result

        return traced

    def report(self) -> dict:
        return {
            "spans": [[n, p, c, t, s] for (n, p), (c, t, s) in sorted(self.spans.items())],
            "counts": dict(sorted(self.counts.items())),
            "max_terms": self.max_terms,
        }


def _replace_everywhere(modules, old, new) -> int:
    """Point every module attribute bound to `old` at `new`; return how many."""
    hits = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every fibrook layer in place."""
    import fibrook
    import fibrook.board as board
    import fibrook.cli as cli
    import fibrook.identities as identities
    import fibrook.poly as poly
    import fibrook.stirling as stirling
    import fibrook.tiling as tiling

    modules = (fibrook, poly, tiling, board, stirling, identities, cli)
    layers = {"tiling": tiling, "board": board, "stirling": stirling, "identities": identities}

    def patch(module, attr, new) -> None:
        old = getattr(module, attr)
        if _replace_everywhere(modules, old, new) == 0:
            raise RuntimeError(f"{module.__name__}.{attr} not found")

    # ring operations; the reflected methods are separate class attributes
    PQRPoly = poly.PQRPoly

    def size(value) -> int:
        if isinstance(value, PQRPoly):
            return len(value)
        return 1 if value else 0

    def mul_bucket(args, kwargs) -> str:
        smaller = min(size(args[0]), size(args[1]))
        mono, small, large = MUL_BUCKETS
        if smaller <= MONO_MAX:
            return mono
        return small if smaller <= SMALL_MAX else large

    def after_mul(result, args, span) -> None:
        if result is NotImplemented:
            return
        tracer.count(span + ".term_pairs", size(args[0]) * size(args[1]))
        tracer.count(span + ".out_terms", len(result))
        tracer.max_terms = max(tracer.max_terms, len(result))

    def after_add(result, args, span) -> None:
        if result is not NotImplemented:
            tracer.max_terms = max(tracer.max_terms, len(result))

    def after_str(result, args, span) -> None:
        tracer.count("poly.str.chars", len(result))

    for attr in ("__mul__", "__rmul__"):
        setattr(PQRPoly, attr, tracer.wrap(getattr(PQRPoly, attr), "poly.mul",
                                           after=after_mul, name_of=mul_bucket))
    for attr in ("__add__", "__radd__"):
        setattr(PQRPoly, attr, tracer.wrap(getattr(PQRPoly, attr), "poly.add", after=after_add))
    PQRPoly.__str__ = tracer.wrap(PQRPoly.__str__, "poly.str", after=after_str)

    for layer, names in PLAIN_SPANS.items():
        module = layers[layer]
        for attr in names:
            patch(module, attr, tracer.wrap(getattr(module, attr), f"{layer}.{attr}"))

    def mode_name(base):
        def name_of(args, kwargs) -> str:
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "recursion")
            return f"{base}.{mode}"
        return name_of

    for attr in ("file_poly", "rook_poly"):
        patch(board, attr, tracer.wrap(getattr(board, attr), f"board.{attr}",
                                       name_of=mode_name(f"board.{attr}")))

    def after_enum(result, args, span) -> None:
        tracer.count(span + ".items", len(result))

    for attr in ("enumerate_file_placements", "enumerate_rook_placements"):
        patch(board, attr, tracer.wrap(getattr(board, attr), f"board.{attr}", after=after_enum))

    for cls in (board.FilePlacement, board.RookPlacement):
        cls.weight = tracer.wrap(cls.weight, "board.placement.weight")
        cls.__str__ = tracer.wrap(cls.__str__, "board.placement.str")

    def after_triangle(result, args, span) -> None:
        tracer.count("stirling.build_triangle.terms",
                     sum(len(entry) for row in result.rows for entry in row))

    patch(stirling, "build_triangle",
          tracer.wrap(stirling.build_triangle, "stirling.build_triangle", after=after_triangle))

    def after_involution_verify(result, args, span) -> None:
        tracer.count("stirling.involution_verify.domain_size", result["domain_size"])

    patch(stirling, "involution_verify",
          tracer.wrap(stirling.involution_verify, "stirling.involution_verify",
                      after=after_involution_verify))

    # the dispatch table holds its own references to the handlers
    for command, handler in list(cli._COMMANDS.items()):
        wrapped = tracer.wrap(handler, f"cli.cmd_{command}")
        patch(cli, handler.__name__, wrapped)
        cli._COMMANDS[command] = wrapped


def main(args: list[str]) -> int:
    report_fd = int(args[0])
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    install(tracer)
    import fibrook.cli as cli

    try:
        code = tracer.wrap(cli.main, ROOT_SPAN)(args[1:])
    finally:
        sys.stdout.flush()
    with os.fdopen(report_fd, "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
