"""The benchmark's workloads: command lists for `python -m fibrook.cli`.

Each workload stresses a different operand shape of the ring kernel
(`PQRPoly.__mul__`), so that a change which speeds one shape and slows
another shows up as a gain on one workload and a loss on another:

    tables      every multiply is W_n x entry, the smaller operand <= 64
                terms; about a third of the time goes to printing 11 MB
    verify      pure checking, with large x large products and heavy merging
                in the inverse check; almost no output
    placements  the ring only sees monomials; board enumeration, placement
                printing and the sign-reversing involution dominate. The
                no-change control for ring-kernel work.

The seed picks the order of the commands inside a workload and the board
of the `placements` enumeration. Seed 0 gives the commands exactly as
listed below.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED_PATH = HERE / "expected.json"

TABLES = (
    ("table", "cf", "19"),
    ("table", "Sf", "24"),
    ("table", "Lf", "16"),
    ("table", "cp", "12"),
)
VERIFY = (
    ("verify", "all", "--N", "5"),
    ("verify", "inverse", "--N", "13"),
)
PLACEMENT_K = 3
# 9 columns, the enumeration cap, and 48,444 file placements of 3 tilings
SEED0_BOARD = (1, 2, 3, 4, 5, 6, 7, 8, 9)
INVOLUTION = ("verify", "involution", "--n", "8", "--k", "5")
# A seeded board's placement count lies within this share of seed 0's. The
# band is narrow because enumeration time and peak RSS grow with the count,
# and runs on different seeds must stay comparable.
COUNT_BAND = 0.01
MAX_HEIGHT = 11

WORKLOADS = ("tables", "verify", "placements")


@dataclass(frozen=True)
class Expect:
    """What a command's stdout must look like; None fields are not checked."""

    nbytes: int | None = None
    sha256: str | None = None
    lines: int | None = None
    last_line: str | None = None


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: Expect

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def enumerate_argv(heights: tuple[int, ...]) -> tuple[str, ...]:
    board = "F(" + ",".join(str(h) for h in heights) + ")"
    return ("enumerate", board, "--k", str(PLACEMENT_K))


def fixed_commands() -> tuple[tuple[str, ...], ...]:
    """Every command whose output does not depend on the seed."""
    return TABLES + VERIFY + (INVOLUTION, enumerate_argv(SEED0_BOARD))


def placement_count(heights: tuple[int, ...]) -> int:
    from fibrook.board import FerrersBoard, file_poly
    from fibrook.tiling import FIBONACCI

    return file_poly(FerrersBoard(heights), FIBONACCI, PLACEMENT_K).eval_at(1, 1, 1)


def pick_board(seed: int) -> tuple[int, ...]:
    """A 9-column Ferrers board whose placement count is near seed 0's."""
    if seed == 0:
        return SEED0_BOARD
    target = placement_count(SEED0_BOARD)
    rng = random.Random(seed)
    while True:
        heights = tuple(sorted(rng.randint(1, MAX_HEIGHT) for _ in SEED0_BOARD))
        if abs(placement_count(heights) - target) <= COUNT_BAND * target:
            return heights


def placement_expect(heights: tuple[int, ...]) -> Expect:
    """One line per placement plus the total line, which must equal the
    recursion-mode file polynomial."""
    from fibrook.board import FerrersBoard, file_poly
    from fibrook.tiling import FIBONACCI

    board = FerrersBoard(heights)
    total = file_poly(board, FIBONACCI, PLACEMENT_K, mode="recursion")
    return Expect(lines=placement_count(heights) + 1, last_line=f"total  {total}")


def placement_board(seed: int) -> tuple[tuple[int, ...], Expect]:
    """The seeded board and its output check, computed in a child process.

    The harness never imports the library: a child started by vfork or fork
    inherits its parent's peak RSS in `ru_maxrss`, so every byte the harness
    holds would show up as command memory.
    """
    done = subprocess.run(
        [sys.executable, __file__, str(seed)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        check=True,
        timeout=60,
    )
    found = json.loads(done.stdout)
    return tuple(found["heights"]), Expect(lines=found["lines"], last_line=found["last_line"])


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def commands(workload: str, seed: int, expected: dict[str, dict]) -> list[Command]:
    """The seeded command list of one workload, each with its output check."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

    def digest(argv: tuple[str, ...]) -> Expect:
        rec = expected[" ".join(argv)]
        return Expect(nbytes=rec["bytes"], sha256=rec["sha256"])

    if workload == "tables":
        cmds = [Command(argv, digest(argv)) for argv in TABLES]
    elif workload == "verify":
        cmds = [Command(argv, digest(argv)) for argv in VERIFY]
    else:
        heights, check = placement_board(seed)
        if heights == SEED0_BOARD:
            rec = digest(enumerate_argv(heights))
            check = Expect(rec.nbytes, rec.sha256, check.lines, check.last_line)
        cmds = [Command(enumerate_argv(heights), check), Command(INVOLUTION, digest(INVOLUTION))]
    if seed != 0:
        random.Random(seed).shuffle(cmds)
    return cmds


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    board = pick_board(int(sys.argv[1]))
    expect = placement_expect(board)
    print(json.dumps({"heights": board, "lines": expect.lines, "last_line": expect.last_line}))
