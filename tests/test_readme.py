"""The README's examples: the library tour runs as a doctest, and each
command-line transcript is what `fibrook.cli.main` prints."""

import doctest
import shlex
from pathlib import Path

from fibrook.cli import main

README = Path(__file__).parents[1] / "README.md"


def test_library_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert (result.failed, result.attempted) == (0, 9)


def _transcripts() -> dict[str, str]:
    """Each `$ fibrook ARGS` line of the command-line block that is followed
    by output, mapped to that output."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    found: dict[str, str] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("$ fibrook "):
            command = line.removeprefix("$ fibrook ")
        elif line and command is not None:
            found[command] = found.get(command, "") + line + "\n"
    return found


def test_command_line_transcripts_match_the_cli(capsys):
    transcripts = _transcripts()
    assert list(transcripts) == [
        "table Sf 4",
        'enumerate "F(0,1,2)" --k 1 --model rook',
        "sequences A086602",
    ]
    for command, want in transcripts.items():
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == want
