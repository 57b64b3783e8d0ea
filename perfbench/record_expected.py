"""Record the stdout byte count and sha256 of every fixed benchmark command.

    python3 perfbench/record_expected.py

writes perfbench/expected.json from the source tree under `src/`. The
recorded file is the output-correctness gate of perfbench/run.py, and the
library promises byte-identical output, so re-record only for a change that
alters the output on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    expected = {}
    for argv in workloads.fixed_commands():
        cmd = workloads.Command(argv, workloads.Expect())
        outcome = run.run_command(cmd, trace=False)
        if outcome.problems:
            print(f"{cmd.text}: {'; '.join(outcome.problems)}", file=sys.stderr)
            return 1
        expected[cmd.text] = {"bytes": outcome.out_bytes, "sha256": outcome.sha256}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
