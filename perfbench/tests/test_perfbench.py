"""Smoke-sized tests of the benchmark harness itself.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = ("table", "Sf", "3")


def tiny_expect() -> workloads.Expect:
    outcome = run.run_command(workloads.Command(TINY, workloads.Expect()), trace=False)
    assert not outcome.problems
    return workloads.Expect(nbytes=outcome.out_bytes, sha256=outcome.sha256)


def test_recorded_digest_passes_and_a_corrupted_one_fails():
    good = tiny_expect()
    assert run.run_command(workloads.Command(TINY, good), trace=False).problems == []
    bad = workloads.Expect(nbytes=good.nbytes, sha256="0" * 64)
    problems = run.run_command(workloads.Command(TINY, bad), trace=False).problems
    assert problems == ["sha256 differs from the recorded output"]


def test_unexpected_exit_code_fails():
    cmd = workloads.Command(("table", "Sf", "99"), workloads.Expect())
    assert run.run_command(cmd, trace=False).problems == ["exit code 2"]


def test_placement_check_counts_lines_and_compares_the_total():
    heights = (1, 2, 3, 4)
    argv = workloads.enumerate_argv(heights)
    expect = workloads.placement_expect(heights)
    assert run.run_command(workloads.Command(argv, expect), trace=False).problems == []
    off_by_one = workloads.Expect(lines=expect.lines + 1, last_line=expect.last_line)
    assert run.run_command(workloads.Command(argv, off_by_one), trace=False).problems
    wrong_total = workloads.Expect(lines=expect.lines, last_line="total  q")
    assert run.run_command(workloads.Command(argv, wrong_total), trace=False).problems


def test_self_times_of_traced_spans_sum_to_the_root_total():
    cmd = workloads.Command(("verify", "inverse", "--N", "5"), workloads.Expect())
    outcome = run.run_command(cmd, trace=True)
    assert outcome.problems == []
    spans = outcome.report["spans"]
    roots = [s for s in spans if s[1] == ""]
    assert [s[0] for s in roots] == [tracer.ROOT_SPAN]
    root_total = roots[0][3]
    assert sum(s[4] for s in spans) == pytest.approx(root_total, rel=1e-9)
    names = {s[0] for s in spans}
    # reflected and by-name references are wrapped too
    assert {"poly.mul.small", "poly.add", "stirling.build_triangle", "cli.cmd_verify"} <= names
    assert "stirling.matrix_inverse_check" in names


def test_traced_enumeration_counts_items_and_placement_calls():
    heights = (1, 2, 3, 4)
    cmd = workloads.Command(workloads.enumerate_argv(heights), workloads.placement_expect(heights))
    outcome = run.run_command(cmd, trace=True)
    assert outcome.problems == []
    metrics = run.layer_metrics([outcome.report], outcome.out_bytes)
    assert metrics["board.enumerate_file_placements.items"] == workloads.placement_expect(heights).lines - 1
    assert metrics["board.placement.str.self_s"] > 0
    assert metrics["cli.cmd_enumerate.self_s"] > 0
    assert metrics["cli.out_bytes"] == outcome.out_bytes


def test_seed_zero_gives_the_named_commands():
    expected = workloads.load_expected()
    assert [c.argv for c in workloads.commands("tables", 0, expected)] == list(workloads.TABLES)
    assert [c.argv for c in workloads.commands("verify", 0, expected)] == list(workloads.VERIFY)
    placements = workloads.commands("placements", 0, expected)
    assert [c.argv for c in placements] == [
        ("enumerate", "F(1,2,3,4,5,6,7,8,9)", "--k", "3"),
        workloads.INVOLUTION,
    ]
    assert placements[0].expect.sha256 == expected["enumerate F(1,2,3,4,5,6,7,8,9) --k 3"]["sha256"]
    assert set(expected) == {" ".join(argv) for argv in workloads.fixed_commands()}


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_seed_picks_a_board_inside_the_count_band(seed):
    heights = workloads.pick_board(seed)
    assert heights == workloads.pick_board(seed)
    assert len(heights) == len(workloads.SEED0_BOARD)
    assert list(heights) == sorted(heights)
    target = workloads.placement_count(workloads.SEED0_BOARD)
    assert abs(workloads.placement_count(heights) - target) <= workloads.COUNT_BAND * target


def test_the_harness_process_never_imports_the_library():
    # a child inherits its parent's peak RSS, which would inflate peak_rss_mb
    probe = (
        "import sys, workloads; "
        "workloads.commands('placements', 4, workloads.load_expected()); "
        "print('fibrook' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=HERE, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_one_command_prints_every_metric_and_exits_nonzero_on_a_failed_check(monkeypatch, capsys):
    good = tiny_expect()
    for expect, code in ((good, 0), (workloads.Expect(sha256="0" * 64), 1)):
        monkeypatch.setattr(
            run.workloads, "commands", lambda *_: [workloads.Command(TINY, expect)]
        )
        argv = ["--workload", "tables", "--seed", "0", "--seconds", "0", "--trace", "0"]
        assert run.main(argv) == code
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is (code == 0)
        assert result["failed"] == (0 if code == 0 else result["attempted"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
