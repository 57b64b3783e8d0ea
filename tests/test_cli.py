"""Exit codes, output shapes, and byte determinism of the command line."""

import ast
import errno
import itertools
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fibrook.board as board
import fibrook.cli as cli
import fibrook.identities as identities
import fibrook.stirling as stirling
from fibrook.cli import main
from fibrook.tiling import fibonacci_number


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a fresh interpreter's environment, with this source tree on its path
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def cli_process(*argv: str, **kwargs) -> subprocess.Popen:
    """`python -m fibrook.cli ARGV` in a fresh interpreter."""
    return subprocess.Popen([sys.executable, "-m", "fibrook.cli", *argv], env=SRC_ENV, **kwargs)


# table -------------------------------------------------------------------------


def test_table_json_entry(capsys):
    code, out, _ = run(capsys, "table", "Sf", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Sf"
    assert payload["entries"][5][1] == "q^4"


def test_table_row_zero(capsys):
    code, out, _ = run(capsys, "table", "cf", "0")
    assert code == 0
    assert out == "cf triangle, rows 0..0\nn=0: 1\n"


def test_table_text_contains_entry(capsys):
    code, out, _ = run(capsys, "table", "Sp", "4")
    assert code == 0
    assert "n=3: 0 | q^2 | q + q^2 | 1" in out


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "Lf", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,poly"
    assert "2,1,2*q" in lines


def test_table_unknown_kind_is_usage_error(capsys):
    code, _, _ = run(capsys, "table", "zz", "3")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (("table", "Sf", "-1"), "table needs a row count N >= 0"),
    (("enumerate", "F(1,2)", "--k", "-1"), "k must be >= 0"),
])
def test_negative_sizes_are_usage_errors(capsys, argv, message):
    # argparse takes these as ints; the commands refuse them before any output
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_table_size_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "table", "Sf", "41")
    assert code == 2
    assert "--force" in err
    monkeypatch.setenv("FIBROOK_MAX_N", "3")
    assert run(capsys, "table", "Sf", "5")[0] == 2
    assert run(capsys, "table", "Sf", "5", "--force")[0] == 0
    monkeypatch.setenv("FIBROOK_MAX_N", "6")
    assert run(capsys, "table", "Sf", "5")[0] == 0
    for bad in ("many", "0", "-1"):
        monkeypatch.setenv("FIBROOK_MAX_N", bad)
        code, _, err = run(capsys, "table", "Sf", "5")
        assert code == 2
        assert "FIBROOK_MAX_N must be a positive integer" in err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_table_past_the_exponent_limit_is_usage_error(capsys, monkeypatch, tmp_path, fmt, to_file):
    # cf[363][1] has total degree 65,703 >= 2**16; the integer pass refuses
    # the row before any output is drawn, so neither the header nor an
    # --out file is started. Each chunk is written as it is drawn, so a
    # header drawn before the refusal would show.
    monkeypatch.setattr(cli, "_WRITE_SIZE", 1)
    out_args = ("--out", str(tmp_path / "cf.txt")) if to_file else ()
    code, out, err = run(capsys, "table", "cf", "363", "--force", "--format", fmt, *out_args)
    assert code == 2
    assert out == ""
    assert err == "error: total degree 65703 reaches the packed-exponent limit 2**16\n"
    assert list(tmp_path.iterdir()) == []


# enumerate ----------------------------------------------------------------------


def test_enumerate_rook_staircase(capsys):
    code, out, _ = run(capsys, "enumerate", "F(0,1,2)", "--k", "1", "--model", "rook")
    assert code == 0
    assert out == "2:1  q\n3:1,1  q^2\ntotal  q + q^2\n"


def test_enumerate_empty_placement(capsys):
    code, out, _ = run(capsys, "enumerate", "F(2)", "--k", "0")
    assert code == 0
    assert out == "(empty)  1\ntotal  1\n"


def test_enumerate_file_weights(capsys):
    code, out, _ = run(
        capsys, "enumerate", "F(2,3,4,4,5)", "--k", "3", "--model", "file",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["placements"]) == 184
    assert any(p["weight"] == "p^2*q^7" for p in payload["placements"])


def test_enumerate_and_the_involution_build_no_placement_object(capsys, monkeypatch):
    # both read the views' heads or entries; building a placement on the
    # way, by iterating a view or directly, fails
    argvs = [
        ["enumerate", "F(1,2,3,4,5,6,7)", "--k", "4", "--model", "rook"],
        ["enumerate", "F(1,2,3,4,5,6,7)", "--k", "4", "--model", "rook", "--format", "json"],
        ["enumerate", "F(3,1,4,2,5)", "--k", "3"],
    ]
    outputs = [run(capsys, *argv) for argv in argvs]
    report = stirling.involution_verify(6, 2)

    def no_placement(*args, **kwargs):
        raise AssertionError("a placement object was built")

    monkeypatch.setattr(board.Placement, "__init__", no_placement)
    assert [run(capsys, *argv) for argv in argvs] == outputs
    assert all(code == 0 for code, _, _ in outputs)
    assert stirling.involution_verify(6, 2) == report
    assert report["status"] == "PASS"


def test_enumerate_usage_errors(capsys):
    assert run(capsys, "enumerate", "F(3,1,2)", "--model", "rook", "--k", "1")[0] == 2
    assert run(capsys, "enumerate", "F(1,x)", "--k", "1")[0] == 2
    assert run(capsys, "enumerate", "F(1,1,1,1,1,1,1,1,1,1)", "--k", "1")[0] == 2
    assert run(
        capsys, "enumerate", "F(1,1,1,1,1,1,1,1,1,1)", "--k", "1", "--force"
    )[0] == 0


def test_enumerate_refuses_more_placements_than_the_cap(capsys):
    # one column clears the column cap; its F_40 tilings do not clear the
    # placement cap, which is counted without listing them
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "F(40)", "--k", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "F(40) has 102334155 file placements with k=1" in err
    assert "pass --force to override" in err
    assert cli.PLACEMENT_MAX >= 202_344


@pytest.mark.parametrize(
    "height,shown",
    [
        (900, str(fibonacci_number(900))),
        (5000, str(fibonacci_number(5000))),
        # too many digits for str(int): counting stops at a stated size
        (30000, "more than 2**14000"),
        (1_000_000, "more than 2**14000"),
        (10**12, "more than 2**14000"),
    ],
)
def test_enumerate_refuses_a_tall_column_by_its_count(capsys, height, shown):
    # the count is taken on integers, bottom up, and stops at its cap, so
    # a column far taller than the interpreter's stack is counted at once
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", f"F({height})", "--k", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"F({height}) has {shown} file placements with k=1" in err


def test_enumerate_more_tilings_than_columns_lists_none(capsys):
    # no list or index array k long is built for a k past the column count
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "F(3)", "--k", str(10**12))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "total  0\n", "")


def test_enumerate_force_lifts_the_placement_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PLACEMENT_MAX", 3)
    code, _, err = run(capsys, "enumerate", "F(0,1,2)", "--k", "1", "--model", "rook")
    assert (code, err) == (0, "")  # exactly two placements
    code, _, err = run(capsys, "enumerate", "F(1,2,3)", "--k", "1")
    assert code == 2 and "has 4 file placements" in err
    code, out, _ = run(capsys, "enumerate", "F(1,2,3)", "--k", "1", "--force")
    assert code == 0 and out.endswith("total  q + p*q + q^2 + q^3\n")


# series and sequences --------------------------------------------------------------


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "2", "--order", "5")
    assert code == 0
    assert "t^3  q + q^2" in out.splitlines()


def test_series_usage(capsys):
    assert run(capsys, "series", "0")[0] == 2
    assert run(capsys, "series", "3", "--order", "1")[0] == 2


def test_sequences_single(capsys):
    code, out, _ = run(capsys, "sequences", "A086602")
    assert code == 0
    assert out == "2,12,39,95,195,357,602,954 MATCH\n"


def test_sequences_all(capsys):
    code, out, _ = run(capsys, "sequences", "--all")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("A006002: ") and line.endswith("MATCH") for line in lines)
    assert any(line.startswith("cfn1p3: 9,75,331") for line in lines)
    assert any("WARN:" in line for line in lines)


def test_sequences_usage(capsys):
    assert run(capsys, "sequences", "nope")[0] == 2
    assert run(capsys, "sequences")[0] == 2


def test_sequences_mismatch_exits_one(capsys, monkeypatch):
    real = identities.sequence_export("A086602")
    broken = type(real)(real.values, real.generated, "MISMATCH", None)
    monkeypatch.setattr(identities, "sequence_export", lambda name: broken)
    code, out, _ = run(capsys, "sequences", "A086602")
    assert code == 1
    assert "MISMATCH" in out


# verify -------------------------------------------------------------------------------


def test_verify_identities_warn_and_strict(capsys):
    code, out, _ = run(capsys, "verify", "identities")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "WARN"
    assert {r["status"] for r in payload["reports"]} == {"PASS", "WARN"}
    assert run(capsys, "verify", "identities", "--strict")[0] == 1


def test_verify_involution_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "involution", "--n", "4", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    assert payload["reports"][0]["range"] == "n=4, k=2"


def test_verify_involution_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(stirling, "_involution_step", lambda n, k, pair: pair)
    code, out, _ = run(capsys, "verify", "involution", "--n", "4", "--k", "2")
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert report["status"] == "FAIL"
    assert len(report["counterexamples"]) == 16


def test_verify_involution_needs_both_bounds(capsys):
    code, _, err = run(capsys, "verify", "involution", "--n", "4")
    assert code == 2
    assert "--k" in err


@pytest.mark.parametrize("argv", [
    ("all", "--n", "5", "--k", "7"),
    ("all", "--n", "5", "--k", "0"),
    ("involution", "--n", "5", "--k", "5"),
])
def test_verify_refuses_a_malformed_involution_domain_before_any_suite(capsys, monkeypatch, argv):
    ran = []
    monkeypatch.setattr(identities, "run_suite", lambda *args: ran.append(args) or [])
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, ran) == (2, "", [])
    assert err == "error: the involution is defined for 1 <= k < n\n"


def test_verify_products_passes(capsys):
    code, out, _ = run(capsys, "verify", "products", "--N", "3")
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_verify_inverse_at_n_zero_sizes_every_check(capsys):
    code, out, _ = run(capsys, "verify", "inverse", "--N", "0")
    assert code == 0
    ranges = [r["range"] for r in json.loads(out)["reports"]]
    assert ranges == [
        "family=fib, n,k<=0",
        "family=trib, n,k<=0",
        "family=fib, n<=0",
        "family=trib, n<=0",
    ]


@pytest.mark.parametrize("suite", identities.SUITES)
def test_verify_rejects_a_negative_n(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--N", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: N must be >= 0\n"


@pytest.mark.parametrize("N", ["0", "1"])
def test_verify_that_checks_nothing_is_a_usage_error(capsys, N):
    code, out, err = run(capsys, "verify", "involution", "--N", N)
    assert code == 2
    assert out == ""
    assert "nothing to check" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("involution", "--n", "11", "--k", "1"),
        ("involution", "--N", "12"),
        ("all", "--N", "12"),
        ("all", "--n", "10", "--k", "1"),
    ],
)
def test_verify_refuses_an_involution_over_the_cap(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "exceeds the enumeration cap 9" in err


@pytest.mark.parametrize(
    "argv,refusal",
    [
        (("recursion-vs-enumeration", "--N", "10"),
         "recursion-vs-enumeration n=10 exceeds the enumeration cap 9"),
        (("products", "--N", "10"), "products n=10 exceeds the enumeration cap 9"),
        (("inverse", "--N", "41"), "inverse n=41 exceeds the triangle cap 40"),
        (("identities", "--N", "41"), "identities n=41 exceeds the triangle cap 40"),
        # the involution's --n is within its cap, the other suites' --N is not
        (("all", "--N", "41", "--n", "5", "--k", "2"),
         "recursion-vs-enumeration n=41 exceeds the enumeration cap 9"),
    ],
)
def test_verify_refuses_a_suite_over_its_cap(capsys, monkeypatch, argv, refusal):
    # inverse --N 41, if run, holds gigabytes within a minute, so the time
    # limit is the assertion that nothing ran
    monkeypatch.delenv("FIBROOK_MAX_N", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: {refusal}; set FIBROOK_MAX_N to change the cap\n"


def test_suite_caps_follow_fibrook_max_n(capsys, monkeypatch):
    monkeypatch.setenv("FIBROOK_MAX_N", "5")
    code, out, err = run(capsys, "verify", "inverse")
    assert (code, out) == (2, "")
    assert "inverse n=12 exceeds the triangle cap 5" in err
    assert run(capsys, "verify", "inverse", "--N", "5")[0] == 0


def test_involution_cap_follows_fibrook_max_n(capsys, monkeypatch):
    monkeypatch.setenv("FIBROOK_MAX_N", "3")
    code, _, err = run(capsys, "verify", "involution", "--n", "4", "--k", "2")
    assert code == 2
    assert "involution n=4 exceeds the enumeration cap 3" in err
    assert run(capsys, "verify", "involution", "--N", "3")[0] == 0


@pytest.mark.parametrize(
    "env,message",
    [
        ({}, "error: involution n=12 exceeds the enumeration cap 9"),
        ({"FIBROOK_MAX_N": "0"}, "error: FIBROOK_MAX_N must be a positive integer"),
    ],
)
def test_verify_summary_keeps_the_verify_caps(capsys, monkeypatch, env, message):
    # an uncapped --N 12 would enumerate involution domains for many minutes
    # (4.7 GB at n = 11), so the time limit is the assertion that nothing ran
    monkeypatch.delenv("FIBROOK_MAX_N", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "all", "--format", "summary", "--N", "12")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert message in err


def _report(check: str, status: str, bad: int = 0, warnings: int | None = None) -> dict:
    report = {"check": check, "range": f"{check} range", "status": status,
              "counterexamples": [{"i": i} for i in range(bad)]}
    if warnings is not None:
        report["warnings"] = [{"i": i} for i in range(warnings)]
    return report


@pytest.mark.parametrize(
    "reports,strict,code,lines",
    [
        (
            [_report("products", "PASS"), _report("sequences", "WARN", warnings=1)],
            False,
            0,
            ["products   PASS  products range",
             "sequences  WARN  sequences range  (1 warnings)",
             "",
             "2 reports: 0 FAIL, 1 WARN"],
        ),
        (
            [_report("products", "PASS"), _report("sequences", "WARN", warnings=2)],
            True,
            1,
            ["products   PASS  products range",
             "sequences  WARN  sequences range  (2 warnings)",
             "",
             "2 reports: 0 FAIL, 1 WARN"],
        ),
        (
            [_report("closed-forms", "FAIL", bad=3, warnings=1), _report("x", "PASS")],
            False,
            1,
            ["closed-forms  FAIL  closed-forms range  (3 counterexamples)",
             "x             PASS  x range",
             "",
             "2 reports: 1 FAIL, 0 WARN"],
        ),
    ],
)
def test_verify_summary_lines_and_exit_codes(capsys, monkeypatch, reports, strict, code, lines):
    monkeypatch.setattr(identities, "run_suite", lambda name, N, n, k: reports)
    argv = ["verify", "products", "--format", "summary"] + (["--strict"] if strict else [])
    got_code, out, err = run(capsys, *argv)
    assert (got_code, err) == (code, "")
    assert out == "\n".join(lines) + "\n"


def test_verify_summary_of_a_real_suite(capsys):
    code, out, _ = run(capsys, "verify", "products", "--N", "2", "--format", "summary")
    assert code == 0
    assert out == (
        "products  PASS  boards n<=4 heights<=4, staircases n<=2, x<=3\n"
        "\n"
        "1 reports: 0 FAIL, 0 WARN\n"
    )


@pytest.mark.parametrize("suite", [s for s in identities.SUITES if s not in ("involution", "all")])
@pytest.mark.parametrize("flags", [("--n", "5"), ("--k", "2")])
def test_verify_n_and_k_outside_the_involution_are_usage_errors(capsys, suite, flags):
    code, out, err = run(capsys, "verify", suite, *flags)
    assert code == 2
    assert out == ""
    assert f"suite {suite} takes neither" in err


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "everything")[0] == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    bad = {"check": "sequences", "range": "", "status": "FAIL",
           "counterexamples": [{"value": "wrong"}]}
    monkeypatch.setattr(identities, "check_sequences", lambda: bad)
    code, out, _ = run(capsys, "verify", "identities")
    assert code == 1
    assert json.loads(out)["status"] == "FAIL"


# plumbing ------------------------------------------------------------------------------


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@given(st.dictionaries(st.text(), _JSON_VALUES, max_size=4))
def test_json_chunks_are_the_indented_dump(document):
    text = json.dumps(document, indent=2) + "\n"
    assert "".join(cli._json_chunks(document.items())) == text
    # a list drawn from an iterator is written the same way
    lazy = ((name, iter(v) if isinstance(v, list) else v) for name, v in document.items())
    assert "".join(cli._json_chunks(lazy)) == text


def test_no_command_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_output_is_byte_stable(capsys):
    first = run(capsys, "verify", "inverse", "--N", "4")
    second = run(capsys, "verify", "inverse", "--N", "4")
    assert first == second
    assert first[0] == 0


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "tri.csv"
    code, out, _ = run(capsys, "table", "cf", "3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.splitlines()[0] == "n,k,poly"


def test_out_is_atomic_when_a_write_fails(tmp_path, capsys, monkeypatch):
    target = tmp_path / "tri.txt"
    target.write_text("previous run\n", encoding="utf-8")

    class DiskFull:
        """A file handle that writes half of its text, then runs out of space."""

        def __init__(self, *args, **kwargs):
            self.handle = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", DiskFull, raising=False)
    code, out, err = run(capsys, "table", "cf", "5", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: No space left on device\n"
    assert target.read_text(encoding="utf-8") == "previous run\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize(
    "argv, where, reason",
    [
        (("table", "Sf", "3"), "missing/x.txt", "No such file or directory"),
        (("verify", "inverse", "--N", "4"), "missing/r.json", "No such file or directory"),
        (("table", "Sf", "3"), "reports", "Is a directory"),
    ],
)
def test_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys, argv, where, reason):
    (tmp_path / "reports").mkdir()
    target = tmp_path / where
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "reports"]
    assert list((tmp_path / "reports").iterdir()) == []


def test_out_is_opened_before_any_check_runs(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(identities, "run_suite", lambda *args: ran.append(args) or [])
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "verify", "all", "--out", str(target))
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: cannot write --out {target}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [("table", "Sf", "3"), ("table", "Sf", "16")])
def test_full_stdout_is_a_usage_error_without_a_traceback(argv):
    # Sf 3 fits in the stdout buffer and fails only when it is flushed
    with open("/dev/full", "w") as full:
        child = cli_process(*argv, stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (2, "error: cannot write stdout: No space left on device\n")


def test_closed_pipe_on_stdout_is_a_usage_error_without_a_traceback():
    # the table is over twice the pipe's 64 KiB, so writes go on after the close
    with cli_process("table", "Sf", "16", stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(20)) == 20
        child.stdout.close()
        err = child.stderr.read().decode()
    assert (child.returncode, err) == (2, "error: cannot write stdout: Broken pipe\n")


@pytest.mark.parametrize("argv", [("sequences", "--all"), ("table", "Sf", "3")])
def test_closed_stdout_is_a_usage_error_without_a_traceback(argv):
    # with descriptor 1 closed when the interpreter starts, sys.stdout is None
    done = subprocess.run(["sh", "-c", 'exec "$0" -m fibrook.cli "$@" >&-', sys.executable, *argv],
                          env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (2, "error: cannot write stdout: Bad file descriptor\n")


@pytest.mark.parametrize("argv", [
    ("table", "Sf", "3", "--format", "json"),
    ("enumerate", "F(1,2,3)", "--k", "2", "--format", "json"),
])
def test_table_and_enumerate_do_not_import_the_identities(argv):
    # nor does `table` import fibrook.board: with no bytecode cache, each
    # process would compile it
    board = argv[0] == "enumerate"
    probe = (
        "import sys; from fibrook.cli import main; "
        f"code = main({list(argv)!r} + ['--out', {os.devnull!r}]); "
        "print(code, 'fibrook.identities' in sys.modules, 'fibrook.board' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == f"0 False {board}\n"


@pytest.mark.parametrize("argv", [
    (),
    ("table", "Sf", "3"),
    ("enumerate", "F(1,2,3)", "--k", "2"),
    ("verify", "all", "--N", "3"),
])
def test_startup_and_commands_do_not_import_dataclasses(argv):
    # every command compiles the package in a fresh interpreter; `dataclasses`
    # would import `inspect` (and `ast`, `dis`, `tokenize`) on each start
    run_it = f"main({list(argv)!r} + ['--out', {os.devnull!r}])" if argv else "0"
    probe = (
        f"import sys; from fibrook.cli import main; code = {run_it}; "
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "0 []\n"


def test_modules_import_no_underscored_name_from_each_other():
    # an underscored name is private to its module; one another module needs is public
    private = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fibrook"):
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_out_to_a_device_writes_in_place(capsys):
    code, out, _ = run(capsys, "table", "cf", "3", "--out", os.devnull)
    assert code == 0
    assert out == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_through_a_symlink_keeps_the_link_and_mode(tmp_path, capsys):
    target = tmp_path / "tri.txt"
    target.write_text("previous run\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "latest.txt"
    link.symlink_to(target)
    assert run(capsys, "table", "cf", "3", "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8").startswith("cf triangle")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_out_writes_through_a_hard_link(tmp_path, capsys):
    target = tmp_path / "tri.txt"
    target.write_text("previous run\n", encoding="utf-8")
    twin = tmp_path / "twin.txt"
    os.link(target, twin)
    assert run(capsys, "table", "cf", "3", "--out", str(target))[0] == 0
    assert os.path.samefile(target, twin)
    assert twin.read_text(encoding="utf-8") == target.read_text(encoding="utf-8")


def test_out_in_a_read_only_directory_writes_in_place(tmp_path, capsys, monkeypatch):
    target = tmp_path / "tri.txt"
    target.write_text("previous run\n", encoding="utf-8")

    def no_new_files(file, mode="r", **kwargs):
        if "x" in mode:
            raise PermissionError(errno.EACCES, "Permission denied", file)
        return open(file, mode, **kwargs)

    monkeypatch.setattr(cli, "open", no_new_files, raising=False)
    assert run(capsys, "table", "cf", "3", "--out", str(target))[0] == 0
    assert target.read_text(encoding="utf-8").startswith("cf triangle")
    assert list(tmp_path.iterdir()) == [target]


# streaming ---------------------------------------------------------------------


class _Writes:
    """A stdout that keeps every write apart."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "Sf", "16"),
        ("table", "Sf", "16", "--format", "csv"),
        ("table", "Sf", "16", "--format", "json"),
        ("enumerate", "F(1,2,3,4,5,6,7,8)", "--k", "3"),
        ("enumerate", "F(1,2,3,4,5,6,7,8)", "--k", "3", "--format", "json"),
    ],
)
def test_table_and_enumerate_reach_stdout_in_more_than_one_write(capsys, monkeypatch, argv):
    code, whole, _ = run(capsys, *argv)
    assert len(whole) > 2 * cli._WRITE_SIZE
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(list(argv)) == code == 0
    assert len(writes.chunks) > 1
    assert "".join(writes.chunks) == whole


def _fail_after_rows(monkeypatch, count, before_failing=lambda: None):
    recur = stirling._recur_images

    def rows_then_fail(*args):
        yield from itertools.islice(recur(*args), count)
        before_failing()
        raise RuntimeError("row source failed")

    monkeypatch.setattr(stirling, "_recur_images", rows_then_fail)


def test_table_writes_its_rows_before_drawing_the_rest(capsys, monkeypatch):
    whole = run(capsys, "table", "Sf", "16")[1]
    _fail_after_rows(monkeypatch, 16)
    with pytest.raises(RuntimeError, match="row source failed"):
        main(["table", "Sf", "16"])
    out = capsys.readouterr().out
    assert out and whole.startswith(out)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_out_keeps_the_previous_file_when_the_rows_fail(tmp_path, monkeypatch, fmt):
    target = tmp_path / "tri.txt"
    target.write_bytes(b"previous run\n")
    # the rows go to the temp file beside the target as they are drawn
    seen: list[list[str]] = []
    _fail_after_rows(monkeypatch, 1, lambda: seen.append(sorted(os.listdir(tmp_path))))
    with pytest.raises(RuntimeError, match="row source failed"):
        main(["table", "cf", "5", "--format", fmt, "--out", str(target)])
    assert seen == [["tri.txt", f"tri.txt.{os.getpid()}.tmp"]]
    assert target.read_bytes() == b"previous run\n"
    assert list(tmp_path.iterdir()) == [target]
