"""fibrook benchmark: whole CLI runs, closed loop, one fresh process per command.

    python3 perfbench/run.py --workload {tables,verify,placements}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is the source tree under
`src/`. One client runs the workload's commands one after another, each in
a fresh `python -m fibrook.cli` process, so the library's lru caches start
cold as they do for every CLI user. Passes over the command list repeat
until S seconds have gone by (at least MIN_PASSES of them). Each child's
stdout goes to a counting and hashing sink and is checked against the
expected output; a wrong byte, an unexpected exit code or a timeout counts
the command as failed.

--trace 0 prints the end-to-end metrics, as medians over the passes:
  wall_s       wall seconds for the whole command list
  cpu_s        user + system seconds of the command processes (from wait4)
  peak_rss_mb  the largest peak RSS of any one command process (from wait4)
  setup_s      a fresh interpreter's `import fibrook.cli`
--trace 1 alternates untraced passes with traced ones, where each command
runs under perfbench/tracer.py, and prints the per-layer metrics.

A fixed reference program runs before every command and after the last
one. Times are scaled by REFERENCE_SECONDS over the mean reference time of
their pass, so they read in seconds at a fixed host speed and the host's
drift cancels out; the line printed before the result holds the samples
as measured.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every command
passed its output check, 1 when one failed and 2 when the checkout holds
no fibrook source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from tracer import MUL_BUCKETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

MIN_PASSES = 3
SETUP_SAMPLES = 3  # import timings before each untraced pass
COMMAND_TIMEOUT = 60.0
TAIL_BYTES = 1 << 16
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import fibrook.cli; "
    "print(time.perf_counter() - t)"
)

# The reference program: fixed pure-Python work shaped like the library's
# (a sparse polynomial product on tuple-keyed dicts, then printing), run in
# a fresh isolated interpreter that cannot see the source tree. Its wall time
# tracks how fast the host runs Python at the moment, which on a shared
# virtual machine drifts by tens of percent within a minute, in CPU time as
# much as in wall time. Times are reported in seconds at the speed where it
# takes REFERENCE_SECONDS.
REFERENCE = """
a = {(i, j, 0): i * 7919 + j * 31 + 1 for i in range(30) for j in range(10)}
b = {(i, j, k): i * 104729 + j * 17 + k + 3 for i in range(25) for j in range(10) for k in range(4)}
out = {}
for (aq, ap, ar), ac in a.items():
    for (bq, bp, br), bc in b.items():
        key = (aq + bq, ap + bp, ar + br)
        new = out.get(key, 0) + ac * bc
        if new:
            out[key] = new
        else:
            del out[key]
text = " + ".join(f"{c}*q^{e[0]}*p^{e[1]}*r^{e[2]}" for e, c in sorted(out.items()))
"""
REFERENCE_SECONDS = 0.3

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

_SPANS = {
    "poly.mul": ("calls", "self_s", "term_pairs", "out_terms"),
    "poly.mul.mono": ("calls", "self_s", "term_pairs", "out_terms"),
    "poly.mul.small": ("calls", "self_s", "term_pairs", "out_terms"),
    "poly.mul.large": ("calls", "self_s", "term_pairs", "out_terms"),
    "poly.add": ("calls", "self_s"),
    "poly.str": ("calls", "self_s", "chars"),
    "tiling.weight_poly": ("calls", "self_s"),
    "tiling.enumerate_tilings": ("calls", "self_s"),
    "tiling.tiling_weight_sum": ("calls", "self_s"),
    "board.file_poly.recursion": ("self_s",),
    "board.file_poly.enumeration": ("self_s",),
    "board.rook_poly.recursion": ("self_s",),
    "board.rook_poly.enumeration": ("self_s",),
    "board.enumerate_file_placements": ("self_s", "items"),
    "board.enumerate_rook_placements": ("self_s", "items"),
    "board.placement.weight": ("self_s",),
    "board.placement.str": ("self_s",),
    "board.mixed_file_sum": ("self_s",),
    "board.aug_mixed_sum": ("self_s",),
    "stirling.build_triangle": ("self_s", "total_s", "terms"),
    "stirling.matrix_inverse_check": ("total_s",),
    "stirling.verify_basis_expansions": ("total_s",),
    "stirling.involution": ("calls", "self_s"),
    "stirling.involution_verify": ("self_s", "domain_size"),
    **{
        f"identities.{check}": ("total_s",)
        for check in (
            "check_series_columns",
            "check_closed_forms",
            "check_sf_p_coefficients",
            "check_q1_specializations",
            "check_cf_columns",
            "check_fibonomials",
            "check_sequences",
            "check_log_concavity",
        )
    },
    "cli.main": ("total_s",),
    "cli.cmd_table": ("self_s",),
    "cli.cmd_verify": ("self_s",),
    "cli.cmd_enumerate": ("self_s",),
}
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "chars": "chars"}
PER_LAYER = {
    f"{span}.{field}": _UNITS.get(field, "count")
    for span, fields in _SPANS.items()
    for field in fields
}
PER_LAYER.update({"poly.max_terms": "count", "cli.out_bytes": "bytes", "trace.overhead_frac": "ratio"})


class Sink:
    """Counts, hashes and keeps the tail of a command's stdout."""

    def __init__(self) -> None:
        self.nbytes = 0
        self.lines = 0
        self.sha = hashlib.sha256()
        self.tail = b""

    def feed(self, chunk: bytes) -> None:
        self.nbytes += len(chunk)
        self.lines += chunk.count(b"\n")
        self.sha.update(chunk)
        self.tail = (self.tail + chunk)[-TAIL_BYTES:]

    @property
    def last_line(self) -> str:
        body = self.tail[:-1] if self.tail.endswith(b"\n") else self.tail
        return body.rsplit(b"\n", 1)[-1].decode("utf-8", "replace")


def check_output(expect: workloads.Expect, sink: Sink) -> list[str]:
    """The ways the output differs from what was expected; empty when it matches."""
    problems = []
    if expect.nbytes is not None and sink.nbytes != expect.nbytes:
        problems.append(f"{sink.nbytes} bytes, expected {expect.nbytes}")
    if expect.sha256 is not None and sink.sha.hexdigest() != expect.sha256:
        problems.append("sha256 differs from the recorded output")
    if expect.lines is not None and sink.lines != expect.lines:
        problems.append(f"{sink.lines} lines, expected {expect.lines}")
    if expect.last_line is not None and sink.last_line != expect.last_line:
        problems.append(f"last line {sink.last_line[:80]!r}, expected {expect.last_line[:80]!r}")
    return problems


@dataclass
class Outcome:
    """One finished command process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    sha256: str
    problems: list[str]
    timed_out: bool
    report: dict | None = None


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_command(cmd: workloads.Command, trace: bool) -> Outcome:
    """Run one command in a fresh process and check its output."""
    report_r = report_w = None
    if trace:
        report_r, report_w = os.pipe()
        argv = [sys.executable, str(TRACER), str(report_w), *cmd.argv]
    else:
        argv = [sys.executable, "-m", "fibrook.cli", *cmd.argv]
    sink = Sink()
    report = bytearray()
    start = perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
        pass_fds=(report_w,) if trace else (),
    )
    readers = {proc.stdout.fileno(): sink.feed}
    if trace:
        os.close(report_w)
        readers[report_r] = report.extend
    timed_out = False
    try:
        while readers:
            left = start + COMMAND_TIMEOUT - perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            ready, _, _ = select.select(list(readers), [], [], left)
            for fd in ready:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    readers[fd](chunk)
                else:
                    del readers[fd]
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        if trace:
            os.close(report_r)
    wall = perf_counter() - start
    problems = ["timed out"] if timed_out else []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    problems += check_output(cmd.expect, sink)
    parsed = json.loads(report) if trace and not problems else None
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        out_bytes=sink.nbytes,
        sha256=sink.sha.hexdigest(),
        problems=problems,
        timed_out=timed_out,
        report=parsed,
    )


def time_import() -> float:
    """Seconds a fresh interpreter spends in `import fibrook.cli`."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        cwd=ROOT,
        env=child_env(),
        timeout=COMMAND_TIMEOUT,
        check=True,
    )
    return float(done.stdout)


def time_reference() -> float:
    """Wall seconds of the reference program in a fresh isolated interpreter."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", REFERENCE],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        cwd=ROOT,
        timeout=COMMAND_TIMEOUT,
        check=True,
    )
    return perf_counter() - start


@dataclass
class Pass:
    """One run over the workload's command list."""

    outcomes: list[Outcome] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    # REFERENCE_SECONDS over the mean of the reference timings that bracket
    # each command of the pass
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problems)


def run_pass(commands: list[workloads.Command], trace: bool) -> Pass:
    result = Pass()
    if not trace:
        result.setup_s = [time_import() for _ in range(SETUP_SAMPLES)]
    references = [time_reference()]
    for cmd in commands:
        outcome = run_command(cmd, trace)
        for problem in outcome.problems:
            print(f"FAILED {cmd.text}: {problem}", file=sys.stderr)
        result.outcomes.append(outcome)
        references.append(time_reference())
    result.scale = REFERENCE_SECONDS / statistics.mean(references)
    return result


def layer_metrics(reports: list[dict], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its commands' reports."""
    calls: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    max_terms = 0
    for rep in reports:
        for name, parent, n, total, own in rep["spans"]:
            calls[name] += n
            self_s[name] += own
            if parent != name:  # a recursive call is inside its caller's total
                total_s[name] += total
        for name, value in rep["counts"].items():
            counts[name] += value
        max_terms = max(max_terms, rep["max_terms"])
    for bucket in MUL_BUCKETS:
        calls["poly.mul"] += calls[bucket]
        self_s["poly.mul"] += self_s[bucket]
        for counter in ("term_pairs", "out_terms"):
            counts[f"poly.mul.{counter}"] += counts[f"{bucket}.{counter}"]
    by_field = {"calls": calls, "self_s": self_s, "total_s": total_s}
    metrics = {}
    for span, fields in _SPANS.items():
        for name in fields:
            table = by_field.get(name)
            metrics[f"{span}.{name}"] = table[span] if table is not None else counts[f"{span}.{name}"]
    metrics["poly.max_terms"] = max_terms
    metrics["cli.out_bytes"] = out_bytes
    return metrics


def end_to_end_metrics(plain: list[Pass]) -> dict[str, float]:
    """Medians over the untraced passes; prints the unscaled samples first."""
    cpu = [sum(o.cpu_s for o in p.outcomes) for p in plain]
    rss = [max(o.rss_mb for o in p.outcomes) for p in plain]
    samples = {
        "scale": [p.scale for p in plain],
        "wall_s": [p.wall_s for p in plain],
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "setup_s": [s for p in plain for s in p.setup_s],
    }
    print(json.dumps({"unscaled_samples": samples}))
    return {
        "wall_s": statistics.median(p.wall_s * p.scale for p in plain),
        "cpu_s": statistics.median(c * p.scale for c, p in zip(cpu, plain)),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(s * p.scale for p in plain for s in p.setup_s),
    }


def per_layer_metrics(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Medians over the traced passes that passed every output check."""
    per_pass = []
    for p in traced:
        if p.failed:
            continue
        values = layer_metrics([o.report for o in p.outcomes], sum(o.out_bytes for o in p.outcomes))
        per_pass.append({
            name: value * p.scale if PER_LAYER[name] == "s" else value
            for name, value in values.items()
        })
    metrics = {
        name: statistics.median(m[name] for m in per_pass) if per_pass else 0.0
        for name in PER_LAYER
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s * p.scale for p in traced)
        / statistics.median(p.wall_s * p.scale for p in plain)
        - 1
    )
    return metrics


def measure(commands: list[workloads.Command], seconds: float, trace: bool) -> dict:
    """Run passes for `seconds` and summarize them as the result object."""
    time_import()  # writes the bytecode cache, where Python may, for every later import
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while len(plain) < MIN_PASSES or perf_counter() - start < seconds:
        plain.append(run_pass(commands, trace=False))
        if trace:
            traced.append(run_pass(commands, trace=True))
        if any(o.timed_out for p in plain + traced for o in p.outcomes):
            break  # a hung command would push the run past its time limit
    if trace:
        metrics, units = per_layer_metrics(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(plain), END_TO_END
    passes = plain + traced
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="fibrook CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through run_command, which kills its child


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "fibrook" / "cli.py").is_file():
        print(f"error: no fibrook source under {SRC}", file=sys.stderr)
        return 2
    commands = workloads.commands(args.workload, args.seed, workloads.load_expected())
    result = measure(commands, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
