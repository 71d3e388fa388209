"""Benchmark of localperiods: one workload of `verify` commands, run in-process.

Run it from the repository root:

    python3 bench/run.py --workload weyl_heavy --seed 0 --seconds 30 --trace 0

The workloads are in workloads.py and the expected outputs in oracle.py. Each
command runs through `localperiods.cli.main` with stdout captured and one
worker thread (see workloads.THREADS). A first pass runs every command once
and warms the program's caches. Timed passes then repeat the whole command
list until `--seconds` have passed. Every repeat must give the same stdout and
exit code as the first execution, and after the measurements the oracle checks
the first execution of each command.

`--trace 0` reports the end-to-end metrics: wall_s and cpu_s of one pass (the
sum over commands of each command's median over the timed passes), setup_s
(median of SETUP_STARTS fresh interpreters that import localperiods.cli, started
between the timed passes so that they spread over the whole run),
peak_rss_mb, accuracy_digits and matched_frac (share of reports that match the
oracle and repeat identically).

accuracy_digits is the median, over the reports expected to pass, of
-log10(max_rel_err). It is not the largest error: per-sample errors are
heavy-tailed (a sample near the d1/d0 vanishing locus loses 4 to 5 digits), so
the largest one moves by 2 to 3 digits from one workload seed to the next,
while the median stays within a few percent.

`--trace 1` spends half of `--seconds` on untraced passes and half on passes
traced by tracer.py, and reports the per-layer metrics per pass, plus
trace.overhead, the traced over the untraced pass wall time.

The last stdout line is the result object; the line before it records the
environment and the reports that missed their tolerance by rounding alone
(see rounding.py). A run that cannot import the program from `src/` next to this
directory exits 2 without a result.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import oracle
from tracer import Tracer
from workloads import THREADS, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 20
MIN_PASSES = 3


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_cli():
    """Import localperiods.cli from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import localperiods.cli as cli
    except ImportError as err:
        raise BenchError(f"cannot import localperiods from {src}: {err}") from err
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"localperiods was imported from {cli.__file__}, not from {src}")
    return cli


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "nproc": nproc(),
            "os_cpu_count": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(),
            "src_sha256": src_digest()}


class SetupTimer:
    """Times fresh interpreters from start to localperiods.cli imported."""

    def __init__(self):
        self.times: list[float] = []
        self._start()  # the first start may write the bytecode cache

    def _start(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import localperiods.cli"], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"importing localperiods.cli failed: {proc.stderr.decode()}")
        return elapsed

    def catch_up(self, done: float) -> None:
        """Start interpreters until `done` (a share of the run) of the
        SETUP_STARTS timed starts are made."""
        while len(self.times) < math.ceil(SETUP_STARTS * done):
            self.times.append(self._start())


class Runner:
    """Runs a command list pass after pass. Every execution is compared with
    the command's first one; `check` applies the oracle to the first ones
    after the measurements, so the oracle's own time and memory stay out of
    them."""

    def __init__(self, cli, commands: list[Command]):
        self.cli = cli
        self.commands = commands
        self.first: list[tuple[str, int | None, str]] = []   # stdout, exit code, digest
        self.runs = [0] * len(commands)
        self.drifted = [0] * len(commands)
        self.attempted = 0
        self.failed = 0
        self.pass_errs: list[float] = []
        self.problems: list[str] = []
        self.rounding: list[str] = []

    def execute(self, cmd: Command) -> tuple[str, int | None, float, float]:
        out = io.StringIO()
        wall, cpu = perf_counter(), process_time()
        try:
            with redirect_stdout(out):
                code = self.cli.main(list(cmd.argv))
        except Exception:
            traceback.print_exc()
            code = None
        return out.getvalue(), code, perf_counter() - wall, process_time() - cpu

    def run_pass(self) -> list[tuple[float, float]]:
        """Run every command once; return the wall and CPU time of each."""
        times = []
        for index, cmd in enumerate(self.commands):
            stdout, code, wall, cpu = self.execute(cmd)
            times.append((wall, cpu))
            digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
            if index == len(self.first):
                self.first.append((stdout, code, digest))
            elif digest != self.first[index][2]:
                self.drifted[index] += 1
            self.runs[index] += 1
        return times

    def check(self) -> None:
        """Count attempted and failed reports over every execution: a repeat
        that differs from its command's first execution fails all its
        reports, the others share the oracle's verdict on the first."""
        self.attempted = self.failed = 0
        self.pass_errs, self.problems, self.rounding = [], [], []
        for index, cmd in enumerate(self.commands):
            stdout, code, _ = self.first[index]
            verdict = oracle.check_output(cmd, stdout, code)
            drifted = self.drifted[index]
            self.attempted += verdict.reports * self.runs[index]
            self.failed += (verdict.failed * (self.runs[index] - drifted)
                            + verdict.reports * drifted)
            self.pass_errs += verdict.pass_errs
            self.rounding += verdict.rounding
            self.problems += [f"{' '.join(cmd.argv)}: {p}" for p in verdict.problems]
            if drifted:
                self.problems.append(f"{' '.join(cmd.argv)}: {drifted} repeats differ "
                                     "from the first execution")

    def measure(self, seconds: float, between=None) -> tuple[float, float, int]:
        """Repeat passes for `seconds`; return the wall and CPU time of a
        typical pass, the sum over commands of each command's median time,
        and the number of passes. Per-command medians shed short stalls of a
        shared host better than the median of whole passes. `between`, if
        given, is called after each pass with the share of `seconds` gone."""
        passes = []
        start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() < start + seconds:
            passes.append(self.run_pass())
            if between:
                between(min(1.0, (perf_counter() - start) / seconds))
        per_command = list(zip(*passes))
        return (sum(statistics.median(w for w, _ in runs) for runs in per_command),
                sum(statistics.median(c for _, c in runs) for runs in per_command),
                len(passes))


def end_to_end(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    setup = SetupTimer()
    runner.run_pass()
    wall, cpu, _ = runner.measure(seconds, between=setup.catch_up)
    setup.catch_up(1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check()
    digits = [-math.log10(max(err, sys.float_info.epsilon)) for err in runner.pass_errs]
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "setup_s": (statistics.median(setup.times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy_digits": (statistics.median(digits) if digits else 0.0, "digits"),
        "matched_frac": (1 - runner.failed / runner.attempted, "ratio"),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    runner.run_pass()
    plain_wall, _, _ = runner.measure(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, traced_passes = runner.measure(seconds / 2)
    finally:
        tracer.uninstall()
    runner.check()
    metrics = tracer.layer_metrics(traced_passes)
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
        runner = Runner(cli, WORKLOADS[args.workload](args.seed))
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    for problem in runner.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    for note in runner.rounding:
        print(f"bench: rounding failure, accepted: {note}", file=sys.stderr)
    print(json.dumps({"env": environment(args.workload, args.seed),
                      "rounding_failures": runner.rounding}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
