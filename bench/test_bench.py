"""Self-tests of the benchmark: run with `python3 -m pytest bench` from the
repository root."""
from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout

import pytest

import oracle
import run
from tracer import Tracer
from workloads import WORKLOADS, command

CLI = run.load_cli()


def execute(cmd):
    out = io.StringIO()
    with redirect_stdout(out):
        code = CLI.main(list(cmd.argv))
    return out.getvalue(), code


@pytest.mark.parametrize("n, place", [(1, "both"), (3, "split")])
def test_oracle_rejects_flipped_pass_flag(n, place):
    cmd = command("identity", 0, 4, n=n, place=place)
    stdout, code = execute(cmd)
    flipped = stdout.replace('"pass":true', '"pass":false', 1)
    if flipped == stdout:
        flipped = stdout.replace('"pass":false', '"pass":true', 1)
    assert flipped != stdout
    assert oracle.check_output(cmd, flipped, code).failed == 1


@pytest.mark.parametrize("check, n, label, other", [
    ("identity", 3, "nu1*th2", "nu1*ph2"),
    ("recursion", 5, "nu2*th3", "nu2*ph3"),
    ("recursion", 5, "nu1*th3", "nu3*th1"),
])
def test_oracle_rejects_other_odd_n_label(check, n, label, other):
    cmd = command(check, 0, 4, n=n, place="split")
    stdout, code = execute(cmd)
    assert oracle.check_output(cmd, stdout, code).failed == 0
    assert stdout.count(f"L_F(1/2, {label})") == len(cmd.qs)
    relabelled = stdout.replace(f"L_F(1/2, {label})", f"L_F(1/2, {other})", 1)
    assert oracle.check_output(cmd, relabelled, code).failed == 1


def test_oracle_rejects_wrong_exit_code_and_table_values():
    cmd = command("table", 0, 3, n=2)
    stdout, code = execute(cmd)
    assert code == 0
    assert oracle.check_output(cmd, stdout, 1).failed == len(cmd.blocks)
    rows = stdout.splitlines()
    cells = rows[1].split(",")
    cells[3] = "0.5+0i"  # delta is no longer the motive value
    rows[1] = ",".join(cells)
    assert oracle.check_output(cmd, "\n".join(rows) + "\n", code).failed == 1


@pytest.mark.parametrize("cmd", [
    # The second sample's orbit nearly meets the d1/d0 vanishing locus: its
    # terms cancel by ~4e11 and the double sum misses tol = 1e-6.
    command("weyl", 742, 2, n=5, place="inert", qs=(2,)),
    # The first sample has two big characters 2e-6 turns apart, so a factor
    # 1 - X1/X2 of d1 magnifies the rounding of X1/X2 by ~7e4.
    command("identity", 220560802, 10, n=3, place="inert", qs=(2,)),
], ids=["cancellation", "near-equal-characters"])
def test_rounding_failure_is_told_from_a_wrong_value(cmd):
    stdout, code = execute(cmd)
    assert code == 1 and '"pass":false' in stdout
    verdict = oracle.check_output(cmd, stdout, code)
    assert verdict.failed == 0 and len(verdict.rounding) == 1
    err = oracle.parse_report(stdout)["max_rel_err"]
    wrong = re.sub(r'"max_rel_err":[^,]+', f'"max_rel_err":{err * 10!r}', stdout)
    assert wrong != stdout
    assert oracle.check_output(cmd, wrong, code).failed == 1
    assert oracle.check_output(cmd, stdout, 0).failed == 1


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_code_is_accepted(workload, seed):
    runner = run.Runner(CLI, WORKLOADS[workload](seed))
    runner.run_pass()
    runner.check()
    assert runner.failed == 0, runner.problems
    assert runner.attempted > 0 and runner.pass_errs


def test_changed_repeat_counts_as_failed():
    class Drifting:
        calls = 0

        def main(self, argv):
            self.calls += 1
            code = CLI.main(argv)
            if self.calls > 1:
                print("")
            return code

    cmd = command("weyl", 0, 2, n=1)
    runner = run.Runner(Drifting(), [cmd])
    runner.run_pass()
    runner.check()
    assert runner.failed == 0
    runner.run_pass()
    runner.check()
    reports = len(cmd.blocks)
    assert runner.failed == reports and runner.attempted == 2 * reports


def test_raising_command_counts_as_failed():
    class Raising:
        def main(self, argv):
            raise ArithmeticError("aborted")

    cmd = command("recursion", 0, 2, n=3, place="split")
    runner = run.Runner(Raising(), [cmd])
    runner.run_pass()
    runner.check()
    assert runner.failed == runner.attempted == len(cmd.blocks)


def test_tracer_counts_and_restores_bindings():
    before = CLI.verify_localcalc, CLI.sample_pair
    tracer = Tracer()
    tracer.install()
    try:
        execute(command("identity", 0, 3, n=2))
    finally:
        tracer.uninstall()
    assert (CLI.verify_localcalc, CLI.sample_pair) == before
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["identity.sample_pair.calls"][0] == 12   # 3 samples x 2 places x 2 q
    assert metrics["weylsum.weyl_sum_A.calls"][0] == 6      # inert samples only
    assert metrics["weylsum.weyl_sum_A.pairs"][0] == 6 * 8 * 2  # ranks (2, 1) at n = 2
    assert metrics["identity.verify.wait_s"][0] > 0
    shares = sum(value for name, (value, _) in metrics.items() if name.endswith(".share"))
    assert shares == pytest.approx(1.0)


def test_tracer_credits_pool_tasks_to_the_submitting_span():
    tracer = Tracer()
    tracer.install()
    try:
        execute(command("appendix", 0, 4))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["paramcalc.verify_appendix.calls"][0] == 2   # one per q
    assert metrics["paramcalc.verify_appendix.share"][0] > 0.3


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(capsys, trace, kind):
    assert run.main(["--workload", "small_suite", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert env["nproc"] >= 1 and env["seed"] == 0
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    units = {m["name"]: m["unit"] for m in spec[kind]}
    assert all(units[name] == m["unit"] for name, m in result["metrics"].items())
