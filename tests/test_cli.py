import json
import os
import subprocess
import sys

import pytest

import localperiods.cli as cli
from localperiods.cli import (RunConfig, UsageError, _pool_map, format_complex, main,
                              render_json)
from localperiods.numfield import FieldData, split_place
from localperiods.satake import make_datum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_identity_json_pass(capsys):
    code, out, _ = run_cli(capsys, "identity", "--n", "1", "--place", "split", "--q", "2",
                           "--samples", "10", "--seed", "42", "--tol", "1e-7",
                           "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["pass"] is True
    assert report["check"] == "identity"
    assert report["place"] == "split"
    assert report["q"] == 2


def test_repeat_run_is_byte_identical(capsys):
    args = ("recursion", "--n", "2", "--place", "both", "--q", "2", "--q", "3",
            "--samples", "8", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert len(out1.strip().splitlines()) == 4  # two places x two q


@pytest.mark.parametrize("argv, code", [
    (("identity", "--n", "1", "--place", "inert", "--samples", "6", "--seed", "5"), 0),
    # a failing run, where factor-diff collection order matters
    (("identity", "--n", "3", "--place", "split", "--samples", "8", "--seed", "3"), 1),
    (("table", "--n", "2", "--q", "3", "--samples", "6", "--seed", "5"), 0),
    (("weyl", "--n", "2", "--q", "3", "--samples", "5", "--seed", "5", "--tol", "1e-30"), 1),
    (("recursion", "--n", "3", "--q", "3", "--samples", "6", "--seed", "5"), 1),
    (("basecase", "--samples", "6", "--seed", "5", "--tol", "1e-30"), 1),
    (("appendix", "--samples", "6", "--seed", "5", "--tol", "1e-30"), 1),
], ids=["identity", "identity-fail", "table", "weyl", "recursion", "basecase", "appendix"])
def test_threads_do_not_change_output(capsys, argv, code):
    # every subcommand maps only its draws on the pool, then judges in order
    base = argv + ("--q", "2")
    run1 = run_cli(capsys, *base, "--threads", "1")
    run4 = run_cli(capsys, *base, "--threads", "4")
    assert run1 == run4 and run1[0] == code


MULTI_Q_CASES = {
    "identity": ("--n", "2"), "table": ("--n", "2"), "weyl": ("--n", "2"),
    "recursion": ("--n", "3"),  # fails at split places, so reports carry diffs
    "basecase": (), "appendix": (),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(MULTI_Q_CASES))
def test_a_multi_q_run_prints_the_single_q_runs(capsys, command, threads):
    # a command draws each place's samples once and shares them with every
    # --q, so it prints what one run per q prints, blocks in (place, q) order
    base = (command, *MULTI_Q_CASES[command], "--place", "both", "--samples", "4",
            "--seed", "3", "--threads", threads)
    # table: a header, then 4 rows per (place, q) block; the others: a report
    header, size = (1, 4) if command == "table" else (0, 1)
    singles = {}
    for q in ("2", "3"):
        code, out, _ = run_cli(capsys, *base, "--q", q)
        lines = out.splitlines()[header:]
        singles[q] = code, [lines[i:i + size] for i in range(0, len(lines), size)]
    code, out, _ = run_cli(capsys, *base, "--q", "2", "--q", "3")
    places = len(singles["2"][1])
    expected = [line for p in range(places) for q in ("2", "3") for line in singles[q][1][p]]
    assert out.splitlines()[header:] == expected
    assert code == max(singles["2"][0], singles["3"][0])
    assert places == (1 if command in ("weyl", "basecase", "appendix") else 2)


def count_generators(monkeypatch):
    import localperiods.identity as identity
    built, rng_for = [], identity._rng_for

    def counted(*args):
        built.append(args)
        return rng_for(*args)

    monkeypatch.setattr(identity, "_rng_for", counted)
    return built


@pytest.mark.parametrize("command, places", [
    ("identity", 2), ("table", 2), ("recursion", 2), ("weyl", 1), ("basecase", 1),
    ("appendix", 1)])
def test_a_command_draws_once_per_place(monkeypatch, capsys, command, places):
    # one generator per sample and place, whatever the number of --q; the
    # draws do not outlive main(), so a repeated command draws them again
    built = count_generators(monkeypatch)
    argv = (command, "--place", "both", "--q", "2", "--q", "3", "--q", "5", "--samples", "3")
    first = run_cli(capsys, *argv)
    assert len(built) == 3 * places and sorted(set(built)) == [(0, k) for k in range(3)]
    assert run_cli(capsys, *argv) == first and len(built) == 2 * 3 * places


def test_a_direct_driver_call_draws_its_own_samples(monkeypatch):
    from localperiods.identity import verify_localcalc
    from localperiods.numfield import inert_place
    built = count_generators(monkeypatch)
    for q in (2, 3):
        verify_localcalc(1, inert_place(q), samples=4)
    assert len(built) == 2 * 4


def test_zero_samples_fail_before_any_draw(monkeypatch, capsys):
    built = count_generators(monkeypatch)
    code, out, err = run_cli(capsys, "identity", "--q", "2", "--q", "3", "--samples", "0")
    assert (code, out, err) == (2, "", "error: --samples must be >= 1\n") and built == []


def test_table_maps_samples_with_the_run_pool(monkeypatch, capsys):
    original = cli.identity_table
    pools = []

    def recorder(*args, pool_map, **kwargs):
        pools.append(pool_map)
        return original(*args, pool_map=pool_map, **kwargs)

    monkeypatch.setattr(cli, "identity_table", recorder)
    code, out, _ = run_cli(capsys, "table", "--q", "2", "--q", "3", "--samples", "2",
                           "--threads", "2")
    assert code == 0 and len(out.splitlines()) == 1 + 4 * 2
    assert len(pools) == 4 and all(pool is not map for pool in pools)


def test_probe_runs_only_on_missed_samples(monkeypatch, capsys):
    import localperiods.identity as identity
    probed = []
    original = identity._probe_factors

    def recorder(*args):
        probed.append(args)
        return original(*args)

    monkeypatch.setattr(identity, "_probe_factors", recorder)
    base = ("identity", "--n", "2", "--place", "inert", "--q", "2", "--samples", "5")
    code, _, _ = run_cli(capsys, *base)
    assert code == 0 and probed == []
    code, out, _ = run_cli(capsys, *base, "--tol", "1e-30")
    assert code == 1 and json.loads(out)["factor_diffs"]
    assert len(probed) == 5


def test_usage_error_large_n(capsys):
    code, _, err = run_cli(capsys, "identity", "--n", "9", "--q", "2")
    assert code == 2
    assert "guarded range" in err


def test_weyl_rank_guard(capsys):
    # the guard bounds the small group's rank, which sets the Weyl sum's
    # largest layer of states: n = 12 (rank 6) runs, n = 13 (rank 7) is a
    # usage error before any output
    code, out, _ = run_cli(capsys, "weyl", "--n", "12", "--q", "2", "--samples", "1")
    assert code == 0 and json.loads(out)["pass"] is True
    RunConfig(command="identity", n=12, place="inert", q=(2,), samples=1, seed=0,
              tol=1e-7, format="json", force_large=True)
    for argv in (("weyl", "--n", "13"), ("identity", "--n", "13", "--force-large"),
                 ("identity", "--n", "13", "--force-large", "--place", "inert"),
                 ("table", "--n", "13")):
        code, out, err = run_cli(capsys, *argv, "--q", "2", "--samples", "1")
        assert code == 2 and out == "" and err.startswith("error: --n 13")
    with pytest.raises(UsageError, match="rank 7"):
        RunConfig(command="table", n=13, place="inert", q=(2,), samples=1, seed=0,
                  tol=1e-7, format="json")
    # the recursion enumerates no Weyl group, so the guard does not apply
    RunConfig(command="recursion", n=13, place="split", q=(2,), samples=1, seed=0,
              tol=1e-9, format="json")


def test_split_places_skip_the_rank_guard(capsys):
    # split places never call the Weyl sum, so split identity runs past rank 6
    # and localizes the odd-n finding (a request with an inert place keeps
    # the guard: test_weyl_rank_guard)
    code, out, err = run_cli(capsys, "identity", "--n", "13", "--force-large", "--place",
                             "split", "--q", "2", "--samples", "3")
    assert code == 1 and err == ""
    labels = {d["factor"].split(" [")[0] for d in json.loads(out)["factor_diffs"]}
    assert labels == {f"L_F(1/2, nu{i}*th{j})" for i in range(1, 8) for j in range(i + 1, 8)}
    code, out, _ = run_cli(capsys, "identity", "--n", "20", "--force-large", "--place",
                           "split", "--q", "2", "--samples", "3")
    assert code == 0 and json.loads(out)["pass"] is True


def test_table_has_no_n_range_guard(capsys):
    # only identity keeps the 1..3 guard; table is bounded by the rank guard alone
    code, out, err = run_cli(capsys, "table", "--n", "13", "--place", "split",
                             "--q", "2", "--samples", "2")
    lines = out.strip().splitlines()
    assert err == "" and lines[0].startswith("sample_index,") and len(lines) == 3
    assert code == 1  # the split odd-n finding misses tol
    code, out, err = run_cli(capsys, "table", "--n", "0", "--q", "2", "--samples", "1")
    assert code == 0 and err == "" and len(out.strip().splitlines()) == 3
    code, _, err = run_cli(capsys, "table", "--n", "4", "--force-large")
    assert code == 2 and "unrecognized arguments: --force-large" in err


@pytest.mark.parametrize("argv", [
    ("weyl", "--n", "7", "--q", "2", "--samples", "5", "--seed", "1"),
    ("weyl", "--n", "5", "--q", "2", "--samples", "2", "--seed", "742"),
    ("identity", "--n", "7", "--force-large", "--place", "inert", "--q", "2",
     "--samples", "5", "--seed", "1"),
    ("identity", "--n", "3", "--place", "inert", "--q", "2", "--samples", "10",
     "--seed", "220560802"),
], ids=["weyl-n7", "weyl-n5-cancellation", "identity-n7", "identity-n3-near-equal"])
def test_former_rounding_misses_pass(capsys, argv):
    # near-degenerate samples on which the brute-force double sum missed the
    # default tolerance by rounding alone (errors 4e-7 to 1.6e-6)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["pass"] is True


def test_closed_stdout_pipe_exits_quietly():
    # the reader takes one line and closes the pipe while rows are still written
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen(
            [sys.executable, "-m", "localperiods.cli", "table", "--n", "1", "--place", "inert",
             "--q", "2", "--samples", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"sample_index,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_default_runs_in_calling_thread():
    assert cli.PARSER.parse_args(["identity"]).threads == 1
    assert _pool_map(1) == (map, None)


def test_importing_the_cli_leaves_the_thread_pool_module_out():
    # concurrent.futures, and the logging and queue modules it pulls in, load
    # only when --threads asks for a pool
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    probe = "import sys, localperiods.cli; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_split_odd_n_small_determinant_is_not_a_pole(capsys):
    # the tensor determinant of this data is a product of 144 Euler factors per
    # GL component, far below POLE_EPS, but no single factor is near a pole
    code, out, _ = run_cli(capsys, "identity", "--n", "7", "--force-large", "--place", "split",
                           "--q", "2", "--samples", "10", "--seed", "158315492")
    assert code == 1
    report = json.loads(out.strip())
    labels = {d["factor"].split(" [")[0] for d in report["factor_diffs"]}
    assert labels == {f"L_F(1/2, nu{i}*th{j})" for i in range(1, 5) for j in range(i + 1, 5)}


def test_nan_factor_values_render_as_strict_json(monkeypatch, capsys):
    # unmatched factors carry a nan partner; it must render as a quoted complex.
    # Sampled data leaves no factor unpaired, so the recursion drops its last one.
    import localperiods.identity as identity
    recursive = identity.zeta_recursive_factors
    monkeypatch.setattr(identity, "zeta_recursive_factors",
                        lambda small, big: recursive(small, big)[:-1])
    code, out, _ = run_cli(capsys, "identity", "--n", "2", "--place", "inert", "--q", "2",
                           "--samples", "3", "--tol", "1e-30")
    assert code == 1
    report = json.loads(out, parse_constant=reject_constant)
    values = [d[side] for d in report["factor_diffs"] for side in ("lhs", "rhs")]
    assert all(isinstance(v, str) for v in values)
    assert "nan+0i" in values


def test_non_finite_floats_render_as_strict_json(monkeypatch):
    # the pole-tuned data of test_recursion_convention_error_at_twist_pole makes
    # verify_recursion report max_rel_err = inf
    import localperiods.identity as identity
    small = make_datum(2, split_place(2), [1.0, 1.0])
    big = make_datum(3, split_place(2), [2.0, 1.0, 1.0])
    monkeypatch.setattr(identity, "sample_values",
                        lambda n, field, rng: (small.values(), big.values()))
    report = identity.verify_recursion(1, split_place(2), samples=2)
    assert report.max_rel_err == float("inf")
    parsed = json.loads(render_json(report.to_json_dict()), parse_constant=reject_constant)
    assert parsed["max_rel_err"] == "inf"
    assert render_json([float("nan"), -float("inf"), 0.5]) == '["nan","-inf",0.5]'


def test_inert_localizer_matches_factors_over_both_residue_fields(capsys):
    # L_E(1/2, chi*xi1)^-1 over q_E = 4 is the recursion's L_F(1, chi^1*Xi1)^-1
    # over q_F = 2; the localizer must pair them, not list both as leftovers
    code, out, _ = run_cli(capsys, "identity", "--n", "2", "--place", "inert", "--q", "2",
                           "--samples", "3", "--tol", "1e-30")
    assert code == 1
    labels = [d["factor"] for d in json.loads(out)["factor_diffs"]]
    assert not [label for label in labels if "chi*xi1" in label or "chi^1*Xi1" in label]


def test_localizer_cancels_inverse_pairs_within_one_route(capsys):
    # the recursion's step2: L_E(1/2, bc2*Xi2) and step2: L_F(1, chi^2*Xi2)^-1
    # are one Euler factor and its inverse, so they cancel in its product
    code, out, _ = run_cli(capsys, "identity", "--n", "2", "--place", "inert", "--q", "2",
                           "--samples", "3", "--tol", "1e-30", "--format", "text")
    assert code == 1
    assert "bc2*Xi2" not in out and "chi^2*Xi2" not in out
    assert "[missing]" not in out and "[unmatched]" not in out


PARSER_REUSE_CASES = [
    ("identity", "--n", "1", "--q", "2", "--samples", "2"),
    ("weyl", "--n", "1", "--q", "2", "--samples", "2"),
    ("recursion", "--n", "1", "--q", "2", "--samples", "2"),
    ("basecase", "--q", "2", "--samples", "2"),
    ("appendix", "--q", "2", "--samples", "2"),
    ("table", "--n", "1", "--place", "inert", "--q", "2", "--samples", "2"),
]


@pytest.mark.parametrize("argv", PARSER_REUSE_CASES, ids=[a[0] for a in PARSER_REUSE_CASES])
def test_shared_parser_gives_identical_runs(monkeypatch, capsys, argv):
    # every main() call parses with the one module-level parser; a usage error
    # or --help in between must leave nothing behind that a later call sees
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and first[1]
    assert run_cli(capsys, *argv) == first
    assert run_cli(capsys, "weyl", "--place", "split")[0] == 2
    assert run_cli(capsys, *argv) == first
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: verify")
    assert run_cli(capsys, *argv) == first

    def no_build():
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(cli, "build_parser", no_build)
    assert run_cli(capsys, *argv) == first


@pytest.mark.parametrize("command, driver, places", [
    ("identity", "verify_localcalc", ("inert", "split")),
    ("weyl", "verify_weyl_constancy", ("inert",)),
    ("recursion", "verify_recursion", ("inert", "split")),
    ("basecase", "verify_basecase", ("split",)),
    ("appendix", "verify_appendix", ("inert",)),
], ids=["identity", "weyl", "recursion", "basecase", "appendix"])
def test_cli_calls_driver_by_module_name(monkeypatch, capsys, command, driver, places):
    # call tracing rebinds the module-level driver names and reads pool_map
    # from the keywords, so the CLI must resolve the name at call time and
    # pass pool_map by keyword
    original = getattr(cli, driver)
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, driver, recorder)
    code, out, _ = run_cli(capsys, command, "--q", "2", "--q", "3", "--samples", "1")
    assert code == 0
    fields = [next(a for a in args if isinstance(a, FieldData)) for args, _ in calls]
    assert [(f.kind.value, f.q_F) for f in fields] == [(p, q) for p in places for q in (2, 3)]
    assert all("pool_map" in kwargs for _, kwargs in calls)
    assert len(out.strip().splitlines()) == len(calls)


def test_usage_error_bad_flag(capsys):
    code, _, _ = run_cli(capsys, "identity", "--bogus")
    assert code == 2


def test_usage_error_bad_q(capsys):
    code, _, err = run_cli(capsys, "identity", "--n", "1", "--q", "1")
    assert code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "--tol must be positive"),
    ("--tol", "0", "--tol must be positive"),
    ("--seed", "-1", "--seed must be nonnegative"),
], ids=["tol-nan", "tol-zero", "seed-negative"])
def test_usage_error_names_the_flag(capsys, flag, value, message):
    # a nan tolerance would fail every sample; a negative seed reached numpy
    code, out, err = run_cli(capsys, "identity", "--n", "1", "--place", "inert", "--q", "2",
                             "--samples", "1", flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_infinite_tol_is_usage_error(capsys):
    # every finite error is within an infinite tolerance, so it certifies nothing
    code, out, err = run_cli(capsys, "recursion", "--n", "1", "--q", "2", "--samples", "1",
                             "--tol", "inf")
    assert (code, out, err) == (2, "", "error: --tol must be positive and finite\n")


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_is_usage_error(capsys, threads):
    code, out, err = run_cli(capsys, "identity", "--n", "1", "--q", "2", "--samples", "1",
                             "--threads", threads)
    assert (code, out, err) == (2, "", "error: --threads must be >= 1\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_table_takes_no_format(capsys, fmt):
    # table always writes CSV, so it has no --format to ignore
    code, out, err = run_cli(capsys, "table", "--n", "1", "--place", "inert", "--q", "2",
                             "--samples", "1", "--format", fmt)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --format" in err


def test_basecase_default_place(capsys):
    code, out, _ = run_cli(capsys, "basecase", "--q", "2", "--samples", "20")
    assert code == 0
    report = json.loads(out.strip())
    assert report["check"] == "basecase" and report["pass"] is True


def test_explicit_wrong_place_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "basecase", "--place", "inert", "--q", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "appendix", "--place", "split", "--q", "2")
    assert code == 2


def test_failure_exit_code_and_diffs(capsys):
    code, out, _ = run_cli(capsys, "identity", "--n", "3", "--place", "split",
                           "--q", "2", "--samples", "5", "--seed", "1")
    assert code == 1
    report = json.loads(out.strip())
    assert report["pass"] is False
    assert len(report["factor_diffs"]) == 1
    assert report["factor_diffs"][0]["factor"].startswith("L_F(1/2, nu1*th2)")


def test_force_large_override(capsys):
    code, out, _ = run_cli(capsys, "identity", "--n", "4", "--place", "inert", "--q", "2",
                           "--samples", "2", "--seed", "1", "--force-large")
    assert code == 0
    assert json.loads(out.strip())["pass"] is True


def test_recursion_n0_base_case(capsys):
    code, out, _ = run_cli(capsys, "recursion", "--n", "0", "--q", "2", "--samples", "5")
    assert code == 0
    assert all(json.loads(line)["pass"] for line in out.strip().splitlines())


def test_table_schema(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "1", "--place", "inert", "--q", "2",
                           "--samples", "4", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sample_index,zeta,s_value,delta,lratio_half,lhs,rhs,rel_err"
    assert len(lines) == 5
    _, out2, _ = run_cli(capsys, "table", "--n", "1", "--place", "inert", "--q", "2",
                         "--samples", "4", "--seed", "2")
    assert out == out2


def test_csv_report_format(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--n", "1", "--q", "2", "--samples", "5",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check,n,place,q")
    assert lines[1].startswith("weyl,1,inert,2,5")


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "appendix", "--q", "2", "--samples", "3",
                           "--format", "text")
    assert code == 0
    assert out.startswith("PASS appendix")


def test_render_json_deterministic_floats():
    s = render_json({"b": 1e-7, "a": True, "z": [complex(1, -2)]})
    assert s == '{"a":true,"b":9.9999999999999995e-08,"z":["1-2i"]}'


def test_format_complex():
    assert format_complex(1.5 + 0j, 6) == "1.5+0i"
    assert format_complex(-2.25j, 6) == "-0-2.25i"


def nan_error_at_sample_1(monkeypatch):
    # Delta, taken per sample, is nan on the second sample only, so that
    # sample's rhs and error are nan and the others are real
    import localperiods.identity as identity
    real, calls = identity.motive_delta, []

    def motive_delta(*args):
        calls.append(None)
        return complex("nan") if len(calls) == 2 else real(*args)

    monkeypatch.setattr(identity, "motive_delta", motive_delta)


def test_nan_error_after_the_first_sample_fails_identity(monkeypatch, capsys):
    nan_error_at_sample_1(monkeypatch)
    code, out, _ = run_cli(capsys, "identity", "--n", "1", "--place", "inert", "--q", "2",
                           "--samples", "3")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["max_rel_err"] == "nan"


def test_nan_error_after_the_first_sample_fails_table(monkeypatch, capsys):
    nan_error_at_sample_1(monkeypatch)
    code, out, _ = run_cli(capsys, "table", "--n", "1", "--place", "inert", "--q", "2",
                           "--samples", "3")
    assert code == 1
    assert out.splitlines()[2].endswith(",nan")
