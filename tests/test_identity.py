from collections import Counter
from fractions import Fraction

import pytest

from localperiods import (LFactor, PlaceKind, adjoint_lfactor, euler_factor,
                          inert_place, make_datum, std_tensor_lfactor,
                          SatakeDatum, split_place, unramified_period,
                          verify_appendix, verify_basecase, verify_localcalc,
                          verify_recursion, verify_weyl_constancy,
                          zeta_closed_factors, zeta_recursive_factors)
from localperiods.identity import (FactorDiff, VerificationReport, identity_table,
                                   rel_err, sample_pair, sample_values, _rng_for)

RHS = 5  # identity row index of Delta * L(1/2)/(Ad*Ad)
from localperiods.weylsum import case_for, s_value_inert, weyl_sum_A


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", 1, PlaceKind.INERT, 2, 1, 0, 0.0, 1e-7, False)
    with pytest.raises(ValueError):
        VerificationReport("x", 1, PlaceKind.INERT, 2, 1, 0, 1.0, 1e-7, True)
    with pytest.raises(ValueError):
        VerificationReport("x", 1, PlaceKind.INERT, 2, 1, 0, 1.0, 1e-7, False)
    r = VerificationReport("x", 1, PlaceKind.INERT, 2, 1, 0, 1.0, 1e-7, False,
                           (FactorDiff("f", 1.0, 2.0),))
    assert not r.passed and r.to_json_dict()["pass"] is False
    with pytest.raises(ValueError, match="tolerance"):
        VerificationReport("x", 1, PlaceKind.INERT, 2, 1, 0, 1.0, float("nan"), False,
                           (FactorDiff("f", 1.0, 2.0),))


def test_infinite_tol_is_rejected():
    # every finite error is within an infinite tolerance, so it certifies nothing
    with pytest.raises(ValueError, match="positive and finite"):
        verify_recursion(3, split_place(2), samples=2, tol=float("inf"))


def test_lratio_unit_characters_direct_assembly():
    # every constituent reduces to euler_factor powers when all characters are 1
    field = inert_place(2)
    small = make_datum(2, field, [1.0])
    big = make_datum(3, field, [1.0])
    qe = field.q_E
    std = euler_factor(0.5, qe, 1.0) ** 6
    ad_small = (euler_factor(1, 2, 1) * euler_factor(1, 2, -1)
                * euler_factor(1, 2, 1) * euler_factor(1, 2, 1))
    ad_big = (euler_factor(1, 2, 1) * euler_factor(1, 2, -1) ** 2
              * euler_factor(1, 2, -1) ** 2 * euler_factor(2, 2, 1) ** 2)
    expected = std / (ad_big * ad_small)
    lratio = std_tensor_lfactor(0.5, small, big) / (adjoint_lfactor(1, big)
                                                    * adjoint_lfactor(1, small))
    assert lratio == pytest.approx(expected)


def test_unramified_period_rank_one_inert_is_s_value(rng):
    # U(1) < U(2): zeta = 1 so the period is the spherical average alone
    field = inert_place(2)
    small, big = sample_pair(0, field, _rng_for(5, 0))
    weyl = weyl_sum_A(case_for(1), [c.inv() for c in big.chars],
                      [c.inv() for c in small.chars], field)
    expected = s_value_inert(0, field, 1.0, weyl)
    assert unramified_period(small, big) == pytest.approx(expected)


def test_unramified_period_rank_one_split_regression():
    field = split_place(2)
    small = make_datum(1, field, [1.0])
    big = make_datum(2, field, [1.0, 1.0])
    value = unramified_period(small, big)
    assert abs(value.imag) < 1e-12
    assert value.real > 0
    # frozen after first computation; the identity check pins it independently
    assert value == pytest.approx(identity_reference(small, big)[RHS])


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unramified_period_is_the_identity_row_lhs(place, n):
    # zeta * S of one sample is exactly the lhs the identity check compares
    for q in (2, 3):
        for k in range(3):
            small, big = sample_pair(n, place(q), _rng_for(17, k))
            assert unramified_period(small, big) == identity_reference(small, big)[RHS - 1]


@pytest.mark.parametrize("kind", ["inert", "split"])
def test_verify_localcalc_small_run_passes(kind, q):
    field = inert_place(q) if kind == "inert" else split_place(q)
    report = verify_localcalc(1, field, samples=8, seed=11)
    assert report.passed and report.max_rel_err < 1e-10
    assert report.factor_diffs == ()


@pytest.mark.parametrize("field", [inert_place(2), split_place(3)], ids=["inert", "split"])
def test_identity_table_reproduces_report(field):
    # the table's rows are the values the identity check compares
    rows = identity_table(2, field, samples=6, seed=13)
    report = verify_localcalc(2, field, samples=6, seed=13)
    assert len(rows) == 6
    assert max(row[-1] for row in rows) == report.max_rel_err
    for zeta, s_value, delta, lratio_half, lhs, rhs, err in rows:
        assert (lhs, rhs) == (zeta * s_value, delta * lratio_half)
        assert err == rel_err(lhs, rhs)


def test_nan_error_is_localized(monkeypatch):
    # a nan error is not within tol, so the sample is probed like any miss;
    # Delta, taken per sample, makes every rhs and error nan
    import localperiods.identity as identity
    monkeypatch.setattr(identity, "motive_delta", lambda *args: complex("nan"))
    report = verify_localcalc(1, split_place(2), samples=2)
    assert not report.passed
    assert [d.factor for d in report.factor_diffs] == ["zeta*S vs Delta*L(1/2)/(Ad*Ad)"]


def test_verify_localcalc_failure_has_diffs():
    report = verify_localcalc(1, inert_place(2), samples=3, seed=11, tol=1e-30)
    assert not report.passed
    assert len(report.factor_diffs) >= 1


def test_verify_guards():
    with pytest.raises(ValueError):
        verify_weyl_constancy(1, split_place(2), samples=1)


def test_identity_drivers_agree_beyond_the_cli_range():
    # the 1..3 range is the CLI's; both library drivers take any n alike
    inert = verify_localcalc(4, inert_place(2), samples=3, seed=1)
    rows = identity_table(4, inert_place(2), samples=3, seed=1)
    assert inert.passed and inert.max_rel_err == max(row[-1] for row in rows)
    split = verify_localcalc(7, split_place(2), samples=3, seed=1)
    rows = identity_table(7, split_place(2), samples=3, seed=1)
    assert not split.passed and split.max_rel_err == max(row[-1] for row in rows) > split.tol
    assert {d.factor.split(" [")[0] for d in split.factor_diffs} == {
        f"L_F(1/2, nu{i}*th{j})" for j in range(1, 5) for i in range(1, j)}


@pytest.mark.parametrize("driver, args", [
    (verify_localcalc, (1, inert_place(2))),
    (verify_weyl_constancy, (1, inert_place(2))),
    (verify_recursion, (1, split_place(2))),
    (verify_basecase, (split_place(2),)),
    (verify_appendix, (inert_place(2),)),
], ids=["identity", "weyl", "recursion", "basecase", "appendix"])
def test_verify_guards_zero_samples(driver, args):
    with pytest.raises(ValueError, match="at least one sample"):
        driver(*args, samples=0)


def test_verify_recursion_reports_convention_error(monkeypatch):
    # mu_1 * nu_1 = q_F puts the quadratic-twist factor on its pole
    import localperiods.identity as identity
    small = make_datum(2, split_place(2), [1.0, 1.0])
    big = make_datum(3, split_place(2), [2.0, 1.0, 1.0])
    monkeypatch.setattr(identity, "sample_values",
                        lambda n, field, rng: (small.values(), big.values()))
    report = verify_recursion(1, split_place(2), samples=2)
    assert not report.passed and report.max_rel_err == float("inf")
    assert [d.factor for d in report.factor_diffs] == [
        "ConventionError: step1: L_F(1, chi^1*mu1*nu1)^-1"]


def count_builds(monkeypatch, names):
    """Rebind each identity.<name> to count its calls by the characters it
    gets: "trace" for a plan's traced characters, "exact" for
    leftover_pairs' Fraction characters, else "float" (a sample alone)."""
    import localperiods.identity as identity
    from localperiods.numfield import _Traced
    calls = Counter()

    def kind(args):
        chars = [c for a in args for c in (a.chars if isinstance(a, SatakeDatum) else
                                           a if isinstance(a, tuple) else ())]
        if any(isinstance(c.value, _Traced) for c in chars):
            return "trace"
        return "exact" if any(isinstance(c.value, Fraction) for c in chars) else "float"
    for name in names:
        def counted(*args, real=getattr(identity, name), name=name):
            calls[name, kind(args)] += 1
            return real(*args)
        monkeypatch.setattr(identity, name, counted)
    return calls


def count_evaluations(monkeypatch):
    """Count FactorPlan.values calls, one per evaluation of a route's plan."""
    from localperiods.numfield import FactorPlan
    calls = Counter()
    real = FactorPlan.values

    def counted(plan, chars):
        calls["values"] += 1
        return real(plan, chars)
    monkeypatch.setattr(FactorPlan, "values", counted)
    return calls


def test_recursion_builds_each_factor_list_once_per_report(monkeypatch):
    # split n = 3 misses on every sample.  Each builder is traced once per
    # (builder, n, kind) and never runs on a sample's values; each report
    # evaluates the two plans once, stacked over its samples, and its
    # localizer reads their rows; the exact build that pairs the routes runs
    # once per (n, kind), whatever q
    calls = count_builds(monkeypatch, ["zeta_closed_factors", "zeta_recursive_factors"])
    evaluations = count_evaluations(monkeypatch)
    for q in (2, 2, 3):
        assert not verify_recursion(3, split_place(q), samples=2).passed
    assert calls == {(name, kind): 1 for name in ("zeta_closed_factors", "zeta_recursive_factors")
                     for kind in ("trace", "exact")}
    assert evaluations == {"values": 6}


def test_a_command_evaluates_each_route_once_per_place(monkeypatch, capsys):
    # within one command every q of a place shares the draws, so it shares
    # each route's evaluated alphas too: two plans, evaluated once for both q
    from localperiods.cli import main
    calls = count_builds(monkeypatch, ["zeta_closed_factors", "zeta_recursive_factors"])
    evaluations = count_evaluations(monkeypatch)
    assert main(["recursion", "--n", "3", "--place", "split", "--q", "2", "--q", "3",
                 "--samples", "2"]) == 1
    assert capsys.readouterr().out.count('"pass":false') == 2
    assert calls == {(name, kind): 1 for name in ("zeta_closed_factors", "zeta_recursive_factors")
                     for kind in ("trace", "exact")}
    assert evaluations == {"values": 2}


def test_identity_builds_each_route_once_per_report(monkeypatch):
    # split n = 3 misses on every sample; the report evaluates the closed
    # list, S's two lists, the standard tensor and the adjoints once, stacked
    # over its samples, and the recursive list once, at the first miss; each
    # builder is traced once, and its localizer reads the plans' rows
    calls = count_builds(monkeypatch, ["zeta_closed_factors", "zeta_recursive_factors",
                                       "s_split_factors", "std_tensor_factors",
                                       "adjoint_factors"])
    evaluations = count_evaluations(monkeypatch)
    report = verify_localcalc(3, split_place(2), samples=3)
    assert not report.passed
    assert calls == {("zeta_closed_factors", "trace"): 1,
                     ("zeta_recursive_factors", "trace"): 1, ("s_split_factors", "trace"): 1,
                     ("std_tensor_factors", "trace"): 1, ("adjoint_factors", "trace"): 2,
                     ("zeta_closed_factors", "exact"): 1,
                     ("zeta_recursive_factors", "exact"): 1}
    assert evaluations == {"values": 5}


def test_an_identity_miss_reads_its_sample_values_again(monkeypatch, capsys):
    # every inert n = 1 sample misses tol 1e-30, and its probes compare the
    # Weyl sum and the standard-tensor value its row already computed; the
    # Weyl sum is one call, the closed plan (traced once) is evaluated at the
    # characters and at their inverses, the standard tensor and the adjoints
    # once each, stacked over the samples, and the localizer pairs the routes
    # on one exact build, which leaves no factor at inert places, so the
    # recursive plan is never evaluated
    import localperiods.identity as identity
    import localperiods.weylsum as weylsum
    from localperiods.cli import main
    builds = count_builds(monkeypatch, ["zeta_closed_factors", "zeta_recursive_factors"])
    evaluations = count_evaluations(monkeypatch)
    calls = dict.fromkeys(["weyl_sum_A", "std_tensor_factors"], 0)

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted
    for module, name in ((identity, "weyl_sum_A"), (weylsum, "weyl_sum_A"),
                         (identity, "std_tensor_factors")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code = main(["identity", "--n", "1", "--place", "inert", "--tol", "1e-30",
                 "--samples", "3"])
    assert code == 1 and "weyl_sum vs motive value" in capsys.readouterr().out
    assert calls == {"weyl_sum_A": 1, "std_tensor_factors": 1}
    assert builds == {("zeta_closed_factors", "trace"): 1,
                      ("zeta_closed_factors", "exact"): 1,
                      ("zeta_recursive_factors", "exact"): 1}
    assert evaluations == {"values": 4}


def test_a_missed_sample_is_localized_within_its_own_step():
    # sample k's localize runs before sample k + 1 starts, so no missed sample
    # holds its factor lists past its step; the report still keeps the first
    # diff per label in sample order
    import localperiods.identity as identity
    events = []

    def one(k):
        events.append(("start", k))

        def localize():
            events.append(("localize", k))
            return [FactorDiff("shared", k, 0), FactorDiff(f"sample{k}", k, 0)]
        return 1.0, localize

    report = identity._judge("recursion", 1, split_place(2), 0, 1e-9, 3, one)
    assert events == [(event, k) for k in range(3) for event in ("start", "localize")]
    assert [(d.factor, d.lhs) for d in report.factor_diffs] == [
        ("shared", 0), ("sample0", 0), ("sample1", 1), ("sample2", 2)]


def test_reports_are_deterministic():
    a = verify_localcalc(1, split_place(2), samples=6, seed=3)
    b = verify_localcalc(1, split_place(2), samples=6, seed=3)
    assert a == b
    c = verify_recursion(2, inert_place(3), samples=6, seed=3)
    d = verify_recursion(2, inert_place(3), samples=6, seed=3)
    assert c == d


def test_sampler_exhausted_on_degenerate_stream():
    import numpy as np
    from localperiods.identity import SamplerExhausted

    class ZeroRng:
        # every draw lands on the trivial character, where d1 vanishes
        def uniform(self, lo, hi, size=None):
            return np.zeros(size if size is not None else 1)

    with pytest.raises(SamplerExhausted):
        sample_pair(1, inert_place(2), ZeroRng())


def _orbit_walk_ok(n, small, big):
    # the former sampler check: every Weyl translate of the inverted data
    from localperiods import case_for
    from localperiods.identity import GENERIC_EPS
    from localperiods.weylsum import _d0_values, _d1_values
    from weylref import act, enumerate_weyl
    case = case_for(n + 1)
    X = [c.inv().value for c in big.chars]
    x = [c.inv().value for c in small.chars]
    return (all(abs(_d1_values(case, act(w, X))) > GENERIC_EPS
                for w in enumerate_weyl(len(X)))
            and all(abs(_d0_values(case, act(w, x))) > GENERIC_EPS
                    for w in enumerate_weyl(len(x))))


def test_generic_position_datum_check_matches_orbit_walk():
    import numpy as np
    from localperiods.identity import _generic_position_ok, sample_datum
    field = inert_place(2)
    rng = np.random.default_rng(2024)
    draws, near_draws = [], []
    for n in (2, 3, 4, 5):
        draws += [(n, sample_datum(n + 1, field, rng), sample_datum(n + 2, field, rng))
                  for _ in range(50)]
        # two characters of one datum 1e-10 to 1e-3 turns apart put |d1| or
        # |d0| on either side of GENERIC_EPS
        for gap in np.logspace(-10, -3, 22):
            for m in (n + 1, n + 2):
                if m // 2 < 2:
                    continue
                t = rng.uniform(0.0, 1.0, size=m // 2)
                t[1] = t[0] + gap
                near = make_datum(m, field, [np.exp(2j * np.pi * a) for a in t])
                other = sample_datum(2 * n + 3 - m, field, rng)
                near_draws.append((n, near, other) if m == n + 1 else (n, other, near))
    for batch in (draws, near_draws):
        verdicts = [_generic_position_ok(n, small.values(), big.values())
                    for n, small, big in batch]
        assert verdicts == [_orbit_walk_ok(n, small, big) for n, small, big in batch]
    assert True in verdicts and False in verdicts


def test_sample_reproducible_in_isolation():
    field = inert_place(2)
    small_a, big_a = sample_pair(2, field, _rng_for(9, 4))
    small_b, big_b = sample_pair(2, field, _rng_for(9, 4))
    assert small_a.values() == small_b.values()
    assert big_a.values() == big_b.values()


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
@pytest.mark.parametrize("n", range(1, 7))
def test_a_draw_does_not_depend_on_q(place, n):
    # q enters the identity only through the L-factors, so a command may share
    # a place's draws across its --q values (shared_draws)
    for k in range(5):
        assert (sample_values(n, place(2), _rng_for(11 + n, k))
                == sample_values(n, place(3), _rng_for(11 + n, k)))


def test_shared_draws_serve_every_q_of_a_kind_within_the_block():
    import localperiods.identity as identity
    from localperiods.identity import SampleStack, shared_draws
    with shared_draws():
        inert = [SampleStack.draw(2, inert_place(q), 3, 5).draws for q in (2, 3)]
        split = SampleStack.draw(2, split_place(2), 3, 5).draws
        other = [SampleStack.draw(2, inert_place(2), *args).draws for args in ((4, 5), (3, 6))]
        other.append(SampleStack.draw(1, inert_place(2), 3, 5).draws)
    assert inert[0] is inert[1]
    assert all(draws is not inert[0] for draws in [split, *other])
    assert identity._SHARED_DRAWS.get() is None
    outside = [SampleStack.draw(2, inert_place(q), 3, 5).draws for q in (2, 3)]
    assert outside[0] is not outside[1] and outside[0] == outside[1] == inert[0]


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
def test_shared_stacks_share_characters_but_not_the_place(place):
    # the stacked characters, their reciprocals and the routes' alphas hold
    # no field, so within the block every q of a kind shares them, while each
    # q's values are its own
    from localperiods.identity import SampleStack, shared_draws
    with shared_draws():
        stacks = [SampleStack.draw(2, place(q), 3, 5) for q in (2, 3)]
        rows = [[s.row(k) for k in range(3)] for s in stacks]
        matrices = [s.matrices for s in stacks]
    for a, b in zip(*matrices):
        assert a is b
    for route in ("closed", "std", "adjoints"):
        assert stacks[0]._route(route)[1] is stacks[1]._route(route)[1]
    assert [s.field.q_F for s in stacks] == [2, 3] and rows[0] != rows[1]
    alone = SampleStack(2, place(3), stacks[1].draws)
    assert rows[1] == [alone.row(k) for k in range(3)]


@pytest.mark.parametrize("generic_eps", [None, 0.3], ids=["default", "redraws"])
@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
def test_a_stack_draws_what_sample_pair_draws(monkeypatch, place, generic_eps):
    # SampleStack stacks each sample's drawn values as they are, and their
    # reciprocals as Python's 1/x; its columns and its lazily built pairs are
    # sample_pair's data at (seed, k), exactly;
    # at generic_eps 0.3 the inert sampler redraws a good share of its samples
    import localperiods.identity as identity
    from localperiods.identity import SampleStack
    verdicts = []
    if generic_eps is not None:
        monkeypatch.setattr(identity, "GENERIC_EPS", generic_eps)
        ok = identity._generic_position_ok

        def counted(*args):
            verdicts.append(ok(*args))
            return verdicts[-1]
        monkeypatch.setattr(identity, "_generic_position_ok", counted)
    for n in range(7):
        field = place(2 + n % 2)
        stack = SampleStack.draw(n, field, 5, 31 + n)
        small, big, small_inv, big_inv = stack.matrices
        for k in range(5):
            expected = sample_pair(n, field, _rng_for(31 + n, k))
            assert stack.pair(k) == expected
            for values, inverses, datum in zip((small, big), (small_inv, big_inv), expected):
                assert values.shape == inverses.shape == (len(datum.chars), 5)
                assert values[:, k].tolist() == list(datum.values())
                assert inverses[:, k].tolist() == list(datum.inverted().values())
    if generic_eps is not None and place is inert_place:
        assert verdicts.count(False) > 10


def weyl_action_on_datum(datum, rng):
    """A random relative-Weyl translate: hyperoctahedral permutation/inversion
    of the characters at inert places, S_m permutation of the full tuple at
    split places (GL_m has no inversion symmetry on one tuple alone)."""
    if datum.field.is_inert:
        chars = [datum.chars[p] for p in rng.permutation(datum.rank)]
        chars = [c.inv() if rng.integers(0, 2) else c for c in chars]
        return make_datum(datum.m, datum.field, chars)
    chars = [datum.chars[p] for p in rng.permutation(datum.m)]
    return make_datum(datum.m, datum.field, chars)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["inert", "split"])
def test_both_sides_weyl_invariant(n, kind, rng):
    field = inert_place(2) if kind == "inert" else split_place(2)
    small, big = sample_pair(n, field, _rng_for(17, n))
    lhs = unramified_period(small, big)
    rhs = identity_reference(small, big)[RHS]
    for _ in range(4):
        small_w = weyl_action_on_datum(small, rng)
        big_w = weyl_action_on_datum(big, rng)
        assert rel_err(unramified_period(small_w, big_w), lhs) < 1e-10
        assert rel_err(identity_reference(small_w, big_w)[RHS], rhs) < 1e-10


def test_period_conjugation_symmetry():
    field = split_place(3)
    small, big = sample_pair(1, field, _rng_for(23, 0))
    lhs = unramified_period(small.conjugated(), big.conjugated())
    assert rel_err(lhs, unramified_period(small, big).conjugate()) < 1e-12


# ---------------------------------------------------------------------------
# the stacked recursion check against the per-sample loop it replaces


def recursion_reference(pairs, tol):
    """Each sample's (error, diff labels), judged one sample at a time as the
    check did before it stacked its samples; a PoleError propagates from the
    first sample, and the first route, that raises it.  The labels are those
    of the sample's own one-sample stack."""
    import localperiods.identity as identity
    from localperiods import ConventionError, factor_product
    from localperiods.identity import SampleStack, match_factor_lists
    results = []
    for small, big in pairs:
        closed = identity.zeta_closed_factors(small, big)
        recursive = identity.zeta_recursive_factors(small, big)
        z_closed = factor_product(closed)
        try:
            z_recursive = factor_product(recursive)
        except ConventionError as err:
            results.append((float("inf"), [f"ConventionError: {err.factor}"]))
            continue
        err = rel_err(z_closed, z_recursive)
        results.append((err, [] if err <= tol else
                        [d.factor for d in match_factor_lists(
                            SampleStack(big.m - 2, big.field,
                                        [(small.values(), big.values())]), 0)]))
    return results


def with_chars(datum, values):
    # the datum with the characters at the given positions replaced
    return make_datum(datum.m, datum.field, [values.get(i, c.value)
                                             for i, c in enumerate(datum.chars)])


def run_both(monkeypatch, n, pairs, tol):
    """(stacked report, reference results) on the given samples, or the
    PoleError factor each raised."""
    import localperiods.identity as identity
    from localperiods import PoleError
    draws = iter(pairs)
    monkeypatch.setattr(identity, "sample_values",
                        lambda n, field, rng: tuple(d.values() for d in next(draws)))
    outcomes = []
    for run in (lambda: verify_recursion(n, pairs[0][1].field, samples=len(pairs), tol=tol),
                lambda: recursion_reference(pairs, tol)):
        try:
            outcomes.append(run())
        except PoleError as err:
            outcomes.append(("PoleError", err.factor))
    return outcomes


def add_marked_poles(monkeypatch):
    # Each route gets extra direct factors at s = 1 over q = 2 whose alpha is
    # a small character: a sample whose character 0 (closed) or 1
    # (recursive) is 2 has them on their poles.  Characters of modulus 1 or 2
    # put no other factor of split n = 3 on a pole (that needs modulus 2^(1/2)).
    import localperiods.identity as identity
    closed, recursive = identity.zeta_closed_factors, identity.zeta_recursive_factors
    monkeypatch.setattr(identity, "zeta_closed_factors", lambda small, big: closed(small, big) + [
        LFactor("extra closed", 1.0, 2, small.chars[0].value)])
    monkeypatch.setattr(identity, "zeta_recursive_factors", lambda small, big: recursive(
        small, big) + [LFactor(f"extra recursive {tag}", 1.0, 2, small.chars[1].value)
                       for tag in "AB"])


@pytest.mark.parametrize("closed_at, recursive_at, raised", [
    ((2,), (1,), "extra recursive A"),     # the lowest sample first
    ((1,), (1,), "extra closed"),          # then the closed route
    ((), (0, 2), "extra recursive A"),     # then list order
    ((), (), None),
])
def test_stacked_recursion_raises_the_first_pole_of_the_sample_loop(
        monkeypatch, closed_at, recursive_at, raised):
    add_marked_poles(monkeypatch)
    pairs = []
    for k in range(3):
        small, big = sample_pair(3, split_place(2), _rng_for(41, k))
        marks = {**({0: 2.0} if k in closed_at else {}),
                 **({1: 2.0} if k in recursive_at else {})}
        pairs.append((with_chars(small, marks), big))
    stacked, reference = run_both(monkeypatch, 3, pairs, 1e-9)
    if raised is not None:
        assert stacked == reference == ("PoleError", raised)
        return
    assert stacked.max_rel_err == max(err for err, _ in reference)
    assert [d.factor for d in stacked.factor_diffs] == list(dict.fromkeys(
        label for _, labels in reference for label in labels))


@pytest.mark.parametrize("n", [1, 3])
def test_a_twist_pole_in_one_sample_leaves_the_others_judged(monkeypatch, n):
    # mu_l * nu_l = q_F puts sample 1's quadratic-twist factor on its pole:
    # that sample is inf with its ConventionError, and samples 0 and 2 are
    # judged as they are alone (at n = 3 they fail on the split finding)
    pairs = [sample_pair(n, split_place(2), _rng_for(43, k)) for k in range(3)]
    small, big = pairs[1]
    l = big.rank
    pairs[1] = (small, with_chars(big, {l - 1: 2.0, big.m - l: 1.0}))
    stacked, reference = run_both(monkeypatch, n, pairs, 1e-9)
    assert [err for err, _ in reference][1] == float("inf")
    assert stacked.max_rel_err == float("inf") and not stacked.passed
    labels = [d.factor for d in stacked.factor_diffs]
    assert labels == list(dict.fromkeys(label for _, ls in reference for label in ls))
    assert f"ConventionError: step{n}: L_F(1, chi^{n}*mu{l}*nu{l})^-1" in labels
    if n == 3:
        assert labels[0].startswith("L_F(1/2, nu1*th2)")


@pytest.mark.parametrize("place", ["inert", "split"])
@pytest.mark.parametrize("n", [0, 1])
def test_recursion_cli_at_the_smallest_n(capsys, n, place):
    # inert n = 0 has two empty lists: each product is exactly 1, so the error
    # is exactly 0; split n = 0 and n = 1 report the largest per-sample error
    import json
    from localperiods import factor_product
    from localperiods.cli import main
    assert main(["recursion", "--n", str(n), "--place", place, "--q", "2", "--q", "3",
                 "--samples", "7", "--seed", "5"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["place"], r["q"], r["pass"], r["factor_diffs"]) for r in reports] == [
        (place, 2, True, []), (place, 3, True, [])]
    for report in reports:
        field = (inert_place if place == "inert" else split_place)(report["q"])
        errs = []
        for k in range(7):
            small, big = sample_pair(n, field, _rng_for(5, k))
            errs.append(rel_err(factor_product(zeta_closed_factors(small, big)),
                                factor_product(zeta_recursive_factors(small, big))))
        assert report["max_rel_err"] == max(errs)
        if (n, place) == (0, "inert"):
            assert report["max_rel_err"] == 0.0


# ---------------------------------------------------------------------------
# the stacked identity check against the per-sample loop it replaces


def identity_reference(small, big):
    """One sample's identity row, evaluated alone as the check did before it
    stacked its samples: the Weyl sum, L(1/2), zeta, S, then the adjoints."""
    from localperiods import (adjoint_factors, case_for, factor_product, motive_delta,
                              s_value_split, std_tensor_lfactor, weyl_sum_A)
    n, field = big.m - 2, big.field
    weyl = None
    if field.is_inert:
        weyl = weyl_sum_A(case_for(n + 1), [c.inv() for c in big.chars],
                          [c.inv() for c in small.chars], field)
    std = std_tensor_lfactor(0.5, small, big)
    z = factor_product(zeta_closed_factors(small, big))
    if field.is_inert:
        z_inv = factor_product(zeta_closed_factors(small.inverted(), big.inverted()))
        s_val = s_value_inert(n, field, z_inv, weyl)
    else:
        s_val = s_value_split(big.inverted().chars, small.inverted().chars, n, field)
    lr = std / factor_product(adjoint_factors(1.0, big) + adjoint_factors(1.0, small))
    delta = motive_delta(big.m, field)
    lhs, rhs = z * s_val, delta * lr
    return z, s_val, delta, lr, lhs, rhs, rel_err(lhs, rhs)


@pytest.mark.parametrize("place, ns", [(split_place, range(1, 9)), (inert_place, range(1, 7))],
                         ids=["split", "inert"])
def test_identity_table_rows_are_the_per_sample_rows(place, ns):
    for n in ns:
        for q in (2, 3):
            for seed in (0, 5):
                rows = identity_table(n, place(q), samples=3, seed=seed)
                assert rows == [identity_reference(*sample_pair(n, place(q), _rng_for(seed, k)))
                                for k in range(3)]


def raised(run):
    """run()'s result, or the type, message and factor of what it raised."""
    from localperiods import ConventionError, PoleError
    try:
        return run()
    except (PoleError, ConventionError) as err:
        return type(err).__name__, str(err), err.factor


def tuned_pairs(case):
    """Three samples whose middle one is tuned onto a pole (see the cases)."""
    place, n = (inert_place, 1) if case == "weyl" else (split_place, 1 if case == "std" else 3)
    pairs = [sample_pair(n, place(2), _rng_for(47, k)) for k in range(3)]
    small, big = pairs[1]
    if case == "weyl":
        # an inert big character 1 puts the Weyl sum's d1 on its zero
        pairs[1] = (small, with_chars(big, {0: 1.0}))
    elif case == "std":
        # th1 * mu1 = q^(1/2) is a pole of L(1/2) and of the closed list
        pairs[1] = (with_chars(small, {0: 2 ** 0.5}), with_chars(big, {0: 1.0}))
    elif case == "s":
        # a ratio q_F of two big characters puts S's L_F(1, X2/X3) on its pole
        pairs[1] = (small, with_chars(big, {0: 0.5, 2: 1.0}))
    else:
        # mu_l * nu_l = q_F, the recursion's twist data, puts a ratio of two
        # big characters, in the other order, on a pole of the big adjoint
        l = big.rank
        pairs[1] = (small, with_chars(big, {l - 1: 2.0, big.m - l: 1.0}))
    return pairs


@pytest.mark.parametrize("case", ["weyl", "std", "s", "adjoint"])
def test_a_pole_in_a_stacked_identity_sample_raises_as_the_sample_loop(monkeypatch, case):
    # the stacked report raises, for its middle sample, what the per-sample
    # loop raises: the first pole in the order the terms are taken alone
    import localperiods.identity as identity
    pairs = tuned_pairs(case)
    expected = raised(lambda: [identity_reference(*pair) for pair in pairs])
    assert isinstance(expected, tuple) and expected[0] == "PoleError"
    # L(1/2) raises ahead of the closed list, S ahead of the adjoints; each
    # PoleError names its factor
    assert expected[2] == {"weyl": "d1(X)", "std": "L_F(s, t1*T1)", "s": "L_F(1, X2/X3)",
                           "adjoint": "L_F(s, t2*t4^-1)"}[case]
    field = pairs[0][1].field
    for run in (lambda: verify_localcalc(pairs[0][1].m - 2, field, samples=3, tol=1e-30),
                lambda: identity_table(pairs[0][1].m - 2, field, samples=3)):
        draws = iter(pairs)
        monkeypatch.setattr(identity, "sample_values",
                            lambda n, field, rng: tuple(d.values() for d in next(draws)))
        assert raised(run) == expected
