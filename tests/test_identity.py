import pytest

from localperiods import (PlaceKind, euler_factor,
                          inert_place, lratio, make_datum,
                          split_datum, split_place, unramified_period,
                          verify_appendix, verify_basecase, verify_localcalc,
                          verify_recursion, verify_weyl_constancy)
from localperiods.identity import (FactorDiff, VerificationReport, identity_row,
                                   identity_table, rel_err, sample_pair, _rng_for)

RHS = 5  # identity_row index of Delta * L(1/2)/(Ad*Ad)
from localperiods.weylsum import s_value_inert


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
    assert lratio(0.5, small, big) == pytest.approx(expected)


def test_unramified_period_rank_one_inert_is_s_value(rng):
    # U(1) < U(2): zeta = 1 so the period is the spherical average alone
    field = inert_place(2)
    small, big = sample_pair(0, field, _rng_for(5, 0))
    expected = s_value_inert(big.chars, small.chars, 0, field, 1.0)
    assert unramified_period(small, big) == pytest.approx(expected)


def test_unramified_period_rank_one_split_regression():
    field = split_place(2)
    small = split_datum(2, [1.0])
    big = split_datum(2, [1.0, 1.0])
    value = unramified_period(small, big)
    assert abs(value.imag) < 1e-12
    assert value.real > 0
    # frozen after first computation; the identity check pins it independently
    assert value == pytest.approx(identity_row(small, big)[RHS])


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
    # a nan error is not within tol, so the sample is probed like any miss
    import localperiods.identity as identity
    nan = complex("nan")
    monkeypatch.setattr(identity, "identity_row",
                        lambda small, big: (nan,) * 6 + (float("nan"),))
    report = verify_localcalc(1, split_place(2), samples=2)
    assert not report.passed
    assert [d.factor for d in report.factor_diffs] == ["zeta*S vs Delta*L(1/2)/(Ad*Ad)"]


def test_verify_localcalc_failure_has_diffs():
    report = verify_localcalc(1, inert_place(2), samples=3, seed=11, tol=1e-30)
    assert not report.passed
    assert len(report.factor_diffs) >= 1


def test_verify_guards():
    with pytest.raises(ValueError):
        verify_localcalc(9, inert_place(2), samples=1)
    with pytest.raises(ValueError):
        verify_weyl_constancy(2, split_place(2), samples=1)


@pytest.mark.parametrize("driver, args", [
    (verify_localcalc, (1, inert_place(2))),
    (verify_weyl_constancy, (2, inert_place(2))),
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
    small, big = split_datum(2, [1.0, 1.0]), split_datum(2, [2.0, 1.0, 1.0])
    monkeypatch.setattr(identity, "sample_pair", lambda n, field, rng: (small, big))
    report = verify_recursion(1, split_place(2), samples=2)
    assert not report.passed and report.max_rel_err == float("inf")
    assert [d.factor for d in report.factor_diffs] == [
        "ConventionError: step1: L_F(1, chi^1*mu1*nu1)^-1"]


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
    from localperiods import act, case_for, d0_factor, d1_factor, enumerate_weyl
    from localperiods.identity import GENERIC_EPS
    case = case_for(n + 1)
    X = [c.inv() for c in big.chars]
    x = [c.inv() for c in small.chars]
    return (all(abs(d1_factor(case, act(w, X), big.field)) > GENERIC_EPS
                for w in enumerate_weyl(len(X)))
            and all(abs(d0_factor(case, act(w, x), small.field)) > GENERIC_EPS
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
        verdicts = [_generic_position_ok(n, small, big) for n, small, big in batch]
        assert verdicts == [_orbit_walk_ok(n, small, big) for n, small, big in batch]
    assert True in verdicts and False in verdicts


def test_sample_reproducible_in_isolation():
    field = inert_place(2)
    small_a, big_a = sample_pair(2, field, _rng_for(9, 4))
    small_b, big_b = sample_pair(2, field, _rng_for(9, 4))
    assert small_a.values() == small_b.values()
    assert big_a.values() == big_b.values()


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
    rhs = identity_row(small, big)[RHS]
    for _ in range(4):
        small_w = weyl_action_on_datum(small, rng)
        big_w = weyl_action_on_datum(big, rng)
        assert rel_err(unramified_period(small_w, big_w), lhs) < 1e-10
        assert rel_err(identity_row(small_w, big_w)[RHS], rhs) < 1e-10


def test_period_conjugation_symmetry():
    field = split_place(3)
    small, big = sample_pair(1, field, _rng_for(23, 0))
    lhs = unramified_period(small.conjugated(), big.conjugated())
    assert rel_err(lhs, unramified_period(small, big).conjugate()) < 1e-12
