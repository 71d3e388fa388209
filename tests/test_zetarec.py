import cmath
from collections import Counter
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest

from conftest import unit_chars, unit_values
from localperiods import (ConventionError, LFactor, PoleError,
                          euler_factor, factor_product, inert_place, make_datum,
                          split_place, zeta_base_split_closed,
                          zeta_base_split_series, zeta_closed_factors,
                          zeta_recursive_factors)
from localperiods.identity import (SampleStack, _rng_for, match_factor_lists, rel_err,
                                   sample_datum, sample_pair, sample_values)
from localperiods.numfield import column
from localperiods.satake import adjoint_factors, stack_values, std_tensor_factors
from weylref import series_truncation_bound


def closed(small, big):
    return factor_product(zeta_closed_factors(small, big))


def recursive(small, big):
    return factor_product(zeta_recursive_factors(small, big))


def test_inert_base_case_is_one(rng):
    field = inert_place(2)
    for _ in range(20):
        small = sample_datum(1, field, rng)
        big = sample_datum(2, field, rng)
        assert closed(small, big) == pytest.approx(1.0)
        assert recursive(small, big) == pytest.approx(1.0)


def test_base_split_series_expected_values():
    field = split_place(2)
    one = 1
    # closed form at trivial characters: (1 - q^{-1}) / (1 - q^{-1/2})^2
    expected = (1 - 0.5) / (1 - 2 ** -0.5) ** 2
    assert expected == pytest.approx(5.82842712474619)
    got = zeta_base_split_series(one, one, one, field, 100)
    assert got == pytest.approx(expected, abs=1e-12)
    assert zeta_base_split_closed(one, one, one, field) == pytest.approx(expected)
    # one-term truncation at q = 4
    got = zeta_base_split_series(one, one, one, split_place(4), 1)
    assert got == pytest.approx(2.0)


def test_base_split_series_vs_closed_random(rng):
    for q in (2, 3):
        field = split_place(q)
        bound = series_truncation_bound(field, 200)
        for _ in range(20):
            theta, phi, xi0 = unit_values(rng, 3)
            series = zeta_base_split_series(theta, phi, xi0, field, 200)
            closed = zeta_base_split_closed(theta, phi, xi0, field)
            assert abs(series - closed) <= bound + 1e-12


def test_base_split_series_geometric_convergence(rng):
    # truncation error shrinks like q^{-1/2} per extra term; the per-step ratio
    # oscillates with the character phases, so measure the geometric-mean rate
    # over a long window (still well above the float noise floor)
    for q in (2, 3):
        field = split_place(q)
        theta, phi, xi0 = unit_values(rng, 3)
        closed = zeta_base_split_closed(theta, phi, xi0, field)
        t1, t2 = 10, 50
        e1 = abs(zeta_base_split_series(theta, phi, xi0, field, t1) - closed)
        e2 = abs(zeta_base_split_series(theta, phi, xi0, field, t2) - closed)
        rate = (e2 / e1) ** (1.0 / (t2 - t1))
        target = q ** -0.5
        assert abs(rate - target) < 0.1 * target


def test_base_split_swap_symmetry(rng):
    field = split_place(3)
    theta, phi, xi0 = unit_values(rng, 3)
    a = zeta_base_split_closed(theta, phi, xi0, field)
    b = zeta_base_split_closed(phi, theta, 1 / xi0, field)
    assert a == pytest.approx(b)


def test_base_split_zero_factor_not_pole():
    # theta*phi at the pole of L_F(1, .): the reciprocal factor vanishes
    field = split_place(2)
    assert zeta_base_split_closed(2.0, 1.0, 1, field) == pytest.approx(0.0)


def test_base_split_series_requires_unitary():
    field = split_place(2)
    with pytest.raises(ValueError):
        zeta_base_split_series(2.0, 1, 1, field, 10)
    with pytest.raises(ValueError):
        zeta_base_split_series(1, 1, 1, field, 0)


def test_split_base_cases_of_both_routes(rng):
    field = split_place(2)
    small = sample_datum(1, field, rng)
    big = sample_datum(2, field, rng)
    expected = zeta_base_split_closed(big.theta(1), big.phi(1), small.chars[0].value, field)
    assert recursive(small, big) == pytest.approx(expected)
    assert closed(small, big) == pytest.approx(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursion_matches_closed_inert(n, q, rng):
    field = inert_place(q)
    for _ in range(50):
        small, big = sample_pair(n, field, rng)
        assert rel_err(closed(small, big), recursive(small, big)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 4])
def test_recursion_matches_closed_split(n, q, rng):
    field = split_place(q)
    for _ in range(50):
        small, big = sample_pair(n, field, rng)
        assert rel_err(closed(small, big), recursive(small, big)) < 1e-9


# The odd-case split display pairs nu_i with th_j where the recursion gives
# nu_i*ph_j: the localizer names exactly those factors, each against the leftover
# recursion factor it is listed with, in this order.
ODD_SPLIT_DIFFS = {
    3: ["L_F(1/2, nu1*th2) [vs step2: L_F(1/2, bc2^-1*nu2)]"],
    5: ["L_F(1/2, nu1*th2) [vs step4: L_F(1/2, bc3^-1*nu3)]",
        "L_F(1/2, nu1*th3) [vs step4: L_F(1/2, bc4^-1*nu3)]",
        "L_F(1/2, nu2*th3) [vs step2: L_F(1/2, bc2^-1*nu2)]"],
    7: ["L_F(1/2, nu1*th2) [vs step6: L_F(1/2, bc4^-1*nu4)]",
        "L_F(1/2, nu1*th3) [vs step6: L_F(1/2, bc5^-1*nu4)]",
        "L_F(1/2, nu1*th4) [vs step6: L_F(1/2, bc6^-1*nu4)]",
        "L_F(1/2, nu2*th3) [vs step4: L_F(1/2, bc3^-1*nu3)]",
        "L_F(1/2, nu2*th4) [vs step4: L_F(1/2, bc4^-1*nu3)]",
        "L_F(1/2, nu3*th4) [vs step2: L_F(1/2, bc2^-1*nu2)]"],
}


@pytest.mark.parametrize("n", sorted(ODD_SPLIT_DIFFS))
def test_recursion_split_odd_n_localizes_nu_th_factors(n, q, rng):
    field = split_place(q)
    stack = SampleStack(n, field, [sample_values(n, field, rng) for _ in range(10)])
    for k in range(10):
        small, big = stack.pair(k)
        assert rel_err(closed(small, big), recursive(small, big)) > 1e-6
        assert [d.factor for d in match_factor_lists(stack, k)] == ODD_SPLIT_DIFFS[n]


PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


def exact_pair(n, field, rng):
    # random Fraction characters, each a ratio of two primes that no other
    # character uses: distinct Laurent monomials in them are distinct values
    small_count, big_count = (m if field.is_split else m // 2 for m in (n + 1, n + 2))
    primes = iter(rng.permutation(PRIMES).tolist())
    values = [Fraction(next(primes), next(primes)) for _ in range(small_count + big_count)]
    return (make_datum(n + 1, field, values[:small_count]),
            make_datum(n + 2, field, values[small_count:]))


def exact_key(f, field):
    # (q_F-exponent of q^-s, inverse, alpha): a factor over q_E = q_F^2 at s
    # is the factor over q_F at 2s
    assert isinstance(f.alpha, Rational), f.label
    assert f.q in (field.q_F, field.q_E)
    return Fraction(f.s) * (2 if f.q != field.q_F else 1), f.inverse, f.alpha


def exact_multiset(factors, field):
    """The factors as a multiset of keys, once every direct factor that meets
    an inverse factor of the same key on this side has cancelled with it."""
    keys = Counter(exact_key(f, field) for f in factors)
    for exponent, inverse, alpha in list(keys):
        if not inverse:
            both = min(keys[exponent, False, alpha], keys[exponent, True, alpha])
            keys[exponent, False, alpha] -= both
            keys[exponent, True, alpha] -= both
    return +keys


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
def test_exact_characters_compare_the_zeta_routes_as_multisets(place, n, q):
    # the builders run unedited on Fraction characters, and every alpha stays
    # exact; the two routes are then equal Euler products for all data when
    # their multisets are equal.  At split odd n >= 3 exactly l1(l1-1)/2
    # factors are left on each side, the closed side's being the transcribed
    # L_F(1/2, nu_i*th_j) that the float localizer names.
    field = place(q)
    small, big = exact_pair(n, field, np.random.default_rng([q, n]))
    closed_list = zeta_closed_factors(small, big)
    closed_keys = exact_multiset(closed_list, field)
    recursive_keys = exact_multiset(zeta_recursive_factors(small, big), field)
    extra, missing = closed_keys - recursive_keys, recursive_keys - closed_keys
    expected = ODD_SPLIT_DIFFS[n] if field.is_split and n in ODD_SPLIT_DIFFS else []
    l1 = small.rank
    assert sum(extra.values()) == sum(missing.values()) == len(expected)
    assert len(expected) == (l1 * (l1 - 1) // 2 if field.is_split and n % 2 else 0)
    labels = {exact_key(f, field): f.label for f in closed_list}
    assert sorted(labels[key] for key in extra.elements()) == sorted(
        d.split(" [vs")[0] for d in expected)


def test_recursion_convention_error_at_twist_pole():
    # mu_1 * nu_1 = q_F puts the convention-sensitive quadratic-twist factor on
    # its pole: the cross-check must stop with the factor named, not guess
    big = make_datum(3, split_place(2), [2.0, 1.0, 1.0])
    small = make_datum(2, split_place(2), [1.0, 1.0])
    with pytest.raises(ConventionError) as exc:
        recursive(small, big)
    assert "chi^1*mu1*nu1" in exc.value.factor


def test_factor_product_raises_only_on_a_flagged_pole():
    # the pole-tuned data above: the flagged factor's value is 0, so the product
    # stops there; the same list with the flag cleared multiplies through to 0
    big = make_datum(3, split_place(2), [2.0, 1.0, 1.0])
    small = make_datum(2, split_place(2), [1.0, 1.0])
    factors = zeta_recursive_factors(small, big)
    with pytest.raises(ConventionError):
        factor_product(factors)
    cleared = [f._replace(convention_sensitive=False) for f in factors]
    assert factor_product(cleared) == 0


def test_factor_product_pole_contract():
    # q^{-1} alpha = 1 puts the factor on its pole: direct, the product stops
    # with a PoleError that names it; inverse, it is a zero of the product; an
    # inverse convention-sensitive factor there is refused with its name
    pole = LFactor("L_F(1, pole)", 1.0, 2, 2.0 + 0j)
    with pytest.raises(PoleError) as exc:
        factor_product([LFactor("L_F(1/2, generic)", 0.5, 2, 0.3j), pole])
    assert exc.value.factor == "L_F(1, pole)"
    assert factor_product([pole._replace(inverse=True)]) == 0
    with pytest.raises(ConventionError) as exc:
        factor_product([pole._replace(inverse=True, convention_sensitive=True)])
    assert exc.value.factor == "L_F(1, pole)"


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursion_flags_one_twist_factor_per_step(n, place, rng):
    # steps run k = n, n-1, ..., 1; each flags its quadratic-twist factor chi^k
    small, big = sample_pair(n, place(2), rng)
    factors = zeta_recursive_factors(small, big)
    flagged = [f for f in factors if f.convention_sensitive]
    assert [f.label.split(" L_F(1, ")[0] for f in flagged] == [
        f"step{k}:" for k in range(n, 0, -1)]
    for f, k in zip(flagged, range(n, 0, -1)):
        assert f.inverse and f.label.startswith(f"step{k}: L_F(1, chi^{k}*")
    assert [f for f in factors if "chi^" in f.label] == flagged


def test_zeta_conjugation_symmetry(rng):
    for field in (inert_place(2), split_place(3)):
        for n in (1, 2):
            small, big = sample_pair(n, field, rng)
            lhs = closed(small.conjugated(), big.conjugated())
            rhs = closed(small, big).conjugate()
            assert rel_err(lhs, rhs) < 1e-12
            lhs = recursive(small.conjugated(), big.conjugated())
            rhs = recursive(small, big).conjugate()
            assert rel_err(lhs, rhs) < 1e-12


def test_closed_inert_n1_explicit_display(rng):
    # n = 1: L(1/2, x X) L(1/2, X/x) / (L_E(1/2, chi X) L_E(1, X))
    field = inert_place(2)
    (x,) = unit_chars(rng, 1)
    (X,) = unit_chars(rng, 1)
    small = make_datum(2, field, [x])
    big = make_datum(3, field, [X])
    qe = field.q_E
    expected = (euler_factor(0.5, qe, x.value * X.value)
                * euler_factor(0.5, qe, X.value / x.value)
                * (1 - qe ** -0.5 * -X.value)
                * (1 - qe ** -1.0 * X.value))
    assert closed(small, big) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# the array product kernel and stacked lists

UNIT_ROUNDOFF = 2.0 ** -53


def left_to_right(factors):
    out = 1.0 + 0.0j
    for f in factors:
        out *= f.value()
    return out


def product_bound(factors):
    # each side rounds every factor value (a product and a difference, then
    # Smith's division) and every running product within 4u, so two
    # evaluations of the same list differ by at most 8u per factor
    return 8 * (len(factors) + 1) * UNIT_ROUNDOFF * abs(left_to_right(factors))


def random_list(rng, count):
    # |q^-s alpha| <= 1.2 / sqrt(2) keeps every factor well away from its pole
    return [LFactor(f"f{k}", float(rng.choice([0.5, 1.0, 2.0])), int(rng.choice([2, 3, 4, 9])),
                    complex(cmath.rect(rng.uniform(0.2, 1.2), rng.uniform(0, 2 * cmath.pi))),
                    bool(rng.integers(2)))
            for k in range(count)]


def stack_lists(lists):
    # one factor list whose alphas hold one Python complex per sample
    return [f._replace(alpha=np.array([l[i].alpha for l in lists], dtype=object))
            for i, f in enumerate(lists[0])]


def test_factor_product_is_the_left_to_right_product(rng):
    for count in (0, 1, 2, 5, 40, 200):
        for _ in range(10):
            factors = random_list(rng, count)
            got = factor_product(factors)
            assert type(got) is complex
            assert abs(got - left_to_right(factors)) <= product_bound(factors)
            # the same labels, s, q and inverse flags with other alphas per sample
            lists = [factors] + [[f._replace(alpha=g.alpha) for f, g in
                                  zip(factors, random_list(rng, count))] for _ in range(3)]
            stacked = factor_product(stack_lists(lists), samples=4)
            for k, sample in enumerate(lists):
                assert abs(stacked[k] - left_to_right(sample)) <= product_bound(sample)


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
def test_factor_product_of_sampled_lists_is_bit_identical(place):
    # numpy's complex reciprocal and its reduction along a contiguous axis
    # round as Python's complex arithmetic does, so on sampled data the
    # kernel is the left-to-right product to the last bit
    for n in range(0, 9):
        for k in range(5):
            small, big = sample_pair(n, place(2 + k % 2), _rng_for(11, k))
            for factors in (zeta_closed_factors(small, big), zeta_recursive_factors(small, big)):
                assert factor_product(factors) == left_to_right(factors)


def test_factor_product_of_an_empty_list():
    assert factor_product([]) == 1 and type(factor_product([])) is complex
    empty = factor_product([], samples=3)
    assert empty.shape == (3,) and empty.tolist() == [1, 1, 1]


def test_stacked_factor_product_stops_per_sample():
    # q^{-1} alpha = 1 puts a factor on its pole in sample 1 of 3 only: an
    # inverse factor there is a zero; a direct one stops that sample (nan),
    # and so does a convention-sensitive one; its column, alone, raises the
    # error that names the factor, and the other samples are the scalar ones
    alphas = np.array([0.5 + 0j, 2.0 + 0j, 1j], dtype=object)
    generic = LFactor("L_F(1/2, generic)", 0.5, 2, np.array([0.3j, 0.2, -0.4], dtype=object))
    cases = [(LFactor("L_F(1, z)", 1.0, 2, alphas, True), None),
             (LFactor("L_F(1, pole)", 1.0, 2, alphas), PoleError),
             (LFactor("L_F(1, twist)^-1", 1.0, 2, alphas, True, True), ConventionError)]
    for factor, error in cases:
        factors = [generic, factor]
        got = factor_product(factors, samples=3)
        for k in (0, 2):
            assert got[k] == factor_product(column(factors, k))
        if error is None:
            assert got[1] == 0
            continue
        assert np.isnan(got[1])
        with pytest.raises(error) as exc:
            factor_product(column(factors, 1))
        assert exc.value.factor == factor.label


def test_a_scalar_alpha_in_a_stacked_list_is_every_samples():
    # zeta_F(1)'s alpha 1 stands for every sample: the stacked product
    # broadcasts it, and each sample's product is that of its own list
    a = [0.5 + 0j, 0.25j, -0.3]
    b = [1j, 0.2, -1]
    stacked = [LFactor("L_F(1/2, a)", 0.5, 2, np.array(a, dtype=object)),
               LFactor("zeta_F(1)", 1, 2, 1.0 + 0.0j),
               LFactor("L_F(1, b)^-1", 1.0, 3, np.array(b, dtype=object), True)]
    got = factor_product(stacked, samples=3)
    for k in range(3):
        alone = [stacked[0]._replace(alpha=a[k]), stacked[1], stacked[2]._replace(alpha=b[k])]
        assert column(stacked, k) == alone
        assert got[k] == factor_product(alone) == left_to_right(alone)


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
def test_stacked_builders_give_each_sample_its_own_list(place):
    # the stacked characters hold Python complex values, so each column of a
    # stacked list is the per-sample list exactly: labels, s, q, flags and
    # alphas alike (the adjoints' scalar alphas 1 and -1 included); the
    # stacked product is each sample's product
    for n in range(0, 9):
        pairs = [sample_pair(n, place(3), _rng_for(n, k)) for k in range(3)]
        small, big = (stack_values(m, place(3), [d.values() for d in data])
                      for m, data in zip((n + 1, n + 2), zip(*pairs)))
        for build in (zeta_closed_factors, zeta_recursive_factors,
                      lambda small, big: std_tensor_factors(0.5, small, big),
                      lambda small, big: adjoint_factors(1.0, small),
                      lambda small, big: adjoint_factors(1.0, big)):
            stacked = build(small, big)
            products = factor_product(stacked, samples=3)
            for k, (s_k, b_k) in enumerate(pairs):
                alone = build(s_k, b_k)
                assert column(stacked, k) == alone
                assert products[k] == factor_product(alone)


def test_stack_data_keeps_one_group_and_place(rng):
    a = sample_datum(3, split_place(2), rng)
    stacked = stack_values(3, split_place(2), [a.values(), a.inverted().values()])
    assert [c.value.tolist() for c in stacked.chars] == [
        [c.value, 1.0 / c.value] for c in a.chars]


def test_split_base_case_product_is_unchanged(rng):
    # basecase multiplies a three-factor scalar list; the kernel gives the
    # left-to-right product of its values, to the last bit
    from localperiods.zetarec import _base_split_factors
    field = split_place(2)
    for _ in range(20):
        theta, phi, xi0 = unit_values(rng, 3)
        factors = _base_split_factors(theta, phi, xi0, 2, prefix="")
        assert zeta_base_split_closed(theta, phi, xi0, field) == left_to_right(factors)


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
def test_recursion_carries_bc_params_across_steps(monkeypatch, place):
    # a step's truncated datum is the next step's small one: bc_params runs
    # once per datum, n + 1 times, and each step pairs the parameters of its
    # own small and truncated data
    import localperiods.zetarec as zetarec
    from localperiods.satake import bc_params
    from localperiods.zetarec import truncate_big
    seen = []

    def counted(datum):
        seen.append(datum)
        return bc_params(datum)

    monkeypatch.setattr(zetarec, "bc_params", counted)
    for n in range(0, 7):
        seen.clear()
        small, big = sample_pair(n, place(2), _rng_for(3, n))
        factors = zeta_recursive_factors(small, big)
        assert len(seen) == (n + 1 if n else 0)
        cur_big, cur_small = big, small
        for k in range(n, 0, -1):
            trunc = truncate_big(cur_big)
            small_bc, trunc_bc = bc_params(cur_small), bc_params(trunc)
            l = cur_big.rank
            if cur_big.field.is_inert:
                t = cur_big.chars[l - 1].value
                expected = [a * t for a in small_bc.values + trunc_bc.values]
            else:
                mu, nu = cur_big.theta(l), cur_big.phi(l)
                expected = ([a * mu for a in small_bc.values]
                            + [a * nu for a in small_bc.dual_values]
                            + [a * nu for a in trunc_bc.values]
                            + [a * mu for a in trunc_bc.dual_values])
            assert [f.alpha for f in factors
                    if f.label.startswith(f"step{k}: ") and "bc" in f.label] == expected
            cur_big, cur_small = cur_small, trunc
