import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import unit_chars, unit_values
from localperiods import (Case, CharValue, LFactor, SizeError, case_for, case_ranks,
                          factor_product, inert_place, iwahori_volume,
                          iwahori_volume_gl, motive_A_value, rho_big,
                          s_value_inert, s_value_split, split_place, weyl_sum_A)
from localperiods.identity import rel_err
from localperiods.weylsum import _d0_values, _d1_values, _half_root
from weylref import (WeylElement, _b_values, act, assert_weyl_sum_matches_double_sum,
                     enumerate_weyl, rho_monomial, rho_small, special_vectors)


def chars(values):
    return [CharValue(v) for v in values]


@pytest.mark.parametrize("l,count", [(0, 1), (1, 2), (2, 8), (3, 48)])
def test_enumerate_weyl_counts(l, count):
    elements = enumerate_weyl(l)
    assert len(elements) == count
    assert len(set(elements)) == count
    assert elements[0].is_identity


def test_enumerate_weyl_guard():
    with pytest.raises(SizeError):
        enumerate_weyl(7)


@pytest.mark.parametrize("l", range(7))
def test_orbit_table_matches_enumerate_weyl(l):
    # the alternant reference's numpy tables are built without WeylElement
    # objects; they must list the elements' source indices and flips in
    # enumerate_weyl order
    import numpy as np
    from weylref import orbit_table
    elements = enumerate_weyl(l)
    src, flip = orbit_table(l)
    assert src.shape == flip.shape == (len(elements), l)
    assert src.dtype == np.intp and flip.dtype == bool
    assert src.tolist() == [list(w.inverse_perm()) for w in elements]
    assert flip.tolist() == [[f == -1 for f in w.flips] for w in elements]
    with pytest.raises(SizeError):
        orbit_table(7)


def test_act_identity_and_flip(rng):
    values = unit_values(rng, 3)
    w = WeylElement.identity(3)
    assert list(act(w, values)) == values
    w = WeylElement((0,), (-1,))
    z = values[0]
    assert act(w, [z])[0] == pytest.approx(1 / z)


weyl_strategy = st.integers(min_value=0, max_value=47)


@settings(max_examples=60, deadline=None)
@given(i=weyl_strategy, j=weyl_strategy, seed=st.integers(min_value=0, max_value=2 ** 16))
def test_act_is_group_action(i, j, seed):
    import numpy as np
    elements = enumerate_weyl(3)
    w1, w2 = elements[i], elements[j]
    rng = np.random.default_rng(seed)
    values = unit_values(rng, 3)
    via_steps = act(w1, act(w2, values))
    via_compose = act(w1.compose(w2), values)
    for a, b in zip(via_steps, via_compose):
        assert abs(a - b) < 1e-12


@settings(max_examples=60, deadline=None)
@given(i=weyl_strategy, j=weyl_strategy)
def test_sign_is_multiplicative(i, j):
    elements = enumerate_weyl(3)
    w1, w2 = elements[i], elements[j]
    assert w1.compose(w2).sign == w1.sign * w2.sign


def test_weyl_element_validation():
    with pytest.raises(ValueError):
        WeylElement((0, 0), (1, 1))
    with pytest.raises(ValueError):
        WeylElement((0, 1), (1, 2))


def test_b_factor_case_a_rank_one_structure(rng):
    # three reciprocal factors: L_E(1/2, x) L_E(1/2, Xx) L_E(1/2, X/x)
    field = inert_place(2)
    (X,) = unit_values(rng, 1)
    (x,) = unit_values(rng, 1)
    qe = field.q_E
    expected = factor_product([LFactor(label, 0.5, qe, alpha, inverse=True)
                               for label, alpha in (("x", x), ("Xx", X * x), ("X/x", X / x))])
    assert _b_values(Case.A, [X], [x], _half_root(field)) == pytest.approx(expected)


def test_d_factors_rank_one(rng):
    (X,) = unit_values(rng, 1)
    assert _d1_values(Case.A, [X]) == pytest.approx(1 - X ** 2)
    assert _d0_values(Case.B, [X]) == pytest.approx(1 - X ** 2)
    assert _d0_values(Case.A, [X]) == pytest.approx(1 - X)
    assert _d1_values(Case.B, [X]) == pytest.approx(1 - X)


@pytest.mark.parametrize("case,l_big,l_small", [(Case.A, 2, 2), (Case.B, 2, 1), (Case.B, 3, 2)])
def test_alternating_sign_property(case, l_big, l_small, rng):
    rho1 = rho_big(case, l_big)
    rho0 = rho_small(case, l_small)
    for _ in range(20):
        X = unit_values(rng, l_big)
        x = unit_values(rng, l_small)
        base1 = rho_monomial(X, rho1, WeylElement.identity(l_big)) * _d1_values(case, X)
        base0 = rho_monomial(x, rho0, WeylElement.identity(l_small)) * _d0_values(case, x)
        for w in enumerate_weyl(l_big):
            lhs = rho_monomial(X, rho1, w) * _d1_values(case, act(w, X))
            assert abs(lhs - w.sign * base1) < 1e-10
        for w in enumerate_weyl(l_small):
            lhs = rho_monomial(x, rho0, w) * _d0_values(case, act(w, x))
            assert abs(lhs - w.sign * base0) < 1e-10


def test_weyl_sum_invariant_under_translation(rng):
    field = inert_place(3)
    X = unit_values(rng, 2)
    x = unit_values(rng, 2)
    base = weyl_sum_A(Case.A, chars(X), chars(x), field)
    for wp in enumerate_weyl(2)[:5]:
        for w in enumerate_weyl(2)[3:7]:
            moved = weyl_sum_A(Case.A, chars(act(wp, X)), chars(act(w, x)), field)
            assert rel_err(moved, base) < 1e-10


def test_weyl_sum_constancy_and_motive(rng):
    field = inert_place(2)
    # n+1 = 2, case A: (L(1,chi) zeta(2))^{-1} inverted = 9/8
    assert motive_A_value(2, field) == pytest.approx(9 / 8)
    for _ in range(5):
        X = unit_chars(rng, 1)
        x = unit_chars(rng, 1)
        assert rel_err(weyl_sum_A(Case.A, X, x, field), 9 / 8) < 1e-8
    # n+1 = 3, case B: (L(1,chi) zeta(2) L(3,chi))^{-1} = 81/64
    assert motive_A_value(3, field) == pytest.approx(81 / 64)
    for _ in range(5):
        X = unit_chars(rng, 2)
        x = unit_chars(rng, 1)
        assert rel_err(weyl_sum_A(Case.B, X, x, field), 81 / 64) < 1e-8


def test_motive_A_values():
    field = inert_place(2)
    assert motive_A_value(1, field) == pytest.approx(3 / 2)
    # stepping the size by two divides the value by L(2l+1, chi) zeta(2l+2)
    for l in (1, 2):
        step = (motive_A_value(2 * l + 2, field) / motive_A_value(2 * l, field))
        li = 1 / (1 + 2.0 ** -(2 * l + 1))
        ze = 1 / (1 - 2.0 ** -(2 * l + 2))
        assert step == pytest.approx(1 / (li * ze))


@pytest.mark.parametrize("n_plus_1", [2, 3, 4, 5])
def test_special_vectors_kill_nonidentity_terms(n_plus_1, q):
    case = case_for(n_plus_1)
    l_big, l_small = case_ranks(n_plus_1)
    X, x = special_vectors(case, l_big, q)
    assert len(x) == l_small
    for wp in enumerate_weyl(l_big):
        for w in enumerate_weyl(l_small):
            if wp.is_identity and w.is_identity:
                continue
            assert _b_values(case, act(wp, X), act(w, x), Fraction(1, q)) == 0


@pytest.mark.parametrize("n_plus_1", [2, 3])
def test_special_vectors_sum_collapses_to_identity_term(n_plus_1, q):
    # with every other term identically zero, the double sum is c(identity);
    # small ranks keep the floating-point companion factors moderate
    field = inert_place(q)
    case = case_for(n_plus_1)
    l_big, _ = case_ranks(n_plus_1)
    Xf, xf = special_vectors(case, l_big, q)
    X = [complex(float(v)) for v in Xf]
    x = [complex(float(v)) for v in xf]
    total = weyl_sum_A(case, chars(X), chars(x), field)
    c_identity = (_b_values(case, X, x, _half_root(field))
                  / (_d1_values(case, X) * _d0_values(case, x)))
    assert rel_err(total, c_identity) < 1e-10


def test_iwahori_volume_values():
    assert iwahori_volume(1, 2) == Fraction(1)
    assert iwahori_volume(2, 2) == Fraction(1, 3)
    assert iwahori_volume(3, 2) == Fraction(1, 9)


@pytest.mark.parametrize("i", range(1, 7))
def test_iwahori_volume_clears_denominator(i, q):
    num = Fraction(1)
    den = Fraction(1)
    for j in range(1, i + 1):
        num *= q - (-1) ** j
        den *= q ** j - (-1) ** j
    assert iwahori_volume(i, q) * den == num
    # split analogue: complete flag count
    flags = Fraction(1)
    for j in range(1, i + 1):
        flags *= Fraction(q ** j - 1, q - 1)
    assert iwahori_volume_gl(i, q) == 1 / flags


def test_s_value_inert_linear_in_zeta_argument(rng):
    field = inert_place(2)
    X = unit_chars(rng, 1)
    x = unit_chars(rng, 1)
    a_val = weyl_sum_A(Case.A, [c.inv() for c in X], [c.inv() for c in x], field)
    one = s_value_inert(1, field, 1.0, a_val)
    z = 0.37 - 1.2j
    assert s_value_inert(1, field, z, a_val) == pytest.approx(one * z)


def test_s_value_inert_rank_one_factors(rng):
    # n = 1: q_F^{1 + 3} times Vol(B_2) Vol(B_3) times the double average
    field = inert_place(2)
    X = unit_chars(rng, 1)
    x = unit_chars(rng, 1)
    a_val = weyl_sum_A(Case.A, [c.inv() for c in X], [c.inv() for c in x], field)
    expected = 2 ** 4 * Fraction(1, 3) * Fraction(1, 9)
    assert s_value_inert(1, field, 1.0, a_val) == pytest.approx(float(expected) * a_val)


def test_s_value_split_unit_characters():
    # n = 1, all characters trivial, q = 2: six identical numerator factors,
    # denominator zeta_F(1) zeta_F(2) and four unit-ratio factors L_F(1, 1)
    field = split_place(2)
    ones = [CharValue(1)] * 3
    num = (1 / (1 - 2 ** -0.5)) ** 6
    den = (1 / (1 - Fraction(1, 2))) * (1 / (1 - Fraction(1, 4))) * (1 / (1 - Fraction(1, 2))) ** 4
    scale = 2 ** 4 * iwahori_volume_gl(2, 2) * iwahori_volume_gl(3, 2)
    expected = float(scale) * num / float(den)
    got = s_value_split(ones, ones[:2], 1, field)
    assert got == pytest.approx(expected)


@pytest.mark.parametrize("n", range(0, 9))
def test_stacked_s_value_split_is_each_samples_value(n):
    # S's two lists, built once on stacked characters, give each sample's
    # own value to the last bit
    from localperiods.identity import _rng_for, sample_pair
    from weylref import stack_values
    field = split_place(2 + n % 2)
    pairs = [sample_pair(n, field, _rng_for(n, k)) for k in range(3)]
    small, big = (stack_values(m, field, [d.values() for d in data])
                  for m, data in zip((n + 1, n + 2), zip(*pairs)))
    stacked = s_value_split(big.inverted().chars, small.inverted().chars, n, big.field)
    assert stacked.tolist() == [s_value_split(b.inverted().chars, s.inverted().chars, n, b.field)
                                for s, b in pairs]


@pytest.mark.parametrize("n", range(0, 9))
def test_s_split_factors_are_exact_on_fractions(n):
    # the reciprocals are written 1 / z and the zeta_F alphas 1, so Fraction
    # characters give exact alphas, and the lists' float products are
    # s_value_split's own numerator and denominator
    from localperiods import factor_product, s_split_factors
    from localperiods.weylsum import _s_scale
    field = split_place(2 + n % 2)
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    big, small = (tuple(CharValue(Fraction(p, 101)) for p in part)
                  for part in (primes[:n + 2], primes[n + 2:2 * n + 3]))
    num, den = s_split_factors(big, small, n, field)
    assert all(type(f.alpha) is Fraction for f in num)
    assert [type(f.alpha) for f in den] == [int] * (n + 1) + [Fraction] * (len(den) - n - 1)
    floats = tuple(CharValue(complex(c.value)) for c in big), tuple(
        CharValue(complex(c.value)) for c in small)
    num_f, den_f = s_split_factors(*floats, n, field)
    assert s_value_split(*floats, n, field) == (
        float(_s_scale(n, field)) * factor_product(num_f) / factor_product(den_f))


@pytest.mark.parametrize("m", [4, 5])
def test_split_coordinates_are_indexed_from_one(m):
    # s_value_split reads the half-reversed coordinates as 1..m, as the closed
    # form does: an index-0 slip meets None and fails, and an index past the
    # end raises IndexError
    from localperiods.weylsum import _half_reversed
    x = _half_reversed([complex(k) for k in range(1, m + 1)])
    assert x == ((None, 2, 1, 4, 3) if m == 4 else (None, 2, 1, 3, 5, 4))
    with pytest.raises(TypeError):
        x[0] * x[1]
    with pytest.raises(TypeError):
        1.0 / (x[0] * x[m])
    with pytest.raises(IndexError):
        x[m + 1]


def test_weyl_sum_pole_error():
    # the sum divides once by d1 at the big datum and d0 at the small one
    from localperiods import PoleError
    field = inert_place(2)
    X = [CharValue(1.0)]  # d1 vanishes identically at the trivial character
    x = [CharValue(cmath.exp(0.4j))]
    with pytest.raises(PoleError) as err:
        weyl_sum_A(Case.A, X, x, field)
    assert err.value.factor == "d1(X)"
    X = [CharValue(cmath.exp(0.4j))]
    x = [CharValue(1.0)]  # d0 = 1 - x in case A
    with pytest.raises(PoleError) as err:
        weyl_sum_A(Case.A, X, x, field)
    assert err.value.factor == "d0(wx)"


@pytest.mark.parametrize("n_plus_1", [1, 2, 3, 4, 5, 6])
def test_weyl_sum_matches_scalar_reference(n_plus_1, q):
    # covers both cases and, at n + 1 = 1, the rank-0 small group; the
    # reference carries its own rounding, so it bounds the difference
    assert_weyl_sum_matches_double_sum(n_plus_1, q)


# names that left the library: the group reference, the alternant, b and the
# GL adjoint now live in tests/weylref.py, and the wrappers that only tests
# called are gone (each call site uses the public builder that makes its value)
REMOVED_NAMES = ("WeylElement", "_perm_sign", "enumerate_weyl", "act", "_act_values",
                 "act_exact", "b_factor", "d1_factor", "d0_factor",
                 "special_vectors_exact", "b_factor_exact", "RhoVector", "rho_small",
                 "rho_monomial", "LengthType", "long_length", "_two_rho_big",
                 "induce_preservation_defect", "series_truncation_bound",
                 "_orbit_table", "weyl_orbit", "_h_values", "WEYL_BLOCK",
                 "_b_values", "adjoint_gl", "inert_datum", "split_datum", "stack_data",
                 "identity_row", "lfactor_chi", "euler_factor_inv", "stack_values",
                 "column")


def test_package_exports_no_module_and_no_removed_name():
    import types

    import localperiods
    from localperiods import cli, identity, numfield, paramcalc, satake, weylsum, zetarec
    exported = set(localperiods.__all__)
    assert not [name for name in exported
                if isinstance(getattr(localperiods, name), types.ModuleType)]
    assert not exported & set(REMOVED_NAMES)
    for module in (localperiods, weylsum, paramcalc, zetarec, satake, numfield, identity):
        assert not [name for name in REMOVED_NAMES if hasattr(module, name)]
    # the CLI draws through sample_values and no longer binds sample_pair
    assert not hasattr(cli, "sample_pair")
