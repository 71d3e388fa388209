import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import unit_chars
from localperiods import (Case, CharValue, LengthType, SizeError, WeylElement,
                          act, b_factor, case_for, case_ranks, d0_factor,
                          d1_factor, enumerate_weyl, euler_factor_inv,
                          inert_place, iwahori_volume, iwahori_volume_gl,
                          long_length, motive_A_value, rho_big, rho_monomial,
                          rho_small, s_value_inert, s_value_split, split_place,
                          weyl_sum_A)
from localperiods.identity import rel_err


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
    # the numpy tables are built without WeylElement objects; they must list
    # the elements' source indices and flips in enumerate_weyl order
    import numpy as np
    from localperiods.weylsum import _orbit_table
    elements = enumerate_weyl(l)
    src, flip = _orbit_table(l)
    assert src.shape == flip.shape == (len(elements), l)
    assert src.dtype == np.intp and flip.dtype == bool
    assert src.tolist() == [list(w.inverse_perm()) for w in elements]
    assert flip.tolist() == [[f == -1 for f in w.flips] for w in elements]
    with pytest.raises(SizeError):
        _orbit_table(7)


def test_act_identity_and_flip(rng):
    chars = unit_chars(rng, 3)
    w = WeylElement.identity(3)
    assert [c.value for c in act(w, chars)] == [c.value for c in chars]
    w = WeylElement((0,), (-1,))
    z = chars[0]
    assert act(w, [z])[0].value == pytest.approx(z.inv().value)


weyl_strategy = st.integers(min_value=0, max_value=47)


@settings(max_examples=60, deadline=None)
@given(i=weyl_strategy, j=weyl_strategy, seed=st.integers(min_value=0, max_value=2 ** 16))
def test_act_is_group_action(i, j, seed):
    import numpy as np
    elements = enumerate_weyl(3)
    w1, w2 = elements[i], elements[j]
    rng = np.random.default_rng(seed)
    chars = unit_chars(rng, 3)
    via_steps = act(w1, act(w2, chars))
    via_compose = act(w1.compose(w2), chars)
    for a, b in zip(via_steps, via_compose):
        assert abs(a.value - b.value) < 1e-12


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
    (X,) = unit_chars(rng, 1)
    (x,) = unit_chars(rng, 1)
    qe = field.q_E
    expected = (euler_factor_inv(0.5, qe, x.value)
                * euler_factor_inv(0.5, qe, X.value * x.value)
                * euler_factor_inv(0.5, qe, X.value / x.value))
    assert b_factor(Case.A, [X], [x], field) == pytest.approx(expected)


def test_d_factors_rank_one(rng):
    field = inert_place(2)
    (X,) = unit_chars(rng, 1)
    assert d1_factor(Case.A, [X], field) == pytest.approx(1 - X.value ** 2)
    assert d0_factor(Case.B, [X], field) == pytest.approx(1 - X.value ** 2)
    assert d0_factor(Case.A, [X], field) == pytest.approx(1 - X.value)
    assert d1_factor(Case.B, [X], field) == pytest.approx(1 - X.value)


@pytest.mark.parametrize("case,l_big,l_small", [(Case.A, 2, 2), (Case.B, 2, 1), (Case.B, 3, 2)])
def test_alternating_sign_property(case, l_big, l_small, rng):
    field = inert_place(2)
    rho1 = rho_big(case, l_big)
    rho0 = rho_small(case, l_small)
    for _ in range(20):
        X = unit_chars(rng, l_big)
        x = unit_chars(rng, l_small)
        base1 = rho_monomial(X, rho1, WeylElement.identity(l_big)) * d1_factor(case, X, field)
        base0 = rho_monomial(x, rho0, WeylElement.identity(l_small)) * d0_factor(case, x, field)
        for w in enumerate_weyl(l_big):
            lhs = rho_monomial(X, rho1, w) * d1_factor(case, act(w, X), field)
            assert abs(lhs - w.sign * base1) < 1e-10
        for w in enumerate_weyl(l_small):
            lhs = rho_monomial(x, rho0, w) * d0_factor(case, act(w, x), field)
            assert abs(lhs - w.sign * base0) < 1e-10


def test_weyl_sum_invariant_under_translation(rng):
    field = inert_place(3)
    X = unit_chars(rng, 2)
    x = unit_chars(rng, 2)
    base = weyl_sum_A(Case.A, X, x, field)
    for wp in enumerate_weyl(2)[:5]:
        for w in enumerate_weyl(2)[3:7]:
            moved = weyl_sum_A(Case.A, act(wp, X), act(w, x), field)
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
    from localperiods.weylsum import act_exact, b_factor_exact, special_vectors_exact
    case = case_for(n_plus_1)
    l_big, l_small = case_ranks(n_plus_1)
    X, x = special_vectors_exact(case, l_big, q)
    assert len(x) == l_small
    for wp in enumerate_weyl(l_big):
        for w in enumerate_weyl(l_small):
            if wp.is_identity and w.is_identity:
                continue
            assert b_factor_exact(case, act_exact(wp, X), act_exact(w, x), q) == 0


@pytest.mark.parametrize("n_plus_1", [2, 3])
def test_special_vectors_sum_collapses_to_identity_term(n_plus_1, q):
    # with every other term identically zero, the double sum is c(identity);
    # small ranks keep the floating-point companion factors moderate
    from localperiods.weylsum import special_vectors_exact
    field = inert_place(q)
    case = case_for(n_plus_1)
    l_big, _ = case_ranks(n_plus_1)
    Xf, xf = special_vectors_exact(case, l_big, q)
    X = [CharValue(float(v)) for v in Xf]
    x = [CharValue(float(v)) for v in xf]
    total = weyl_sum_A(case, X, x, field)
    c_identity = (b_factor(case, X, x, field)
                  / (d1_factor(case, X, field) * d0_factor(case, x, field)))
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


def test_long_length():
    assert long_length(2, LengthType.HYPEROCTAHEDRAL_RANK) == 4
    assert long_length(3, LengthType.SYMMETRIC_SIZE) == 3
    assert long_length(0, LengthType.HYPEROCTAHEDRAL_RANK) == 0
    assert long_length(0, LengthType.SYMMETRIC_SIZE) == 0


def test_s_value_inert_linear_in_zeta_argument(rng):
    field = inert_place(2)
    X = unit_chars(rng, 1)
    x = unit_chars(rng, 1)
    one = s_value_inert(X, x, 1, field, 1.0)
    z = 0.37 - 1.2j
    assert s_value_inert(X, x, 1, field, z) == pytest.approx(one * z)


def test_s_value_inert_rank_one_factors(rng):
    # n = 1: q_F^{1 + 3} times Vol(B_2) Vol(B_3) times the double average
    field = inert_place(2)
    X = unit_chars(rng, 1)
    x = unit_chars(rng, 1)
    a_val = weyl_sum_A(Case.A, [c.inv() for c in X], [c.inv() for c in x], field)
    expected = 2 ** 4 * Fraction(1, 3) * Fraction(1, 9)
    assert s_value_inert(X, x, 1, field, 1.0) == pytest.approx(float(expected) * a_val)


def test_s_value_split_unit_characters():
    # n = 1, all characters trivial, q = 2: six identical numerator factors,
    # denominator zeta_F(1) zeta_F(2) and four unit-ratio factors L_F(1, 1)
    field = split_place(2)
    ones = [CharValue.one()] * 3
    num = (1 / (1 - 2 ** -0.5)) ** 6
    den = (1 / (1 - Fraction(1, 2))) * (1 / (1 - Fraction(1, 4))) * (1 / (1 - Fraction(1, 2))) ** 4
    scale = 2 ** 4 * iwahori_volume_gl(2, 2) * iwahori_volume_gl(3, 2)
    expected = float(scale) * num / float(den)
    got = s_value_split(ones, ones[:2], 1, field)
    assert got == pytest.approx(expected)


def test_weyl_sum_pole_error():
    # the alternant divides by d1 at the big datum and by d0 on the small orbit
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


UNIT_ROUNDOFF = 2.0 ** -53


def _reference_weyl_sum(case, X, x, field):
    """The defining double sum, term by term, from the public scalar factors,
    and the worst-case rounding of that sum: every term is a product of at
    most 4 (l_big + l_small)^2 + 10 rounded operations, and the running sum
    adds one rounding per term, so the error is at most
    (terms + 4 (l_big + l_small)^2 + 10) u sum |term|."""
    total, magnitude, terms = 0j, 0.0, 0
    for wp in enumerate_weyl(len(X)):
        Xs = act(wp, X)
        d1 = d1_factor(case, Xs, field)
        for w in enumerate_weyl(len(x)):
            xs = act(w, x)
            term = b_factor(case, Xs, xs, field) / (d1 * d0_factor(case, xs, field))
            total += term
            magnitude += abs(term)
            terms += 1
    ops = 4 * (len(X) + len(x)) ** 2 + 10
    return total, (terms + ops) * UNIT_ROUNDOFF * magnitude


@pytest.mark.parametrize("n_plus_1", [1, 2, 3, 4, 5])
def test_weyl_sum_matches_scalar_reference(n_plus_1, q):
    # covers both cases and, at n + 1 = 1, the rank-0 small group; the
    # reference carries its own rounding, so it bounds the difference
    import numpy as np
    from localperiods import sample_pair
    field = inert_place(q)
    case = case_for(n_plus_1)
    for k in range(3):
        small, big = sample_pair(n_plus_1 - 1, field, np.random.default_rng([n_plus_1, q, k]))
        X = [c.inv() for c in big.chars]
        x = [c.inv() for c in small.chars]
        reference, bound = _reference_weyl_sum(case, X, x, field)
        assert abs(weyl_sum_A(case, X, x, field) - reference) <= bound
