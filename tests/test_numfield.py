import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from localperiods import (CharValue, LFactor, PoleError, euler_factor, factor_product,
                          inert_place, motive_delta, motive_delta_exact, split_place)


def test_euler_factor_zero_parameter_is_one():
    assert euler_factor(1.0, 4, 0.0) == 1.0


def test_euler_factor_direct_substitution():
    assert euler_factor(1.0, 4, 1.0) == pytest.approx(4.0 / 3.0)
    assert euler_factor(0.5, 4, -1.0) == pytest.approx(2.0 / 3.0)


def test_euler_factor_pole():
    with pytest.raises(PoleError):
        euler_factor(0.0, 5, 1.0)
    # just off the pole is fine
    assert euler_factor(1e-6, 5, 1.0) != 0


unit_angle = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@given(s=st.floats(min_value=0.1, max_value=5.0), q=st.integers(min_value=2, max_value=64))
def test_euler_factor_trivial_parameter(s, q):
    assert euler_factor(s, q, 0.0) == 1.0


@given(s=st.floats(min_value=0.2, max_value=4.0),
       q=st.integers(min_value=2, max_value=32),
       t=unit_angle)
def test_euler_factor_times_inverse_is_one(s, q, t):
    alpha = cmath.exp(2j * cmath.pi * t)
    prod = euler_factor(s, q, alpha) * LFactor("inverse", s, q, alpha, inverse=True).value()
    assert abs(prod - 1.0) < 1e-12


def test_motive_delta_values():
    assert motive_delta(1, inert_place(2)) == pytest.approx(2.0 / 3.0)
    # product of the two factors, assembled by hand from euler_factor
    expected = euler_factor(1, 2, -1) * euler_factor(2, 2, 1)
    assert expected == pytest.approx(8.0 / 9.0)
    assert motive_delta(2, inert_place(2)) == pytest.approx(expected)
    expected = euler_factor(1, 3, 1) * euler_factor(2, 3, 1)
    assert expected == pytest.approx(27.0 / 16.0)
    assert motive_delta(2, split_place(3)) == pytest.approx(expected)


def test_motive_delta_exact_is_rational():
    assert motive_delta_exact(2, inert_place(2)) == Fraction(8, 9)
    assert motive_delta_exact(2, split_place(3)) == Fraction(27, 16)


@pytest.mark.parametrize("m", range(2, 7))
def test_motive_delta_recursion(m, q):
    for field in (inert_place(q), split_place(q)):
        assert motive_delta(m, field) == pytest.approx(
            motive_delta(m - 1, field) * euler_factor(m, field.q_F, field.chi_at_uniformizer ** m))


def test_field_data_derived_quantities():
    f = inert_place(3)
    assert f.q_E == 9 and f.chi_at_uniformizer == -1
    f = split_place(3)
    assert f.q_E == 3 and f.chi_at_uniformizer == 1
    with pytest.raises(ValueError):
        inert_place(1)


def test_char_value_validation():
    with pytest.raises(ValueError):
        CharValue(0.0)
    c = CharValue(cmath.exp(0.6j * cmath.pi))
    assert c.inv().value == 1 / c.value
    assert abs(c.value * c.inv().value - 1) < 1e-12
    # any nonzero scalar is kept as given, so an exact value stays exact
    assert CharValue(Fraction(2, 3)).inv().value == Fraction(3, 2)
    assert type(CharValue(2).value) is int


def test_char_value_stacked_checks_every_entry():
    # a 1-D array is one value per sample: every entry is checked, and the
    # inverse is each entry's own 1 / value
    import numpy as np
    c = CharValue(np.array([1, 0.6 + 0.8j, -1j], dtype=object))
    assert c.value.tolist() == [1, 0.6 + 0.8j, -1j]
    assert c.inv().value.tolist() == [1 / v for v in c.value]
    with pytest.raises(ValueError, match="nonzero"):
        CharValue(np.array([1.0, 0.0, 1j]))


def test_factor_product_on_a_point_axis_matches_the_scalar_calls(q):
    # an array of s is one point per entry: np.exp and np.reciprocal instead
    # of cmath.exp and Python's complex division, so equal up to the last bits
    import numpy as np
    rng = np.random.default_rng(q)
    s = rng.uniform(0.5, 2.5, 400) + 1j * rng.uniform(-3.0, 3.0, 400)
    alpha = np.exp(2j * np.pi * rng.uniform(size=400))
    for a in (alpha, -1.0 + 0.0j):
        values = factor_product([LFactor("L", s, q, a)])
        scalar = [euler_factor(complex(x), q, complex(y))
                  for x, y in zip(s, np.broadcast_to(a, s.shape))]
        assert values.shape == s.shape
        assert all(abs(v - w) <= 1e-15 * abs(w) for v, w in zip(values.tolist(), scalar))


def test_factor_product_pole_on_a_point_axis_is_that_points_nan():
    # a pole at one point stops that point's product alone; the point, alone,
    # raises the PoleError that names the factor
    import numpy as np
    s = np.array([1.0 + 0.5j, 0.0 + 0.0j, 2.0 + 0.0j])
    zeta = LFactor("zeta_F(s)", s, 2, 1)
    got = factor_product([zeta])
    assert np.isnan(got[1]) and got[[0, 2]].tolist() == pytest.approx(
        [euler_factor(complex(x), 2, 1) for x in s[[0, 2]]], rel=1e-15)
    with pytest.raises(PoleError, match="s=0j") as err:
        factor_product([zeta._replace(s=0j)])
    assert err.value.factor == "zeta_F(s)"
    # the pole may sit in the alpha array too
    got = factor_product([LFactor("L", np.full(3, 1.0 + 0j), 2, np.array([0.5, 2.0, 1.0]))])
    assert np.isnan(got).tolist() == [False, True, False]
