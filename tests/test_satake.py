import cmath
from collections import Counter

import pytest

from localperiods import (PoleError, adjoint_lfactor, bc_params, euler_factor,
                          make_datum, std_tensor_factors, std_tensor_lfactor,
                          std_tensor_lfactor_det)
from localperiods.identity import rel_err, sample_datum
from localperiods.numfield import inert_place, split_place


def as_multiset(values, digits=9):
    return Counter((round(z.real, digits), round(z.imag, digits)) for z in values)


def test_datum_shape_validation():
    with pytest.raises(ValueError):
        make_datum(2, inert_place(2), [0.5j, 2.0])  # too many characters
    with pytest.raises(ValueError):
        make_datum(3, split_place(2), [1.0, 2.0])  # split needs the full tuple
    d = make_datum(3, split_place(2), [1.0, 2.0, 4.0])
    assert d.odd_char == 2.0
    assert d.theta(1) == 1.0
    assert d.phi(1) == pytest.approx(0.25)
    assert make_datum(3, inert_place(2), [0.5j]).odd_char is None


def test_bc_params_inert_even():
    z = cmath.exp(0.7j)
    p = bc_params(make_datum(2, inert_place(2), [z]))
    assert as_multiset(p.values) == as_multiset([z, 1 / z])


def test_bc_params_inert_odd_appends_unit():
    z = cmath.exp(0.7j)
    p = bc_params(make_datum(3, inert_place(2), [z]))
    assert as_multiset(p.values) == as_multiset([z, 1.0, 1 / z])


def test_bc_params_split_duplicates_inverse():
    a, b = cmath.exp(0.3j), cmath.exp(1.1j)
    p = bc_params(make_datum(2, split_place(2), [a, b]))
    assert as_multiset(p.values) == as_multiset([a, b])
    assert as_multiset(p.dual_values) == as_multiset([1 / a, 1 / b])


def test_bc_params_inert_inversion_symmetric(rng):
    for m in (2, 3, 4, 5):
        d = sample_datum(m, inert_place(3), rng)
        vals = list(bc_params(d).values)
        if m % 2 == 1:
            vals.remove(next(z for z in vals if abs(z - 1) < 1e-12))
        assert as_multiset(vals) == as_multiset([1 / z for z in vals])


@pytest.mark.parametrize("place", [inert_place, split_place], ids=["inert", "split"])
def test_std_tensor_factors_are_the_oracles_products_exactly(place):
    # on distinct prime Fraction characters two alphas are equal exactly when
    # they are the same Laurent monomial: the transcribed list's alphas are,
    # as a multiset, the products the determinant oracle forms from bc_params
    from fractions import Fraction
    from localperiods.identity import _primes
    field = place(2)
    for n in range(8):
        small_count, big_count = (m if field.is_split else m // 2 for m in (n + 1, n + 2))
        chars = [Fraction(p) for p in _primes(small_count + big_count)]
        small = make_datum(n + 1, field, chars[:small_count])
        big = make_datum(n + 2, field, chars[small_count:])
        a, b = bc_params(small), bc_params(big)
        expected = [x * y for x in a.values for y in b.values]
        if field.is_split:
            expected += [x * y for x in a.dual_values for y in b.dual_values]
        factors = std_tensor_factors(0.5, small, big)
        assert all(type(f.alpha) is Fraction for f in factors)
        assert Counter(f.alpha for f in factors) == Counter(expected)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["inert", "split"])
def test_std_tensor_matches_det_oracle(n, kind, q, rng):
    field = inert_place(q) if kind == "inert" else split_place(q)
    for _ in range(50):
        small = sample_datum(n + 1, field, rng)
        big = sample_datum(n + 2, field, rng)
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5))
        assert rel_err(std_tensor_lfactor(s, small, big),
                       std_tensor_lfactor_det(s, small, big)) < 1e-10


def test_std_tensor_unit_chars_power_count(q):
    # all characters trivial: every factor is euler_factor(2, q_E, 1) and there
    # are size(small) * size(big) parameter pairs
    field = inert_place(q)
    for n in (1, 2, 3):
        small = make_datum(n + 1, field, [1.0] * ((n + 1) // 2))
        big = make_datum(n + 2, field, [1.0] * ((n + 2) // 2))
        pairs = (n + 1) * (n + 2)
        assert std_tensor_lfactor(2.0, small, big) == pytest.approx(
            euler_factor(2.0, field.q_E, 1.0) ** pairs)


def test_std_tensor_simplest_pair_contains_both_orientations():
    z = cmath.exp(0.9j)
    field = inert_place(2)
    small = make_datum(1, field, [])
    big = make_datum(2, field, [z])
    expected = euler_factor(0.8, 4, z) * euler_factor(0.8, 4, 1 / z)
    assert std_tensor_lfactor(0.8, small, big) == pytest.approx(expected)


def test_det_oracle_constructed_pole():
    field = inert_place(2)
    small = make_datum(1, field, [])
    # big parameter chosen so one Kronecker eigenvalue hits q_E^s exactly
    s = 1.0
    big = make_datum(2, field, [field.q_E ** s])
    with pytest.raises(PoleError):
        std_tensor_lfactor_det(s, small, big)


def test_adjoint_split_equal_chars_collapse():
    a = cmath.exp(0.4j)
    d = make_datum(2, split_place(2), [a, a])
    s = 1.3
    assert adjoint_lfactor(s, d) == pytest.approx(euler_factor(s, 2, 1.0) ** 4)


def test_adjoint_inert_u2_display():
    z = cmath.exp(1.2j)
    field = inert_place(2)
    s = 1.0
    expected = (euler_factor(s, 2, 1.0) * euler_factor(s, 2, -1.0)
                * euler_factor(s, 2, z) * euler_factor(s, 2, 1 / z))
    assert adjoint_lfactor(s, make_datum(2, field, [z])) == pytest.approx(expected)


def test_adjoint_split_matches_parameter_multiset(rng):
    # GL_m adjoint equals the Euler product over all ordered eigenvalue ratios
    from localperiods.paramcalc import Base, WDParam
    from weylref import adjoint_gl
    for m in (2, 3, 4):
        field = split_place(3)
        d = sample_datum(m, field, rng)
        param = adjoint_gl(WDParam(Base.OVER_F, d.values()))
        assert param.size == m * m
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        expected = 1.0 + 0j
        for ratio in param.eigenvalues:
            expected *= euler_factor(s, field.q_F, ratio)
        assert rel_err(adjoint_lfactor(s, d), expected) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_adjoint_inert_weyl_symmetries(m, rng):
    field = inert_place(2)
    d = sample_datum(m, field, rng)
    s = 1.7
    base = adjoint_lfactor(s, d)
    perm = rng.permutation(d.rank)
    shuffled = make_datum(m, field, [d.chars[i] for i in perm])
    assert rel_err(adjoint_lfactor(s, shuffled), base) < 1e-12
    for i in range(d.rank):
        chars = list(d.chars)
        chars[i] = chars[i].inv()
        assert rel_err(adjoint_lfactor(s, make_datum(m, field, chars)), base) < 1e-12


def test_adjoint_split_inversion_invariant(rng):
    field = split_place(2)
    d = sample_datum(4, field, rng)
    s = 1.1
    assert rel_err(adjoint_lfactor(s, d), adjoint_lfactor(s, d.inverted())) < 1e-12


def test_std_tensor_conjugation_symmetry(rng):
    for field in (inert_place(2), split_place(3)):
        small = sample_datum(2, field, rng)
        big = sample_datum(3, field, rng)
        s = 0.75
        lhs = std_tensor_lfactor(s, small.conjugated(), big.conjugated())
        rhs = std_tensor_lfactor(s, small, big).conjugate()
        assert rel_err(lhs, rhs) < 1e-12
