import cmath
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import unit_values
from localperiods import (Base, WDParam, adjoint_gl, bc_param,
                          direct_sum, gamma_char, induce, inert_place,
                          make_datum, split_place, theta_param_1to2,
                          tensor_product, theta_param_2to3, twist, verify_appendix)
from localperiods.identity import rel_err
from weylref import induce_preservation_defect


def ms(values, digits=9):
    return Counter((round(z.real, digits), round(z.imag, digits)) for z in values)


def test_wdparam_validation():
    with pytest.raises(ValueError):
        WDParam(Base.OVER_E, ())
    with pytest.raises(ValueError):
        WDParam(Base.OVER_E, (0.0,))
    with pytest.raises(ValueError):
        WDParam(Base.OVER_E, (Fraction(0),))


def test_fraction_eigenvalues_stay_exact():
    # eigenvalues are kept as given, so exact data stays exact
    F = Fraction
    a, b = WDParam(Base.OVER_E, (F(2), F(1, 3))), WDParam(Base.OVER_E, (F(-5, 7),))
    for param, expected in [(direct_sum(a, b), (F(2), F(1, 3), F(-5, 7))),
                            (twist(a, F(3, 2)), (F(3), F(1, 2))),
                            (tensor_product(a, b), (F(-10, 7), F(-5, 21))),
                            (adjoint_gl(a), (F(1), F(6), F(1, 6), F(1)))]:
        assert param.eigenvalues == expected
        assert all(type(z) is Fraction for z in param.eigenvalues)


def test_direct_sum_union_and_commutativity(rng):
    z, w = unit_values(rng, 2)
    a = WDParam(Base.OVER_E, (z,))
    b = WDParam(Base.OVER_E, (w,))
    assert ms(direct_sum(a, b).eigenvalues) == ms([z, w])
    assert ms(direct_sum(a, b).eigenvalues) == ms(direct_sum(b, a).eigenvalues)
    with pytest.raises(ValueError):
        direct_sum(a, WDParam(Base.OVER_F, (w,)))


def test_direct_sum_lfactor_multiplicative(rng):
    field = inert_place(2)
    a = WDParam(Base.OVER_E, tuple(unit_values(rng, 2)))
    b = WDParam(Base.OVER_E, tuple(unit_values(rng, 3)))
    for _ in range(5):
        s = complex(rng.uniform(0.5, 2.5), rng.uniform(-2, 2))
        lhs = direct_sum(a, b).lfactor(s, field)
        rhs = a.lfactor(s, field) * b.lfactor(s, field)
        assert rel_err(lhs, rhs) < 1e-12


def test_twist_identities(rng):
    (z,) = unit_values(rng, 1)
    a = WDParam(Base.OVER_E, (z,))
    assert twist(a, 1).eigenvalues == a.eigenvalues
    chi = cmath.exp(0.4j * cmath.pi)
    assert ms(twist(twist(a, chi), 1 / chi).eigenvalues) == ms(a.eigenvalues)
    assert twist(a, gamma_char()).eigenvalues[0] == pytest.approx(-z)


def test_induce_unit_eigenvalue():
    a = WDParam(Base.OVER_E, (1.0,))
    assert ms(induce(a).eigenvalues) == ms([1.0, -1.0])
    with pytest.raises(ValueError):
        induce(WDParam(Base.OVER_F, (1.0,)))


def test_induce_additive(rng):
    z, w = unit_values(rng, 2)
    a = WDParam(Base.OVER_E, (z,))
    b = WDParam(Base.OVER_E, (w,))
    lhs = induce(direct_sum(a, b))
    rhs = direct_sum(induce(a), induce(b))
    assert ms(lhs.eigenvalues) == ms(rhs.eigenvalues)


def test_induce_preserves_lfactor(rng):
    field = inert_place(3)
    for _ in range(20):
        (z,) = unit_values(rng, 1)
        a = WDParam(Base.OVER_E, (z,))
        s = complex(rng.uniform(0.5, 2.5), rng.uniform(-2, 2))
        assert rel_err(induce(a).lfactor(s, field), a.lfactor(s, field)) < 1e-12


def test_adjoint_gl_shapes(rng):
    (z,) = unit_values(rng, 1)
    assert adjoint_gl(WDParam(Base.OVER_F, (z,))).eigenvalues == (1.0 + 0j,)
    a, b = unit_values(rng, 2)
    out = adjoint_gl(WDParam(Base.OVER_F, (a, b)))
    assert ms(out.eigenvalues) == ms([1.0, 1.0, a / b, b / a])
    assert adjoint_gl(WDParam(Base.OVER_F, tuple(unit_values(rng, 4)))).size == 16


def test_theta_params(rng):
    gamma = gamma_char()
    (z,) = unit_values(rng, 1)
    m2 = WDParam(Base.OVER_E, (z, 1 / z))
    lifted = theta_param_2to3(m2, gamma)
    assert lifted.size == 3
    assert ms(lifted.eigenvalues) == ms([-z, -1 / z, 1.0])
    m1 = WDParam(Base.OVER_E, (z,))
    lifted = theta_param_1to2(m1, gamma)
    assert lifted.size == 2
    assert ms(lifted.eigenvalues) == ms([-z, -1.0])
    with pytest.raises(ValueError):
        theta_param_2to3(m1, gamma)


def test_bc_param_requires_inert(rng):
    with pytest.raises(ValueError):
        bc_param(make_datum(2, split_place(2), unit_values(rng, 2)))


def test_verify_appendix_passes(q):
    report = verify_appendix(inert_place(q), samples=6, seed=1)
    assert report.passed
    assert report.max_rel_err < 1e-12


def test_induce_preservation_defect_small(q):
    assert induce_preservation_defect(inert_place(q), samples=6, seed=2) < 1e-12


def test_verify_appendix_fails_on_a_nan_at_sample_1(monkeypatch):
    # sample 1 gets one extra s point, nan, after its real ones: every identity's
    # error there is nan, behind finite errors of the same sample
    import localperiods.paramcalc as paramcalc
    real, calls = paramcalc._draw_s, []

    def draw_s(rng, count):
        calls.append(None)
        return real(rng, count) + ([complex("nan")] if len(calls) == 2 else [])

    monkeypatch.setattr(paramcalc, "_draw_s", draw_s)
    report = verify_appendix(inert_place(2), samples=3, seed=1)
    assert not report.passed and math.isnan(report.max_rel_err)
    assert [d.factor for d in report.factor_diffs] == [
        f"{name} at s=nan+0j" for name in ("piad", "sigmaad", "muad", "bigsig", "sigcor")]


def test_appendix_builds_its_parameters_once_per_sample(monkeypatch):
    # the lift parameters do not depend on s, so the number of twist and
    # tensor_product calls per sample does not grow with S_POINTS
    import localperiods.paramcalc as paramcalc
    calls = Counter()
    for name in ("twist", "tensor_product"):
        def counted(*args, real=getattr(paramcalc, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(paramcalc, name, counted)
    per_run = []
    for s_points in (1, 5):
        calls.clear()
        monkeypatch.setattr(paramcalc, "S_POINTS", s_points)
        assert verify_appendix(inert_place(2), samples=2, seed=1).passed
        per_run.append(dict(calls))
    assert per_run[0] == per_run[1] and set(per_run[0]) == {"twist", "tensor_product"}
