import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import unit_values
from localperiods import (Base, WDParam, bc_param, direct_sum,
                          euler_factor, gamma_char, induce, inert_place,
                          make_datum, split_place, theta_param_1to2,
                          tensor_product, theta_param_2to3, twist, verify_appendix)
from localperiods.identity import rel_err
from localperiods.paramcalc import IDENTITIES, S_POINTS, _datum_from_bc, _lift
from localperiods.satake import SatakeDatum, adjoint_lfactor
from weylref import adjoint_gl, induce_preservation_defect


def ms(values, digits=9):
    return Counter((round(z.real, digits), round(z.imag, digits)) for z in values)


def test_wdparam_validation():
    with pytest.raises(ValueError):
        WDParam(Base.OVER_E, ())
    with pytest.raises(ValueError):
        WDParam(Base.OVER_E, (0.0,))
    with pytest.raises(ValueError):
        WDParam(Base.OVER_E, (Fraction(0),))


def test_wdparam_checks_every_entry_of_an_array_eigenvalue():
    # on the appendix's point axis an eigenvalue holds one value per point
    assert WDParam(Base.OVER_E, (np.array([1.0, -1j]), 2.0)).size == 2
    with pytest.raises(ValueError, match="nonzero"):
        WDParam(Base.OVER_E, (1.0, np.array([1.0, 0.0, 1j])))


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
    # sample 1's last s point becomes nan: every identity's error there is
    # nan, behind finite errors of the same sample
    import localperiods.paramcalc as paramcalc
    real, calls = paramcalc._draw_s, []

    def draw_s(rng, count):
        calls.append(None)
        values = real(rng, count)
        return values[:-1] + [complex("nan")] if len(calls) == 2 else values

    monkeypatch.setattr(paramcalc, "_draw_s", draw_s)
    report = verify_appendix(inert_place(2), samples=3, seed=1)
    assert not report.passed and math.isnan(report.max_rel_err)
    assert [d.factor for d in report.factor_diffs] == [
        f"{name} at s=nan+0j" for name in ("piad", "sigmaad", "muad", "bigsig", "sigcor")]


def test_verify_appendix_fails_on_a_pole_at_one_point(monkeypatch):
    # sample 1's last s point becomes 0, which puts every adjoint's zeta_F(s)
    # on its pole: that point's adjoint products are nan, so sample 1 fails on
    # the three adjoint identities with a nan error, and the other samples and
    # identities are judged
    import localperiods.paramcalc as paramcalc
    real, calls = paramcalc._draw_s, []

    def draw_s(rng, count):
        calls.append(None)
        values = real(rng, count)
        return values[:-1] + [0j] if len(calls) == 2 else values

    monkeypatch.setattr(paramcalc, "_draw_s", draw_s)
    report = verify_appendix(inert_place(2), samples=3, seed=1)
    assert not report.passed and math.isnan(report.max_rel_err)
    assert [d.factor for d in report.factor_diffs] == [
        f"{name} at s=0+0j" for name in ("piad", "sigmaad", "muad")]


def test_appendix_builds_its_parameters_once_per_report(monkeypatch):
    # the calculus runs once on the point axis, so the number of twist and
    # tensor_product calls grows neither with the samples nor with S_POINTS
    import localperiods.paramcalc as paramcalc
    calls = Counter()
    for name in ("twist", "tensor_product"):
        def counted(*args, real=getattr(paramcalc, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(paramcalc, name, counted)
    per_run = []
    for samples, s_points in ((1, 1), (1, 5), (4, 1), (4, 5)):
        calls.clear()
        monkeypatch.setattr(paramcalc, "S_POINTS", s_points)
        assert verify_appendix(inert_place(2), samples=samples, seed=1).passed
        per_run.append(dict(calls))
    assert all(run == per_run[0] for run in per_run)
    assert set(per_run[0]) == {"twist", "tensor_product"}


# ---------------------------------------------------------------------------
# the parameter calculus on a point axis, against each point's own scalars


def test_induce_takes_every_scalar_and_arrays():
    # each root is cmath.sqrt's to rounding, and an array gives every entry's
    # scalar root bit for bit
    scalars = (Fraction(1, 4), Fraction(-9, 4), 4, -1.0, 1j, complex(-4, -0.0))
    roots = []
    for z in scalars:
        r, minus_r = induce(WDParam(Base.OVER_E, (z,))).eigenvalues
        assert np.ndim(r) == 0 and rel_err(r, cmath.sqrt(z)) <= 1e-15 and minus_r == -r
        roots.append(r)
    r, minus_r = induce(WDParam(Base.OVER_E, (np.array(scalars, dtype=complex),))).eigenvalues
    assert r.tolist() == roots and (minus_r == -r).all()


def points_param(columns):
    # one eigenvalue array per position, from each point's eigenvalue tuple
    return WDParam(Base.OVER_E, tuple(np.array(c, dtype=complex) for c in zip(*columns)))


def test_datum_from_bc_finds_each_points_unit_eigenvalue(rng):
    field = inert_place(2)
    c = unit_values(rng, 3)
    columns = [(c[0], 1 / c[0], 1.0), (1.0, c[1], 1 / c[1]), (c[2], 1.0, 1 / c[2])]
    datum = _datum_from_bc(3, points_param(columns), field)
    assert (datum.m, datum.field) == (3, field)
    assert datum.chars[0].value.tolist() == c
    for p, column in enumerate(columns):
        alone = _datum_from_bc(3, WDParam(Base.OVER_E, column), field)
        assert np.ndim(alone.chars[0].value) == 0 and alone.chars[0].value == c[p]
    pairs = _datum_from_bc(2, points_param([(z, 1 / z) for z in c]), field)
    assert pairs.chars[0].value.tolist() == c


@pytest.mark.parametrize("bad, message", [
    (lambda z: (2.0, 0.5, -1.0), "no unit eigenvalue"),
    (lambda z: (z, 2 / z, 1.0), "not an inversion-symmetric pair"),
], ids=["no-unit", "not-inverse"])
def test_datum_from_bc_refuses_one_bad_point(rng, bad, message):
    c = unit_values(rng, 3)
    columns = [(z, 1 / z, 1.0) for z in c]
    columns[1] = bad(c[1])
    with pytest.raises(ValueError, match=message):
        _datum_from_bc(3, points_param(columns), inert_place(2))


def slot_values(item):
    return item.values() if isinstance(item, SatakeDatum) else item.eigenvalues


def test_lift_on_a_point_axis_is_each_points_own_lift(rng, q):
    field = inert_place(q)
    z_sigma, z_pi = unit_values(rng, 7), unit_values(rng, 7)
    grid = _lift(field, np.array(z_sigma), np.array(z_pi))
    for p in range(7):
        alone = _lift(field, z_sigma[p], z_pi[p])
        for stacked, own in zip(grid, alone):
            assert len(slot_values(stacked)) == len(slot_values(own))
            for v, ref in zip(slot_values(stacked), slot_values(own)):
                assert rel_err(complex(np.broadcast_to(v, (7,))[p]), ref) <= 1e-15


# ---------------------------------------------------------------------------
# the appendix on one (sample, s) point axis, against the per-point loop


def scalar_sides(s, lift, field):
    # the five identities at one s on one sample's own scalar lift, as a loop
    # over the (sample, s) points evaluates them, apart from the grid
    chi = euler_factor(s, field.q_F, field.chi_at_uniformizer)
    sigma_prime_l = lift.sigma_prime.lfactor(s, field)
    return [
        (adjoint_lfactor(s, lift.theta_pi_bar), adjoint_lfactor(s, lift.pi)),
        (adjoint_lfactor(s, lift.theta_sigma_bar),
         chi * adjoint_lfactor(s, lift.sigma) * lift.sigma_twist.lfactor(s, field)),
        (adjoint_lfactor(s, lift.theta_mu_bar), chi ** 2 * lift.mu_twist.lfactor(s, field)),
        (sigma_prime_l, lift.bigsig_rhs.lfactor(s, field)),
        (sigma_prime_l * lift.pi_twist.lfactor(s, field), lift.sigcor_rhs.lfactor(s, field)),
    ]


def first_miss_labels(points, tol):
    # the per-point loop's judging: within each sample, the first miss of each
    # identity, s points first, then identities; the report keeps the first of
    # each label, in sample order.  points[k] lists sample k's (s, sides).
    labels = {}
    for sample in points:
        missed = set()
        for s, sides in sample:
            for name, (lhs, rhs) in zip(IDENTITIES, sides):
                if name not in missed and not rel_err(lhs, rhs) <= tol:
                    missed.add(name)
                    labels.setdefault(f"{name} at s={s:.4g}", (lhs, rhs))
    return labels


def recorded_appendix(monkeypatch, field, samples, seed, tol):
    """verify_appendix's report, each sample's own scalar lift (built from its
    recorded draws) and s points, and the grid's (lhs, rhs) arrays."""
    import localperiods.paramcalc as paramcalc
    seen = {"draws": [], "grid": []}
    real_map, real_sides = paramcalc.map_samples, paramcalc._sides

    def record(key, value):
        seen[key].append(value)
        return value

    monkeypatch.setattr(paramcalc, "map_samples",
                        lambda *a, **kw: record("draws", real_map(*a, **kw)))
    monkeypatch.setattr(paramcalc, "_sides", lambda *a: record("grid", real_sides(*a)))
    report = verify_appendix(field, samples=samples, seed=seed, tol=tol)
    (draws,), (grid,) = seen["draws"], seen["grid"]
    lifts = [paramcalc._lift(field, z_sigma, z_pi) for z_sigma, z_pi, _ in draws]
    return report, lifts, [s_values for _, _, s_values in draws], grid


def test_appendix_grid_matches_the_per_point_scalar_loop(monkeypatch, q):
    field = inert_place(q)
    report, lifts, s_lists, (lhs, rhs) = recorded_appendix(monkeypatch, field, 4, 3, 1e-9)
    assert report.passed
    assert lhs.shape == rhs.shape == (4 * S_POINTS, len(IDENTITIES))
    points = [(s, sides) for lift, s_values in zip(lifts, s_lists)
              for s in s_values for sides in [scalar_sides(s, lift, field)]]
    for p, (s, sides) in enumerate(points):
        for i, (ref_lhs, ref_rhs) in enumerate(sides):
            assert rel_err(complex(lhs[p, i]), ref_lhs) <= 1e-14
            assert rel_err(complex(rhs[p, i]), ref_rhs) <= 1e-14


def test_appendix_exact_tolerance_keeps_the_per_point_order(monkeypatch):
    # at tol 1e-30 a point misses when its two sides differ in any bit, so
    # which points miss follows the rounding; the report must then list, in
    # order, exactly what the per-point loop's rule picks from the same values
    field = inert_place(2)
    report, lifts, s_lists, (lhs, rhs) = recorded_appendix(monkeypatch, field, 10, 0, 1e-30)
    points, p = [], 0
    for s_values in s_lists:
        points.append([(s, list(zip(lhs[p + k].tolist(), rhs[p + k].tolist())))
                       for k, s in enumerate(s_values)])
        p += len(s_values)
    expected = first_miss_labels(points, 1e-30)
    assert not report.passed
    assert [d.factor for d in report.factor_diffs] == list(expected)
    assert [(d.lhs, d.rhs) for d in report.factor_diffs] == list(expected.values())
    assert {d.factor.split(" at ")[0] for d in report.factor_diffs} == set(IDENTITIES)


def test_appendix_misses_of_the_maths_match_the_scalar_loop(monkeypatch, q):
    # pinning gamma to +1 instead of -1 breaks sigmaad and muad at every
    # point by O(1), far above rounding: the grid's labels and values are
    # then those of the per-point scalar loop
    import localperiods.paramcalc as paramcalc
    monkeypatch.setattr(paramcalc, "gamma_char", lambda: 1.0 + 0.0j)
    field = inert_place(q)
    report, lifts, s_lists, _ = recorded_appendix(monkeypatch, field, 3, 1, 1e-9)
    points = [[(s, scalar_sides(s, lift, field)) for s in s_values]
              for lift, s_values in zip(lifts, s_lists)]
    expected = first_miss_labels(points, 1e-9)
    assert not report.passed
    assert [d.factor for d in report.factor_diffs] == list(expected)
    assert {name.split(" at ")[0] for name in expected} == {"sigmaad", "muad"}
    for d, (ref_lhs, ref_rhs) in zip(report.factor_diffs, expected.values()):
        assert rel_err(d.lhs, ref_lhs) <= 1e-14 and rel_err(d.rhs, ref_rhs) <= 1e-14


def test_appendix_evaluates_each_adjoint_once_per_report(monkeypatch):
    # piad's two sides, sigmaad's two adjoints and muad's one: five array
    # calls per report, whatever the number of samples and of s points
    import localperiods.paramcalc as paramcalc
    calls = []
    real = paramcalc.adjoint_lfactor
    monkeypatch.setattr(paramcalc, "adjoint_lfactor",
                        lambda *a: calls.append(None) or real(*a))
    for samples, s_points in ((1, 1), (3, 7), (10, S_POINTS)):
        calls.clear()
        monkeypatch.setattr(paramcalc, "S_POINTS", s_points)
        assert verify_appendix(inert_place(3), samples=samples, seed=2).passed
        assert len(calls) == 5
