"""Factor plans: every factor-list builder is traced once per (n, place kind)
on symbolic characters, and a report evaluates the traced plan for all its
samples at once.  A plan's column k must be sample k's own list, bit for bit,
and its products the list front end's; the trace must refuse what it cannot
replay, and it must not depend on q."""
import cmath
import math
import struct

import numpy as np
import pytest

import localperiods.identity as identity
from localperiods import LFactor, PoleError, factor_product, inert_place, split_place
from localperiods.identity import (_ROUTES, SampleStack, _character_counts, _route_plan,
                                   _rng_for, make_datum, sample_values)
from localperiods.numfield import ConventionError, FieldData, PlaceKind, TraceError, trace_factors

PLACES = {"inert": inert_place, "split": split_place}
ROUTES = {"inert": ("closed", "recursive", "closed_inv", "std", "adjoints"),
          "split": ("closed", "recursive", "std", "adjoints", "s_split")}


def bits(x):
    """A scalar's type and bits; nan parts compare equal, whatever their payload."""
    if isinstance(x, (complex, float)):
        parts = (x.real, x.imag) if isinstance(x, complex) else (x,)
        return (type(x),) + tuple("nan" if math.isnan(p) else struct.pack("<d", p)
                                  for p in parts)
    return type(x), x


def factor_bits(f):
    return f.label, bits(f.s), f.q, bits(f.alpha), f.inverse, f.convention_sensitive


def own_lists(stack, route, k):
    """Sample k's own factor lists of a route: its builder on its own data."""
    name, call, inverted = _ROUTES[route]
    small, big = stack.pair(k)
    if inverted:
        small, big = small.inverted(), big.inverted()
    lists = call(getattr(identity, name), small, big)
    return lists if isinstance(lists, tuple) else (lists,)


def own_product(factors):
    try:
        return factor_product(factors)
    except (PoleError, ConventionError):
        return complex("nan")


def special_draws(n, field):
    """Two generic samples, one that puts the first factor of the standard
    tensor on its pole (alpha = q_F^(1/2), or q_F over q_E), and one with a
    nan character.  No character is real, so Python's 1/x and numpy's
    reciprocal agree on the sign of every zero."""
    draws = [sample_values(n, field, _rng_for(7, k)) for k in range(2)]
    small, big = (list(v) for v in sample_values(n, field, _rng_for(7, 2)))
    target = field.q_F ** 0.5 if field.is_split else field.q_F
    if small:
        small[0], big[0] = target * cmath.exp(0.25j), cmath.exp(-0.25j)
    else:
        big[0] = target * cmath.exp(1e-13j)
    nan_small, nan_big = (list(v) for v in sample_values(n, field, _rng_for(7, 3)))
    nan_big[-1] = complex("nan")
    return draws + [(small, big), (nan_small, nan_big)]


@pytest.mark.parametrize("kind", sorted(PLACES))
@pytest.mark.parametrize("n", range(9))
def test_a_plan_column_is_the_samples_own_list(kind, n):
    for q in (2, 3):
        field = PLACES[kind](q)
        stack = SampleStack(n, field, special_draws(n, field))
        stopped = set()
        for route in ROUTES[kind]:
            plan, values, complex_alphas = stack._route(route)
            alphas = values[plan.alpha_rows]
            assert np.array_equal(complex_alphas, alphas.astype(complex), equal_nan=True)
            products = [plan.product(complex_alphas, field, part).tolist()
                        for part in range(len(plan.bounds) - 1)]
            for k in range(len(stack.draws)):
                lists = own_lists(stack, route, k)
                own = [f for part in lists for f in part]
                column = [plan.factor(pos, values, k, field) for pos in range(len(own))]
                assert len(plan.labels) == len(own)
                assert list(map(factor_bits, column)) == list(map(factor_bits, own))
                for part, factors in enumerate(lists):
                    value = own_product(factors)
                    assert bits(products[part][k]) == bits(value), (route, k, part)
                    if cmath.isnan(value) and k == 2:
                        stopped.add(route)
        assert "std" in stopped  # the pole sample stops where it should


def test_a_rebound_builder_is_traced_again(monkeypatch):
    # a plan is keyed by its builder, so a list without its last factor is
    # traced afresh rather than read from the real builder's plan
    field = split_place(2)
    draws = [sample_values(2, field, _rng_for(3, k)) for k in range(2)]
    labels = SampleStack(2, field, draws)._route("std")[0].labels
    real = identity.std_tensor_factors
    monkeypatch.setattr(identity, "std_tensor_factors",
                        lambda s, small, big: real(s, small, big)[:-1])
    plan = SampleStack(2, field, draws)._route("std")[0]
    assert plan.labels == labels[:-1]
    monkeypatch.undo()
    assert SampleStack(2, field, draws)._route("std")[0].labels == labels


def plan_record(plan):
    """All a plan holds, as comparable values."""
    steps = [(op.__name__, start, stop, [r.tolist() for r in rows])
             for op, start, stop, rows in plan._steps]
    return (plan.bounds, plan.labels, plan.s, plan.over_q_E.tolist(), plan.inverse,
            plan.sensitive, [(row, bits(c)) for row, c in plan._consts], steps, plan._rows,
            plan.alpha_rows.tolist())


@pytest.mark.parametrize("kind", sorted(PLACES))
def test_traces_at_two_q_agree(kind):
    # a plan records q only as the role q_F or q_E, so a trace at q = 3 is
    # the cached trace at q = 2
    for n in range(9):
        for route in ROUTES[kind]:
            name, call, _ = _ROUTES[route]
            build = getattr(identity, name)
            traces = []
            for q in (2, 3):
                field = FieldData(q, PlaceKind(kind))
                small_count, big_count = _character_counts(n, field)
                traces.append(plan_record(trace_factors(
                    lambda chars: call(build, make_datum(n + 1, field, chars[:small_count]),
                                       make_datum(n + 2, field, chars[small_count:])),
                    small_count + big_count, field)))
            assert traces[0] == traces[1]
            assert traces[0] == plan_record(_route_plan(build, call, n, PlaceKind(kind)))


@pytest.mark.parametrize("alpha, error", [
    (lambda c: c[0] + c[1], TypeError),
    (lambda c: 1 - c[0], TypeError),
    (lambda c: c[0] ** 2, TypeError),
    (lambda c: abs(c[0]), TypeError),
    (lambda c: c[0] if c[0] < c[1] else c[1], TypeError),
    (lambda c: complex(c[0]), TypeError),
    (lambda c: c[0] if c[0] else c[1], TraceError),
    (lambda c: c[0] * np.ones(2), TraceError),
    (lambda c: np.ones(2) * c[0], TraceError),
    (lambda c: np.ones(2), TraceError),
    (lambda c: "1", TraceError),
], ids=["add", "sub", "pow", "abs", "order", "complex", "bool", "array-operand",
        "array-reflected", "array-alpha", "str-alpha"])
def test_the_trace_refuses_what_a_plan_cannot_replay(alpha, error):
    # a TypeError, as any object without the operation raises, or a
    # TraceError where an object would not refuse by itself
    with pytest.raises(error):
        trace_factors(lambda c: [LFactor("f", 0.5, 2, alpha(c))], 2, split_place(2))


def test_the_trace_replays_products_quotients_and_negation():
    # *, /, 1/x and unary minus on characters and int, float, complex and
    # Fraction constants, each the builder's own arithmetic
    from fractions import Fraction
    build = lambda c: [LFactor("a", 0.5, 2, -c[0] * c[1]), LFactor("b", 1.0, 2, 1 / c[0]),
                       LFactor("c", 1.0, 2, (2 * c[1]) / (1.5 * c[0])),
                       LFactor("d", 1.0, 2, c[0] * (0.5 + 1j)), LFactor("e", 1.0, 2, 3),
                       LFactor("f", 1.0, 2, Fraction(1, 3) * c[1])]
    plan = trace_factors(build, 2, split_place(2))
    chars = np.array([[0.6 + 0.8j, 1j], [-1j, 0.28 - 0.96j]])
    values = plan.values(chars)
    for k in range(2):
        own = build(chars[:, k].tolist())
        assert [bits(plan.factor(pos, values, k, split_place(2)).alpha)
                for pos in range(6)] == [bits(f.alpha) for f in own]


def test_the_trace_refuses_a_factor_over_a_foreign_q():
    with pytest.raises(ValueError, match="over q = 5"):
        trace_factors(lambda c: [LFactor("over q = 5", 0.5, 5, c[0])], 1, split_place(2))
    with pytest.raises(ValueError, match="over q = 2"):
        trace_factors(lambda c: [LFactor("over q = 2", 0.5, 2, c[0])], 1, inert_place(3))
    trace_factors(lambda c: [LFactor("over q_E", 0.5, 9, c[0])], 1, inert_place(3))


def test_a_plan_product_stops_where_the_list_front_end_raises():
    # q^{-1} alpha = 1 in sample 1 of 3: an inverse factor is a zero there, a
    # direct one and a convention-sensitive one stop it (nan); each part's
    # products are the list front end's on the same stacked factors
    def build(c):
        generic = LFactor("generic", 0.5, 2, c[0])
        return ([generic, LFactor("z", 1.0, 2, c[1], True)],
                [generic, LFactor("pole", 1.0, 2, c[1])],
                [generic, LFactor("twist", 1.0, 2, c[1], True, True)])
    field = split_place(2)
    plan = trace_factors(build, 2, field)
    chars = np.array([[0.3j, 0.2 + 0j, -0.4 + 0j], [0.5 + 0j, 2.0 + 0j, 1j]])
    alphas = plan.values(chars).astype(complex)[plan.alpha_rows]
    for part in range(3):
        got = plan.product(alphas, field, part)
        stacked = [LFactor(plan.labels[pos], plan.s[pos], 2, alphas[pos], plan.inverse[pos],
                           plan.sensitive[pos])
                   for pos in range(plan.bounds[part], plan.bounds[part + 1])]
        assert [bits(v) for v in got.tolist()] == [
            bits(v) for v in factor_product(stacked, samples=3).tolist()]
        assert np.isnan(got[1]) == (part > 0) and not np.isnan(got[[0, 2]]).any()
