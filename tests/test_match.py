"""The zeta localizer: leftover_pairs pairs the two zeta routes by exact keys
once per (n, place), and match_factor_lists evaluates its leftovers at a
missed sample, on column k of the report's stacked lists.

identity._unpaired pairs each left entry with the first unpaired right one,
in order, that has the same alpha.  The reference below applies that rule by
scanning every remaining entry, and the two must leave the same entries
unpaired, in the same order.
"""
import cmath
from fractions import Fraction

import numpy as np
import pytest

from localperiods import LFactor, make_datum, split_place, verify_recursion
from localperiods.identity import (SampleStack, _rng_for, _unpaired, leftover_pairs,
                                   match_factor_lists, sample_pair, sample_values)


def unpaired_reference(a_list, b_list):
    remaining = list(b_list)
    unmatched_a = []
    for a in a_list:
        hit = next((k for k, b in enumerate(remaining) if a[0] == b[0]), None)
        if hit is None:
            unmatched_a.append(a)
        else:
            remaining.pop(hit)
    return unmatched_a, remaining


@pytest.mark.parametrize("seed", range(8))
def test_unpaired_matches_the_quadratic_reference(seed):
    # (alpha, position) entries whose alphas repeat within and across the
    # lists, as Laurent monomials do: signed ratios of a few small primes
    rng = np.random.default_rng([seed, 2024])
    for _ in range(250):
        pool = [int(rng.choice([-1, 1])) * Fraction(*map(int, rng.choice([2, 3, 5, 7], 2)))
                for _ in range(rng.integers(1, 6))]
        a_list, b_list = ([(pool[rng.integers(len(pool))], pos)
                           for pos in range(rng.integers(0, 25))] for _ in range(2))
        assert _unpaired(a_list, b_list) == unpaired_reference(a_list, b_list)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_matching_a_stacked_column_is_matching_its_own_lists(n):
    # split odd n misses on every sample, so every column has diffs: labels
    # and values (repr, so that a nan compares) agree with the sample's own
    # one-sample stack
    field = split_place(2)
    stack = SampleStack(n, field, [sample_values(n, field, _rng_for(n, k)) for k in range(4)])
    for k in range(4):
        stacked = match_factor_lists(stack, k)
        alone = match_factor_lists(SampleStack(n, field, [stack.draws[k]]), 0)
        assert stacked and list(map(repr, stacked)) == list(map(repr, alone))


def test_near_coincident_characters_do_not_hide_the_finding(monkeypatch):
    # ph2 = th2 * e^{i 5e-9} puts the transcribed nu1*th2 within 1e-8 of the
    # recursion's nu1*ph2; the sample still misses tol 1e-9, and the exact
    # keys still name the transcribed factor
    import localperiods.identity as identity
    field = split_place(2)
    small, big = sample_pair(3, field, _rng_for(0, 0))
    values = list(small.values())
    values[2] = 1 / (small.theta(2) * cmath.exp(5e-9j))
    small = make_datum(small.m, field, values)
    monkeypatch.setattr(identity, "sample_values",
                        lambda n, field, rng: (small.values(), big.values()))
    report = verify_recursion(3, field, samples=1, tol=1e-9)
    assert not report.passed and report.max_rel_err < 1e-7
    assert [d.factor for d in report.factor_diffs] == [
        "L_F(1/2, nu1*th2) [vs step2: L_F(1/2, bc2^-1*nu2)]"]


@pytest.mark.parametrize("builder, label, nan_side", [
    ("zeta_recursive_factors", "L_F(1, mu1*nu1)^-1 [unmatched]", "rhs"),
    ("zeta_closed_factors", "[missing] step1: L_F(1, chi^1*mu1*nu1)^-1", "lhs"),
])
def test_a_rebound_builder_gets_its_own_leftovers(monkeypatch, builder, label, nan_side):
    # leftover_pairs is keyed by the builders, so a list without its last
    # factor is paired again rather than read from the real builders' entry:
    # the factor it matched is left, against a nan partner
    import localperiods.identity as identity
    field = split_place(2)
    assert verify_recursion(2, field, samples=2).passed
    real = getattr(identity, builder)
    monkeypatch.setattr(identity, builder, lambda small, big: real(small, big)[:-1])
    report = verify_recursion(2, field, samples=2)
    assert [d.factor for d in report.factor_diffs] == [label]
    (diff,) = report.factor_diffs
    other = "lhs" if nan_side == "rhs" else "rhs"
    assert cmath.isnan(getattr(diff, nan_side)) and not cmath.isnan(getattr(diff, other))


def test_a_factor_over_a_foreign_q_is_refused():
    field = split_place(2)

    def closed(small, big):
        return [LFactor("over q = 5", 0.5, 5, small.chars[0].value)]

    with pytest.raises(ValueError, match="over q = 5"):
        leftover_pairs(1, field, closed, lambda small, big: [])


@pytest.mark.parametrize("n", [9, 41])
def test_primes_are_generated_for_any_split_n(n):
    # 2n + 3 distinct primes; split odd n leaves l1(l1-1)/2 closed factors,
    # each paired with a recursive one
    from localperiods import zeta_closed_factors, zeta_recursive_factors
    pairs = leftover_pairs(n, split_place(3), zeta_closed_factors, zeta_recursive_factors)
    l1 = (n + 1) // 2
    assert len(pairs) == l1 * (l1 - 1) // 2
    assert all(a is not None and b is not None for a, b in pairs)


def test_leftovers_are_found_once_per_kind_whatever_q():
    # the positions depend on n and the place's kind, not on q, so every q
    # of a kind reads the same exact build
    from localperiods import inert_place, zeta_closed_factors, zeta_recursive_factors
    for place in (split_place, inert_place):
        pairs = [leftover_pairs(3, place(q), zeta_closed_factors, zeta_recursive_factors)
                 for q in (2, 3, 5)]
        assert pairs[0] is pairs[1] is pairs[2]
