"""The factor-list matcher against a quadratic reference that states its rule.

identity._pair_off pairs each left character value with the first unpaired
right one, in order, that is within MATCH_RTOL * max(1, |alpha|) of it; a nan
value never pairs.  The reference below applies that rule by scanning every
remaining factor, and the two must leave the same factors unpaired, in the
same order.  match_factor_lists on column k of stacked lists must give what it
gives on the column's own lists.
"""
import cmath
import math

import numpy as np
import pytest

from localperiods import split_place, zeta_closed_factors, zeta_recursive_factors
from localperiods.identity import (MATCH_RTOL, _pair_off, _rng_for, match_factor_lists,
                                   sample_pair)
from localperiods.satake import stack_data
from localperiods.zetarec import LFactor, column


def pair_off_reference(a_list, b_list):
    remaining = list(b_list)
    unmatched_a = []
    for a in a_list:
        hit = next((k for k, b in enumerate(remaining)
                    if abs(a.alpha - b.alpha) <= MATCH_RTOL * max(1.0, abs(a.alpha))), None)
        if hit is None:
            unmatched_a.append(a)
        else:
            remaining.pop(hit)
    return unmatched_a, remaining


NON_FINITE = (complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.nan, math.nan),
              complex(math.inf, 0.0), complex(1.0, -math.inf))


def near(rng, alpha, scale):
    # alpha moved by scale * MATCH_RTOL * max(1, |alpha|) in a random direction
    step = scale * MATCH_RTOL * max(1.0, abs(alpha))
    return alpha + step * cmath.exp(2j * math.pi * rng.uniform())


def random_lists(rng):
    # a pool of base values, large ones among them, and for each drawn factor
    # one of: the base value, an exact duplicate, a partner at 0.5x or 2x the
    # tolerance, the same real part with another imaginary part, or non-finite
    base = [cmath.rect(10.0 ** rng.choice([0, 0, 3, 8]), 2 * math.pi * rng.uniform())
            for _ in range(rng.integers(1, 6))]
    lists = ([], [])
    for side in (0, 1):
        for k in range(rng.integers(0, 25)):
            alpha = base[rng.integers(len(base))]
            kind = rng.integers(6)
            if kind == 1:
                alpha = near(rng, alpha, 0.5)
            elif kind == 2:
                alpha = near(rng, alpha, 2.0)
            elif kind == 3:
                alpha = complex(alpha.real, alpha.imag + rng.choice([-1.0, 1.0]) * rng.choice(
                    [0.5, 2.0]) * MATCH_RTOL * max(1.0, abs(alpha)))
            elif kind == 4:
                alpha = complex(alpha.real, -alpha.imag)
            elif kind == 5 and rng.uniform() < 0.3:
                alpha = NON_FINITE[rng.integers(len(NON_FINITE))]
            lists[side].append(LFactor(f"side{side}-{k}", 0.5, 2, alpha))
    return lists


def labels(pair):
    return tuple([f.label for f in part] for part in pair)


def pair_off(a_list, b_list):
    # _pair_off on the lists' character values, its unpaired positions mapped
    # back to the factors
    a_left, b_left = _pair_off(*(np.array([f.alpha for f in side], dtype=complex)
                                 for side in (a_list, b_list)))
    return [a_list[i] for i in a_left], [b_list[j] for j in b_left]


@pytest.mark.parametrize("seed", range(8))
def test_pair_off_matches_the_quadratic_reference(seed):
    rng = np.random.default_rng([seed, 2024])
    for _ in range(250):
        a_list, b_list = random_lists(rng)
        assert labels(pair_off(a_list, b_list)) == labels(pair_off_reference(a_list, b_list))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_matching_a_stacked_column_is_matching_its_own_lists(n):
    # split odd n misses on every sample, so every column has diffs: labels
    # and values (repr, so that a nan compares) agree with the plain lists'
    pairs = [sample_pair(n, split_place(2), _rng_for(n, k)) for k in range(4)]
    small, big = (stack_data(data) for data in zip(*pairs))
    closed, recursive = zeta_closed_factors(small, big), zeta_recursive_factors(small, big)
    for k in range(4):
        stacked = match_factor_lists(closed, recursive, k)
        alone = match_factor_lists(column(closed, k), column(recursive, k))
        assert stacked and list(map(repr, stacked)) == list(map(repr, alone))

