"""The blocked alternant Weyl sum against the per-index evaluation it replaced.

weylsum.weyl_sum_A builds each factor of h once per small character and shares
it among all h_i, and it sums the small orbit in blocks of WEYL_BLOCK
translates.  The reference below evaluates each h_i on its own, as a product of
freshly built factors in the same order, over the whole orbit at once.  Up to
n + 1 = 9 the orbit is one block and every array is small, so the two must
agree bit for bit.
"""
import tracemalloc

import numpy as np
import pytest

from localperiods import inert_place, sample_pair, weylsum
from localperiods.numfield import POLE_EPS, PoleError
from localperiods.weylsum import (Case, _b_values, _d0_values, _d1_values, _half_root,
                                  case_for, case_ranks, rho_big, weyl_orbit, weyl_sum_A)
from weylref import assert_weyl_sum_matches_double_sum


def h_reference(case, i, Z, x, root):
    # the factors of b that involve the i-th big character, evaluated at Z
    v = 1 - root * Z if case is Case.B else 1
    for j, t in enumerate(x):
        v = v * (1 - root * Z * t) * (1 - root * Z / t if j >= i else 1 - root * t / Z)
    return v


def weyl_sum_reference(case, big_chars, small_chars, field):
    root = _half_root(field)
    values = [c.value for c in big_chars]
    d1 = _d1_values(case, values)
    if abs(d1) < POLE_EPS:
        raise PoleError("degenerate big characters in the double Weyl sum", factor="d1(X)")
    small = weyl_orbit([c.value for c in small_chars])
    d0 = _d0_values(case, small)
    if np.any(np.abs(d0) < POLE_EPS):
        raise PoleError("degenerate small orbit in the double Weyl sum", factor="d0(wx)")
    l = len(values)
    X = np.array(values, dtype=complex)
    Z = np.concatenate([X, 1 / X])
    roots = np.sqrt(X)
    two_rho = rho_big(case, l)
    Z_rho = np.concatenate([roots ** -two_rho, roots ** two_rho], axis=1)
    H = (Z_rho[i] * h_reference(case, i, Z, small[:, :, None], root) for i in range(l))
    alternants = np.linalg.det(np.stack([h[..., :l] - h[..., l:] for h in H], axis=-2))
    total = (_b_values(case, (), small, root) * alternants / d0).sum()
    return complex(total / (np.prod(Z_rho.diagonal()) * d1))


def inverted_sample(n_plus_1, q, k):
    small, big = sample_pair(n_plus_1 - 1, inert_place(q), np.random.default_rng([n_plus_1, q, k]))
    return [c.inv() for c in big.chars], [c.inv() for c in small.chars]


@pytest.mark.parametrize("n_plus_1", range(1, 10))
def test_shared_factors_match_the_per_index_reference_bit_for_bit(n_plus_1, q):
    field = inert_place(q)
    case = case_for(n_plus_1)
    for k in range(3):
        X, x = inverted_sample(n_plus_1, q, k)
        assert weyl_sum_A(case, X, x, field) == weyl_sum_reference(case, X, x, field)


def test_orbits_up_to_n_10_are_one_block():
    assert len(weylsum._orbit_table(5)[0]) <= weylsum.WEYL_BLOCK


@pytest.mark.parametrize("n_plus_1", [1, 4, 6])
def test_uneven_blocks_match_the_scalar_reference(n_plus_1, q, monkeypatch):
    # blocks of 5 split the rank-3 orbit (48 translates) into nine full blocks
    # and one of 3, and the rank-2 orbit into 5 + 3; n + 1 = 1 is the rank-0
    # small group, one translate
    monkeypatch.setattr(weylsum, "WEYL_BLOCK", 5)
    assert_weyl_sum_matches_double_sum(n_plus_1, q)


def test_peak_memory_is_set_by_the_block():
    # each h_i and every per-translate temporary is at most a block of H
    # values, WEYL_BLOCK rows of 2 l_big complex entries, and at most
    # 2 l_big + 4 of them are live at once, whatever the size of the orbit
    field = inert_place(2)
    X, x = inverted_sample(12, 2, 0)
    weyl_sum_A(case_for(12), X, x, field)  # the orbit table is cached from here on
    l_big = case_ranks(12)[0]
    bound = (2 * l_big + 4) * weylsum.WEYL_BLOCK * 2 * l_big * 16
    tracemalloc.start()
    try:
        weyl_sum_A(case_for(12), X, x, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
