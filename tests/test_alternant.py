"""The blocked alternant Weyl sum against the per-index evaluation it replaced.

weylsum.weyl_sum_A builds each factor of h once per small character and shares
it among all h_i, and it sums the (sample, translate) pairs in blocks of at most
WEYL_BLOCK.  The reference below evaluates each h_i on its own, as a product of
freshly built factors in the same order, over the whole orbit at once.  Up to
n + 1 = 9 the orbit is one block and every array is small, so the two must
agree bit for bit.  A stacked call, one character per position holding every
sample's value, must give each sample's own value bit for bit, however the
blocks split the samples and translates.
"""
import tracemalloc

import numpy as np
import pytest

from localperiods import CharValue, inert_place, sample_pair, weylsum
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


def stacked(columns):
    # one character per position, holding every sample's value in order
    return [CharValue(np.array([c.value for c in column], dtype=object))
            for column in zip(*columns)]


@pytest.mark.parametrize("block", [None, 5], ids=["default", "block5"])
@pytest.mark.parametrize("n_plus_1", range(1, 10))
def test_a_stacked_call_is_each_samples_own_call_bit_for_bit(n_plus_1, q, block, monkeypatch):
    # blocks of 5 hold two whole orbits at n + 1 = 2 (2 translates, big rank
    # 1), so they split the samples, and slice every orbit of rank 2 and up
    # (8 translates and more)
    if block is not None:
        monkeypatch.setattr(weylsum, "WEYL_BLOCK", block)
    field, case = inert_place(q), case_for(n_plus_1)
    samples = [inverted_sample(n_plus_1, q, k) for k in range(4)]
    values = weyl_sum_A(case, stacked([X for X, _ in samples]), stacked([x for _, x in samples]),
                        field)
    assert values.tolist() == [weyl_sum_A(case, X, x, field) for X, x in samples]


@pytest.mark.parametrize("block", [None, 5], ids=["default", "block5"])
@pytest.mark.parametrize("poles, factor", [
    ({1: "d1"}, "d1(X)"),
    ({1: "d0"}, "d0(wx)"),
    ({1: "d0", 2: "d1"}, "d0(wx)"),
    ({1: "d1", 2: "d0"}, "d1(X)"),
    ({2: "d1 d0"}, "d1(X)"),
])
def test_a_pole_in_one_stacked_sample_raises_as_the_sample_loop(poles, factor, block,
                                                                monkeypatch):
    # the trivial character zeroes d1 (as a big character) or d0 (as a small
    # one) in case A; the stacked call raises the first error that calling
    # sample by sample meets, d1 before d0 within a sample
    if block is not None:
        monkeypatch.setattr(weylsum, "WEYL_BLOCK", block)
    field, case = inert_place(2), case_for(4)
    samples = []
    for k in range(4):
        X, x = inverted_sample(4, 2, k)
        spots = poles.get(k, "")
        samples.append(([CharValue(1.0)] + X[1:] if "d1" in spots else X,
                        [CharValue(1.0)] + x[1:] if "d0" in spots else x))

    def factor_raised(call):
        with pytest.raises(PoleError) as err:
            call()
        return err.value.factor

    assert factor_raised(lambda: [weyl_sum_A(case, X, x, field) for X, x in samples]) == factor
    assert factor_raised(lambda: weyl_sum_A(case, stacked([X for X, _ in samples]),
                                            stacked([x for _, x in samples]), field)) == factor


def test_orbits_up_to_n_10_are_one_block():
    assert len(weylsum._orbit_table(5)[0]) <= weylsum.WEYL_BLOCK


@pytest.mark.parametrize("n_plus_1", [1, 4, 6])
def test_uneven_blocks_match_the_scalar_reference(n_plus_1, q, monkeypatch):
    # blocks of 5 split the rank-3 orbit (48 translates) into nine full blocks
    # and one of 3, and the rank-2 orbit into 5 + 3; n + 1 = 1 is the rank-0
    # small group, one translate
    monkeypatch.setattr(weylsum, "WEYL_BLOCK", 5)
    assert_weyl_sum_matches_double_sum(n_plus_1, q)


def peak_memory(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# each h_i and every per-translate temporary is at most a block of H values,
# WEYL_BLOCK (sample, translate) rows of 2 l_big complex entries, and at most
# 2 l_big + 4 of them are live at once, whatever the size of the orbit or the
# number of samples
L_BIG = case_ranks(12)[0]
BLOCK_BOUND = (2 * L_BIG + 4) * weylsum.WEYL_BLOCK * 2 * L_BIG * 16


def test_peak_memory_is_set_by_the_block():
    field = inert_place(2)
    X, x = inverted_sample(12, 2, 0)
    weyl_sum_A(case_for(12), X, x, field)  # the orbit table is cached from here on
    assert peak_memory(lambda: weyl_sum_A(case_for(12), X, x, field)) <= BLOCK_BOUND


def test_peak_memory_of_a_stacked_call_is_set_by_the_block():
    field = inert_place(2)
    samples = [inverted_sample(12, 2, k) for k in range(4)]
    weyl_sum_A(case_for(12), *samples[0], field)  # the orbit table is cached from here on
    X, x = stacked([X for X, _ in samples]), stacked([x for _, x in samples])
    assert peak_memory(lambda: weyl_sum_A(case_for(12), X, x, field)) <= BLOCK_BOUND
