"""The dynamic-program Weyl sum against the alternant reference.

weylsum.weyl_sum_A fills the positions of both Weyl groups one at a time;
tests/weylref.py keeps the one-sided alternant it replaced, which enumerates
the small group's orbit and sums the big group as a determinant.  The two
evaluate the same sum in different orders, so they agree to rounding.  A
stacked call, one character per position holding every sample's value, must
give each sample's own value bit for bit.
"""
import tracemalloc
from math import comb

import numpy as np
import pytest

from localperiods import CharValue, inert_place
from localperiods.identity import rel_err
from localperiods.numfield import PoleError
from localperiods.weylsum import case_for, case_ranks, weyl_sum_A
from weylref import alternant_sum, inverted_sample


@pytest.mark.parametrize("n_plus_1", range(1, 11))
def test_the_dp_matches_the_alternant_reference(n_plus_1, q):
    # both sums lose digits on a sample near the d1/d0 vanishing locus: these
    # samples agree to 1e-15 at best and 6e-9 at worst (n + 1 = 7, q = 2); a
    # slip in the signs or the pair factors moves A by order 1
    field, case = inert_place(q), case_for(n_plus_1)
    for k in range(3):
        X, x = inverted_sample(n_plus_1, q, k)
        assert rel_err(weyl_sum_A(case, X, x, field), alternant_sum(case, X, x, field)) < 1e-7


def stacked(columns):
    # one character per position, holding every sample's value in order
    return [CharValue(np.array([c.value for c in column], dtype=object))
            for column in zip(*columns)]


# a stack of the default 4 samples, and a block of 5: numpy can associate a
# reduction differently for another number of samples, which is how a stacked
# call can drift from the sample's own call
STACKS = pytest.mark.parametrize("count", [4, 5], ids=["default", "block5"])


@STACKS
@pytest.mark.parametrize("n_plus_1", range(1, 13))
def test_a_stacked_call_is_each_samples_own_call_bit_for_bit(n_plus_1, q, count):
    field, case = inert_place(q), case_for(n_plus_1)
    samples = [inverted_sample(n_plus_1, q, k) for k in range(count)]
    values = weyl_sum_A(case, stacked([X for X, _ in samples]), stacked([x for _, x in samples]),
                        field)
    assert values.tolist() == [weyl_sum_A(case, X, x, field) for X, x in samples]


@STACKS
@pytest.mark.parametrize("poles, factor", [
    ({1: "d1"}, "d1(X)"),
    ({1: "d0"}, "d0(wx)"),
    ({1: "d0", 2: "d1"}, "d0(wx)"),
    ({1: "d1", 2: "d0"}, "d1(X)"),
    ({2: "d1 d0"}, "d1(X)"),
])
def test_a_pole_in_one_stacked_sample_raises_as_the_sample_loop(poles, factor, count):
    # the trivial character zeroes d1 (as a big character) or d0 (as a small
    # one) in case A; the stacked call raises the first error that calling
    # sample by sample meets, d1 before d0 within a sample
    field, case = inert_place(2), case_for(4)
    samples = []
    for k in range(count):
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


def peak_memory(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def largest_layer(n_plus_1):
    # the most (state, move) pairs of one layer of the DP: a layer places one
    # index of a group of size `size` after `placed`, for every placed subset
    # of the other group
    l_big, l_small = case_ranks(n_plus_1)
    layers = [(l_big, t, l_small, t) for t in range(l_big)]
    layers += [(l_small, t, l_big, t + 1) for t in range(l_small)]
    return max(comb(size, placed + 1) * (placed + 1) * comb(other, done)
               for size, placed, other, done in layers)


def test_peak_memory_is_set_by_the_largest_layer():
    # at n + 1 = 12 the largest layer holds 1,200 (state, move) pairs a sample.
    # A layer keeps two complex arrays of that size live, the gathered moves
    # and the gathered states multiplied into them; building a move table
    # keeps two of 2 * 6 * 2^6 = 768 entries a sample.  The peak measured
    # 3.4 layers' worth (4 samples)
    field, case = inert_place(2), case_for(12)
    samples = [inverted_sample(12, 2, k) for k in range(4)]
    X, x = stacked([X for X, _ in samples]), stacked([x for _, x in samples])
    weyl_sum_A(case, X, x, field)  # the index tables are cached from here on
    assert largest_layer(12) == 1200
    assert peak_memory(lambda: weyl_sum_A(case, X, x, field)) <= 8 * 4 * largest_layer(12) * 16
