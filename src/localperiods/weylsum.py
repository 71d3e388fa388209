"""Hyperoctahedral Weyl machinery and the two spherical-average S(1) formulas.

The double Weyl average A = sum_{w', w} b(w'X, wx) / (d1(w'X) d0(wx)) over
(Z/2)^l x S_l enumerates the small group only: a cached per-rank orbit table
turns the small characters into their orbit as numpy columns.  The orbit lists
the group elements with the permutations varying slowest (itertools order) and,
within one permutation, the 2^l flip patterns in binary order, flip i inverting
on bit l-1-i of the pattern index; so the identity comes first.  Every factor of
b involves at most one big character and X^{-rho} d1(X) is anti-invariant, so
the big-group sum for each small translate is one determinant (weyl_sum_A).
weyl_sum_A takes one sample's characters, or stacked ones with a leading
sample axis, so a report makes one call.  It sums the (sample, translate)
pairs in blocks of at most WEYL_BLOCK, the whole orbits of several samples or
slices of one sample's orbit, so the working arrays are sized by the block,
not by the samples times |W_small|, and each sample's block sums are added up
in order.  Within a block, _h_values builds each factor of b that pairs a small
character with the big ones once and shares it among every h_i.  b, d1 and d0
have one transcription each, for scalars, Fractions and arrays.
The building blocks come in two index patterns keyed by the parity of the
smaller group:

* Case A (small group U(n+1) with n+1 even): both Weyl groups have rank
  l = (n+1)/2 and the singleton block of b runs over the small-group characters;
* Case B (n+1 odd): ranks are l and l+1 and the singleton block runs over the
  big-group characters.

The inert S(1) is A times the character-free normalizations (Iwahori volumes
and a q-power); the split S(1) is the GL_{n+1} x GL_{n+2} double average in
closed form, a numerator and a denominator factor list that
zetarec.factor_product multiplies, so it takes stacked characters too.
Conventions the verified formulas leave open (q-length of the long Weyl
element, tuple coordinate order, measure normalization) are fixed here to the
unique choices under which the end-to-end period identity closes; see the
function docstrings.
"""
from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .numfield import CharValue, FieldData, POLE_EPS, PoleError, motive_delta_exact
from .zetarec import LFactor, factor_product

MAX_WEYL_RANK = 6  # 2^6 * 6! = 46080 elements
WEYL_BLOCK = 4096  # (sample, translate) pairs per block of the alternant sum (rank 5 has 3840)


class SizeError(ValueError):
    """Requested Weyl group is larger than the enumeration guard allows."""


class Case(Enum):
    A = "A"  # n+1 even
    B = "B"  # n+1 odd


def _check_rank(l: int) -> None:
    if l < 0:
        raise ValueError("rank must be nonnegative")
    if l > MAX_WEYL_RANK:
        raise SizeError(f"rank {l} exceeds the enumeration guard {MAX_WEYL_RANK}")


@lru_cache(maxsize=None)
def _orbit_table(l: int) -> tuple[np.ndarray, np.ndarray]:
    # (|W|, l) tables: row k, entry i holds the source index perm^{-1}(i) of
    # the k-th element and whether its flip i is -1.  Permutations vary slowest,
    # and flip i is -1 on bit l-1-i of the mask index.
    _check_rank(l)
    perms = np.array(list(itertools.permutations(range(l))), dtype=np.intp)
    masks = ((np.arange(2 ** l)[:, None] >> np.arange(l - 1, -1, -1)) & 1).astype(bool)
    src = np.repeat(np.argsort(perms, axis=1), 2 ** l, axis=0)
    flip = np.tile(masks, (len(perms), 1))
    src.setflags(write=False)
    flip.setflags(write=False)
    return src, flip


def weyl_orbit(values: Sequence, rows: slice = slice(None)) -> np.ndarray:
    """The Weyl orbit of a character tuple as an (l, |W|) complex array, or as
    an (l, S, |W|) array when each character holds the object array of S
    samples' values (satake.stack_data).

    Row i is the i-th orbit column: entry k of it is entry i of the k-th
    translate, the input entry perm^{-1}(i), inverted where flip i is -1; an
    inverse is 1/v in Python's arithmetic, so a stacked sample's translates
    are those of its own tuple.  The elements come in the module's order:
    permutations slowest (itertools order), then flip i on bit l-1-i of the
    flip-pattern index.  Iterating over the array yields the columns, so the
    scalar formulas evaluate the whole orbit at once.  rows, a slice of that
    order, keeps only those elements.
    """
    src, flip = _orbit_table(len(values))
    src, flip = src[rows].T, flip[rows].T
    vals = np.array(values, dtype=complex)
    inv = np.array([1 / v for v in values], dtype=complex)
    if vals.ndim == 2:  # stacked: each sample's translates along the last axis
        src, flip = (src[:, None], np.arange(vals.shape[1])[:, None]), flip[:, None]
    return np.where(flip, inv[src], vals[src])


# ---------------------------------------------------------------------------
# b, d1, d0 and the double Weyl sum


def _case_lengths(case: Case, n_big: int, n_small: int) -> None:
    if case is Case.A and n_big != n_small:
        raise ValueError(f"case A needs equal tuple lengths, got {n_big} and {n_small}")
    if case is Case.B and n_big != n_small + 1:
        raise ValueError(f"case B needs big length = small length + 1, got {n_big} and {n_small}")


def _h_values(case: Case, l: int, Z, x, root) -> np.ndarray:
    # h_0(Z; x), ..., h_{l-1}(Z; x) as one (l, ...) array: h_i is the product
    # of the factors of b that involve the i-th big character, evaluated at Z.
    # The three factors of each small character t_j are built once and
    # multiply every h_i in place, h_i taking the far one for j >= i and the
    # low one for j < i.
    rZ = root * Z
    start = 1 - rZ if case is Case.B else 1
    if not len(x):
        return np.array([start] * l)
    for j, t in enumerate(x):
        near, far, low = 1 - rZ * t, 1 - rZ / t, 1 - root * t / Z
        if j == 0:
            h = np.array([start * near] * l)
        else:
            h *= near
        h[:j + 1] *= far
        h[j + 1:] *= low
    return h


def _b_values(case: Case, X, x, root):
    # b = c(x) prod_i h_i(X_i; x), c the small singles of case A (so an empty X
    # gives c).  b is the reciprocal of a product of L_E(1/2, .) factors, kept
    # as a product of (1 - q_E^{-1/2} a), so it vanishes where one has a pole.
    # root = q_E^{-1/2}; every factor of b sits at s = 1/2.  Scalars are
    # complex, Fraction on exact rational data, or numpy arrays.
    v = 1
    for t in x if case is Case.A else ():
        v = v * (1 - root * t)
    for i, Z in enumerate(X):
        v = v * _h_values(case, len(X), Z, x, root)[i]
    return v


def _d1_values(case: Case, X):
    # d1 and d0 are reciprocals of products of L_E(0, .) factors; every factor
    # sits at s = 0, so no q-power appears
    v = 1
    for i, z in enumerate(X):
        v *= 1 - (z * z if case is Case.A else z)
        for j in range(i + 1, len(X)):
            v *= (1 - z * X[j]) * (1 - z / X[j])
    return v


def _d0_values(case: Case, x):
    v = 1
    for i, z in enumerate(x):
        v *= 1 - (z if case is Case.A else z * z)
        for j in range(i + 1, len(x)):
            v *= (1 - z * x[j]) * (1 - z / x[j])
    return v


def _half_root(field: FieldData) -> float:
    return 1.0 / math.sqrt(field.q_E)


@lru_cache(maxsize=None)
def rho_big(case: Case, rank: int) -> np.ndarray:
    """The doubled exponents 2 rho paired with d1, as a read-only integer column:
    rho = (l, ..., 1) in case A, (l-1/2, ..., 1/2) in case B."""
    if case is Case.A:
        doubled = [2 * (rank - i) for i in range(rank)]
    else:
        doubled = [2 * (rank - i) - 1 for i in range(rank)]
    column = np.array(doubled)[:, None]
    column.setflags(write=False)
    return column


def weyl_sum_A(case: Case, big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
               field: FieldData) -> complex | np.ndarray:
    """Double Weyl average A of b/(d1 d0), the big-group sum as an alternant.

    For a small translate y = wx, b(., y) = c(y) prod_i h_i(X_i; y) and
    X^{-rho} d1(X) is anti-invariant (rho = rho_big), so the sum over w' is
    c(y) det[H_i(X_k) - H_i(1/X_k)] / (X^{-rho} d1(X)), H_i(Z) = Z^{-rho_i}
    h_i(Z; y), with half powers from one fixed square root per character (a
    flipped entry takes the inverse power of the same root).  Stacked
    characters (object arrays of S samples, satake.stack_data) give a complex
    array of each sample's A, bit-identical to its own call; scalar
    characters are the one-sample case and give a complex.  The pairs are
    summed in blocks (see the module docstring); d1, the pole checks and the
    last division are each sample's own scalar arithmetic.  Raises PoleError
    naming d1 or d0, the only divisors, if |d1(X)| or some |d0(wx)| is below
    POLE_EPS: the first such sample's, d1 first, as calls sample by sample
    would.
    """
    _case_lengths(case, len(big_chars), len(small_chars))
    root = _half_root(field)
    big, small_values = ([c.value for c in chars] for chars in (big_chars, small_chars))
    stacked = isinstance(big[0], np.ndarray)
    if not stacked:  # one sample
        big, small_values = ([np.array([v], dtype=object) for v in values]
                             for values in (big, small_values))
    samples, l = len(big[0]), len(big)
    d1 = [_d1_values(case, [v[k] for v in big]) for k in range(samples)]
    first_d1 = next((k for k, d in enumerate(d1) if abs(d) < POLE_EPS), samples)
    X = np.array(big, dtype=complex).T  # (sample, l)
    # H_i is evaluated at X_k, then at 1/X_k; as a row per sample, so that h
    # has a translate axis also when the small group has rank 0
    Z = np.concatenate([X, 1 / X], axis=1)[:, None, :]
    roots = np.sqrt(X)[:, None, :]
    two_rho = rho_big(case, l)
    Z_rho = np.concatenate([roots ** -two_rho, roots ** two_rho], axis=2)  # (sample, l, 2 l)
    orbit_size = len(_orbit_table(len(small_values))[0])
    # a block is `width` translates of one sample's orbit, or the whole orbits
    # of `step` samples, at most WEYL_BLOCK / l pairs: h holds 2 l^2 values a
    # pair, and at l = 5 a block of 4,096 pairs outgrew a 2 MB L2 cache
    # (n = 8: 1.2 ms a sample, against 0.8 ms with blocks of 768 pairs)
    width, step = min(orbit_size, WEYL_BLOCK), max(1, WEYL_BLOCK // (orbit_size * l))
    total = np.zeros(samples, dtype=complex)
    # the samples before the first d1 pole, so that an earlier d0 pole raises first
    for first in range(0, first_d1, step):
        rows = slice(first, min(first + step, first_d1))
        chunk = [v[rows] for v in small_values]
        for start in range(0, orbit_size, width):
            small = weyl_orbit(chunk, slice(start, start + width))  # (l_small, sample, translate)
            # a rank-0 small group leaves c and d0 as the scalar 1
            d0 = _d0_values(case, small)
            if np.any(np.abs(d0) < POLE_EPS):
                raise PoleError("degenerate small orbit in the double Weyl sum", factor="d0(wx)")
            H = _h_values(case, l, Z[rows], small[..., None], root)  # (l, sample, translate, 2 l)
            np.multiply(Z_rho[rows].transpose(1, 0, 2)[:, :, None, :], H, out=H)
            alternants = np.linalg.det((H[..., :l] - H[..., l:]).transpose(1, 2, 0, 3))
            del H  # so that the next block's h is not built while this one is alive
            total[rows] += (_b_values(case, (), small, root) * alternants / d0).sum(axis=-1)
    if first_d1 < samples:
        raise PoleError("degenerate big characters in the double Weyl sum", factor="d1(X)")
    # X^{-rho} d1(X), sample by sample
    values = [complex(total[k] / (np.prod(Z_rho[k].diagonal()) * d1[k])) for k in range(samples)]
    return np.array(values) if stacked else values[0]


def case_for(n_plus_1: int) -> Case:
    return Case.A if n_plus_1 % 2 == 0 else Case.B


def case_ranks(n_plus_1: int) -> tuple[int, int]:
    """(big rank, small rank) of the two Weyl groups for the pair U(n+2) > U(n+1)."""
    l1 = n_plus_1 // 2
    l2 = (n_plus_1 + 1) // 2
    return (l1, l1) if n_plus_1 % 2 == 0 else (l2, l1)


def motive_A_value(n_plus_1: int, field: FieldData) -> complex:
    """The constant value of the double Weyl average: 1/Delta_{G_{n+1}} locally."""
    if n_plus_1 < 1:
        raise ValueError("group size must be >= 1")
    return complex(1 / motive_delta_exact(n_plus_1, field))


# ---------------------------------------------------------------------------
# Iwahori volumes, the Bruhat-cell q-power, and the two S(1) values


def iwahori_volume(i: int, q_F: int) -> Fraction:
    """Iwahori volume in the quasi-split unitary group U(i), hyperspecial volume 1:
    prod_{j<=i} (q_F - (-1)^j) / (q_F^j - (-1)^j)."""
    if i < 1:
        raise ValueError("group size must be >= 1")
    num = Fraction(1)
    den = Fraction(1)
    for j in range(1, i + 1):
        sign = (-1) ** j
        num *= q_F - sign
        den *= q_F ** j - sign
    return num / den


def iwahori_volume_gl(i: int, q_F: int) -> Fraction:
    """Split-place analogue for GL_i(F): the quadratic character is trivial, so
    every sign above becomes +1 and the volume is 1/#(complete flags over F_q)."""
    if i < 1:
        raise ValueError("group size must be >= 1")
    num = Fraction(1)
    den = Fraction(1)
    for j in range(1, i + 1):
        num *= q_F - 1
        den *= q_F ** j - 1
    return num / den


def _bruhat_q_exponent(n: int) -> int:
    # q_F-length of the long elements for the pair U(n+1), U(n+2): m(m-1)/2 each,
    # the exponent of the big Bruhat cell. For n odd this equals the hyperoctahedral
    # q_E^{l^2 + l^2}; for n even no integral q_E power exists and this is the
    # unique exponent under which the period identity closes.
    return sum(m * (m - 1) // 2 for m in (n + 1, n + 2))


@lru_cache(maxsize=None)
def _s_scale(n: int, field: FieldData) -> Fraction:
    # The exact constant of S for the pair U(n+1), U(n+2): the q_F-power of the
    # big Bruhat cell times the Iwahori volumes of both groups (unitary at inert
    # places, GL at split places), memoized per (n, place).
    volume = iwahori_volume if field.is_inert else iwahori_volume_gl
    return (Fraction(field.q_F) ** _bruhat_q_exponent(n)
            * volume(n + 1, field.q_F) * volume(n + 2, field.q_F))


def s_value_inert(n: int, field: FieldData, zeta_at_inverse: complex,
                  a_val: complex) -> complex:
    """Spherical double average S at the identity, inert place.

    The product zeta(X^{-1}, x^{-1}) * q-power * Vol(B_{n+1}) Vol(B_{n+2}) *
    A(X^{-1}, x^{-1}), with the zeta value and the double Weyl sum A at the
    inverted characters (weyl_sum_A) supplied by the caller.
    """
    if not field.is_inert:
        raise ValueError("inert formula requested at a split place")
    return zeta_at_inverse * float(_s_scale(n, field)) * a_val


def _half_reversed(values: Sequence[complex]) -> tuple:
    # Coordinate order of the imported GL x GL average: each half block reversed
    # (innermost character first), middle entry fixed.  Indexed 1..m like the
    # closed form (entry 0 is None, so an index-0 slip fails on arithmetic).
    m = len(values)
    l = m // 2
    out = [None, *values[:l][::-1]]
    if m % 2:
        out.append(values[l])
    out.extend(values[m - l:][::-1])
    return tuple(out)


def s_value_split(big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
                  n: int, field: FieldData) -> complex:
    """Spherical double average S_{X,x}(1) for GL_{n+2} x GL_{n+1}, split place.

    The closed form is the staircase product over q_F: numerator pattern
    L(1/2, x_i X_{n-j+3}) over 1<=i<j<=n+2 and its inverse-complement over
    1<=j<=i<n+2, divided by zeta_F(1..n+1) and the one-sided L(1, ratio)
    blocks.  Two conventions are fixed by the end-to-end identity: the tuple
    coordinates are half-block reversed, and the value is normalized by the GL
    Iwahori volumes of both groups (the closed form is Iwahori-measure native,
    while hyperspecial volume 1 is needed here).

    The numerator and denominator are factor lists, each multiplied from 1
    in list order by factor_product.  Stacked characters (see
    satake.stack_data) give an object array of one value per sample, each
    bit-identical to that sample's own value; a sample that meets a pole is
    nan there and raises PoleError, naming the factor, when evaluated alone.
    """
    if not field.is_split:
        raise ValueError("split formula requested at an inert place")
    if len(big_chars) != n + 2 or len(small_chars) != n + 1:
        raise ValueError(
            f"need tuples of sizes {n + 2} and {n + 1}, got {len(big_chars)} and {len(small_chars)}")
    q = field.q_F
    X = _half_reversed([c.value for c in big_chars])
    x = _half_reversed([c.value for c in small_chars])
    num: list[LFactor] = []
    for i in range(1, n + 3):
        for j in range(i + 1, n + 3):
            num.append(LFactor(f"L_F(1/2, x{i}*X{n - j + 3})", 0.5, q, x[i] * X[n - j + 3]))
    for i in range(1, n + 2):
        for j in range(1, i + 1):
            num.append(LFactor(f"L_F(1/2, (x{i}*X{n - j + 3})^-1)", 0.5, q,
                               1.0 / (x[i] * X[n - j + 3])))
    den: list[LFactor] = []
    for i in range(1, n + 2):
        den.append(LFactor(f"zeta_F({i})", i, q, 1.0 + 0.0j))
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            den.append(LFactor(f"L_F(1, x{i}/x{j})", 1.0, q, x[i] / x[j]))
    for i in range(1, n + 3):
        for j in range(i + 1, n + 3):
            den.append(LFactor(f"L_F(1, X{i}/X{j})", 1.0, q, X[i] / X[j]))
    samples = len(X[1]) if isinstance(X[1], np.ndarray) else None
    num_v, den_v = factor_product(num, samples), factor_product(den, samples)
    if samples is None:
        return float(_s_scale(n, field)) * num_v / den_v
    # the last two operations in Python's complex arithmetic, on each sample;
    # numpy would warn on the floating-point flags a nan sample raises there
    with np.errstate(all="ignore"):
        return float(_s_scale(n, field)) * num_v.astype(object) / den_v.astype(object)
