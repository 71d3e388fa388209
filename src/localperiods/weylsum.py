"""Hyperoctahedral Weyl machinery and the two spherical-average S(1) formulas.

The double Weyl average A = sum_{w', w} b(w'X, wx) / (d1(w'X) d0(wx)) over
(Z/2)^l x S_l is a dynamic program over positions (weyl_sum_A): b is a
product of singles and of pair factors of one big and one small character,
and a state is the pair of index sets placed so far, C(l_big + l_small,
l_small) states against |W_big| |W_small| terms.  It takes one sample's
characters, or stacked ones (a report passes each group's values as one
(rank, sample) complex array), so a report makes one call.  d1, d0 and b's
singles and pair factor have one transcription each, for scalars, Fractions
and arrays; b, their product, is transcribed in tests/weylref.py as the
program's reference.
The building blocks come in two index patterns keyed by the parity of the
smaller group:

* Case A (small group U(n+1) with n+1 even): both Weyl groups have rank
  l = (n+1)/2 and the singleton block of b runs over the small-group characters;
* Case B (n+1 odd): ranks are l and l+1 and the singleton block runs over the
  big-group characters.

The inert S(1) is A times the character-free normalizations (Iwahori volumes
and a q-power); the split S(1) is the GL_{n+1} x GL_{n+2} double average in
closed form, a numerator and a denominator factor list (s_split_factors)
that numfield.factor_product multiplies, or that a report traces once into a
numfield.FactorPlan and evaluates for all its samples.
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

from .numfield import (CharValue, FieldData, LFactor, POLE_EPS, PoleError, factor_product,
                       motive_delta_exact)

# The largest small rank: at 6 (n + 1 = 13) the DP's largest layer holds 700
# states and 2,800 (state, move) pairs a sample
MAX_WEYL_RANK = 6


class SizeError(ValueError):
    """Requested Weyl group is larger than the rank guard allows."""


class Case(Enum):
    A = "A"  # n+1 even
    B = "B"  # n+1 odd


def _check_rank(l: int) -> None:
    if l < 0:
        raise ValueError("rank must be nonnegative")
    if l > MAX_WEYL_RANK:
        raise SizeError(f"rank {l} exceeds the rank guard {MAX_WEYL_RANK}")


# ---------------------------------------------------------------------------
# b, d1, d0 and the double Weyl sum


def _case_lengths(case: Case, n_big: int, n_small: int) -> None:
    if case is Case.A and n_big != n_small:
        raise ValueError(f"case A needs equal tuple lengths, got {n_big} and {n_small}")
    if case is Case.B and n_big != n_small + 1:
        raise ValueError(f"case B needs big length = small length + 1, got {n_big} and {n_small}")


def _single(v, root, present: bool):
    # the factor of b on one character alone: small ones in case A, big in B
    return 1 - root * v if present else 1


def _pair_factor(Z, y, root, far: bool):
    # the factors of b pairing the big Z_i with the small y_j: near, 1 - r Z y,
    # times far, 1 - r Z / y, for j >= i, or low, 1 - r y / Z, for j < i
    return (1 - root * Z * y) * (1 - root * Z / y if far else 1 - root * y / Z)


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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _moves(size: int, placed: int, other: int, other_placed: int) -> tuple[np.ndarray, np.ndarray]:
    # The layer placing one more of range(size) after `placed`, with
    # `other_placed` of range(other) placed: for each new subset, member k and
    # placed subset T of the other group (combinations order), the subset
    # without k and the move table's flat index, row k, column range(other) - T.
    before = {c: i for i, c in enumerate(itertools.combinations(range(size), placed))}
    after = list(itertools.combinations(range(size), placed + 1))
    src = [[before[c[:p] + c[p + 1:]] for p in range(placed + 1)] for c in after]
    unplaced = [sum(1 << i for i in range(other) if i not in c)
                for c in itertools.combinations(range(other), other_placed)]
    return _read_only(np.array(src)), _read_only(np.array(after)[:, :, None] << other | unplaced)


@lru_cache(maxsize=None)
def _move_constants(case: Case, rank: int, other: int, last: int) -> tuple[np.ndarray, ...]:
    # The exponents -2 rho_t, 2 rho_t of the roots of value_k, 1/value_k at
    # position t (complex, as numpy's complex power takes them), the sign
    # (-1)^k, and the position t = last - |U| a move fills for each bit mask U
    # of the other group's unplaced indices (clipped where it is never read).
    two_rho = np.append(rho_big(case, rank), 0).astype(complex)
    sizes = np.array([bin(mask).count("1") for mask in range(1 << other)])
    return (_read_only(np.stack([-two_rho, two_rho])[:, None]),
            _read_only(np.array([[(-1.0) ** k] for k in range(rank)])),
            _read_only(np.clip(last - sizes, 0, rank)))


def _move_table(roots, constants, singles, pairs) -> np.ndarray:
    # The moves of one group, (sample, rank, 2^other): row k, column U is the
    # sum over e = +-1 of e (-1)^k v^{-rho_t} single(v) prod_{j in U} pair(v,
    # j), v = value_k^e; pairs holds pair(v, j) as (sample, e, k, j).
    powers, signs, positions = constants
    prods = np.ones(pairs.shape[:3] + (1,), dtype=complex)
    for j in range(pairs.shape[3]):  # bit j of U is the other group's index j
        prods = np.concatenate([prods, prods * pairs[..., j:j + 1]], axis=3)
    terms = (roots[:, None, :, None] ** powers * signs).take(positions, axis=3)
    terms *= singles
    terms *= prods
    return terms[:, 0] - terms[:, 1]


def _place(V, table, size: int, placed: int, other: int, other_placed: int):
    # One layer: V is (sample, placed subsets of the placing group, of the
    # other).  Placing index k at position p of the new subset has the sign
    # (-1)^(k - p): (-1)^k is in the table, (-1)^p in the sum, added term by
    # term so that every sample associates alike.  The groups' axes swap.
    src, entries = _moves(size, placed, other, other_placed)
    terms = table.reshape(len(table), -1).take(entries, axis=1)
    terms *= V.take(src, axis=1)
    total = terms[:, :, 0]
    for p in range(1, placed + 1):
        total = total - terms[:, :, p] if p % 2 else total + terms[:, :, p]
    return total.transpose(0, 2, 1)


def weyl_sum_A(case: Case, big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
               field: FieldData) -> complex | np.ndarray:
    """Double Weyl average A of b/(d1 d0), by a dynamic program over positions.

    X^{-rho} d1(X) and x^{-rho0} d0(x) are anti-invariant (rho = rho_big of
    the case, rho0 of the other case), so A is the signed sum of (w'X)^{-rho}
    (wx)^{-rho0} b(w'X, wx) over both groups, divided once by the two; half
    powers come from one square root per character.  The program fills the
    positions Z_0, y_0, Z_1, y_1, ... in turn.  Z_i's pair factors with the
    later y_j (j >= i, near times far) are invariant under y_j -> 1/y_j, and
    y_j's with the later Z_i (near times low) under Z_i -> 1/Z_i, so a state
    is the pair of placed index sets.  Placing index k has the sign
    (-1)^(unplaced indices below k).

    Stacked characters (each holding an array of S samples), or their values
    as one (rank, sample) complex array for each group, give a complex array
    of each sample's A, bit-identical to its own call; scalar characters give
    a complex.  Raises PoleError naming d1 or d0, the only
    divisors, if |d1(X)| or |d0(x)| is below POLE_EPS (at unitary points
    |d0(wx)| = |d0(x)|): the first such sample's, d1 first, as calls sample
    by sample would.  Raises SizeError past the small rank MAX_WEYL_RANK.
    """
    _case_lengths(case, len(big_chars), len(small_chars))
    _check_rank(len(small_chars))
    root = _half_root(field)
    big, small = (chars if isinstance(chars, np.ndarray) else [c.value for c in chars]
                  for chars in (big_chars, small_chars))
    X = np.array(big, dtype=complex).reshape(len(big), -1).T  # (sample, rank)
    samples, L, M = len(X), len(big), len(small)
    x = np.array(small, dtype=complex).reshape(M, samples).T
    d1, d0 = [_d1_values(case, v) for v in X.tolist()], [_d0_values(case, v) for v in x.tolist()]
    for k in range(samples):
        if abs(d1[k]) < POLE_EPS:
            raise PoleError("degenerate big characters in the double Weyl sum", factor="d1(X)")
        if abs(d0[k]) < POLE_EPS:
            raise PoleError("degenerate small orbit in the double Weyl sum", factor="d0(wx)")
    small_case = Case.B if case is Case.A else Case.A
    # each group's values and their inverses, (sample, e, index, 1)
    Xe, xe = (np.concatenate([v, 1 / v], axis=1).reshape(samples, 2, -1, 1) for v in (X, x))
    roots = np.sqrt(X), np.sqrt(x)
    big_table = _move_table(roots[0], _move_constants(case, L, M, M),
                            _single(Xe, root, case is Case.B),
                            _pair_factor(Xe, x[:, None, None, :], root, far=True))
    small_table = _move_table(roots[1], _move_constants(small_case, M, L, L - 1),
                              _single(xe, root, case is Case.A),
                              _pair_factor(X[:, None, None, :], xe, root, far=False))
    V = np.ones((samples, 1, 1), dtype=complex)
    for t in range(L):
        V = _place(V, big_table, L, t, M, t)  # Z_t
        if t < M:
            V = _place(V, small_table, M, t, L, t + 1)  # y_t
    norm = np.array(d1) * np.array(d0)  # times X^{-rho} x^{-rho0}
    for powers in (roots[0] ** -rho_big(case, L).T, roots[1] ** -rho_big(small_case, M).T):
        for column in powers.T:
            norm = norm * column
    values = V[:, 0, 0] / norm
    return values if isinstance(big[0], np.ndarray) else complex(values[0])


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


def s_split_factors(big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
                    n: int, field: FieldData) -> tuple[list[LFactor], list[LFactor]]:
    """The numerator and denominator factor lists of S_{X,x}(1) for
    GL_{n+2} x GL_{n+1} at a split place (see s_value_split), over q_F.

    Numerator: L(1/2, x_i X_{n-j+3}) over 1<=i<j<=n+2 and its
    inverse-complement over 1<=j<=i<n+2.  Denominator: zeta_F(1..n+1) and
    the one-sided L(1, ratio) blocks of each group.  The tuple coordinates
    are half-block reversed (see _half_reversed).  Reciprocals are written
    1 / z and the zeta_F alphas 1, so Fraction characters give exact alphas.
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
                               1 / (x[i] * X[n - j + 3])))
    den: list[LFactor] = []
    for i in range(1, n + 2):
        den.append(LFactor(f"zeta_F({i})", i, q, 1))
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            den.append(LFactor(f"L_F(1, x{i}/x{j})", 1.0, q, x[i] / x[j]))
    for i in range(1, n + 3):
        for j in range(i + 1, n + 3):
            den.append(LFactor(f"L_F(1, X{i}/X{j})", 1.0, q, X[i] / X[j]))
    return num, den


def _s_split_ratio(num, den, n: int, field: FieldData):
    """S(1) from the products of its numerator and denominator lists: the
    scale times num, over den, in Python's complex arithmetic on each sample
    (num and den are complex, or arrays of one product per sample)."""
    scale = float(_s_scale(n, field))
    if not isinstance(num, np.ndarray):
        return scale * num / den
    # numpy would warn on the floating-point flags a nan sample raises here
    with np.errstate(all="ignore"):
        return scale * num.astype(object) / den.astype(object)


def s_value_split(big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
                  n: int, field: FieldData) -> complex:
    """Spherical double average S_{X,x}(1) for GL_{n+2} x GL_{n+1}, split place.

    The closed form is the staircase product over q_F of s_split_factors:
    its numerator list over its denominator list.  Two conventions are fixed
    by the end-to-end identity: the tuple coordinates are half-block
    reversed, and the value is normalized by the GL Iwahori volumes of both
    groups (the closed form is Iwahori-measure native, while hyperspecial
    volume 1 is needed here).

    The numerator and denominator are each multiplied from 1 in list order
    by factor_product.  Stacked characters (each an object array of one value
    per sample) give an object array of one value per sample, each
    bit-identical to that sample's own value; a sample that meets a pole is
    nan there and raises PoleError, naming the factor, when evaluated alone.
    A report does not call this: it traces s_split_factors into a FactorPlan
    and takes S from the plan's two products (_s_split_ratio).
    """
    num, den = s_split_factors(big_chars, small_chars, n, field)
    first = big_chars[0].value
    samples = len(first) if isinstance(first, np.ndarray) else None
    return _s_split_ratio(factor_product(num, samples), factor_product(den, samples), n, field)
