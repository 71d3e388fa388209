"""Hyperoctahedral Weyl machinery and the two spherical-average S(1) formulas.

The double Weyl average A = sum_{w', w} b(w'X, wx) / (d1(w'X) d0(wx)) over
(Z/2)^l x S_l enumerates the small group only: a cached per-rank orbit table
turns the small characters into their orbit as numpy columns.  Every factor of
b involves at most one big character and X^{-rho} d1(X) is anti-invariant, so
the big-group sum for each small translate is one determinant (weyl_sum_A).
b, d1 and d0 have one transcription each, for scalars, Fractions and arrays.
The building blocks come in two index patterns keyed by the parity of the
smaller group:

* Case A (small group U(n+1) with n+1 even): both Weyl groups have rank
  l = (n+1)/2 and the singleton block of b runs over the small-group characters;
* Case B (n+1 odd): ranks are l and l+1 and the singleton block runs over the
  big-group characters.

The inert S(1) is A times the character-free normalizations (Iwahori volumes
and a q-power); the split S(1) is the GL_{n+1} x GL_{n+2} double average in
closed form.  Conventions the verified formulas leave open (q-length of the
long Weyl element, tuple coordinate order, measure normalization) are fixed
here to the unique choices under which the end-to-end period identity closes;
see the function docstrings.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .numfield import (CharValue, FieldData, POLE_EPS, PoleError,
                       euler_factor, motive_delta_exact)

MAX_WEYL_RANK = 6  # 2^6 * 6! = 46080 elements


class SizeError(ValueError):
    """Requested Weyl group is larger than the enumeration guard allows."""


class Case(Enum):
    A = "A"  # n+1 even
    B = "B"  # n+1 odd


class LengthType(Enum):
    HYPEROCTAHEDRAL_RANK = "hyperoctahedral"
    SYMMETRIC_SIZE = "symmetric"


@dataclass(frozen=True)
class WeylElement:
    """Element of (Z/2)^l x| S_l: perm[i] is the 0-based image of i, flips in {+-1}.

    Acting on a character tuple: entry i of the result is entry perm^{-1}(i) of
    the input raised to flips[i].
    """

    perm: tuple[int, ...]
    flips: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation: {self.perm}")
        if len(self.flips) != len(self.perm) or any(f not in (1, -1) for f in self.flips):
            raise ValueError(f"flips must be +-1 of matching length: {self.flips}")

    @classmethod
    def identity(cls, l: int) -> "WeylElement":
        return cls(tuple(range(l)), (1,) * l)

    @property
    def rank(self) -> int:
        return len(self.perm)

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.rank)) and all(f == 1 for f in self.flips)

    @property
    def sign(self) -> int:
        return _perm_sign(self.perm) * math.prod(self.flips)

    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * self.rank
        for i, p in enumerate(self.perm):
            inv[p] = i
        return tuple(inv)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self applied after other, so acting with the result equals acting
        with other first and self second."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        perm = tuple(self.perm[other.perm[i]] for i in range(self.rank))
        inv1 = self.inverse_perm()
        flips = tuple(self.flips[i] * other.flips[inv1[i]] for i in range(self.rank))
        return WeylElement(perm, flips)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _check_rank(l: int) -> None:
    if l < 0:
        raise ValueError("rank must be nonnegative")
    if l > MAX_WEYL_RANK:
        raise SizeError(f"rank {l} exceeds the enumeration guard {MAX_WEYL_RANK}")


@lru_cache(maxsize=None)
def enumerate_weyl(l: int) -> tuple[WeylElement, ...]:
    """All 2^l l! elements, identity first, in deterministic order."""
    _check_rank(l)
    out = []
    for perm in itertools.permutations(range(l)):
        for flips in itertools.product((1, -1), repeat=l):
            out.append(WeylElement(perm, flips))
    return tuple(out)


def act(w: WeylElement, chars: Sequence[CharValue]) -> tuple[CharValue, ...]:
    if len(chars) != w.rank:
        raise ValueError(f"rank {w.rank} element acting on {len(chars)} characters")
    inv = w.inverse_perm()
    return tuple(chars[inv[i]] ** w.flips[i] for i in range(w.rank))


def _act_values(w: WeylElement, values: Sequence) -> tuple:
    # generic over the scalar type (complex or Fraction)
    inv = w.inverse_perm()
    return tuple(values[inv[i]] if w.flips[i] == 1 else 1 / values[inv[i]]
                 for i in range(w.rank))


@lru_cache(maxsize=None)
def _orbit_table(l: int) -> tuple[np.ndarray, np.ndarray]:
    # (|W|, l) tables in enumerate_weyl order: row k, entry i holds the source
    # index inverse_perm()[i] of the k-th element and whether its flip is -1.
    # Permutations vary slowest, and flip i is -1 on bit l-1-i of the mask index.
    _check_rank(l)
    perms = np.array(list(itertools.permutations(range(l))), dtype=np.intp)
    masks = ((np.arange(2 ** l)[:, None] >> np.arange(l - 1, -1, -1)) & 1).astype(bool)
    src = np.repeat(np.argsort(perms, axis=1), 2 ** l, axis=0)
    flip = np.tile(masks, (len(perms), 1))
    src.setflags(write=False)
    flip.setflags(write=False)
    return src, flip


def weyl_orbit(values: Sequence[complex]) -> np.ndarray:
    """The Weyl orbit of a character tuple as an (l, |W|) complex array.

    Row i is the i-th orbit column: entry k of it is entry i of
    _act_values(enumerate_weyl(l)[k], values).  Iterating over the array yields
    the columns, so the scalar formulas evaluate the whole orbit at once.
    """
    src, flip = _orbit_table(len(values))
    vals = np.array(values, dtype=complex)
    inv = np.array([1 / v for v in values], dtype=complex)
    return np.where(flip.T, inv[src.T], vals[src.T])


# ---------------------------------------------------------------------------
# b, d1, d0 and the double Weyl sum


def _case_lengths(case: Case, n_big: int, n_small: int) -> None:
    if case is Case.A and n_big != n_small:
        raise ValueError(f"case A needs equal tuple lengths, got {n_big} and {n_small}")
    if case is Case.B and n_big != n_small + 1:
        raise ValueError(f"case B needs big length = small length + 1, got {n_big} and {n_small}")


def _h_values(case: Case, i: int, Z, x, root):
    # the factors of b that involve the i-th big character, evaluated at Z
    v = 1 - root * Z if case is Case.B else 1
    for j, t in enumerate(x):
        v = v * (1 - root * Z * t) * (1 - root * Z / t if j >= i else 1 - root * t / Z)
    return v


def _b_values(case: Case, X, x, root):
    # b = c(x) prod_i h_i(X_i; x), c the small singles of case A (so an empty X
    # gives c).  root = q_E^{-1/2}; every factor of b sits at s = 1/2.  Scalars
    # are complex, Fraction on exact rational data, or numpy arrays.
    v = 1
    for t in x if case is Case.A else ():
        v = v * (1 - root * t)
    for i, Z in enumerate(X):
        v = v * _h_values(case, i, Z, x, root)
    return v


def _d1_values(case: Case, X):
    # every factor of d1/d0 sits at s = 0, so no q-power appears
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


def b_factor(case: Case, big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
             field: FieldData) -> complex:
    """The half-integral building block b, defined as the reciprocal of a
    product of L_E(1/2, .) factors; computed as a product of (1 - q_E^{-1/2} a)
    so it vanishes (rather than erroring) where one of those factors has a pole."""
    _case_lengths(case, len(big_chars), len(small_chars))
    return _b_values(case, [c.value for c in big_chars], [c.value for c in small_chars],
                     _half_root(field))


def d1_factor(case: Case, big_chars: Sequence[CharValue], field: FieldData) -> complex:
    """Big-group denominator: reciprocal of its defining product of L_E(0, .)."""
    return _d1_values(case, [c.value for c in big_chars])


def d0_factor(case: Case, small_chars: Sequence[CharValue], field: FieldData) -> complex:
    """Small-group denominator: reciprocal of its defining product of L_E(0, .)."""
    return _d0_values(case, [c.value for c in small_chars])


def weyl_sum_A(case: Case, big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
               field: FieldData) -> complex:
    """Double Weyl average A of b/(d1 d0), the big-group sum as an alternant.

    For a small translate y = wx, b(., y) = c(y) prod_i h_i(X_i; y) and
    X^{-rho} d1(X) is anti-invariant (rho = rho_big), so the sum over w' is
    c(y) det[H_i(X_k) - H_i(1/X_k)] / (X^{-rho} d1(X)), H_i(Z) = Z^{-rho_i}
    h_i(Z; y), with half powers from one fixed root per character as in
    rho_monomial.  Raises PoleError naming d1 or d0, the only divisors, if
    |d1(X)| or some |d0(wx)| is below POLE_EPS.
    """
    _case_lengths(case, len(big_chars), len(small_chars))
    root = _half_root(field)
    values = [c.value for c in big_chars]
    d1 = _d1_values(case, values)
    if abs(d1) < POLE_EPS:
        raise PoleError("degenerate big characters in the double Weyl sum", factor="d1(X)")
    small = weyl_orbit([c.value for c in small_chars])
    # a rank-0 small group leaves c and d0 as the scalar 1
    d0 = _d0_values(case, small)
    if np.any(np.abs(d0) < POLE_EPS):
        raise PoleError("degenerate small orbit in the double Weyl sum", factor="d0(wx)")
    l = len(values)
    X = np.array(values, dtype=complex)
    Z = np.concatenate([X, 1 / X])  # H_i is evaluated at X_k, then at 1/X_k
    roots = np.sqrt(X)
    two_rho = np.array(rho_big(case, l).doubled)[:, None]
    Z_rho = np.concatenate([roots ** -two_rho, roots ** two_rho], axis=1)
    H = (Z_rho[i] * _h_values(case, i, Z, small[:, :, None], root) for i in range(l))
    alternants = np.linalg.det(np.stack([h[..., :l] - h[..., l:] for h in H], axis=-2))
    total = (_b_values(case, (), small, root) * alternants / d0).sum()
    return complex(total / (np.prod(Z_rho.diagonal()) * d1))  # X^{-rho} d1(X)


def special_vectors_exact(case: Case, l_big: int, q_F: int) -> tuple[list[Fraction], list[Fraction]]:
    """The distinguished rational character values at which only the identity
    Weyl pair contributes to the double sum.  All entries are integer powers of
    q_F (half-integer powers of q_E), so exact arithmetic applies."""
    qe = Fraction(q_F * q_F)
    if case is Case.A:
        big = [1 / qe ** (l_big - i) for i in range(l_big)]
        small = [Fraction(1, q_F ** (2 * (l_big - i) - 1)) for i in range(l_big)]
    else:
        big = [Fraction(1, q_F ** (2 * (l_big - i) - 1)) for i in range(l_big)]
        small = [1 / qe ** (l_big - 1 - i) for i in range(l_big - 1)]
    return big, small


def b_factor_exact(case: Case, big_values: Sequence[Fraction],
                   small_values: Sequence[Fraction], q_F: int) -> Fraction:
    """b on positive rational character values, evaluated exactly (the root
    q_E^{-1/2} = 1/q_F is rational); vanishing at the special vectors is then
    an identity, not a rounding question."""
    _case_lengths(case, len(big_values), len(small_values))
    return _b_values(case, [Fraction(v) for v in big_values],
                     [Fraction(v) for v in small_values], Fraction(1, q_F))


def act_exact(w: WeylElement, values: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(v) for v in _act_values(w, [Fraction(v) for v in values])]


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
# Weyl vectors and the alternating-sign structure


@dataclass(frozen=True)
class RhoVector:
    """Strictly decreasing half-integer exponents with unit steps."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(Fraction(e) for e in self.entries))
        for a, b in zip(self.entries, self.entries[1:]):
            if a - b != 1:
                raise ValueError(f"consecutive differences must equal 1: {self.entries}")

    @property
    def doubled(self) -> tuple[int, ...]:
        return tuple(int(2 * e) for e in self.entries)


@lru_cache(maxsize=None)
def rho_big(case: Case, rank: int) -> RhoVector:
    """Exponent vector paired with d1: (l, ..., 1) in case A, (l-1/2, ..., 1/2) in case B."""
    if case is Case.A:
        return RhoVector(tuple(Fraction(rank - i) for i in range(rank)))
    return RhoVector(tuple(Fraction(2 * (rank - i) - 1, 2) for i in range(rank)))


def rho_small(case: Case, rank: int) -> RhoVector:
    """Exponent vector paired with d0: (l-1/2, ..., 1/2) in case A, (l, ..., 1) in case B."""
    if case is Case.A:
        return RhoVector(tuple(Fraction(2 * (rank - i) - 1, 2) for i in range(rank)))
    return RhoVector(tuple(Fraction(rank - i) for i in range(rank)))


def rho_monomial(chars: Sequence[CharValue], rho: RhoVector, w: WeylElement) -> complex:
    """(w . chars)^{-rho} with branch-consistent half powers.

    Each original character gets one fixed square root; a flipped entry
    contributes the inverse integer power of that root, so the alternating
    identity D_{w X} = sgn(w) D_X is exact up to rounding.
    """
    roots = [complex(c.value) ** 0.5 for c in chars]
    inv = w.inverse_perm()
    out = 1.0 + 0.0j
    for i, two_rho in enumerate(rho.doubled):
        j = inv[i]
        out *= roots[j] ** (-two_rho * w.flips[i])
    return out


# ---------------------------------------------------------------------------
# Iwahori volumes, long-element lengths, and the two S(1) values


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


def long_length(rank_or_size: int, kind: LengthType) -> int:
    """Coxeter length of the long element: l^2 in type B/C rank l, m(m-1)/2 in S_m."""
    if rank_or_size < 0:
        raise ValueError("argument must be >= 0")
    if kind is LengthType.HYPEROCTAHEDRAL_RANK:
        return rank_or_size * rank_or_size
    return rank_or_size * (rank_or_size - 1) // 2


def _bruhat_q_exponent(n: int) -> int:
    # q_F-length of the long elements for the pair U(n+1), U(n+2): m(m-1)/2 each,
    # the exponent of the big Bruhat cell. For n odd this equals the hyperoctahedral
    # q_E^{l^2 + l^2}; for n even no integral q_E power exists and this is the
    # unique exponent under which the period identity closes.
    return (long_length(n + 1, LengthType.SYMMETRIC_SIZE)
            + long_length(n + 2, LengthType.SYMMETRIC_SIZE))


def s_value_inert(big_chars: Sequence[CharValue], small_chars: Sequence[CharValue],
                  n: int, field: FieldData, zeta_at_inverse: complex) -> complex:
    """Spherical double average S at the identity, inert place.

    The product zeta(X^{-1}, x^{-1}) * q-power * Vol(B_{n+1}) Vol(B_{n+2}) *
    A(X^{-1}, x^{-1}), with the zeta value supplied by the caller and A computed
    by the double Weyl sum at the inverted characters.
    """
    if not field.is_inert:
        raise ValueError("inert formula requested at a split place")
    case = case_for(n + 1)
    inv_big = [c.inv() for c in big_chars]
    inv_small = [c.inv() for c in small_chars]
    a_val = weyl_sum_A(case, inv_big, inv_small, field)
    scale = (Fraction(field.q_F) ** _bruhat_q_exponent(n)
             * iwahori_volume(n + 1, field.q_F) * iwahori_volume(n + 2, field.q_F))
    return zeta_at_inverse * float(scale) * a_val


def _half_reversed(values: Sequence[complex]) -> list[complex]:
    # Coordinate order of the imported GL x GL average: each half block reversed
    # (innermost character first), middle entry fixed.
    m = len(values)
    l = m // 2
    out = list(values[:l])[::-1]
    if m % 2:
        out.append(values[l])
    out.extend(list(values[m - l:])[::-1])
    return out


def _entry(values: Sequence[complex], idx: int, label: str) -> complex:
    if not 1 <= idx <= len(values):
        raise IndexError(f"{label} index {idx} outside 1..{len(values)}")
    return values[idx - 1]


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
    """
    if not field.is_split:
        raise ValueError("split formula requested at an inert place")
    if len(big_chars) != n + 2 or len(small_chars) != n + 1:
        raise ValueError(
            f"need tuples of sizes {n + 2} and {n + 1}, got {len(big_chars)} and {len(small_chars)}")
    q = field.q_F
    X = _half_reversed([c.value for c in big_chars])
    x = _half_reversed([c.value for c in small_chars])
    num = 1.0 + 0.0j
    for i in range(1, n + 3):
        for j in range(i + 1, n + 3):
            num *= euler_factor(0.5, q, _entry(x, i, "small") * _entry(X, n - j + 3, "big"))
    for i in range(1, n + 2):
        for j in range(1, i + 1):
            num *= euler_factor(0.5, q, 1.0 / (_entry(x, i, "small") * _entry(X, n - j + 3, "big")))
    den = 1.0 + 0.0j
    for i in range(1, n + 2):
        den *= euler_factor(i, q, 1.0 + 0.0j)
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            den *= euler_factor(1.0, q, _entry(x, i, "small") / _entry(x, j, "small"))
    for i in range(1, n + 3):
        for j in range(i + 1, n + 3):
            den *= euler_factor(1.0, q, _entry(X, i, "big") / _entry(X, j, "big"))
    scale = (Fraction(q) ** _bruhat_q_exponent(n)
             * iwahori_volume_gl(n + 1, q) * iwahori_volume_gl(n + 2, q))
    return float(scale) * num / den
