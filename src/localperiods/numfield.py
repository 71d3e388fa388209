"""Local field descriptors, unramified characters, and Euler factors.

Everything downstream reduces to products of factors 1/(1 - q^{-s} a), where q
is a residue field cardinality and a is the value of an unramified character at
a uniformizer.  This module owns that primitive, the quadratic-character factors
attached to an unramified quadratic extension E/F, and the local Gross motive
value Delta_{G_m} = prod_{r=1}^{m} L(r, chi^r).

Euler factors are evaluated in double-precision complex, at one s or at an
array of s, and identities are checked downstream with relative tolerances,
never exact equality.  Rational inputs (integer s, chi = +-1) are evaluated
exactly with Fraction and converted at the boundary.  A character value is any
nonzero scalar, so exact values can run through the factor-list builders too.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

POLE_EPS = 1e-12


class PoleError(ArithmeticError):
    """An L-factor was evaluated at (or numerically within POLE_EPS of) a pole."""

    def __init__(self, message: str, factor: str | None = None):
        super().__init__(message)
        self.factor = factor


class PlaceKind(Enum):
    INERT = "inert"
    SPLIT = "split"


@dataclass(frozen=True)
class FieldData:
    """A good place of F relative to a quadratic etale algebra E.

    Inert: E/F is the unramified quadratic field extension, q_E = q_F^2 and the
    class-field character chi_{E/F} takes the value -1 at a uniformizer.
    Split: E = F + F, q_E = q_F componentwise and chi_{E/F} is trivial.
    q_F is used only as a positive real parameter and is not checked for
    primality.
    """

    q_F: int
    kind: PlaceKind

    def __post_init__(self):
        if self.q_F < 2:
            raise ValueError(f"residue cardinality must be >= 2, got {self.q_F}")

    @property
    def is_split(self) -> bool:
        return self.kind is PlaceKind.SPLIT

    @property
    def is_inert(self) -> bool:
        return self.kind is PlaceKind.INERT

    @property
    def q_E(self) -> int:
        return self.q_F * self.q_F if self.is_inert else self.q_F

    @property
    def chi_at_uniformizer(self) -> int:
        return -1 if self.is_inert else 1


def inert_place(q_F: int) -> FieldData:
    return FieldData(q_F, PlaceKind.INERT)


def split_place(q_F: int) -> FieldData:
    return FieldData(q_F, PlaceKind.SPLIT)


def has_zero(value) -> bool:
    """Whether a scalar is zero, or any entry of an array is."""
    zero = value == 0
    return bool(zero.any()) if type(zero) is np.ndarray else zero


@dataclass(frozen=True)
class CharValue:
    """An unramified character, recorded by its value at a uniformizer: any
    nonzero scalar that supports *, / and 1/x (complex, Fraction, a residue,
    a monomial), kept as given.

    The value may also be a 1-D array, one value per sample of a stacked
    report (see satake.stack_data).  It is an object array of the samples'
    own scalars: arithmetic on it then rounds each entry exactly as on that
    sample alone (numpy's complex multiply may fuse, and its division scales
    differently), so every sample's column of a stacked computation is
    bit-identical to its own.  Every entry is checked to be nonzero."""

    value: object

    def __post_init__(self):
        if has_zero(self.value):
            raise ValueError("character value at the uniformizer must be nonzero")

    def inv(self) -> "CharValue":
        return CharValue(1 / self.value)


@lru_cache(maxsize=256)
def q_power(q: float, s: complex) -> complex:
    """q^{-s} for real q > 1 and complex s.  Memoized per (q, s): a run meets a
    handful of pairs, and the cached value is the same float."""
    return cmath.exp(-complex(s) * math.log(q))


def euler_factor(s: complex, q: int, alpha: complex, *,
                 factor: str | None = None) -> complex:
    """1/(1 - q^{-s} alpha).

    s may also be a complex array, one point per entry, with alpha a scalar or
    an array of the same shape: q^{-s} is then np.exp(-s log q) and the
    factor np.reciprocal of the denominator, so the values may differ from
    the scalar path's in the last bits.

    Raises PoleError when the denominator (any entry of it) is within POLE_EPS
    of zero; samplers upstream are responsible for keeping generic data away
    from poles.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    try:
        q_s = q_power(q, s)
    except TypeError:  # an array of s is unhashable, so q_power cannot memoize it
        return _euler_factor_array(s, q, alpha, factor)
    den = 1.0 - q_s * alpha
    if abs(den) < POLE_EPS:
        raise PoleError(f"local factor pole at s={s!r}, q={q}, alpha={alpha!r}", factor=factor)
    return 1.0 / den


def _euler_factor_array(s: np.ndarray, q: int, alpha, factor: str | None) -> np.ndarray:
    den = 1.0 - np.exp(-s * math.log(q)) * alpha
    poles = np.abs(den) < POLE_EPS
    if poles.any():
        k = poles.argmax()  # the first pole entry
        a = np.broadcast_to(alpha, den.shape).flat[k]
        raise PoleError(f"local factor pole at s={complex(s.flat[k])!r}, q={q}, "
                        f"alpha={complex(a)!r}", factor=factor)
    return np.reciprocal(den)


def euler_factor_inv(s: complex, q: int, alpha: complex) -> complex:
    """1 - q^{-s} alpha, the reciprocal of euler_factor.

    Inverse factors are multiplied in this form so a pole of the direct factor
    becomes a zero of the product (a ZeroFactor outcome) instead of an error.
    """
    return 1.0 - q_power(q, s) * alpha


def lfactor_chi(s: complex, field: FieldData, parity: int) -> complex:
    """L_F(s, chi_{E/F}^parity); the zeta_F factor for even parity or split kind."""
    return euler_factor(s, field.q_F, complex(field.chi_at_uniformizer ** (parity % 2)))


@lru_cache(maxsize=None)
def motive_delta_exact(m: int, field: FieldData) -> Fraction:
    """prod_{r=1}^{m} L(r, chi^r) as an exact rational, memoized per (m, place)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    out = Fraction(1)
    for r in range(1, m + 1):
        chi = field.chi_at_uniformizer ** (r % 2)
        out *= Fraction(1) / (1 - Fraction(chi, field.q_F ** r))
    return out


def motive_delta(m: int, field: FieldData) -> complex:
    """Local motive value Delta_{G_m}: the product of the m quadratic/zeta factors
    L(1, chi) zeta(2) L(3, chi) ... at this place.  All arguments lie in the region
    of absolute convergence, so no pole is possible."""
    return complex(motive_delta_exact(m, field))
