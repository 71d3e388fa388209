"""Local field descriptors, unramified characters, and Euler factors.

Everything downstream reduces to products of factors 1/(1 - q^{-s} a), where q
is a residue field cardinality and a is the value of an unramified character at
a uniformizer.  This module owns that primitive and the one kernel that
multiplies lists of such factors (LFactor, factor_product): every Euler product
of the package is a factor list evaluated here, so this module alone decides
how a product is evaluated, where a pole stops it and which factor a PoleError
names.  It also owns the quadratic-character factors attached to an unramified
quadratic extension E/F, and the local Gross motive value
Delta_{G_m} = prod_{r=1}^{m} L(r, chi^r).

Euler factors are evaluated in double-precision complex, for one sample, a
stack of samples or a point axis of s, and identities are checked downstream
with relative tolerances, never exact equality.  Rational inputs (integer s,
chi = +-1) are evaluated exactly with Fraction and converted at the boundary.
A character value is any nonzero scalar, so exact values can run through the
factor-list builders too.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

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
    report (see satake.stack_values).  It is an object array of the samples'
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

    Raises PoleError when the denominator is within POLE_EPS of zero; samplers
    upstream are responsible for keeping generic data away from poles.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    den = 1.0 - q_power(q, s) * alpha
    if abs(den) < POLE_EPS:
        raise PoleError(f"local factor pole at s={s!r}, q={q}, alpha={alpha!r}", factor=factor)
    return 1.0 / den


class ConventionError(ArithmeticError):
    """A factor whose evaluation convention is ambiguous was requested at a pole."""

    def __init__(self, message: str, factor: str | None = None):
        super().__init__(message)
        self.factor = factor


class LFactor(NamedTuple):
    """One Euler factor of a product: 1/(1 - q^{-s} alpha), or its reciprocal
    when inverse is set (so poles of inverted factors become zeros).  A named
    tuple: immutable, and cheap to build for the thousands of factors a run
    lists."""

    label: str
    s: complex  # on a point axis, an array of one point per entry
    q: int
    alpha: complex  # in a stacked list, an array of one value per sample
    inverse: bool = False
    # the quadratic-twist factor, whose value at its pole is a convention choice
    convention_sensitive: bool = False

    def value(self) -> complex:
        if self.inverse:
            return 1.0 - q_power(self.q, self.s) * self.alpha
        return euler_factor(self.s, self.q, self.alpha, factor=self.label)


def factor_product(factors: list[LFactor], samples: int | None = None) -> complex | np.ndarray:
    """The product of the factor values, in list order, as one array kernel.

    A list of scalar factors gives a complex.  A stacked list, each alpha an
    array of one value per sample (see satake.stack_values) or a scalar that
    every sample shares, gives an array of the `samples` products, ones for
    an empty list.  Each product multiplies the values of f.value() from 1 in
    list order, and numpy's complex reciprocal and sequential reduction round
    as Python's complex arithmetic does, so it is the left-to-right product
    to the last bit (only the sign of an exactly zero part may differ).

    A list may also be on a point axis: an s that is an array holds one point
    per entry, and without `samples` the first such array's length is the
    axis.  Its q^{-s} are np.exp(-s log q), so they may differ from q_power's
    in the last bits.

    A list stops at the first factor, in list order, that is a direct factor
    on its pole (PoleError, naming it) or a convention-sensitive factor (the
    quadratic twist) requested at its pole, where the evaluation convention
    would decide between 0 and a pole (ConventionError, naming it).  A scalar
    list raises that error; a stacked sample (a point) that stops gets a nan
    product, and its column (see column) raises the error when evaluated
    alone.
    """
    _, s, q, alpha, inverse, sensitive = zip(*factors) if factors else ((),) * 6
    if min(q, default=2) < 2:
        raise ValueError(f"q must be >= 2, got {min(q)}")
    try:
        q_s, point_axis = list(map(q_power, q, s)), False
    except TypeError:  # an array of s is unhashable, so q_power cannot memoize it
        q_s, point_axis = [np.exp(-x * math.log(b)) for b, x in zip(q, s)], True
        if samples is None:
            samples = next(len(x) for x in s if isinstance(x, np.ndarray))
    shape = () if samples is None else (samples,)
    per_factor = (len(factors),) + (1,) * len(shape)  # broadcasts against alpha

    def rows(values):  # one row per factor; a scalar is every sample's
        if shape:
            values = [v if isinstance(v, np.ndarray) else np.full(shape, v, dtype=complex)
                      for v in values]
        return np.array(values, dtype=complex).reshape(per_factor[:1] + shape)

    q_s = rows(q_s) if point_axis else np.array(q_s, dtype=complex).reshape(per_factor)
    den = 1.0 - q_s * rows(alpha)
    inverse = np.array(inverse, dtype=bool).reshape(per_factor)
    # numpy's complex reciprocal is Python's 1.0/den (Smith's method); its
    # complex division multiplies by a rounded reciprocal instead
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(inverse, den, np.reciprocal(den))
    pole = (np.abs(den) < POLE_EPS) & ~inverse
    stop = pole.copy()
    if any(sensitive):
        flagged = np.flatnonzero(sensitive)
        stop[flagged] |= np.abs(values[flagged]) < POLE_EPS
    # the factor axis last and contiguous, so that numpy multiplies each
    # product in list order, one factor at a time, from 1
    product = np.multiply.reduce(np.ascontiguousarray(values.T), axis=-1,
                                 initial=1.0 + 0.0j)
    if shape:
        product[stop.any(axis=0)] = np.nan
        return product
    if stop.any():
        f = factors[k := int(stop.argmax())]
        if pole[k]:
            raise PoleError(f"local factor pole at s={f.s!r}, q={f.q}, alpha={f.alpha!r}",
                            factor=f.label)
        raise ConventionError("quadratic-twist factor requested at its pole", factor=f.label)
    return complex(product)


def column(factors: list[LFactor], k: int) -> list[LFactor]:
    """Sample k of a stacked factor list: the same factors, each alpha array
    replaced by sample k's value (a scalar alpha is every sample's), so that
    it can be evaluated alone."""
    return [f._replace(alpha=f.alpha[k]) if isinstance(f.alpha, np.ndarray) else f
            for f in factors]


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
