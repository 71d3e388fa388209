"""Satake data for unramified principal series of U(m), base-change parameters,
and the standard-tensor / adjoint local L-factors as factor lists.

A datum for U(m) stores unramified character values at a uniformizer:

* inert place: floor(m/2) characters of E^x (the torus is E_1^{m odd} x (E^x)^{m/2};
  the unramified E_1-character is trivial and kept implicit);
* split place: U(m) = GL_m(F) and the datum is the full m-tuple of Satake
  parameters, laid out (theta_1, ..., theta_l, [xi_0], phi_l^{-1}, ..., phi_1^{-1});
  the middle entry exists iff m is odd and carries the E_1 = F^x character.

The standard-tensor and adjoint factors are LFactor lists (std_tensor_factors,
adjoint_factors), transcribed case by case from the explicit Euler products
(not generated from the parameter sets), on one datum, stacked data or a point
axis of s; std_tensor_lfactor and adjoint_lfactor multiply them.
std_tensor_lfactor_det is the independent determinant oracle
det(I - q^{-s} A (x) B)^{-1} on bc_params that audits the transcription.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numfield import (CharValue, FieldData, LFactor, PoleError, POLE_EPS,
                       factor_product, q_power)


@dataclass(frozen=True)
class SatakeDatum:
    m: int
    field: FieldData
    chars: tuple[CharValue, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"group size must be >= 1, got {self.m}")
        object.__setattr__(self, "chars", tuple(self.chars))
        expected = self.m if self.field.is_split else self.m // 2
        if len(self.chars) != expected:
            raise ValueError(
                f"U({self.m}) {self.field.kind.value} datum needs {expected} characters, "
                f"got {len(self.chars)}")

    @property
    def rank(self) -> int:
        """Number of E^x-characters: floor(m/2) for either kind."""
        return self.m // 2

    @property
    def odd_char(self) -> object | None:
        """Value of the E_1-character, the middle entry at a split place, m odd."""
        if self.field.is_split and self.m % 2 == 1:
            return self.chars[self.m // 2].value
        return None

    # Split accessors, 1-based to match the tuple layout; they return values.
    def theta(self, i: int) -> object:
        """theta_i, the i-th tuple entry."""
        self._require_split_index(i)
        return self.chars[i - 1].value

    def phi(self, i: int) -> object:
        """phi_i, the inverse of the i-th tuple entry from the end."""
        self._require_split_index(i)
        return 1 / self.chars[self.m - i].value

    @cached_property
    def split_values(self) -> tuple[tuple, tuple]:
        """(theta, phi): every theta_i and phi_i, read once through the accessors
        and indexed 1..rank like them (entry 0 is None), for the factor-list
        builders that look values up many times."""
        idx = range(1, self.rank + 1)
        return (None, *map(self.theta, idx)), (None, *map(self.phi, idx))

    def _require_split_index(self, i: int) -> None:
        if not self.field.is_split:
            raise ValueError("tuple-layout accessors only apply at split places")
        if not 1 <= i <= self.rank:
            raise IndexError(f"character index {i} outside 1..{self.rank}")

    def values(self) -> tuple[object, ...]:
        return tuple(c.value for c in self.chars)

    def inverted(self) -> "SatakeDatum":
        """Entrywise character inverse (same layout positions)."""
        return SatakeDatum(self.m, self.field, tuple(c.inv() for c in self.chars))

    def conjugated(self) -> "SatakeDatum":
        return make_datum(self.m, self.field, [v.conjugate() for v in self.values()])


def _as_chars(values) -> tuple[CharValue, ...]:
    return tuple(v if isinstance(v, CharValue) else CharValue(v) for v in values)


def make_datum(m: int, field: FieldData, values) -> SatakeDatum:
    return SatakeDatum(m=m, field=field, chars=_as_chars(values))


def stack_values(m: int, field: FieldData, rows) -> SatakeDatum:
    """One U(m) datum from each sample's character values (rows, in order):
    each character holds one value per sample in an object array (see
    CharValue), so the factor-list builders run on it unedited and build
    every sample's list at once."""
    return make_datum(m, field, [np.array(column, dtype=object) for column in zip(*rows)])


class BCParams(NamedTuple):
    """Frobenius parameters of the quadratic base change to GL_m(E).

    Inert: `values` is the multiset over E, closed under inversion once the
    forced eigenvalue 1 (m odd) is removed.  Split: `values` lists the first
    GL_m(F)-component and `dual_values` its elementwise inverses.
    """

    values: tuple[object, ...]
    dual_values: tuple[object, ...] | None = None


def bc_params(datum: SatakeDatum) -> BCParams:
    if datum.field.is_split:
        vals = datum.values()
        return BCParams(vals, tuple(1 / v for v in vals))
    out: list[object] = []
    for c in datum.chars:
        out.extend((c.value, 1 / c.value))
    if datum.m % 2 == 1:
        out.append(1)
    return BCParams(tuple(out))


def _check_pair(small: SatakeDatum, big: SatakeDatum) -> None:
    if big.m != small.m + 1:
        raise ValueError(f"need big.m = small.m + 1, got {small.m} and {big.m}")
    if big.field != small.field:
        raise ValueError("data live over different places")


def std_tensor_factors(s: complex, small: SatakeDatum, big: SatakeDatum) -> list[LFactor]:
    """L_E(s, BC(pi_small) (x) BC(pi_big), st) as an explicit Euler product.

    Inert, over q_E: every pair of a small and a big character gives four
    factors, and the unpaired product runs over the characters of the
    even-size group, against the forced eigenvalue 1 of the odd-size one.
    Split: the product of the two GL tensor factors over q_F.
    """
    _check_pair(small, big)
    field = small.field
    out: list[LFactor] = []

    def f(label, q, alpha):
        out.append(LFactor(label, s, q, alpha))

    if field.is_split:
        q = field.q_F
        for i, t in enumerate(small.values(), 1):
            for j, T in enumerate(big.values(), 1):
                f(f"L_F(s, t{i}*T{j})", q, t * T)
                f(f"L_F(s, t{i}^-1*T{j}^-1)", q, 1 / (t * T))
        return out
    qe = field.q_E
    for i, a in enumerate(small.values(), 1):
        for j, b in enumerate(big.values(), 1):
            f(f"L_E(s, xi{i}*Xi{j})", qe, a * b)
            f(f"L_E(s, xi{i}^-1*Xi{j})", qe, b / a)
            f(f"L_E(s, xi{i}*Xi{j}^-1)", qe, a / b)
            f(f"L_E(s, xi{i}^-1*Xi{j}^-1)", qe, 1 / (a * b))
    # small U(2l) against the 1 of big U(2l+1), or big U(2l) against small U(2l-1)
    name, even = ("xi", small) if small.m % 2 == 0 else ("Xi", big)
    for i, c in enumerate(even.values(), 1):
        f(f"L_E(s, {name}{i})", qe, c)
        f(f"L_E(s, {name}{i}^-1)", qe, 1 / c)
    return out


def std_tensor_lfactor(s: complex, small: SatakeDatum, big: SatakeDatum) -> complex:
    """The product of std_tensor_factors."""
    return factor_product(std_tensor_factors(s, small, big))


def std_tensor_lfactor_det(s: complex, small: SatakeDatum, big: SatakeDatum) -> complex:
    """Determinant oracle: 1/det(I - q^{-s} A (x) B) on the base-change parameters.

    Split places contribute one determinant per GL component, over q_F.
    """
    _check_pair(small, big)
    field = small.field
    a = bc_params(small)
    b = bc_params(big)
    if field.is_split:
        d = (_kron_det(s, field.q_F, a.values, b.values)
             * _kron_det(s, field.q_F, a.dual_values, b.dual_values))
    else:
        d = _kron_det(s, field.q_E, a.values, b.values)
    return 1.0 / d


def _kron_det(s: complex, q: int, avals, bvals) -> complex:
    # A (x) B is diagonal for diagonal A and B, so the determinant is the
    # product of the (n+1)(n+2) entries 1 - q^{-s} a_i b_j.  It is singular
    # exactly when one entry vanishes, and the product can fall far below
    # POLE_EPS with no entry near zero.
    entries = 1.0 - q_power(q, s) * np.outer(avals, bvals)
    if np.abs(entries).min() < POLE_EPS:
        raise PoleError(f"tensor determinant vanishes at s={s!r}", factor="std_tensor_det")
    return complex(np.prod(entries))


def adjoint_factors(s: complex, datum: SatakeDatum) -> list[LFactor]:
    """L_F(s, pi, Ad) for the unramified principal series attached to the datum.

    The inert even/odd cases are separate transcriptions of the explicit
    products (the two slots of each parity share one product, so a single
    transcription serves both); split is the GL_m adjoint
    zeta_F(s)^m prod_{i != j} L_F(s, t_i/t_j).
    """
    q, t = datum.field.q_F, datum.values()
    if datum.field.is_inert:
        inert = _adjoint_inert_even if datum.m % 2 == 0 else _adjoint_inert_odd
        return inert(s, t, q)
    return [LFactor("zeta_F(s)", s, q, 1)] * datum.m + [
        LFactor(f"L_F(s, t{i + 1}*t{j + 1}^-1)", s, q, t[i] / t[j])
        for i in range(datum.m) for j in range(datum.m) if i != j]


def _adjoint_inert_even(s: complex, c, q: int) -> list[LFactor]:
    # zeta_F(s)^l L_F(s,chi)^l prod_{i<j} L_F(2s, c_i c_j)L(2s, c_i^{-1}c_j)
    #   L(2s, c_i^{-1}c_j^{-1})L(2s, c_i c_j^{-1}) prod_i L_F(s, c_i)L_F(s, c_i^{-1})
    l = len(c)
    out = [LFactor("zeta_F(s)", s, q, 1)] * l + [LFactor("L_F(s, chi)", s, q, -1)] * l
    for i in range(l):
        for j in range(i + 1, l):
            out += [LFactor(f"L_F(2s, c{i + 1}*c{j + 1})", 2 * s, q, c[i] * c[j]),
                    LFactor(f"L_F(2s, c{i + 1}^-1*c{j + 1})", 2 * s, q, c[j] / c[i]),
                    LFactor(f"L_F(2s, c{i + 1}^-1*c{j + 1}^-1)", 2 * s, q, 1 / (c[i] * c[j])),
                    LFactor(f"L_F(2s, c{i + 1}*c{j + 1}^-1)", 2 * s, q, c[i] / c[j])]
    for i in range(l):
        out += [LFactor(f"L_F(s, c{i + 1})", s, q, c[i]),
                LFactor(f"L_F(s, c{i + 1}^-1)", s, q, 1 / c[i])]
    return out


def _adjoint_inert_odd(s: complex, c, q: int) -> list[LFactor]:
    # zeta_F(s)^l L_F(s,chi)^{l+1} prod_{i<j} [four L_F(2s, ...)]
    #   prod_i L_F(s, chi c_i)L_F(s, chi c_i^{-1}) L_F(2s, c_i)L_F(2s, c_i^{-1});
    # chi c has uniformizer value -c since E/F unramified shares a uniformizer.
    l = len(c)
    out = [LFactor("zeta_F(s)", s, q, 1)] * l + [LFactor("L_F(s, chi)", s, q, -1)] * (l + 1)
    for i in range(l):
        for j in range(i + 1, l):
            out += [LFactor(f"L_F(2s, c{i + 1}*c{j + 1})", 2 * s, q, c[i] * c[j]),
                    LFactor(f"L_F(2s, c{i + 1}^-1*c{j + 1})", 2 * s, q, c[j] / c[i]),
                    LFactor(f"L_F(2s, c{i + 1}^-1*c{j + 1}^-1)", 2 * s, q, 1 / (c[i] * c[j])),
                    LFactor(f"L_F(2s, c{i + 1}*c{j + 1}^-1)", 2 * s, q, c[i] / c[j])]
    for i in range(l):
        out += [LFactor(f"L_F(s, chi*c{i + 1})", s, q, -c[i]),
                LFactor(f"L_F(s, chi*c{i + 1}^-1)", s, q, -1 / c[i]),
                LFactor(f"L_F(2s, c{i + 1})", 2 * s, q, c[i]),
                LFactor(f"L_F(2s, c{i + 1}^-1)", 2 * s, q, 1 / c[i])]
    return out


def adjoint_lfactor(s: complex, datum: SatakeDatum) -> complex:
    """The product of adjoint_factors; an array s is a point axis."""
    return factor_product(adjoint_factors(s, datum))
