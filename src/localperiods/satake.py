"""Satake data for unramified principal series of U(m), base-change parameters,
and the standard-tensor / adjoint local L-factors.

A datum for U(m) stores unramified character values at a uniformizer:

* inert place: floor(m/2) characters of E^x (the torus is E_1^{m odd} x (E^x)^{m/2};
  the unramified E_1-character is trivial and kept implicit);
* split place: U(m) = GL_m(F) and the datum is the full m-tuple of Satake
  parameters, laid out (theta_1, ..., theta_l, [xi_0], phi_l^{-1}, ..., phi_1^{-1});
  the middle entry exists iff m is odd and carries the E_1 = F^x character.

The standard-tensor factor is transcribed case by case from the explicit Euler
products (not generated from the parameter sets); std_tensor_lfactor_det is the
independent determinant oracle det(I - q^{-s} A (x) B)^{-1} that audits the
transcription.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numfield import (CharValue, FieldData, PlaceKind, PoleError, POLE_EPS,
                       euler_factor, q_power)


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
    def odd_char(self) -> CharValue | None:
        """The E_1-character: the middle tuple entry at a split place with m odd."""
        if self.field.is_split and self.m % 2 == 1:
            return self.chars[self.m // 2]
        return None

    # Split accessors, 1-based to match the tuple layout.
    def theta(self, i: int) -> CharValue:
        self._require_split_index(i)
        return self.chars[i - 1]

    def phi(self, i: int) -> CharValue:
        self._require_split_index(i)
        return self.chars[self.m - i].inv()

    def _require_split_index(self, i: int) -> None:
        if not self.field.is_split:
            raise ValueError("tuple-layout accessors only apply at split places")
        if not 1 <= i <= self.rank:
            raise IndexError(f"character index {i} outside 1..{self.rank}")

    def values(self) -> tuple[complex, ...]:
        return tuple(c.value for c in self.chars)

    def inverted(self) -> "SatakeDatum":
        """Entrywise character inverse (same layout positions)."""
        return SatakeDatum(self.m, self.field, tuple(c.inv() for c in self.chars))

    def conjugated(self) -> "SatakeDatum":
        return SatakeDatum(self.m, self.field, tuple(c.conj() for c in self.chars))


def _as_chars(values) -> tuple[CharValue, ...]:
    return tuple(v if isinstance(v, CharValue) else CharValue(v) for v in values)


def inert_datum(q_F: int, m: int, values) -> SatakeDatum:
    """Inert U(m) datum from floor(m/2) character values."""
    from .numfield import inert_place
    return SatakeDatum(m=m, field=inert_place(q_F), chars=_as_chars(values))


def split_datum(q_F: int, values) -> SatakeDatum:
    """Split U(m) datum from the full GL_m(F) Satake tuple."""
    from .numfield import split_place
    chars = _as_chars(values)
    return SatakeDatum(m=len(chars), field=split_place(q_F), chars=chars)


def make_datum(m: int, field: FieldData, values) -> SatakeDatum:
    return SatakeDatum(m=m, field=field, chars=_as_chars(values))


@dataclass(frozen=True)
class BCParams:
    """Frobenius parameters of the quadratic base change to GL_m(E).

    Inert: `values` is the multiset over E, closed under inversion once the
    forced eigenvalue 1 (m odd) is removed.  Split: `values` lists the first
    GL_m(F)-component and `dual_values` its elementwise inverses.
    """

    kind: PlaceKind
    values: tuple[complex, ...]
    dual_values: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.kind is PlaceKind.SPLIT:
            if self.dual_values is None or len(self.dual_values) != len(self.values):
                raise ValueError("split parameters need matching dual components")
        elif self.dual_values is not None:
            raise ValueError("inert parameters carry a single multiset")

    @property
    def size(self) -> int:
        return len(self.values)


def bc_params(datum: SatakeDatum) -> BCParams:
    if datum.field.is_split:
        vals = datum.values()
        return BCParams(PlaceKind.SPLIT, vals, tuple(1.0 / v for v in vals))
    out: list[complex] = []
    for c in datum.chars:
        out.extend((c.value, 1.0 / c.value))
    if datum.m % 2 == 1:
        out.append(1.0 + 0.0j)
    return BCParams(PlaceKind.INERT, tuple(out))


def _check_pair(small: SatakeDatum, big: SatakeDatum) -> None:
    if big.m != small.m + 1:
        raise ValueError(f"need big.m = small.m + 1, got {small.m} and {big.m}")
    if big.field != small.field:
        raise ValueError("data live over different places")


def std_tensor_lfactor(s: complex, small: SatakeDatum, big: SatakeDatum) -> complex:
    """L_E(s, BC(pi_small) (x) BC(pi_big), st) as an explicit Euler product.

    Inert: two parity cases over q_E; the ordered index ranges i<j and j<=i
    together run over every character pair once, and the unpaired product picks
    up the forced eigenvalue 1 of the odd-size group.  Split: the product of
    the two GL tensor factors over q_F.
    """
    _check_pair(small, big)
    field = small.field
    v = 1.0 + 0.0j
    if field.is_split:
        q = field.q_F
        for t in small.values():
            for T in big.values():
                v *= euler_factor(s, q, t * T) * euler_factor(s, q, 1.0 / (t * T))
        return v
    qe = field.q_E
    x = small.values()
    X = big.values()
    if small.m % 2 == 0:
        l = small.m // 2
        for i in range(1, l + 1):
            for j in range(1, l + 1):
                a, b = x[i - 1], X[j - 1]
                v *= (euler_factor(s, qe, a * b) * euler_factor(s, qe, b / a)
                      * euler_factor(s, qe, a / b) * euler_factor(s, qe, 1.0 / (a * b)))
        for i in range(1, l + 1):
            v *= euler_factor(s, qe, x[i - 1]) * euler_factor(s, qe, 1.0 / x[i - 1])
    else:
        l = (small.m + 1) // 2
        for i in range(1, l):
            for j in range(1, l + 1):
                a, b = x[i - 1], X[j - 1]
                v *= (euler_factor(s, qe, a * b) * euler_factor(s, qe, b / a)
                      * euler_factor(s, qe, a / b) * euler_factor(s, qe, 1.0 / (a * b)))
        for i in range(1, l + 1):
            v *= euler_factor(s, qe, X[i - 1]) * euler_factor(s, qe, 1.0 / X[i - 1])
    return v


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
    mat = np.kron(np.diag(np.asarray(avals, dtype=complex)),
                  np.diag(np.asarray(bvals, dtype=complex)))
    eye = np.eye(mat.shape[0], dtype=complex)
    mat = eye - q_power(q, s) * mat
    # The matrix is diagonal, so it is singular exactly when one diagonal entry
    # vanishes; the determinant is a product of (n+1)(n+2) such entries and can
    # fall far below POLE_EPS with no entry near zero.
    if np.abs(np.diag(mat)).min() < POLE_EPS:
        raise PoleError(f"tensor determinant vanishes at s={s!r}", factor="std_tensor_det")
    return complex(np.linalg.det(mat))


def adjoint_lfactor(s: complex, datum: SatakeDatum) -> complex:
    """L_F(s, pi, Ad) for the unramified principal series attached to the datum.

    The inert even/odd cases are separate transcriptions of the explicit
    products (the two slots of each parity share one product, so a single
    transcription serves both); split is the GL_m adjoint
    zeta_F(s)^m prod_{i != j} L_F(s, t_i/t_j).
    """
    field = datum.field
    if field.is_split:
        q = field.q_F
        t = datum.values()
        v = euler_factor(s, q, 1.0 + 0.0j) ** datum.m
        for i in range(datum.m):
            for j in range(datum.m):
                if i != j:
                    v *= euler_factor(s, q, t[i] / t[j])
        return v
    if datum.m % 2 == 0:
        return _adjoint_inert_even(s, datum.values(), field)
    return _adjoint_inert_odd(s, datum.values(), field)


def _adjoint_inert_even(s: complex, c, field: FieldData) -> complex:
    # zeta_F(s)^l L_F(s,chi)^l prod_{i<j} L_F(2s, c_i c_j)L(2s, c_i^{-1}c_j)
    #   L(2s, c_i^{-1}c_j^{-1})L(2s, c_i c_j^{-1}) prod_i L_F(s, c_i)L_F(s, c_i^{-1})
    q = field.q_F
    l = len(c)
    v = (euler_factor(s, q, 1.0 + 0.0j) * euler_factor(s, q, -1.0 + 0.0j)) ** l
    for i in range(l):
        for j in range(i + 1, l):
            v *= (euler_factor(2 * s, q, c[i] * c[j]) * euler_factor(2 * s, q, c[j] / c[i])
                  * euler_factor(2 * s, q, 1.0 / (c[i] * c[j])) * euler_factor(2 * s, q, c[i] / c[j]))
    for i in range(l):
        v *= euler_factor(s, q, c[i]) * euler_factor(s, q, 1.0 / c[i])
    return v


def _adjoint_inert_odd(s: complex, c, field: FieldData) -> complex:
    # zeta_F(s)^l L_F(s,chi)^{l+1} prod_{i<j} [four L_F(2s, ...)]
    #   prod_i L_F(s, chi c_i)L_F(s, chi c_i^{-1}) L_F(2s, c_i)L_F(2s, c_i^{-1});
    # chi c has uniformizer value -c since E/F unramified shares a uniformizer.
    q = field.q_F
    l = len(c)
    v = (euler_factor(s, q, 1.0 + 0.0j) ** l) * (euler_factor(s, q, -1.0 + 0.0j) ** (l + 1))
    for i in range(l):
        for j in range(i + 1, l):
            v *= (euler_factor(2 * s, q, c[i] * c[j]) * euler_factor(2 * s, q, c[j] / c[i])
                  * euler_factor(2 * s, q, 1.0 / (c[i] * c[j])) * euler_factor(2 * s, q, c[i] / c[j]))
    for i in range(l):
        v *= (euler_factor(s, q, -c[i]) * euler_factor(s, q, -1.0 / c[i])
              * euler_factor(2 * s, q, c[i]) * euler_factor(2 * s, q, 1.0 / c[i]))
    return v
