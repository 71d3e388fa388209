"""Unramified Weil-Deligne parameter calculus over an inert place.

A parameter is a bare multiset of nonzero Frobenius eigenvalues over E or over
F (all data in scope are unramified, so there is no monodromy operator).
Direct sum is multiset union, twisting multiplies every eigenvalue, induction
E -> F sends an eigenvalue z to the pair {+sqrt(z), -sqrt(z)} (the sign pair
makes the branch choice immaterial to any L-factor), and the GL adjoint takes
all ordered ratios.

verify_appendix checks the theta-lift L-factor identities on random unramified
data: the adjoint comparisons evaluate their U(2)/U(3) sides through
satake.adjoint_lfactor, so the parameter calculus and the explicit adjoint
transcriptions audit each other.  The unramified character gamma extending the
quadratic class-field character is pinned to uniformizer value -1 (E/F
unramified shares a uniformizer).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .identity import FactorDiff, VerificationReport, _run_check, map_samples, rel_err
from .numfield import CharValue, FieldData, euler_factor, lfactor_chi
from .satake import SatakeDatum, adjoint_lfactor, bc_params, make_datum

BC_TOL = 1e-9  # slack of _datum_from_bc on a unit eigenvalue and a pair product


class Base(Enum):
    OVER_E = "E"
    OVER_F = "F"


@dataclass(frozen=True)
class WDParam:
    base: Base
    eigenvalues: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(complex(z) for z in self.eigenvalues))
        if not self.eigenvalues:
            raise ValueError("parameter needs at least one eigenvalue")
        if any(z == 0 for z in self.eigenvalues):
            raise ValueError("Frobenius eigenvalues must be nonzero")

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def lfactor(self, s: complex, field: FieldData) -> complex:
        q = field.q_E if self.base is Base.OVER_E else field.q_F
        out = 1.0 + 0.0j
        for z in self.eigenvalues:
            out *= euler_factor(s, q, z)
        return out


def gamma_char() -> CharValue:
    """The unramified extension of the quadratic character at an inert place."""
    return CharValue(-1.0 + 0.0j, unitary=True)


def direct_sum(a: WDParam, b: WDParam) -> WDParam:
    if a.base is not b.base:
        raise ValueError("cannot sum parameters over different bases")
    return WDParam(a.base, a.eigenvalues + b.eigenvalues)


def twist(a: WDParam, chi: CharValue) -> WDParam:
    return WDParam(a.base, tuple(z * chi.value for z in a.eigenvalues))


def tensor_product(a: WDParam, b: WDParam) -> WDParam:
    if a.base is not b.base:
        raise ValueError("cannot tensor parameters over different bases")
    return WDParam(a.base, tuple(z * w for z in a.eigenvalues for w in b.eigenvalues))


def induce(a: WDParam) -> WDParam:
    """Induction from E to F: z contributes {+sqrt(z), -sqrt(z)}, so the induced
    F-factor 1/((1 - r q^{-s})(1 + r q^{-s})) equals L_E(s, z)."""
    if a.base is not Base.OVER_E:
        raise ValueError("induction starts from a parameter over E")
    out: list[complex] = []
    for z in a.eigenvalues:
        r = cmath.sqrt(z)
        out.extend((r, -r))
    return WDParam(Base.OVER_F, tuple(out))


def adjoint_gl(a: WDParam) -> WDParam:
    """All ordered eigenvalue ratios (size m^2 for input size m)."""
    return WDParam(a.base, tuple(z / w for z in a.eigenvalues for w in a.eigenvalues))


def theta_param_2to3(m_param: WDParam, gamma: CharValue) -> WDParam:
    """Lift parameter across U(2) -> U(3): gamma^{-1} M + gamma^2."""
    if m_param.size != 2:
        raise ValueError("expected a two-dimensional parameter")
    return direct_sum(twist(m_param, gamma.inv()), WDParam(m_param.base, ((gamma.value ** 2),)))


def theta_param_1to2(m_param: WDParam, gamma: CharValue) -> WDParam:
    """Lift parameter across U(1) -> U(2): gamma^{-1} M + gamma."""
    if m_param.size != 1:
        raise ValueError("expected a one-dimensional parameter")
    return direct_sum(twist(m_param, gamma.inv()), WDParam(m_param.base, (gamma.value,)))


def bc_param(datum: SatakeDatum) -> WDParam:
    """Base-change parameter of an inert datum as a multiset over E."""
    if datum.field.is_split:
        raise ValueError("the parameter calculus here covers inert places")
    return WDParam(Base.OVER_E, bc_params(datum).values)


def _datum_from_bc(m: int, param: WDParam, field: FieldData) -> SatakeDatum:
    """Recover the U(2)/U(3) Satake datum whose base change matches the multiset."""
    values = list(param.eigenvalues)
    if m == 3:
        one_idx = min(range(len(values)), key=lambda i: abs(values[i] - 1.0))
        if abs(values[one_idx] - 1.0) > BC_TOL:
            raise ValueError(f"no unit eigenvalue in a U(3) parameter: {values}")
        values.pop(one_idx)
    if len(values) != 2 or abs(values[0] * values[1] - 1.0) > BC_TOL:
        raise ValueError(f"not an inversion-symmetric pair: {values}")
    return make_datum(m, field, [values[0]])


# ---------------------------------------------------------------------------
# the appendix suite


def induce_preservation_defect(field: FieldData, samples: int = 20, seed: int = 0,
                               s_points: int = 20) -> float:
    """max relative gap between L_F(s, Ind z) and L_E(s, z) on random data."""
    def one(rng):
        param = WDParam(Base.OVER_E, (cmath.exp(2j * cmath.pi * rng.uniform()),))
        ind = induce(param)
        return max([0.0] + [rel_err(ind.lfactor(s, field), param.lfactor(s, field))
                            for s in _draw_s(rng, s_points)])

    return max(map_samples(one, samples, seed))


def _draw_s(rng: np.random.Generator, count: int) -> list[complex]:
    return [complex(re, im) for re, im in zip(rng.uniform(0.6, 2.5, size=count),
                                              rng.uniform(-3.0, 3.0, size=count))]


def verify_appendix(field: FieldData, samples: int = 20, seed: int = 0,
                    tol: float = 1e-9, s_points: int = 20,
                    pool_map=map) -> VerificationReport:
    """Check the five theta-lift L-factor identities on random unramified data.

    For each sample, U(2) data sigma and pi and the trivial U(1) character mu
    are drawn, the lift parameters are built with the parameter calculus, and
    each identity is compared at s_points random s values.
    """
    if not field.is_inert:
        raise ValueError("the lift identities live over a genuine quadratic extension")
    gamma = gamma_char()

    def one(rng):
        z_sigma = cmath.exp(2j * cmath.pi * rng.uniform())
        z_pi = cmath.exp(2j * cmath.pi * rng.uniform())
        sigma = make_datum(2, field, [z_sigma])
        pi = make_datum(2, field, [z_pi])
        m_sigma = bc_param(sigma)
        m_sigma_bar = bc_param(sigma.conjugated())
        m_pi = bc_param(pi)
        m_pi_bar = bc_param(pi.conjugated())
        m_mu = WDParam(Base.OVER_E, (1.0 + 0.0j,))  # unramified U(1) character is trivial
        gamma_param = WDParam(Base.OVER_E, (gamma.value,))

        theta_pi_bar = _datum_from_bc(2, m_pi_bar, field)
        theta_sigma_bar = _datum_from_bc(3, theta_param_2to3(m_sigma_bar, gamma), field)
        theta_mu_bar = _datum_from_bc(2, theta_param_1to2(m_mu, gamma), field)
        sigma_prime = induce(tensor_product(tensor_product(m_pi_bar, m_sigma), gamma_param))

        sides = []  # (identity, s, lhs, rhs) in evaluation order
        for s in _draw_s(rng, s_points):
            sides += [
                ("piad", s, adjoint_lfactor(s, theta_pi_bar), adjoint_lfactor(s, pi)),
                ("sigmaad", s, adjoint_lfactor(s, theta_sigma_bar),
                 lfactor_chi(s, field, 1) * adjoint_lfactor(s, sigma)
                 * twist(m_sigma, gamma ** 3).lfactor(s, field)),
                ("muad", s, adjoint_lfactor(s, theta_mu_bar),
                 lfactor_chi(s, field, 1) ** 2 * twist(m_mu, gamma ** 2).lfactor(s, field)),
                ("bigsig", s, sigma_prime.lfactor(s, field),
                 tensor_product(tensor_product(m_pi, m_sigma_bar),
                                WDParam(Base.OVER_E, (1.0 / gamma.value,))).lfactor(s, field)),
                ("sigcor", s,
                 sigma_prime.lfactor(s, field) * twist(m_pi, gamma ** 2).lfactor(s, field),
                 tensor_product(bc_param(theta_sigma_bar), m_pi).lfactor(s, field)),
            ]
        # the maximum from 0.0 passes over a nan error
        worst = max([0.0] + [rel_err(lhs, rhs) for _, _, lhs, rhs in sides])
        return worst, lambda: _first_misses(sides, tol)

    return _run_check("appendix", 0, field, samples, seed, tol, one, pool_map)


def _first_misses(sides: list[tuple], tol: float) -> list[FactorDiff]:
    # the first (s, lhs, rhs) of each identity whose error exceeds tol
    diffs: dict[str, FactorDiff] = {}
    for name, s, lhs, rhs in sides:
        if name not in diffs and rel_err(lhs, rhs) > tol:
            diffs[name] = FactorDiff(f"{name} at s={s:.4g}", lhs, rhs)
    return list(diffs.values())
