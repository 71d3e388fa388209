"""Unramified Weil-Deligne parameter calculus over an inert place.

A parameter is a bare multiset of nonzero Frobenius eigenvalues over E or over
F (all data in scope are unramified, so there is no monodromy operator).
Direct sum is multiset union, twisting multiplies every eigenvalue, induction
E -> F sends an eigenvalue z to the pair {+sqrt(z), -sqrt(z)} (the sign pair
makes the branch choice immaterial to any L-factor).  An eigenvalue may also
be an array of one value per point of a point axis: every operation, and
_datum_from_bc's recovery of a datum, then acts on all points at once.

verify_appendix checks the theta-lift L-factor identities on random unramified
data: the adjoint comparisons evaluate their U(2)/U(3) sides through
satake.adjoint_lfactor, so the parameter calculus and the explicit adjoint
transcriptions audit each other; it runs the calculus once per report, on one
axis of every sample's s points.  The unramified character gamma extending
the quadratic class-field character is pinned to uniformizer value -1 (E/F
unramified shares a uniformizer).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .identity import FactorDiff, VerificationReport, _judge, map_samples, worst_err
from .numfield import FieldData, LFactor, factor_product, has_zero
from .satake import SatakeDatum, adjoint_lfactor, bc_params, make_datum

BC_TOL = 1e-9  # slack of _datum_from_bc on a unit eigenvalue and a pair product
S_POINTS = 20  # random s values at which verify_appendix compares each identity


class Base(Enum):
    OVER_E = "E"
    OVER_F = "F"


@dataclass(frozen=True)
class WDParam:
    base: Base
    eigenvalues: tuple[object, ...]  # nonzero scalars (or arrays of them), kept as given

    def __post_init__(self):
        if not self.eigenvalues:
            raise ValueError("parameter needs at least one eigenvalue")
        if any(map(has_zero, self.eigenvalues)):
            raise ValueError("Frobenius eigenvalues must be nonzero")

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def lfactor(self, s: complex, field: FieldData) -> complex:
        """prod_z L(s, z) over the base's q; an array s is a point axis."""
        q = field.q_E if self.base is Base.OVER_E else field.q_F
        return factor_product([LFactor(f"L_{self.base.value}(s, z{i})", s, q, z)
                               for i, z in enumerate(self.eigenvalues, 1)])


def gamma_char() -> complex:
    """The unramified extension of the quadratic character at an inert place,
    as its value at a uniformizer."""
    return -1.0 + 0.0j


def direct_sum(a: WDParam, b: WDParam) -> WDParam:
    if a.base is not b.base:
        raise ValueError("cannot sum parameters over different bases")
    return WDParam(a.base, a.eigenvalues + b.eigenvalues)


def twist(a: WDParam, chi: complex) -> WDParam:
    return WDParam(a.base, tuple(z * chi for z in a.eigenvalues))


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
        r = np.sqrt(np.asarray(z, dtype=complex))  # a scalar z gives a scalar r
        out.extend((r, -r))
    return WDParam(Base.OVER_F, tuple(out))


def theta_param_2to3(m_param: WDParam, gamma: complex) -> WDParam:
    """Lift parameter across U(2) -> U(3): gamma^{-1} M + gamma^2."""
    if m_param.size != 2:
        raise ValueError("expected a two-dimensional parameter")
    return direct_sum(twist(m_param, 1 / gamma), WDParam(m_param.base, (gamma ** 2,)))


def theta_param_1to2(m_param: WDParam, gamma: complex) -> WDParam:
    """Lift parameter across U(1) -> U(2): gamma^{-1} M + gamma."""
    if m_param.size != 1:
        raise ValueError("expected a one-dimensional parameter")
    return direct_sum(twist(m_param, 1 / gamma), WDParam(m_param.base, (gamma,)))


def bc_param(datum: SatakeDatum) -> WDParam:
    """Base-change parameter of an inert datum as a multiset over E."""
    if datum.field.is_split:
        raise ValueError("the parameter calculus here covers inert places")
    return WDParam(Base.OVER_E, bc_params(datum).values)


def _datum_from_bc(m: int, param: WDParam, field: FieldData) -> SatakeDatum:
    """Recover the U(2)/U(3) Satake datum whose base change matches the multiset,
    at every point when the eigenvalues are arrays on a point axis."""
    values = np.stack(np.broadcast_arrays(*param.eigenvalues), axis=-1)  # (*points, eigenvalue)
    if m == 3:
        dist = np.abs(values - 1.0)
        if (dist.min(axis=-1) > BC_TOL).any():
            raise ValueError(f"no unit eigenvalue in a U(3) parameter: {values}")
        # drop each point's first eigenvalue nearest 1; the other two keep their order
        unit = np.arange(values.shape[-1]) == dist.argmin(axis=-1)[..., None]
        values = values[~unit].reshape(unit.shape[:-1] + (-1,))
    pair = np.moveaxis(values, -1, 0)
    if len(pair) != 2 or (np.abs(pair[0] * pair[1] - 1.0) > BC_TOL).any():
        raise ValueError(f"not an inversion-symmetric pair: {values}")
    return make_datum(m, field, [pair[0]])


# ---------------------------------------------------------------------------
# the appendix suite

IDENTITIES = ("piad", "sigmaad", "muad", "bigsig", "sigcor")  # in comparison order


class _Lift(NamedTuple):
    """The data and lift parameters of one sample, or of every point of a point
    axis (each value an array of one entry per point); none depends on s."""

    sigma: SatakeDatum
    pi: SatakeDatum
    theta_pi_bar: SatakeDatum
    theta_sigma_bar: SatakeDatum
    theta_mu_bar: SatakeDatum
    sigma_prime: WDParam
    sigma_twist: WDParam
    mu_twist: WDParam
    bigsig_rhs: WDParam
    pi_twist: WDParam
    sigcor_rhs: WDParam


def _lift(field: FieldData, z_sigma: complex, z_pi: complex) -> _Lift:
    """Build the U(2) data sigma and pi, the trivial U(1) character mu, and their
    lift parameters with the parameter calculus, for one sample or, on arrays
    of sigma's and pi's characters, for every point at once."""
    gamma = gamma_char()
    sigma = make_datum(2, field, [z_sigma])
    pi = make_datum(2, field, [z_pi])
    m_sigma = bc_param(sigma)
    m_sigma_bar = bc_param(sigma.conjugated())
    m_pi = bc_param(pi)
    m_pi_bar = bc_param(pi.conjugated())
    m_mu = WDParam(Base.OVER_E, (1.0 + 0.0j,))  # unramified U(1) character is trivial
    gamma_param = WDParam(Base.OVER_E, (gamma,))
    theta_sigma_bar = _datum_from_bc(3, theta_param_2to3(m_sigma_bar, gamma), field)
    return _Lift(
        sigma=sigma, pi=pi,
        theta_pi_bar=_datum_from_bc(2, m_pi_bar, field),
        theta_sigma_bar=theta_sigma_bar,
        theta_mu_bar=_datum_from_bc(2, theta_param_1to2(m_mu, gamma), field),
        sigma_prime=induce(tensor_product(tensor_product(m_pi_bar, m_sigma), gamma_param)),
        sigma_twist=twist(m_sigma, gamma ** 3),
        mu_twist=twist(m_mu, gamma ** 2),
        bigsig_rhs=tensor_product(tensor_product(m_pi, m_sigma_bar),
                                  WDParam(Base.OVER_E, (1 / gamma,))),
        pi_twist=twist(m_pi, gamma ** 2),
        sigcor_rhs=tensor_product(bc_param(theta_sigma_bar), m_pi))


def _sides(s, g: _Lift, field: FieldData) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the identities at s, each (points, IDENTITIES): s and the
    values of g are arrays on one point axis (or scalars that every point
    shares), so every Euler product is one factor_product call on that axis."""
    chi = factor_product([LFactor("L_F(s, chi)", s, field.q_F, field.chi_at_uniformizer)])
    sigma_prime_l = g.sigma_prime.lfactor(s, field)
    sides = [
        (adjoint_lfactor(s, g.theta_pi_bar), adjoint_lfactor(s, g.pi)),
        (adjoint_lfactor(s, g.theta_sigma_bar),
         chi * adjoint_lfactor(s, g.sigma) * g.sigma_twist.lfactor(s, field)),
        (adjoint_lfactor(s, g.theta_mu_bar), chi ** 2 * g.mu_twist.lfactor(s, field)),
        (sigma_prime_l, g.bigsig_rhs.lfactor(s, field)),
        (sigma_prime_l * g.pi_twist.lfactor(s, field), g.sigcor_rhs.lfactor(s, field)),
    ]
    lhs, rhs = zip(*sides)
    return np.stack(lhs, axis=1), np.stack(rhs, axis=1)


def _draw_s(rng: np.random.Generator, count: int) -> list[complex]:
    return [complex(re, im) for re, im in zip(rng.uniform(0.6, 2.5, size=count),
                                              rng.uniform(-3.0, 3.0, size=count))]


def verify_appendix(field: FieldData, samples: int = 20, seed: int = 0,
                    tol: float = 1e-9, pool_map=map) -> VerificationReport:
    """Check the five theta-lift L-factor identities on random unramified data.

    For each sample, U(2) data sigma and pi and the trivial U(1) character mu
    are drawn, and each identity is compared at S_POINTS random s values.  All
    of it runs in one pass on one axis of (sample, s) points, sample k's being
    k*S_POINTS .. (k+1)*S_POINTS - 1: sigma's and pi's characters are repeated
    once per point, the parameter calculus builds every point's lift
    parameters at once, and each Euler product is one array evaluation.
    """
    if not field.is_inert:
        raise ValueError("the lift identities live over a genuine quadratic extension")

    def draw(rng):  # sigma's character, then pi's, then the s points
        z_sigma, z_pi = (cmath.exp(2j * cmath.pi * rng.uniform()) for _ in range(2))
        return z_sigma, z_pi, _draw_s(rng, S_POINTS)

    draws = map_samples(draw, samples, seed, pool_map=pool_map, key=("appendix",))
    z_sigma, z_pi, s_values = zip(*draws)
    s = np.array(s_values, dtype=complex).ravel()
    grid = _lift(field, *np.repeat(np.array([z_sigma, z_pi]), S_POINTS, axis=1))
    # a nan point fails its sample through its error, as in Python's complex
    # arithmetic; numpy would also warn on the floating-point flags it raises
    with np.errstate(all="ignore"):
        lhs, rhs = _sides(s, grid, field)
        # rel_err entry by entry (numpy's abs is hypot, as Python's)
        errs = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)

    def one(k):
        seg = slice(k * S_POINTS, (k + 1) * S_POINTS)
        return (worst_err(errs[seg].ravel().tolist()),
                lambda: _first_misses(s[seg], lhs[seg], rhs[seg], errs[seg], tol))

    return _judge("appendix", 0, field, seed, tol, samples, one)


def _first_misses(s, lhs, rhs, errs, tol: float) -> list[FactorDiff]:
    # the first (s, lhs, rhs) of each identity whose error is not within tol,
    # s points first, then identities
    diffs: dict[str, FactorDiff] = {}
    for p, i in zip(*np.nonzero(~(errs <= tol))):
        name = IDENTITIES[i]
        if name not in diffs:
            diffs[name] = FactorDiff(f"{name} at s={complex(s[p]):.4g}", lhs[p, i], rhs[p, i])
    return list(diffs.values())
