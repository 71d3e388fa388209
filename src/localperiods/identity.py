"""End-to-end verification of the unramified period identity and the
orchestration of all cross-checks.

The central check compares, on seeded generic unitary Satake data,

    zeta(X, x) * S_{X^{-1}, x^{-1}}(1)   against   Delta_{G_{n+2}} * L(1/2)

where L(s) is the standard-tensor factor over the product of the two adjoint
factors at s + 1/2.  On a failing sample both sides are re-evaluated via their
independent routes (closed form vs recursion, transcription vs determinant,
Weyl sum vs motive value) and the first diverging constituent formula is
reported factor by factor.

Every check is a set of argument guards plus a per-sample function one(rng)
that returns the sample's relative error and a thunk localize() -> factor
diffs.  map_samples alone turns sample index k into rng, seeded from (seed, k).
One driver, _run_check, keeps the worst error, calls localize() on each sample
whose error is not within tol (nan included), keeps the first diff per factor
label in sample order, and builds the report.  `table` renders the same
per-sample values, identity_row, that verify_localcalc compares.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .numfield import CharValue, FieldData, PlaceKind, motive_delta
from .satake import (SatakeDatum, adjoint_lfactor, make_datum,
                     std_tensor_lfactor, std_tensor_lfactor_det)
from .weylsum import (case_for, _d0_values, _d1_values, motive_A_value,
                      s_value_inert, s_value_split, weyl_sum_A)
from .zetarec import (ConventionError, LFactor, factor_product,
                      zeta_base_split_closed, zeta_base_split_series, zeta_closed,
                      zeta_closed_factors, zeta_recursive, zeta_recursive_factors)

GENERIC_EPS = 1e-6
MAX_RESAMPLE = 100
MATCH_RTOL = 1e-8  # two factors pair when their character values agree to this


class SamplerExhausted(RuntimeError):
    """Generic-position resampling failed MAX_RESAMPLE times."""


def rel_err(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


@dataclass(frozen=True)
class FactorDiff:
    factor: str
    lhs: complex
    rhs: complex

    def __post_init__(self):
        # complex, so that a nan value renders as a quoted "nan+0i", not bare nan
        object.__setattr__(self, "lhs", complex(self.lhs))
        object.__setattr__(self, "rhs", complex(self.rhs))


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    n: int
    kind: PlaceKind
    q_F: int
    samples: int
    seed: int
    max_rel_err: float
    tol: float
    passed: bool
    factor_diffs: tuple[FactorDiff, ...] = dc_field(default_factory=tuple)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.passed != (self.max_rel_err <= self.tol):
            raise ValueError("pass flag inconsistent with max_rel_err vs tol")
        if self.passed != (len(self.factor_diffs) == 0):
            raise ValueError("factor_diffs must be nonempty exactly on failure")

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "n": self.n,
            "place": self.kind.value,
            "q": self.q_F,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
            "factor_diffs": [
                {"factor": d.factor, "lhs": d.lhs, "rhs": d.rhs} for d in self.factor_diffs
            ],
        }


# ---------------------------------------------------------------------------
# sampling


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def map_samples(one, samples: int, seed: int, pool_map=map) -> list:
    """[one(rng_k) for k in range(samples)], rng_k seeded from (seed, k) alone,
    so a sample does not depend on the others or on how pool_map runs them."""
    if samples < 1:
        raise ValueError("need at least one sample")
    return list(pool_map(lambda k: one(_rng_for(seed, k)), range(samples)))


def sample_datum(m: int, field: FieldData, rng: np.random.Generator) -> SatakeDatum:
    count = m if field.is_split else m // 2
    values = [cmath.exp(2j * cmath.pi * t) for t in rng.uniform(0.0, 1.0, size=count)]
    return make_datum(m, field, values)


def _generic_position_ok(n: int, small: SatakeDatum, big: SatakeDatum) -> bool:
    # The inert S value runs the Weyl sum at the inverted characters; keep every
    # translate of the consumed data away from the d1/d0 vanishing locus; at
    # unitary points |d(wX)| = |d(X)|, so the datum stands for its orbit.
    case = case_for(n + 1)
    d1 = _d1_values(case, [c.inv().value for c in big.chars])
    d0 = _d0_values(case, [c.inv().value for c in small.chars])
    return abs(d1) > GENERIC_EPS and abs(d0) > GENERIC_EPS


def sample_pair(n: int, field: FieldData, rng: np.random.Generator) -> tuple[SatakeDatum, SatakeDatum]:
    """Generic unitary data for the pair U(n+2) > U(n+1); inert samples are
    redrawn while any Weyl translate degenerates the d1/d0 denominators."""
    for _ in range(MAX_RESAMPLE):
        small = sample_datum(n + 1, field, rng)
        big = sample_datum(n + 2, field, rng)
        if field.is_split or _generic_position_ok(n, small, big):
            return small, big
    raise SamplerExhausted(f"no generic sample found in {MAX_RESAMPLE} draws (n={n})")


# ---------------------------------------------------------------------------
# the two sides of the identity


def lratio(s: complex, small: SatakeDatum, big: SatakeDatum) -> complex:
    """Standard-tensor factor at s over the two adjoint factors at s + 1/2."""
    return std_tensor_lfactor(s, small, big) / (
        adjoint_lfactor(s + 0.5, big) * adjoint_lfactor(s + 0.5, small))


def period_terms(small: SatakeDatum, big: SatakeDatum) -> tuple[complex, complex]:
    """zeta(X, x) and the spherical average S at the inverted characters."""
    n = big.m - 2
    z = zeta_closed(small, big)
    if big.field.is_inert:
        z_inv = zeta_closed(small.inverted(), big.inverted())
        return z, s_value_inert(big.chars, small.chars, n, big.field, z_inv)
    return z, s_value_split(big.inverted().chars, small.inverted().chars, n, big.field)


def unramified_period(small: SatakeDatum, big: SatakeDatum) -> complex:
    """zeta(X, x) times the spherical average S at the inverted characters."""
    z, s_val = period_terms(small, big)
    return z * s_val


def identity_row(small: SatakeDatum, big: SatakeDatum) -> tuple[complex, ...]:
    """zeta, S, Delta and L(1/2)/(Ad*Ad) of one sample, then lhs = zeta * S,
    rhs = Delta * L(1/2)/(Ad*Ad) and their relative error."""
    z, s_val = period_terms(small, big)
    delta, lr = motive_delta(big.m, big.field), lratio(0.5, small, big)
    lhs, rhs = z * s_val, delta * lr
    return z, s_val, delta, lr, lhs, rhs, rel_err(lhs, rhs)


# ---------------------------------------------------------------------------
# factor-level localization


def _pair_off(a_list: list[LFactor],
              b_list: list[LFactor]) -> tuple[list[LFactor], list[LFactor]]:
    # pair each a with the first unpaired b of the same character value;
    # return the unpaired of both lists, each in its order
    remaining = list(b_list)
    unmatched_a: list[LFactor] = []
    for a in a_list:
        hit = next((k for k, b in enumerate(remaining)
                    if abs(a.alpha - b.alpha) <= MATCH_RTOL * max(1.0, abs(a.alpha))), None)
        if hit is None:
            unmatched_a.append(a)
        else:
            remaining.pop(hit)
    return unmatched_a, remaining


def match_factor_lists(lhs: list[LFactor], rhs: list[LFactor]) -> list[FactorDiff]:
    """Pair up two factor lists by (q^-s, inverse) and character value; report
    the leftovers as named diffs, labelled by the left (closed-form) side.

    Factors are grouped by the effective exponent s*log(q), so that the same
    Euler factor written over q_E = q_F^2 at s and over q_F at 2s (as at inert
    places) is one group.  A factor and an inverse factor of one side with the
    same exponent and character value cancel, so they are dropped first."""
    groups: dict[tuple, tuple[list[LFactor], list[LFactor]]] = {}
    for side, factors in enumerate((lhs, rhs)):
        for f in factors:
            key = (round(f.s * math.log(f.q), 9), f.inverse)
            groups.setdefault(key, ([], []))[side].append(f)
    for (exponent, inverse), direct in groups.items():
        inverted = groups.get((exponent, True))
        if not inverse and inverted is not None:
            for side in (0, 1):
                direct[side][:], inverted[side][:] = _pair_off(direct[side], inverted[side])
    diffs: list[FactorDiff] = []
    for _, (a_list, b_list) in sorted(groups.items()):
        unmatched_a, remaining = _pair_off(a_list, b_list)
        for i, a in enumerate(unmatched_a):
            if i < len(remaining):
                b = remaining[i]
                diffs.append(FactorDiff(f"{a.label} [vs {b.label}]", a.value(), b.value()))
            else:
                diffs.append(FactorDiff(f"{a.label} [unmatched]", a.value(), cmath.nan))
        for b in remaining[len(unmatched_a):]:
            diffs.append(FactorDiff(f"[missing] {b.label}", cmath.nan, b.value()))
    return diffs


def localize_zeta_mismatch(small: SatakeDatum, big: SatakeDatum) -> list[FactorDiff]:
    return match_factor_lists(zeta_closed_factors(small, big),
                              zeta_recursive_factors(small, big))


def _probe_factors(n: int, small: SatakeDatum, big: SatakeDatum,
                   lhs: complex, rhs: complex, tol: float) -> list[FactorDiff]:
    diffs = localize_zeta_mismatch(small, big)
    v_std = std_tensor_lfactor(0.5, small, big)
    v_det = std_tensor_lfactor_det(0.5, small, big)
    if rel_err(v_std, v_det) > tol:
        diffs.append(FactorDiff("std_tensor(1/2) vs determinant oracle", v_std, v_det))
    if big.field.is_inert:
        case = case_for(n + 1)
        a_val = weyl_sum_A(case, [c.inv() for c in big.chars],
                           [c.inv() for c in small.chars], big.field)
        a_expect = motive_A_value(n + 1, big.field)
        if rel_err(a_val, a_expect) > tol:
            diffs.append(FactorDiff("weyl_sum vs motive value", a_val, a_expect))
    if not diffs:
        diffs.append(FactorDiff("zeta*S vs Delta*L(1/2)/(Ad*Ad)", lhs, rhs))
    return diffs


# ---------------------------------------------------------------------------
# verification drivers


def _run_check(check: str, n: int, field: FieldData, samples: int, seed: int,
               tol: float, one, pool_map) -> VerificationReport:
    """Map one(rng) -> (rel err, localize) over the samples into one report;
    localize() -> factor diffs runs only on the samples that miss tol."""
    results = map_samples(one, samples, seed, pool_map=pool_map)
    max_err = max(err for err, _ in results)
    passed = max_err <= tol
    merged: dict[str, FactorDiff] = {}
    for err, localize in results:
        if not err <= tol:
            for d in localize():
                merged.setdefault(d.factor, d)
    diffs = tuple(merged.values()) or (
        FactorDiff("unlocalized discrepancy", complex(max_err), 0j),)
    return VerificationReport(
        check_name=check, n=n, kind=field.kind, q_F=field.q_F, samples=samples,
        seed=seed, max_rel_err=max_err, tol=tol, passed=passed,
        factor_diffs=() if passed else diffs)


def verify_localcalc(n: int, field: FieldData, samples: int = 50, seed: int = 0,
                     tol: float = 1e-7, pool_map=map,
                     allow_large: bool = False) -> VerificationReport:
    """Seeded end-to-end check of the period identity for the pair (n+1, n+2)."""
    if not allow_large and not 1 <= n <= 3:
        raise ValueError(f"n={n} outside the guarded range 1..3 (pass allow_large to override)")

    def one(rng):
        small, big = sample_pair(n, field, rng)
        *_, lhs, rhs, err = identity_row(small, big)
        return err, lambda: _probe_factors(n, small, big, lhs, rhs, tol)

    return _run_check("identity", n, field, samples, seed, tol, one, pool_map)


def identity_table(n: int, field: FieldData, samples: int = 50, seed: int = 0,
                   pool_map=map) -> list[tuple[complex, ...]]:
    """verify_localcalc's samples as rows of the identity's constituents."""
    return map_samples(lambda rng: identity_row(*sample_pair(n, field, rng)),
                       samples, seed, pool_map=pool_map)


def verify_weyl_constancy(n_plus_1: int, field: FieldData, samples: int = 100,
                          seed: int = 0, tol: float = 1e-6,
                          pool_map=map) -> VerificationReport:
    """Constancy of the double Weyl average and its motive value (inert places)."""
    if not field.is_inert:
        raise ValueError("the Weyl-average constancy check runs at inert places")
    n = n_plus_1 - 1
    expect = motive_A_value(n_plus_1, field)
    case = case_for(n_plus_1)

    def one(rng):
        small, big = sample_pair(n, field, rng)
        a_val = weyl_sum_A(case, [c.inv() for c in big.chars],
                           [c.inv() for c in small.chars], field)
        return rel_err(a_val, expect), lambda: [
            FactorDiff("weyl_sum vs motive value", a_val, expect)]

    return _run_check("weyl", n, field, samples, seed, tol, one, pool_map)


def verify_recursion(n: int, field: FieldData, samples: int = 50, seed: int = 0,
                     tol: float = 1e-9, pool_map=map) -> VerificationReport:
    """Inductive route against the closed forms, with factor-level localization
    of any display whose transcription disagrees (e.g. an index-pairing typo)."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def one(rng):
        small, big = sample_pair(n, field, rng)
        closed = factor_product(zeta_closed_factors(small, big))
        try:
            recursive = zeta_recursive(small, big)
        except ConventionError as err:
            diff = FactorDiff(f"ConventionError: {err.factor}", cmath.nan, cmath.nan)
            return float("inf"), lambda: [diff]
        return rel_err(closed, recursive), lambda: localize_zeta_mismatch(small, big)

    return _run_check("recursion", n, field, samples, seed, tol, one, pool_map)


def verify_basecase(field: FieldData, samples: int = 20, seed: int = 0,
                    tol: float = 1e-8, terms: int = 200,
                    pool_map=map) -> VerificationReport:
    """Split base case: truncated series oracle against the closed form."""
    if not field.is_split:
        raise ValueError("the base-case series check runs at split places")

    def one(rng):
        theta, phi, xi0 = (CharValue.from_angle(t) for t in rng.uniform(0.0, 1.0, size=3))
        closed = zeta_base_split_closed(theta, phi, xi0, field)
        series = zeta_base_split_series(theta, phi, xi0, field, terms)
        return rel_err(closed, series), lambda: [
            FactorDiff(f"series({terms} terms) vs closed form", series, closed)]

    return _run_check("basecase", 0, field, samples, seed, tol, one, pool_map)
