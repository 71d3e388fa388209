"""End-to-end verification of the unramified period identity and the
orchestration of all cross-checks.

The central check compares, on seeded generic unitary Satake data,

    zeta(X, x) * S_{X^{-1}, x^{-1}}(1)   against   Delta_{G_{n+2}} * L(1/2)

where L(s) is the standard-tensor factor over the product of the two adjoint
factors at s + 1/2.  On a failing sample both sides are re-evaluated via their
independent routes (closed form vs recursion, transcription vs determinant,
Weyl sum vs motive value) and the first diverging constituent formula is
reported factor by factor.  zeta is evaluated only through its factor lists:
each route's list is built once per sample and multiplied by factor_product, and
a miss pairs the same two lists.

Every check is a set of argument guards plus a per-sample function one(rng)
that returns the sample's relative error and a thunk localize() -> factor
diffs.  map_samples alone turns sample index k into rng, seeded from (seed, k).
One driver, _run_check, keeps the worst error (worst_err: nan if any error is
nan, so a nan sample fails wherever it falls), calls localize() within the step
of each sample whose error is not within tol, keeps the first diff per factor
label in sample order, and builds the report.  `table` renders the same
per-sample values, identity_row, that verify_localcalc compares.  identity_row
combines the sample's terms (sample_terms: the closed zeta list, L(1/2) of the
standard tensor and, at inert places, the Weyl sum), and a miss's probes
compare those same values with their other routes instead of recomputing them.
match_factor_lists pairs two factor lists through a window on the sorted real
parts of their character values, so a miss costs about N log N, not N^2.
"""
from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numfield import CharValue, FieldData, PlaceKind, motive_delta
from .satake import (SatakeDatum, adjoint_lfactor, make_datum,
                     std_tensor_lfactor, std_tensor_lfactor_det)
from .weylsum import (case_for, _d0_values, _d1_values, motive_A_value,
                      s_value_inert, s_value_split, weyl_sum_A)
from .zetarec import (ConventionError, LFactor, factor_product,
                      zeta_base_split_closed, zeta_base_split_series,
                      zeta_closed_factors, zeta_recursive_factors)

GENERIC_EPS = 1e-6
MAX_RESAMPLE = 100
MATCH_RTOL = 1e-8  # two factors pair when their character values agree to this


class SamplerExhausted(RuntimeError):
    """Generic-position resampling failed MAX_RESAMPLE times."""


def rel_err(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def worst_err(errs) -> float:
    """max(errs), or nan when any error is nan (max() passes over a later nan)."""
    errs = list(errs)
    return math.nan if any(math.isnan(e) for e in errs) else max(errs, default=0.0)


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


def lratio(s: complex, small: SatakeDatum, big: SatakeDatum,
           std: complex | None = None) -> complex:
    """Standard-tensor factor at s over the two adjoint factors at s + 1/2; the
    standard-tensor value std is computed here unless it is given."""
    if std is None:
        std = std_tensor_lfactor(s, small, big)
    return std / (adjoint_lfactor(s + 0.5, big) * adjoint_lfactor(s + 0.5, small))


class SampleTerms(NamedTuple):
    """The values of one sample that identity_row combines and that a miss's
    probes read again, each computed once."""

    closed: list[LFactor]  # the closed zeta factor list
    std: complex  # L(1/2) of the standard tensor
    weyl: complex | None  # the Weyl sum A at the inverted characters; None if split


def sample_terms(small: SatakeDatum, big: SatakeDatum) -> SampleTerms:
    weyl = None
    if big.field.is_inert:
        weyl = weyl_sum_A(case_for(big.m - 1), [c.inv() for c in big.chars],
                          [c.inv() for c in small.chars], big.field)
    return SampleTerms(zeta_closed_factors(small, big), std_tensor_lfactor(0.5, small, big),
                       weyl)


def period_terms(small: SatakeDatum, big: SatakeDatum, closed: list[LFactor] | None = None,
                 weyl: complex | None = None) -> tuple[complex, complex]:
    """zeta(X, x) and the spherical average S at the inverted characters; zeta is
    the product of the closed factor list, built here unless it is given, and
    the inert S uses the Weyl sum weyl if it is given."""
    n = big.m - 2
    if closed is None:
        closed = zeta_closed_factors(small, big)
    z = factor_product(closed)
    if big.field.is_inert:
        z_inv = factor_product(zeta_closed_factors(small.inverted(), big.inverted()))
        return z, s_value_inert(big.chars, small.chars, n, big.field, z_inv, weyl)
    return z, s_value_split(big.inverted().chars, small.inverted().chars, n, big.field)


def unramified_period(small: SatakeDatum, big: SatakeDatum) -> complex:
    """zeta(X, x) times the spherical average S at the inverted characters."""
    z, s_val = period_terms(small, big)
    return z * s_val


def identity_row(small: SatakeDatum, big: SatakeDatum,
                 terms: SampleTerms | None = None) -> tuple[complex, ...]:
    """zeta, S, Delta and L(1/2)/(Ad*Ad) of one sample, then lhs = zeta * S,
    rhs = Delta * L(1/2)/(Ad*Ad) and their relative error, from the sample's
    terms, computed here unless they are given."""
    closed, std, weyl = sample_terms(small, big) if terms is None else terms
    z, s_val = period_terms(small, big, closed, weyl)
    delta, lr = motive_delta(big.m, big.field), lratio(0.5, small, big, std)
    lhs, rhs = z * s_val, delta * lr
    return z, s_val, delta, lr, lhs, rhs, rel_err(lhs, rhs)


# ---------------------------------------------------------------------------
# factor-level localization


def _pair_off(a_list: list[LFactor],
              b_list: list[LFactor]) -> tuple[list[LFactor], list[LFactor]]:
    # Pair each a with the first unpaired b, in list order, whose character
    # value is within MATCH_RTOL * max(1, |a|) of a's (a nan value never pairs);
    # return the unpaired of both lists, each in its order.  That distance
    # bounds the gap of the real parts, so the candidates are the bs in a window
    # of the sorted real parts, twice as wide so that rounding cannot drop one.
    # A b with a non-finite real part is always a candidate, and a non-finite a
    # is compared with every unpaired b.
    alphas = [b.alpha for b in b_list]
    by_real = sorted((x.real, k) for k, x in enumerate(alphas) if math.isfinite(x.real))
    keys = [r for r, _ in by_real]
    order = [k for _, k in by_real]
    loose = [k for k, x in enumerate(alphas) if not math.isfinite(x.real)]
    unmatched_a: list[LFactor] = []
    for a in a_list:
        x = a.alpha
        tol = MATCH_RTOL * max(1.0, abs(x))
        lo, hi = 0, len(order)
        if cmath.isfinite(x):
            lo = bisect_left(keys, x.real - 2 * tol)
            hi = bisect_right(keys, x.real + 2 * tol, lo)
        hits = [k for k in order[lo:hi] + loose if abs(x - alphas[k]) <= tol]
        if not hits:
            unmatched_a.append(a)
        elif (hit := min(hits)) in loose:
            loose.remove(hit)
        else:
            pos = order.index(hit, lo, hi)
            del keys[pos], order[pos]
    return unmatched_a, [b_list[k] for k in sorted(order + loose)]


@lru_cache(maxsize=256)
def _exponent(s: float, q: int) -> float:
    # the effective exponent s*log(q) of q^-s, rounded so that an Euler factor
    # over q_E = q_F^2 at s and over q_F at 2s get one key
    return round(s * math.log(q), 9)


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
            key = (_exponent(f.s, f.q), f.inverse)
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


def _probe_factors(n: int, small: SatakeDatum, big: SatakeDatum, terms: SampleTerms,
                   lhs: complex, rhs: complex, tol: float) -> list[FactorDiff]:
    # terms are the sample's values, as identity_row combined them
    diffs = match_factor_lists(terms.closed, zeta_recursive_factors(small, big))
    v_det = std_tensor_lfactor_det(0.5, small, big)
    if not rel_err(terms.std, v_det) <= tol:
        diffs.append(FactorDiff("std_tensor(1/2) vs determinant oracle", terms.std, v_det))
    if terms.weyl is not None:
        a_expect = motive_A_value(n + 1, big.field)
        if not rel_err(terms.weyl, a_expect) <= tol:
            diffs.append(FactorDiff("weyl_sum vs motive value", terms.weyl, a_expect))
    if not diffs:
        diffs.append(FactorDiff("zeta*S vs Delta*L(1/2)/(Ad*Ad)", lhs, rhs))
    return diffs


# ---------------------------------------------------------------------------
# verification drivers


def _run_check(check: str, n: int, field: FieldData, samples: int, seed: int,
               tol: float, one, pool_map) -> VerificationReport:
    """Map one(rng) -> (rel err, localize) over the samples into one report.  A
    sample that misses tol runs localize within its own step and keeps only the
    diffs, so it holds no factor list once its step ends."""
    def judged(rng):
        err, localize = one(rng)
        return err, () if err <= tol else localize()

    results = map_samples(judged, samples, seed, pool_map=pool_map)
    max_err = worst_err(err for err, _ in results)
    passed = max_err <= tol
    merged: dict[str, FactorDiff] = {}
    for _, diffs in results:
        for d in diffs:
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
        terms = sample_terms(small, big)
        *_, lhs, rhs, err = identity_row(small, big, terms)
        return err, lambda: _probe_factors(n, small, big, terms, lhs, rhs, tol)

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
        closed = zeta_closed_factors(small, big)
        recursive = zeta_recursive_factors(small, big)
        z_closed = factor_product(closed)
        try:
            z_recursive = factor_product(recursive)
        except ConventionError as err:
            diff = FactorDiff(f"ConventionError: {err.factor}", cmath.nan, cmath.nan)
            return float("inf"), lambda: [diff]
        return rel_err(z_closed, z_recursive), lambda: match_factor_lists(closed, recursive)

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
