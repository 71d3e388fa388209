"""End-to-end verification of the unramified period identity and the
orchestration of all cross-checks.

The central check compares, on seeded generic unitary Satake data,

    zeta(X, x) * S_{X^{-1}, x^{-1}}(1)   against   Delta_{G_{n+2}} * L(1/2)

where L(s) is the standard-tensor factor over the product of the two adjoint
factors at s + 1/2.  On a failing sample both sides are re-evaluated via their
independent routes (closed form vs recursion, transcription vs determinant,
Weyl sum vs motive value) and the first diverging constituent formula is
reported factor by factor.  Every Euler product of the identity (zeta, S(1)
at split places, the standard tensor and the adjoints) is evaluated only
through its factor list and factor_product.

Every check is one pipeline.  It draws each sample's random inputs through
map_samples, which alone turns sample index k into an rng seeded from
(seed, k), so pool_map maps only the draws.  A draw reads the place's kind,
never q (q enters only through the L-factors), so within shared_draws(),
which the CLI opens for one command, a draw keyed by all it reads (the pair,
basecase or appendix draw, n, kind, samples and seed) is made once per place
and shared by every q; a driver called outside it draws afresh.  Then _judge
judges the samples by index, one(k) -> (relative error, localize): it calls
localize() within the step of each sample whose error is not within tol,
keeps the worst error (worst_err: nan if any error is nan, so a nan sample
fails wherever it falls) and the first diff per factor label in sample order,
and builds the report.

The checks on (small, big) pairs draw a SampleStack: each sample's character
values (sample_values; sample_pair returns one sample's as data) are stacked
straight into one datum per group (stack_values).  Characters hold no field,
so within shared_draws() the stacked characters and their inverses are also
made once per place, and each q tags them with its own field.  Its routes
(the zeta lists, S(1) at split places, the standard tensor at 1/2, the
adjoints at 1 and, at inert places, the Weyl sum) are built once per report,
when first asked for, on the stacked data; each factor list is multiplied
for every sample by one factor_product call, and the Weyl sum is one
weyl_sum_A call.
A sample whose stacked product stops (nan), or any sample of a Weyl sum that
meets a pole, is evaluated again alone, so it raises what it would raise
alone; a sample's own data are built only for that and for its probes.  `table`
renders the same per-sample rows that verify_localcalc compares
(SampleStack.row), and a miss's probes compare the values of its row with
their other routes instead of recomputing them.  Which zeta factors the two routes leave unpaired depends on (n, place)
alone: leftover_pairs finds them once, by exact keys on prime Fraction
characters, and match_factor_lists evaluates only those at a missed sample.
"""
from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .numfield import (ConventionError, FieldData, LFactor, PlaceKind, PoleError, column,
                       factor_product, motive_delta)
from .satake import (SatakeDatum, adjoint_factors, make_datum, stack_values,
                     std_tensor_factors, std_tensor_lfactor_det)
from .weylsum import (case_for, _d0_values, _d1_values, motive_A_value,
                      s_value_inert, s_value_split, weyl_sum_A)
from .zetarec import (zeta_base_split_closed, zeta_base_split_series,
                      zeta_closed_factors, zeta_recursive_factors)

GENERIC_EPS = 1e-6
MAX_RESAMPLE = 100


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
        if not 0 < self.tol < math.inf:  # nan included; inf passes every finite error
            raise ValueError("tolerance must be positive and finite")
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


# key -> draws or stacked characters, for the block of shared_draws() running
# in this context; None outside one, where every map_samples call draws
_SHARED_DRAWS: ContextVar[dict | None] = ContextVar("shared_draws", default=None)


@contextmanager
def shared_draws():
    """Within the block, map_samples calls that pass the same key, samples and
    seed draw once and return the same list, and the SampleStacks drawn by
    them share their stacked characters; all is dropped when the block ends."""
    token = _SHARED_DRAWS.set({})
    try:
        yield
    finally:
        _SHARED_DRAWS.reset(token)


def _shared(key: tuple | None, make):
    # make(), or within shared_draws() what make() returned first for key (the
    # caller must not change it); a None key is never shared
    store = _SHARED_DRAWS.get()
    if key is None or store is None:
        return make()
    made = store.get(key)
    if made is None:
        made = store[key] = make()
    return made


def map_samples(one, samples: int, seed: int, pool_map=map, key: tuple | None = None) -> list:
    """[one(rng_k) for k in range(samples)], rng_k seeded from (seed, k) alone,
    so a sample does not depend on the others or on how pool_map runs them.
    key names all that one reads besides rng_k; within shared_draws() a call
    with a key already drawn returns those draws (the caller must not change
    them)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    return _shared(None if key is None else (key, samples, seed),
                   lambda: list(pool_map(lambda k: one(_rng_for(seed, k)), range(samples))))


def _unit_values(m: int, field: FieldData, rng: np.random.Generator) -> list[complex]:
    # the character values of a random unitary U(m) datum at this place
    count = m if field.is_split else m // 2
    return [cmath.exp(2j * cmath.pi * t) for t in rng.uniform(0.0, 1.0, size=count)]


def sample_datum(m: int, field: FieldData, rng: np.random.Generator) -> SatakeDatum:
    return make_datum(m, field, _unit_values(m, field, rng))


def _generic_position_ok(n: int, small: list, big: list) -> bool:
    # The inert S value runs the Weyl sum at the inverted characters; keep every
    # translate of the consumed data away from the d1/d0 vanishing locus; at
    # unitary points |d(wX)| = |d(X)|, so the datum stands for its orbit.
    case = case_for(n + 1)
    d1 = _d1_values(case, [1 / v for v in big])
    d0 = _d0_values(case, [1 / v for v in small])
    return abs(d1) > GENERIC_EPS and abs(d0) > GENERIC_EPS


def sample_values(n: int, field: FieldData, rng: np.random.Generator) -> tuple[list, list]:
    """The character values (small, big) of generic unitary data for the pair
    U(n+2) > U(n+1), the small datum's drawn first; inert samples are redrawn
    while any Weyl translate degenerates the d1/d0 denominators."""
    for _ in range(MAX_RESAMPLE):
        small, big = _unit_values(n + 1, field, rng), _unit_values(n + 2, field, rng)
        if field.is_split or _generic_position_ok(n, small, big):
            return small, big
    raise SamplerExhausted(f"no generic sample found in {MAX_RESAMPLE} draws (n={n})")


def sample_pair(n: int, field: FieldData, rng: np.random.Generator) -> tuple[SatakeDatum, SatakeDatum]:
    """Generic unitary data for the pair U(n+2) > U(n+1): sample_values as
    (small, big) data."""
    small, big = sample_values(n, field, rng)
    return make_datum(n + 1, field, small), make_datum(n + 2, field, big)


# ---------------------------------------------------------------------------
# the two sides of the identity


class SampleStack:
    """The samples of one report: each sample's character values (small,
    big), drawn first (draw) and stacked into one datum per group when a
    route first needs them.  Each route is built once, on the stacked data,
    for every sample (see the module docstring); pair(k) builds sample k's
    own data, for a probe or a re-evaluation."""

    def __init__(self, n: int, field: FieldData, draws: list[tuple], key: tuple | None = None):
        # key names the draws within shared_draws(); None: this stack's own
        self.n, self.field, self.draws, self.key = n, field, draws, key
        self._values: dict[str, list[complex]] = {}  # route -> stacked values

    @classmethod
    def draw(cls, n: int, field: FieldData, samples: int, seed: int,
             pool_map=map) -> "SampleStack":
        """The samples' character values (sample_values, one rng per sample);
        pool_map maps only the draws.  They depend on the place's kind, not
        on q, so within shared_draws() every q of a kind shares them and
        their stacked characters."""
        key = ("pair", n, field.kind)
        return cls(n, field, map_samples(lambda rng: sample_values(n, field, rng), samples,
                                         seed, pool_map=pool_map, key=key),
                   key=(key, samples, seed))

    def pair(self, k: int) -> tuple[SatakeDatum, SatakeDatum]:
        """Sample k's (small, big) data."""
        small, big = self.draws[k]
        return make_datum(self.n + 1, self.field, small), make_datum(self.n + 2, self.field, big)

    def _data(self, name: str, make) -> tuple[SatakeDatum, SatakeDatum]:
        # the (small, big) data make() builds; characters hold no field, so
        # every q of a kind shares them, each q's data carrying its own field
        data = _shared(None if self.key is None else (self.key, name), make)
        if data[0].field is self.field:
            return data
        return tuple(SatakeDatum(d.m, self.field, d.chars) for d in data)

    @cached_property
    def _stacked(self) -> tuple[SatakeDatum, SatakeDatum]:
        # (small, big), stacked when a route first needs them
        return self._data("stacked", lambda: tuple(
            stack_values(m, self.field, rows)
            for m, rows in zip((self.n + 1, self.n + 2), zip(*self.draws))))

    @cached_property
    def _inverted(self) -> tuple[SatakeDatum, SatakeDatum]:
        return self._data("inverted", lambda: tuple(data.inverted() for data in self._stacked))

    @cached_property
    def closed(self) -> list[LFactor]:
        return zeta_closed_factors(*self._stacked)

    @cached_property
    def recursive(self) -> list[LFactor]:
        return zeta_recursive_factors(*self._stacked)

    @cached_property
    def closed_inv(self) -> list[LFactor]:
        return zeta_closed_factors(*self._inverted)

    @cached_property
    def std(self) -> list[LFactor]:
        return std_tensor_factors(0.5, *self._stacked)

    @cached_property
    def adjoints(self) -> list[LFactor]:  # L(1, Ad) of the big datum, then the small
        small, big = self._stacked
        return adjoint_factors(1.0, big) + adjoint_factors(1.0, small)

    @cached_property
    def s_split(self) -> list[complex]:
        return self._s_split(*self._inverted).tolist()

    def _s_split(self, small_inv: SatakeDatum, big_inv: SatakeDatum):
        return s_value_split(big_inv.chars, small_inv.chars, self.n, self.field)

    def product(self, route: str, k: int) -> complex:
        """Sample k's value of a route: "s_split", or the product of one of
        the factor lists above ("closed", "std", "adjoints", ...).  A sample
        whose stacked value stopped (nan) is evaluated again alone, so it
        raises what, and where, it would raise alone."""
        if route not in self._values:
            stacked = getattr(self, route)
            self._values[route] = (stacked if route == "s_split"
                                   else factor_product(stacked, len(self.draws)).tolist())
        value = self._values[route][k]
        if not cmath.isnan(value):
            return value
        if route == "s_split":
            return self._s_split(*(data.inverted() for data in self.pair(k)))
        return factor_product(column(getattr(self, route), k))

    @cached_property
    def _weyl(self) -> list[complex] | None:
        small, big = self._inverted
        try:
            return weyl_sum_A(case_for(self.n + 1), big.chars, small.chars, self.field).tolist()
        except PoleError:  # some sample meets a pole: each is evaluated alone
            return None

    def weyl(self, k: int) -> complex:
        """The Weyl sum A at sample k's inverted characters (inert places).
        If any sample meets a pole, sample k is evaluated alone, so it raises
        what, and where, it would raise alone."""
        if self._weyl is not None:
            return self._weyl[k]
        small, big = (data.inverted() for data in self.pair(k))
        return weyl_sum_A(case_for(self.n + 1), big.chars, small.chars, self.field)

    def row(self, k: int) -> tuple[complex, ...]:
        """Sample k's identity row: zeta, S, Delta, L(1/2)/(Ad*Ad), then
        lhs = zeta * S, rhs = Delta * L(1/2)/(Ad*Ad) and their relative error.
        Its terms are taken in the order of a sample evaluated alone: the
        Weyl sum, L(1/2), zeta, S, then the adjoints."""
        n, field = self.n, self.field
        weyl = self.weyl(k) if field.is_inert else None
        std = self.product("std", k)
        z = self.product("closed", k)
        if field.is_inert:
            s_val = s_value_inert(n, field, self.product("closed_inv", k), weyl)
        else:
            s_val = self.product("s_split", k)
        delta, lr = motive_delta(n + 2, field), std / self.product("adjoints", k)
        lhs, rhs = z * s_val, delta * lr
        return z, s_val, delta, lr, lhs, rhs, rel_err(lhs, rhs)


def identity_row(small: SatakeDatum, big: SatakeDatum) -> tuple[complex, ...]:
    """One sample's identity row (see SampleStack.row)."""
    return SampleStack(big.m - 2, big.field, [(small.values(), big.values())]).row(0)


def unramified_period(small: SatakeDatum, big: SatakeDatum) -> complex:
    """zeta(X, x) times the spherical average S at the inverted characters:
    the lhs of the sample's identity row."""
    return identity_row(small, big)[4]


# ---------------------------------------------------------------------------
# factor-level localization


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _unpaired(a: list[tuple], b: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    # Pair each (alpha, position) of a with the first unpaired one of b, in
    # order, that has the same alpha; return the unpaired of both, in order.
    free: dict[object, list[tuple]] = {}
    for entry in b:
        free.setdefault(entry[0], []).append(entry)
    a_left = []
    for entry in a:
        same = free.get(entry[0])
        if same:
            same.pop(0)
        else:
            a_left.append(entry)
    return a_left, [entry for entry in b if entry in free[entry[0]]]


@lru_cache(maxsize=64)
def leftover_pairs(n: int, field: FieldData, closed, recursive) -> tuple[tuple, ...]:
    """The (closed, recursive) positions of the factors that the two zeta
    builders leave unpaired for the pair (n+1, n+2) at this place, in report
    order; a position is None where its side has no partner left.

    Both builders run, unedited, on Fraction characters that are distinct
    primes, so two Laurent monomials in the characters are equal exactly when
    their values are.  Each factor is keyed by the q_F-exponent of its q^-s
    (s over q_F, 2s over q_E), its inverse flag and its alpha.  On each side a
    direct and an inverse factor with the same key cancel; then each closed
    factor pairs with the first unpaired recursive factor of the same key, in
    list order.  The leftovers are listed by (exponent, inverse) group, each
    group's in list order, the i-th closed one against the i-th recursive
    one.  Which factors are left depends on (n, field) alone, so this runs
    once for each; a rebound builder is a new key."""
    small_count, big_count = (m if field.is_split else m // 2 for m in (n + 1, n + 2))
    chars = [Fraction(p) for p in _primes(small_count + big_count)]
    small = make_datum(n + 1, field, chars[:small_count])
    big = make_datum(n + 2, field, chars[small_count:])
    groups: dict[tuple, tuple[list, list]] = {}  # (exponent, inverse) -> per side
    for side, build in enumerate((closed, recursive)):
        for pos, f in enumerate(build(small, big)):
            if f.q not in (field.q_F, field.q_E):
                raise ValueError(f"factor {f.label} is over q = {f.q}, not q_F or q_E")
            exponent = Fraction(f.s) * (1 if f.q == field.q_F else 2)
            groups.setdefault((exponent, f.inverse), ([], []))[side].append((f.alpha, pos))
    for (exponent, inverse), direct in groups.items():
        inverted = groups.get((exponent, True))
        if not inverse and inverted is not None:
            for side in (0, 1):
                direct[side][:], inverted[side][:] = _unpaired(direct[side], inverted[side])
    pairs: list[tuple] = []
    for _, (a, b) in sorted(groups.items()):
        a_left, b_left = _unpaired(a, b)
        pairs += zip_longest([pos for _, pos in a_left], [pos for _, pos in b_left])
    return tuple(pairs)


def match_factor_lists(stack: SampleStack, k: int) -> list[FactorDiff]:
    """Sample k's diffs between the closed and the recursive zeta lists: the
    factors leftover_pairs leaves, evaluated at column k of the stack's lists
    and labelled by the left (closed-form) side."""
    def factor(side: list[LFactor], pos: int | None) -> LFactor | None:
        return None if pos is None else side[pos]._replace(alpha=side[pos].alpha[k])

    diffs: list[FactorDiff] = []
    for a_pos, b_pos in leftover_pairs(stack.n, stack.field, zeta_closed_factors,
                                       zeta_recursive_factors):
        a, b = factor(stack.closed, a_pos), factor(stack.recursive, b_pos)
        if b is None:
            diffs.append(FactorDiff(f"{a.label} [unmatched]", a.value(), cmath.nan))
        elif a is None:
            diffs.append(FactorDiff(f"[missing] {b.label}", cmath.nan, b.value()))
        else:
            diffs.append(FactorDiff(f"{a.label} [vs {b.label}]", a.value(), b.value()))
    return diffs


def _probe_factors(stack: SampleStack, k: int, row: tuple, tol: float) -> list[FactorDiff]:
    # row is stack.row(k); the probes read the values it was built from
    small, big = stack.pair(k)
    diffs = match_factor_lists(stack, k)
    std, v_det = stack.product("std", k), std_tensor_lfactor_det(0.5, small, big)
    if not rel_err(std, v_det) <= tol:
        diffs.append(FactorDiff("std_tensor(1/2) vs determinant oracle", std, v_det))
    if big.field.is_inert:
        weyl, a_expect = stack.weyl(k), motive_A_value(stack.n + 1, big.field)
        if not rel_err(weyl, a_expect) <= tol:
            diffs.append(FactorDiff("weyl_sum vs motive value", weyl, a_expect))
    if not diffs:
        *_, lhs, rhs, _ = row
        diffs.append(FactorDiff("zeta*S vs Delta*L(1/2)/(Ad*Ad)", lhs, rhs))
    return diffs


# ---------------------------------------------------------------------------
# verification drivers


def _judge(check: str, n: int, field: FieldData, seed: int, tol: float, samples: int,
           one) -> VerificationReport:
    """Judge the samples in order, one(k) -> (rel err, localize), into one
    report.  A sample that misses tol runs localize() within its own step and
    keeps only the diffs, so it holds no factor list once its step ends; the
    first diff per factor label is kept, in sample order."""
    errs: list[float] = []
    merged: dict[str, FactorDiff] = {}
    for k in range(samples):
        err, localize = one(k)
        errs.append(err)
        if not err <= tol:
            for d in localize():
                merged.setdefault(d.factor, d)
    max_err = worst_err(errs)
    passed = max_err <= tol
    diffs = tuple(merged.values()) or (
        FactorDiff("unlocalized discrepancy", complex(max_err), 0j),)
    return VerificationReport(
        check_name=check, n=n, kind=field.kind, q_F=field.q_F, samples=samples,
        seed=seed, max_rel_err=max_err, tol=tol, passed=passed,
        factor_diffs=() if passed else diffs)


def verify_localcalc(n: int, field: FieldData, samples: int = 50, seed: int = 0,
                     tol: float = 1e-7, pool_map=map) -> VerificationReport:
    """Seeded end-to-end check of the period identity for the pair (n+1, n+2).

    A miss is probed on its sample's values and columns of the stacked lists."""
    stack = SampleStack.draw(n, field, samples, seed, pool_map)

    def one(k):
        row = stack.row(k)
        return row[-1], lambda: _probe_factors(stack, k, row, tol)

    return _judge("identity", n, field, seed, tol, samples, one)


def identity_table(n: int, field: FieldData, samples: int = 50, seed: int = 0,
                   pool_map=map) -> list[tuple[complex, ...]]:
    """verify_localcalc's samples as rows of the identity's constituents."""
    stack = SampleStack.draw(n, field, samples, seed, pool_map)
    return [stack.row(k) for k in range(samples)]


def verify_weyl_constancy(n: int, field: FieldData, samples: int = 100, seed: int = 0,
                          tol: float = 1e-6, pool_map=map) -> VerificationReport:
    """Constancy of the double Weyl average for the pair (n+1, n+2) and its
    motive value (inert places)."""
    if not field.is_inert:
        raise ValueError("the Weyl-average constancy check runs at inert places")
    expect = motive_A_value(n + 1, field)
    stack = SampleStack.draw(n, field, samples, seed, pool_map)

    def one(k):
        a_val = stack.weyl(k)
        return rel_err(a_val, expect), lambda: [
            FactorDiff("weyl_sum vs motive value", a_val, expect)]

    return _judge("weyl", n, field, seed, tol, samples, one)


def verify_recursion(n: int, field: FieldData, samples: int = 50, seed: int = 0,
                     tol: float = 1e-9, pool_map=map) -> VerificationReport:
    """Inductive route against the closed forms, with factor-level localization
    of any display whose transcription disagrees (e.g. an index-pairing typo).

    A miss is localized on its columns of the two stacked lists."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    stack = SampleStack.draw(n, field, samples, seed, pool_map)

    def one(k):
        lhs = stack.product("closed", k)
        try:
            rhs = stack.product("recursive", k)
        except ConventionError as err:
            diff = FactorDiff(f"ConventionError: {err.factor}", cmath.nan, cmath.nan)
            return float("inf"), lambda: [diff]
        return rel_err(lhs, rhs), lambda: match_factor_lists(stack, k)

    return _judge("recursion", n, field, seed, tol, samples, one)


def verify_basecase(field: FieldData, samples: int = 20, seed: int = 0,
                    tol: float = 1e-8, terms: int = 200,
                    pool_map=map) -> VerificationReport:
    """Split base case: truncated series oracle against the closed form."""
    if not field.is_split:
        raise ValueError("the base-case series check runs at split places")
    draws = map_samples(lambda rng: _unit_values(3, field, rng), samples, seed,
                        pool_map=pool_map, key=("basecase", field.kind))

    def one(k):
        theta, phi, xi0 = draws[k]
        closed = zeta_base_split_closed(theta, phi, xi0, field)
        series = zeta_base_split_series(theta, phi, xi0, field, terms)
        return rel_err(closed, series), lambda: [
            FactorDiff(f"series({terms} terms) vs closed form", series, closed)]

    return _judge("basecase", 0, field, seed, tol, samples, one)
