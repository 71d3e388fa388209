"""Local field descriptors, unramified characters, and Euler factors.

Everything downstream reduces to products of factors 1/(1 - q^{-s} a), where q
is a residue field cardinality and a is the value of an unramified character at
a uniformizer.  This module owns that primitive and the one kernel that
multiplies such factors: every Euler product of the package is evaluated by
it, so this module alone decides how a product is evaluated, where a pole
stops it and which factor a PoleError names.  The kernel has two front ends:

* factor_product takes a factor list (LFactor records) of scalars, of one
  array of values per sample, or on a point axis of s;
* FactorPlan.product takes a factor plan and the alphas of every factor and
  sample as one array, with q^{-s} cached per q.

A plan is a factor-list builder traced once (trace_factors): the builder runs
unedited on traced characters, which record the arithmetic done on them
(*, /, 1/x, unary minus, int, float, complex and Fraction constants) and
refuse anything else (+, -, abs, ordering, bool, conversions) with a
TypeError (TraceError where a plain object would not refuse).  The plan keeps
each factor's label, s, q role (q_F or q_E) and flags, which hold for every
sample, and the alphas' arithmetic as a program of a few array steps; it
evaluates that program on object arrays, so every alpha is Python's own
value, the one the builder computes on that sample.
The module also owns the quadratic-character factors attached to an
unramified quadratic extension E/F, and the local Gross motive value
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
import gc
import itertools
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
    a monomial, a traced character of a FactorPlan), kept as given.

    The value may also be a 1-D array, one value per sample; every entry is
    checked to be nonzero.  An object array of the samples' own scalars
    rounds each entry exactly as that sample alone would (numpy's complex
    multiply may fuse, and its division scales differently).  A report does
    not stack characters this way: it holds each group's values as one
    complex matrix and evaluates FactorPlans on it."""

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


def _multiply(q_s, alpha, inverse, flagged) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel behind both front ends: (product, stop, pole) of the factor
    rows 1/(1 - q^{-s} alpha), or 1 - q^{-s} alpha where inverse is set.

    q_s, alpha and inverse broadcast to one row per factor (then one entry
    per sample or point); flagged indexes the convention-sensitive rows.
    Each product multiplies the values from 1 in row order.  pole marks a
    direct factor on its pole, stop also a flagged factor at its pole."""
    den = q_s * alpha
    np.subtract(1.0, den, out=den)
    # numpy's complex reciprocal is Python's 1.0/den (Smith's method); its
    # complex division multiplies by a rounded reciprocal instead
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.reciprocal(den)
    pole = np.abs(den) < POLE_EPS
    if inverse.any():
        values = np.where(inverse, den, values)
        pole &= ~inverse
    stop = pole
    if len(flagged):
        stop = pole.copy()
        stop[flagged] |= np.abs(values[flagged]) < POLE_EPS
    # the factor axis last and contiguous, so that numpy multiplies each
    # product in list order, one factor at a time, from 1
    product = np.multiply.reduce(np.ascontiguousarray(values.T), axis=-1,
                                 initial=1.0 + 0.0j)
    return product, stop, pole


def factor_product(factors: list[LFactor], samples: int | None = None) -> complex | np.ndarray:
    """The product of the factor values, in list order: the list front end
    of the package's one Euler-product kernel (FactorPlan.product is the
    plan front end).

    A list of scalar factors gives a complex.  A stacked list, each alpha an
    array of one value per sample or a scalar that every sample shares,
    gives an array of the `samples` products, ones for an empty list.  Each
    product multiplies the values of f.value() from 1 in list order, and
    numpy's complex reciprocal and sequential reduction round as Python's
    complex arithmetic does, so it is the left-to-right product to the last
    bit (only the sign of an exactly zero part may differ).

    A list may also be on a point axis: an s that is an array holds one point
    per entry, and without `samples` the first such array's length is the
    axis.  Its q^{-s} are np.exp(-s log q), so they may differ from q_power's
    in the last bits.

    A list stops at the first factor, in list order, that is a direct factor
    on its pole (PoleError, naming it) or a convention-sensitive factor (the
    quadratic twist) requested at its pole, where the evaluation convention
    would decide between 0 and a pole (ConventionError, naming it).  A scalar
    list raises that error; a stacked sample (a point) that stops gets a nan
    product, and its own list raises the error when evaluated alone.
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
    inverse = np.array(inverse, dtype=bool).reshape(per_factor)
    flagged = np.flatnonzero(sensitive) if any(sensitive) else ()
    product, stop, pole = _multiply(q_s, rows(alpha), inverse, flagged)
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


# ---------------------------------------------------------------------------
# factor plans: a factor-list builder traced once, evaluated on many samples


class TraceError(TypeError):
    """A factor-list builder did to a traced character what a FactorPlan
    cannot replay."""


_CONSTANTS = (int, float, complex, Fraction)
# a node's op: a character, a constant, then the operations a plan replays,
# numbered so that a plan orders its rows by (depth, op)
_CHAR, _CONST, _MUL, _DIV, _NEG = range(5)
_OPS = {_MUL: np.multiply, _DIV: np.true_divide, _NEG: np.negative}


class _Trace:
    """The values one trace makes, each once: a repeated operation on the
    same operands, or a repeated constant (by type and repr), is the node
    already made, since it computes the same bits.  Node k is recorded as
    records[k] = (op, first operand, second operand, depth), its operands by
    their node numbers (-1 for none), so that a plan is compiled in array
    steps; a constant's value is in consts."""

    def __init__(self, leaves: int):
        self.memo: dict[tuple, _Traced] = {}
        self.records: list[tuple[int, int, int, int]] = []
        self.consts: dict[int, object] = {}
        self.leaves = [self.node((_CHAR, k), _CHAR, -1, -1, 0) for k in range(leaves)]

    def node(self, key: tuple, op: int, a: int, b: int, depth: int) -> "_Traced":
        v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = _Traced(self, len(self.records), depth)
            self.records.append((op, a, b, depth))
        return v

    def close(self) -> None:
        """Drop every node: each refers to the trace, so none is left in a cycle."""
        self.leaves, self.memo = [], {}

    def operand(self, a) -> "_Traced":
        """A traced value of this trace, or a constant as its node."""
        if a.__class__ is _Traced:
            if a.trace is not self:
                raise TraceError("a traced value of another trace")
            return a
        if not isinstance(a, _CONSTANTS):
            raise TraceError(f"a traced character met a {type(a).__name__}")
        v = self.node((_CONST, type(a), repr(a)), _CONST, -1, -1, 0)
        self.consts.setdefault(v.number, a)
        return v


def _binary(op: int, reflected: bool):
    # the method for self op other, or other op self when reflected
    def method(self, other):
        trace = self.trace
        if other.__class__ is not _Traced or other.trace is not trace:
            other = trace.operand(other)
        a, b = (other, self) if reflected else (self, other)
        key = (op, a.number, b.number)
        memo = trace.memo
        v = memo.get(key)
        if v is None:
            depth = (a.depth if a.depth > b.depth else b.depth) + 1
            v = memo[key] = _Traced(trace, len(trace.records), depth)
            trace.records.append((op, a.number, b.number, depth))
        return v
    return method


class _Traced:
    """A value in a trace, node `number` of it: a character, a constant, or
    the product or quotient of two values or the negation of one (1/x is the
    quotient of the constant 1 by x).  Equality is identity, so a traced
    character passes CharValue's nonzero check; bool and an operand that is
    not a traced value or constant raise TraceError, and +, -, abs, ordering
    and conversions TypeError, as on any object that lacks them."""

    __slots__ = ("trace", "number", "depth")
    __array_ufunc__ = None  # so that an ndarray operand reaches the refusal below

    def __init__(self, trace: _Trace, number: int, depth: int):
        self.trace, self.number, self.depth = trace, number, depth

    __mul__, __rmul__ = _binary(_MUL, False), _binary(_MUL, True)
    __truediv__, __rtruediv__ = _binary(_DIV, False), _binary(_DIV, True)

    def __neg__(self):
        return self.trace.node((_NEG, self.number), _NEG, self.number, -1, self.depth + 1)

    def __bool__(self):  # a branch on a value would trace one sample's path
        raise TraceError("a traced character has no truth value")


def trace_factors(build, leaves: int, field: FieldData) -> "FactorPlan":
    """The FactorPlan of build(chars): build is run once, unedited, on
    `leaves` traced characters and returns a factor list, or a tuple of
    them (the plan's parts).  Every factor must be over q_F or q_E of field,
    and its alpha a traced value or a constant; any other arithmetic on a
    traced character raises a TypeError."""
    # A trace makes one node per operation, all alive until the plan is
    # compiled; the cyclic collector would only walk them over and over (a
    # fifth of a trace's time), so it pauses, and close() leaves no cycle.
    collecting = gc.isenabled()
    gc.disable()
    trace = _Trace(leaves)
    try:
        parts = build(list(trace.leaves))
        return FactorPlan(parts if isinstance(parts, tuple) else (parts,), trace, field)
    finally:
        trace.close()
        if collecting:
            gc.enable()


class FactorPlan:
    """A traced factor-list builder: its factors' labels, s, q role (q_F or
    q_E), inverse and convention flags, which hold for every sample, and the
    program that computes every alpha from the characters, one step per
    (depth, op) group of its arithmetic.

    values() runs that program on object arrays, one row per character and
    one column per sample, so each step applies Python's own *, / or unary
    minus to every entry: each alpha is the value the builder computes on
    that sample alone, to the last bit.  product() is the kernel's plan front
    end, with q^{-s} cached per q, on the alphas as a complex array, and
    factor() rebuilds one factor of one sample.  A plan depends on the
    builder and the character layout, not on q; a builder that read q into
    its alphas would break that."""

    def __init__(self, parts: tuple[list[LFactor], ...], trace: _Trace, field: FieldData):
        factors = list(itertools.chain.from_iterable(parts))
        self.labels, self.s, qs, alphas, self.inverse, self.sensitive = (
            zip(*factors) if factors else ((),) * 6)
        q_F, q_E = field.q_F, field.q_E
        if not {q_F, q_E}.issuperset(qs):
            f = next(f for f in factors if f.q not in (q_F, q_E))
            raise ValueError(f"factor {f.label} is over q = {f.q}, not q_F or q_E")
        self.bounds = tuple(itertools.accumulate(map(len, parts), initial=0))
        self.over_q_E = np.array(qs, dtype=np.int64) != q_F
        self._inverse = np.array(self.inverse, dtype=bool).reshape(-1, 1)
        flagged = np.array(self.sensitive, dtype=bool)
        self._flagged = [np.flatnonzero(flagged[a:b])
                         for a, b in itertools.pairwise(self.bounds)]
        self._q_s: dict[int, np.ndarray] = {}
        numbers = [a.number if a.__class__ is _Traced and a.trace is trace
                   else trace.operand(a).number for a in alphas]
        # rows: characters first, in order, then constants, then each
        # (depth, op) group, in the order made (a stable sort)
        op, a, b, depth = np.array(trace.records, dtype=np.intp).reshape(-1, 4).T
        order = np.lexsort((op, depth))
        row = np.empty_like(order)
        row[order] = np.arange(len(order))
        op, a, b, depth = op[order], row[a[order]], row[b[order]], depth[order]
        starts = np.flatnonzero(np.diff(depth * (_NEG + 1) + op, prepend=-1))
        self._steps = [(_OPS[op[i]], i, j, [a[i:j]] + ([b[i:j]] if op[i] != _NEG else []))
                       for i, j in zip(starts.tolist(), starts[1:].tolist() + [len(op)])
                       if depth[i]]
        self._consts = tuple((int(row[k]), c) for k, c in trace.consts.items())
        self._rows = len(order)
        self.alpha_rows = row[numbers] if numbers else np.zeros(0, dtype=np.intp)

    def values(self, chars: np.ndarray) -> np.ndarray:
        """The program's values at the character values chars, one row per
        traced character and one column per sample (a complex or object
        array): an object array of Python scalars, one row per node, whose
        rows alpha_rows are the factors' alphas."""
        values = np.empty((self._rows, chars.shape[1]), dtype=object)
        values[:len(chars)] = chars
        for row, c in self._consts:
            values[row] = c
        # as Python's own arithmetic, which raises no floating-point flag
        with np.errstate(all="ignore"):
            for op, start, stop, operands in self._steps:
                op(*(values[rows] for rows in operands), out=values[start:stop])
        return values

    def product(self, alphas: np.ndarray, field: FieldData, part: int = 0) -> np.ndarray:
        """The products of one part for every sample, from its alphas as a
        complex (factor, sample) array: the list front end's stacked product
        of each sample's list, to the last bit, and nan where a sample stops."""
        rows = slice(self.bounds[part], self.bounds[part + 1])
        q_s = self._q_s.get(field.q_F)
        if q_s is None:  # q_power of each distinct s, as the list front end takes it
            distinct, index = np.unique(np.array(self.s, dtype=complex), return_inverse=True)
            over_q_F, over_q_E = (np.array([q_power(q, x) for x in distinct.tolist()],
                                           dtype=complex)[index] for q in (field.q_F, field.q_E))
            q_s = self._q_s[field.q_F] = np.where(self.over_q_E, over_q_E,
                                                  over_q_F).reshape(-1, 1)
        product, stop, _ = _multiply(q_s[rows], alphas[rows], self._inverse[rows],
                                     self._flagged[part])
        if stop.any():
            product[stop.any(axis=0)] = np.nan
        return product

    def factor(self, pos: int, values: np.ndarray, k: int, field: FieldData) -> LFactor:
        """Factor pos of the list at sample k of values, at this place."""
        return LFactor(self.labels[pos], self.s[pos],
                       field.q_E if self.over_q_E[pos] else field.q_F,
                       values[self.alpha_rows[pos], k], self.inverse[pos], self.sensitive[pos])


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
