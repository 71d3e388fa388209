"""Test references, built without the library's dynamic program (not collected).

The hyperoctahedral group (Z/2)^l x| S_l element by element, its action on
character values, the Weyl vectors and the special vectors, and two
references for weylsum.weyl_sum_A: the defining double sum, term by term, and
the one-sided alternant, which enumerates the small group's orbit and sums the
big group as one determinant per small translate.  Both sum b, whose one
transcription (_b_values) lives here, built from the library's singles and
pair factors.  More references with no caller in the library live here too:
the GL adjoint and the induction defect of the parameter calculus, the split
series truncation bound, and the stacked data and their columns that the
factor-list builders take per sample (stack_values, column).
"""
import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from localperiods import LFactor, SatakeDatum, inert_place, make_datum, sample_pair
from localperiods.identity import map_samples, rel_err, worst_err
from localperiods.numfield import POLE_EPS, FieldData, PoleError
from localperiods.paramcalc import Base, WDParam, _draw_s, induce
from localperiods.weylsum import (Case, _check_rank, _d0_values, _d1_values,
                                  _half_root, _pair_factor, _single, case_for, rho_big,
                                  weyl_sum_A)


def _b_values(case: Case, X, x, root):
    # b, the product of the singles and pair factors, is the reciprocal of L_E(1/2, .)
    # factors kept as (1 - q_E^{-1/2} a), so it vanishes at a pole; root =
    # q_E^{-1/2}.  Scalars are complex, Fraction on exact data, or numpy arrays.
    v = 1
    for y in x:
        v = v * _single(y, root, case is Case.A)
    for i, Z in enumerate(X):
        v = v * _single(Z, root, case is Case.B)
        for j, y in enumerate(x):
            v = v * _pair_factor(Z, y, root, far=j >= i)
    return v


@dataclass(frozen=True)
class WeylElement:
    """Element of (Z/2)^l x| S_l: perm[i] is the 0-based image of i, flips in {+-1}.

    Acting on a character tuple: entry i of the result is entry perm^{-1}(i) of
    the input raised to flips[i].
    """

    perm: tuple[int, ...]
    flips: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation: {self.perm}")
        if len(self.flips) != len(self.perm) or any(f not in (1, -1) for f in self.flips):
            raise ValueError(f"flips must be +-1 of matching length: {self.flips}")

    @classmethod
    def identity(cls, l: int) -> "WeylElement":
        return cls(tuple(range(l)), (1,) * l)

    @property
    def rank(self) -> int:
        return len(self.perm)

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.rank)) and all(f == 1 for f in self.flips)

    @property
    def sign(self) -> int:
        return _perm_sign(self.perm) * math.prod(self.flips)

    def inverse_perm(self) -> tuple[int, ...]:
        return tuple(sorted(range(self.rank), key=self.perm.__getitem__))

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self applied after other, so acting with the result equals acting
        with other first and self second."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        perm = tuple(self.perm[other.perm[i]] for i in range(self.rank))
        inv1 = self.inverse_perm()
        flips = tuple(self.flips[i] * other.flips[inv1[i]] for i in range(self.rank))
        return WeylElement(perm, flips)


def _perm_sign(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def enumerate_weyl(l: int) -> tuple[WeylElement, ...]:
    """All 2^l l! elements, identity first, in deterministic order."""
    _check_rank(l)
    out = []
    for perm in itertools.permutations(range(l)):
        for flips in itertools.product((1, -1), repeat=l):
            out.append(WeylElement(perm, flips))
    return tuple(out)


def act(w: WeylElement, values) -> tuple:
    """w acting on character values (complex or Fraction): a flip inverts."""
    if len(values) != w.rank:
        raise ValueError(f"rank {w.rank} element acting on {len(values)} values")
    inv = w.inverse_perm()
    return tuple(values[inv[i]] if w.flips[i] == 1 else 1 / values[inv[i]]
                 for i in range(w.rank))


def rho_small(case: Case, rank: int) -> tuple[int, ...]:
    """The doubled exponents 2 rho paired with d0: rho = (l-1/2, ..., 1/2) in
    case A, (l, ..., 1) in case B."""
    if case is Case.A:
        return tuple(2 * (rank - i) - 1 for i in range(rank))
    return tuple(2 * (rank - i) for i in range(rank))


def rho_monomial(values, two_rho, w: WeylElement) -> complex:
    """(w . values)^{-rho} with branch-consistent half powers.

    two_rho holds the doubled exponents (a tuple, or rho_big's column).  Each
    original value gets one fixed square root; a flipped entry contributes the
    inverse integer power of that root, so the alternating identity
    D_{w X} = sgn(w) D_X is exact up to rounding.
    """
    roots = [complex(v) ** 0.5 for v in values]
    inv = w.inverse_perm()
    out = 1.0 + 0.0j
    for i, e in enumerate(np.ravel(two_rho).tolist()):
        out *= roots[inv[i]] ** (-e * w.flips[i])
    return out


def special_vectors(case: Case, l_big: int, q_F: int) -> tuple[list[Fraction], list[Fraction]]:
    """The distinguished rational character values at which only the identity
    Weyl pair contributes to the double sum.  All entries are integer powers of
    q_F (half-integer powers of q_E), so exact arithmetic applies: b on them,
    with root q_E^{-1/2} = 1/q_F, is a Fraction."""
    qe = Fraction(q_F * q_F)
    if case is Case.A:
        big = [1 / qe ** (l_big - i) for i in range(l_big)]
        small = [Fraction(1, q_F ** (2 * (l_big - i) - 1)) for i in range(l_big)]
    else:
        big = [Fraction(1, q_F ** (2 * (l_big - i) - 1)) for i in range(l_big)]
        small = [1 / qe ** (l_big - 1 - i) for i in range(l_big - 1)]
    return big, small


UNIT_ROUNDOFF = 2.0 ** -53


def double_sum(case: Case, X, x, root) -> tuple[complex, float]:
    """The defining double sum over W_big x W_small, term by term, and the
    worst-case rounding of that sum: every term is a product of at most
    4 (l_big + l_small)^2 + 10 rounded operations, and the running sum adds one
    rounding per term, so the error is at most
    (terms + 4 (l_big + l_small)^2 + 10) u sum |term|."""
    total, magnitude, terms = 0j, 0.0, 0
    for wp in enumerate_weyl(len(X)):
        Xs = act(wp, X)
        d1 = _d1_values(case, Xs)
        for w in enumerate_weyl(len(x)):
            xs = act(w, x)
            term = _b_values(case, Xs, xs, root) / (d1 * _d0_values(case, xs))
            total += term
            magnitude += abs(term)
            terms += 1
    ops = 4 * (len(X) + len(x)) ** 2 + 10
    return total, (terms + ops) * UNIT_ROUNDOFF * magnitude


@lru_cache(maxsize=None)
def orbit_table(l: int) -> tuple[np.ndarray, np.ndarray]:
    """(|W|, l) tables in enumerate_weyl order, built without WeylElement
    objects: row k, entry i holds the source index perm^{-1}(i) of the k-th
    element and whether its flip i is -1.  Permutations vary slowest, and flip
    i is -1 on bit l-1-i of the flip-pattern index."""
    _check_rank(l)
    perms = np.array(list(itertools.permutations(range(l))), dtype=np.intp)
    masks = ((np.arange(2 ** l)[:, None] >> np.arange(l - 1, -1, -1)) & 1).astype(bool)
    src = np.repeat(np.argsort(perms, axis=1), 2 ** l, axis=0)
    flip = np.tile(masks, (len(perms), 1))
    src.setflags(write=False)
    flip.setflags(write=False)
    return src, flip


def weyl_orbit(values) -> np.ndarray:
    """The Weyl orbit of a character tuple as an (l, |W|) complex array: row i
    holds entry i of every translate, in orbit_table order, so iterating over
    it yields the columns the scalar formulas evaluate the orbit on."""
    src, flip = orbit_table(len(values))
    vals = np.array(values, dtype=complex)
    inv = np.array([1 / v for v in values], dtype=complex)
    return np.where(flip.T, inv[src.T], vals[src.T])


def h_reference(case: Case, i: int, Z, x, root):
    """The factors of b that involve the i-th big character, evaluated at Z
    (written out from the definition of b, not from weylsum's pair factor)."""
    v = 1 - root * Z if case is Case.B else 1
    for j, t in enumerate(x):
        v = v * (1 - root * Z * t) * (1 - root * Z / t if j >= i else 1 - root * t / Z)
    return v


def alternant_sum(case: Case, big_chars, small_chars, field) -> complex:
    """The double Weyl sum of one sample as a one-sided alternant.  For a small
    translate y = wx, b(., y) = c(y) prod_i h_i(X_i; y) and X^{-rho} d1(X) is
    anti-invariant, so the big-group sum is c(y) det[H_i(X_k) - H_i(1/X_k)] /
    (X^{-rho} d1(X)), H_i(Z) = Z^{-rho_i} h_i(Z; y).  Raises PoleError on
    d1(X) or on d0 anywhere on the small orbit."""
    root = _half_root(field)
    values = [c.value for c in big_chars]
    d1 = _d1_values(case, values)
    if abs(d1) < POLE_EPS:
        raise PoleError("degenerate big characters in the double Weyl sum", factor="d1(X)")
    small = weyl_orbit([c.value for c in small_chars])
    d0 = _d0_values(case, small)
    if np.any(np.abs(d0) < POLE_EPS):
        raise PoleError("degenerate small orbit in the double Weyl sum", factor="d0(wx)")
    l = len(values)
    X = np.array(values, dtype=complex)
    Z = np.concatenate([X, 1 / X])
    roots = np.sqrt(X)
    two_rho = rho_big(case, l)
    Z_rho = np.concatenate([roots ** -two_rho, roots ** two_rho], axis=1)
    H = (Z_rho[i] * h_reference(case, i, Z, small[:, :, None], root) for i in range(l))
    alternants = np.linalg.det(np.stack([h[..., :l] - h[..., l:] for h in H], axis=-2))
    total = (_b_values(case, (), small, root) * alternants / d0).sum()
    return complex(total / (np.prod(Z_rho.diagonal()) * d1))


def inverted_sample(n_plus_1: int, q: int, k: int) -> tuple[list, list]:
    """Sample k of the seeded inert test data for U(n+2) > U(n+1), as the
    inverted (big, small) characters that the inert S value sums over."""
    small, big = sample_pair(n_plus_1 - 1, inert_place(q), np.random.default_rng([n_plus_1, q, k]))
    return [c.inv() for c in big.chars], [c.inv() for c in small.chars]


def assert_weyl_sum_matches_double_sum(n_plus_1: int, q: int) -> None:
    """weyl_sum_A on three sampled inverted pairs lies within the double sum's
    own rounding bound of it."""
    field = inert_place(q)
    case = case_for(n_plus_1)
    for k in range(3):
        X, x = inverted_sample(n_plus_1, q, k)
        reference, bound = double_sum(case, [c.value for c in X], [c.value for c in x],
                                      _half_root(field))
        assert abs(weyl_sum_A(case, X, x, field) - reference) <= bound


def adjoint_gl(a: WDParam) -> WDParam:
    """All ordered eigenvalue ratios (size m^2 for input size m)."""
    return WDParam(a.base, tuple(z / w for z in a.eigenvalues for w in a.eigenvalues))


def induce_preservation_defect(field, samples: int = 20, seed: int = 0,
                               s_points: int = 20) -> float:
    """max relative gap between L_F(s, Ind z) and L_E(s, z) on random data."""
    def one(rng):
        param = WDParam(Base.OVER_E, (cmath.exp(2j * cmath.pi * rng.uniform()),))
        ind = induce(param)
        return worst_err(rel_err(ind.lfactor(s, field), param.lfactor(s, field))
                         for s in _draw_s(rng, s_points))

    return worst_err(map_samples(one, samples, seed))


def series_truncation_bound(field, terms: int) -> float:
    """The tail of zeta_base_split_series after `terms` terms, for unitary
    characters: 2 q^{-(terms+1)/2} / (1 - q^{-1/2})."""
    root = 1.0 / math.sqrt(field.q_F)
    return 2.0 * root ** (terms + 1) / (1.0 - root)


def stack_values(m: int, field: FieldData, rows) -> SatakeDatum:
    """One U(m) datum from each sample's character values (rows, in order):
    each character holds one value per sample in an object array (see
    CharValue), so the factor-list builders run on it unedited and build
    every sample's list at once."""
    return make_datum(m, field, [np.array(column, dtype=object) for column in zip(*rows)])


def column(factors: list[LFactor], k: int) -> list[LFactor]:
    """Sample k of a stacked factor list: the same factors, each alpha array
    replaced by sample k's value (a scalar alpha is every sample's), so that
    it can be evaluated alone."""
    return [f._replace(alpha=f.alpha[k]) if isinstance(f.alpha, np.ndarray) else f
            for f in factors]
