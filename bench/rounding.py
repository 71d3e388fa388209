"""Tell a rounding failure of the inert Weyl sum from a wrong result.

The double Weyl average A(X, x) = sum b(w'X, wx) / (d1(w'X) d0(wx)) equals
1/Delta_{G_{n+1}} for all generic X, x: it is an identity of rational
functions. Near the d1/d0 vanishing locus its terms cancel heavily, so the
program's double-precision sum can miss a report's tolerance by rounding
alone (a documented limitation: the default tolerances are not yet backed by
a rounding bound). An inert identity/weyl report, or a table row, that misses
its tolerance is accepted as such a rounding failure only if, for the sample
that misses it:

* the same sum in 40-digit arithmetic, on the same double inputs, equals
  1/Delta_{G_{n+1}} to 1e-20, so the mathematics holds;
* the program's own weyl_sum_A misses 1/Delta by no more than the first-order
  worst-case bound of double arithmetic, so the miss is rounding. For N terms
  t of at most K operations each and unit roundoff u, that bound is
  2 (N + K) u sum |t| + Z_ERR u sum |t| kappa(t): every factor 1 - z of a term
  is formed from a z that carries a relative error of up to Z_ERR u, which
  1 - z magnifies by |z| / |1 - z|, and kappa(t) sums that ratio over the
  factors of t. Two nearly equal characters make one such ratio large; and
* the Weyl-sum error accounts for the report's error.

Anything else stays a failure.
"""
from __future__ import annotations

import itertools
import sys

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
# A z of a factor 1 - z is made by up to four complex operations (two
# inversions of a Weyl action, the root and a product), each of relative
# error at most 3u.
Z_ERR = 12
HP_DIGITS = 40
MATHS_RTOL = 1e-20
# Other constituents of the identity are accurate to far better than this.
REPORT_SLACK = 1e-10


def _signed_orbit(count: int):
    """The hyperoctahedral orbit: every signed permutation of range(count), as
    a tuple of signed indices, k for the k-th value and ~k for its inverse."""
    for perm in itertools.permutations(range(count)):
        for flips in itertools.product((False, True), repeat=count):
            yield tuple(~k if f else k for k, f in zip(perm, flips))


def _signed_values(values) -> dict:
    return {key: v for k, v in enumerate(values) for key, v in ((k, v), (~k, 1 / v))}


def _factor(z) -> tuple:
    """(1 - z, |z| / |1 - z|), the factor and how much it magnifies an error
    in z; the second is only a weight in the bound, so a float will do."""
    return 1 - z, float(abs(z) / abs(1 - z))


def _b_indices(case_a: bool, l_big: int, l_small: int, Xs, xs):
    """The (big, small) signed-index pairs whose factors 1 - root X x make up
    b, and the big (case B) or small (case A) singles 1 - root v."""
    pairs = []
    for i in range(l_small):
        for j in range(i, l_small):
            pairs += [(Xs[i], xs[j]), (Xs[i], ~xs[j])]
    for i in range(l_small if case_a else l_big):
        for j in range(min(i, l_small)):
            pairs += [(Xs[i], xs[j]), (~Xs[i], xs[j])]
    return pairs


def _d(values, square_singles: bool) -> tuple:
    v, kappa = 1, 0.0
    for i, z in enumerate(values):
        for f, k in (_factor(z * z if square_singles else z),
                     *(_factor(z * w) for w in values[i + 1:]),
                     *(_factor(z / w) for w in values[i + 1:])):
            v *= f
            kappa += k
    return v, kappa


def weyl_sum_hp(n: int, q: int, X, x) -> tuple[complex, float, float, int]:
    """(A, sum |t|, sum |t| kappa(t), number of terms) in HP_DIGITS-digit
    arithmetic. Every factor of b is 1 - root X x or 1 - root v over a signed
    big value X and small value x, so they are tabulated once."""
    import mpmath  # here, not at module level, so it stays out of peak_rss_mb
    case_a = (n + 1) % 2 == 0
    with mpmath.workdps(HP_DIGITS):
        Xv = _signed_values([mpmath.mpc(v) for v in X])
        xv = _signed_values([mpmath.mpc(v) for v in x])
        root = mpmath.mpf(1) / q
        pair = {(a, b): _factor(root * Xv[a] * xv[b]) for a in Xv for b in xv}
        single = {a: _factor(root * v) for a, v in (Xv if not case_a else xv).items()}
        small = []
        for xs in _signed_orbit(len(x)):
            d0, kappa0 = _d([xv[b] for b in xs], not case_a)
            small.append((xs, d0, kappa0))
        total, magnitude, conditioned, terms = mpmath.mpc(0), 0.0, 0.0, 0
        for Xs in _signed_orbit(len(X)):
            d1, kappa1 = _d([Xv[a] for a in Xs], case_a)
            for xs, d0, kappa0 in small:
                b, kappa = 1, kappa1 + kappa0
                for key in (xs if case_a else Xs):
                    f, k = single[key]
                    b *= f
                    kappa += k
                for key in _b_indices(case_a, len(X), len(x), Xs, xs):
                    f, k = pair[key]
                    b *= f
                    kappa += k
                t = b / (d1 * d0)
                total += t
                size = float(abs(t))
                magnitude += size
                conditioned += size * kappa
                terms += 1
        return total, magnitude, conditioned, terms


def motive_A(n: int, q: int):
    """1/Delta_{G_{n+1}} at an inert place: prod_{r=1}^{n+1} (1 - (-1)^r q^{-r})."""
    import mpmath
    with mpmath.workdps(HP_DIGITS):
        out = mpmath.mpf(1)
        for r in range(1, n + 2):
            out *= 1 - mpmath.mpf(-1) ** r / mpmath.mpf(q) ** r
    return out


def _weyl_errors(n: int, q: int, seed: int, samples: int) -> list[float]:
    """Relative error of the program's Weyl sum on each sample of a report."""
    lp = sys.modules["localperiods"]
    field = lp.inert_place(q)
    expect = complex(motive_A(n, q))
    case = lp.case_for(n + 1)
    errs = []
    for k in range(samples):
        small, big = lp.sample_pair(n, field, np.random.default_rng([seed, k]))
        value = lp.weyl_sum_A(case, [c.inv() for c in big.chars],
                              [c.inv() for c in small.chars], field)
        errs.append(abs(value - expect) / abs(expect))
    return errs


def explain(n: int, q: int, seed: int, samples: int, tol: float,
            report_err: float, only: int | None = None) -> str | None:
    """Why a report (or table row `only`) that missed `tol` is a rounding
    failure, or None when it is not one."""
    lp = sys.modules["localperiods"]
    field = lp.inert_place(q)
    errs = _weyl_errors(n, q, seed, samples)
    ks = [only] if only is not None else range(samples)
    if report_err > (1 + 1e-3) * max(errs[k] for k in ks) + REPORT_SLACK:
        return None
    expect = motive_A(n, q)
    reasons = []
    for k in ks:
        if errs[k] <= tol / 2:
            continue
        small, big = lp.sample_pair(n, field, np.random.default_rng([seed, k]))
        hp, magnitude, conditioned, terms = weyl_sum_hp(
            n, q, [c.inv().value for c in big.chars], [c.inv().value for c in small.chars])
        if abs(hp - expect) > MATHS_RTOL * abs(expect):
            return None
        ops = 4 * (len(big.chars) + len(small.chars)) ** 2 + 10
        bound = float(UNIT_ROUNDOFF * (2 * (terms + ops) * magnitude + Z_ERR * conditioned)
                      / abs(expect))
        if errs[k] > bound:
            return None
        reasons.append(f"sample {k}: Weyl-sum error {errs[k]:.3g} within the rounding "
                       f"bound {bound:.3g} (cancellation {float(magnitude / abs(hp)):.3g})")
    return "; ".join(reasons) or None
