"""The open-orbit pairing value zeta for a pair U(n+2) > U(n+1).

Three independent routes are provided:

* closed-form products, one inert and one split variant per parity of n,
  kept verbatim (the transcription itself is what the cross-checks audit);
* an inductive route that peels off the innermost character of the big datum at
  each step and terminates in the rank-one base cases (inert: exactly 1; split:
  a three-factor expression);
* for the split base case only, a truncated geometric series that serves as an
  integration oracle.

Every route is an explicit list of LFactor records (zeta_closed_factors,
zeta_recursive_factors), multiplied by the package's one Euler-product
kernel: factor_product on a list, or, in a report, FactorPlan.product on the
list's plan, traced once per (n, place kind) on symbolic characters and
evaluated for all the report's samples at once.  The kernel (LFactor,
ConventionError, factor_product, FactorPlan) lives in numfield, because
satake's and weylsum's factor lists use it too.  So two routes
can be compared factor by factor and a discrepancy localized to a single
named factor; this is how the one mismatched index pairing in the odd-case
split display is surfaced (never silently patched).

Conventions fixed here and validated by the recursion/closed-form agreement and
the end-to-end period identity: the inert composite of the quadratic character
with an E-character is evaluated at -xi(w) over q_E, and the inductive
denominator twist at split places uses the conjugate pairing (first components
times nu, second times mu); at inert places the two pairings coincide.
"""
from __future__ import annotations

import math

from .numfield import FieldData, LFactor, factor_product
from .satake import SatakeDatum, _check_pair, bc_params


# ---------------------------------------------------------------------------
# closed forms


def zeta_closed_inert_factors(small: SatakeDatum, big: SatakeDatum) -> list[LFactor]:
    _check_pair(small, big)
    if not big.field.is_inert:
        raise ValueError("inert closed form requested at a split place")
    n = big.m - 2
    qe = big.field.q_E
    x = small.values()
    X = big.values()
    out: list[LFactor] = []

    def f(label, s, alpha, inverse=False):
        out.append(LFactor(label, s, qe, alpha, inverse))

    if n % 2 == 0:
        h = n // 2
        for i in range(1, h + 2):
            for j in range(i + 1, h + 2):
                f(f"L_E(1/2, xi{i}*Xi{j})", 0.5, x[i - 1] * X[j - 1])
                f(f"L_E(1/2, xi{i}^-1*Xi{j})", 0.5, X[j - 1] / x[i - 1])
                f(f"L_E(1, Xi{i}*Xi{j})^-1", 1.0, X[i - 1] * X[j - 1], True)
                f(f"L_E(1, Xi{i}^-1*Xi{j})^-1", 1.0, X[j - 1] / X[i - 1], True)
        for i in range(1, h + 1):
            for j in range(i, h + 1):
                f(f"L_E(1/2, Xi{i}*xi{j})", 0.5, X[i - 1] * x[j - 1])
                f(f"L_E(1/2, Xi{i}^-1*xi{j})", 0.5, x[j - 1] / X[i - 1])
        for i in range(1, h + 1):
            for j in range(i + 1, h + 1):
                f(f"L_E(1, xi{i}*xi{j})^-1", 1.0, x[i - 1] * x[j - 1], True)
                f(f"L_E(1, xi{i}^-1*xi{j})^-1", 1.0, x[j - 1] / x[i - 1], True)
        for i in range(1, h + 1):
            # composite with the quadratic character: uniformizer value -xi(w)
            f(f"L_E(1/2, chi*xi{i})^-1", 0.5, -x[i - 1], True)
            f(f"L_E(1, xi{i})^-1", 1.0, x[i - 1], True)
    else:
        h = (n + 1) // 2
        for i in range(1, h + 1):
            for j in range(i, h + 1):
                f(f"L_E(1/2, xi{i}*Xi{j})", 0.5, x[i - 1] * X[j - 1])
                f(f"L_E(1/2, xi{i}^-1*Xi{j})", 0.5, X[j - 1] / x[i - 1])
        for i in range(1, h + 1):
            for j in range(i + 1, h + 1):
                f(f"L_E(1, Xi{i}*Xi{j})^-1", 1.0, X[i - 1] * X[j - 1], True)
                f(f"L_E(1, Xi{i}^-1*Xi{j})^-1", 1.0, X[j - 1] / X[i - 1], True)
                f(f"L_E(1/2, Xi{i}*xi{j})", 0.5, X[i - 1] * x[j - 1])
                f(f"L_E(1/2, Xi{i}^-1*xi{j})", 0.5, x[j - 1] / X[i - 1])
        for i in range(1, h + 1):
            for j in range(i + 1, h + 1):
                f(f"L_E(1, xi{i}*xi{j})^-1", 1.0, x[i - 1] * x[j - 1], True)
                f(f"L_E(1, xi{i}^-1*xi{j})^-1", 1.0, x[j - 1] / x[i - 1], True)
        for i in range(1, h + 1):
            f(f"L_E(1/2, chi*Xi{i})^-1", 0.5, -X[i - 1], True)
            f(f"L_E(1, Xi{i})^-1", 1.0, X[i - 1], True)
    return out


def zeta_closed_split_factors(small: SatakeDatum, big: SatakeDatum) -> list[LFactor]:
    """Literal transcription of the split closed forms.

    The odd-n variant is kept verbatim, including the nu_i*theta_j pairing in
    its second product whose recursion-derived counterpart is nu_i*phi_j; the
    recursion cross-check localizes that factor by name.
    """
    _check_pair(small, big)
    if not big.field.is_split:
        raise ValueError("split closed form requested at an inert place")
    n = big.m - 2
    q = big.field.q_F
    out: list[LFactor] = []

    def f(label, s, alpha, inverse=False):
        out.append(LFactor(label, s, q, alpha, inverse))

    # unchecked 1-based lookups into the values each datum computes once
    mu, nu = (t.__getitem__ for t in big.split_values)
    th, ph = (t.__getitem__ for t in small.split_values)
    l2 = big.rank
    l1 = small.rank

    if n % 2 == 0:
        xi0 = small.odd_char
        for i in range(1, l2 + 1):
            for j in range(i + 1, l2 + 1):
                f(f"L_F(1/2, th{i}*mu{j})", 0.5, th(i) * mu(j))
                f(f"L_F(1/2, ph{i}^-1*mu{j})", 0.5, mu(j) / ph(i))
                f(f"L_F(1/2, th{i}^-1*nu{j})", 0.5, nu(j) / th(i))
                f(f"L_F(1/2, ph{i}*nu{j})", 0.5, ph(i) * nu(j))
        for i in range(1, l1 + 1):
            for j in range(i, l1 + 1):
                f(f"L_F(1/2, mu{i}*th{j})", 0.5, mu(i) * th(j))
                f(f"L_F(1/2, nu{i}^-1*th{j})", 0.5, th(j) / nu(i))
                f(f"L_F(1/2, mu{i}^-1*ph{j})", 0.5, ph(j) / mu(i))
                f(f"L_F(1/2, nu{i}*ph{j})", 0.5, nu(i) * ph(j))
        for i in range(1, l2 + 1):
            f(f"L_F(1/2, xi0*mu{i})", 0.5, xi0 * mu(i))
            f(f"L_F(1/2, xi0^-1*nu{i})", 0.5, nu(i) / xi0)
        _split_ratio_blocks(f, mu, nu, th, ph, l2, l1)
        for i in range(1, l2 + 1):
            f(f"L_F(1, mu{i}*nu{i})^-1", 1.0, mu(i) * nu(i), True)
        for i in range(1, l1 + 1):
            f(f"L_F(1, xi0^-1*th{i})^-1", 1.0, th(i) / xi0, True)
            f(f"L_F(1, xi0*ph{i})^-1", 1.0, xi0 * ph(i), True)
            f(f"L_F(1, th{i}*ph{i})^-1", 1.0, th(i) * ph(i), True)
    else:
        Xi0 = big.odd_char
        for i in range(1, l2 + 1):
            for j in range(i, l2 + 1):
                f(f"L_F(1/2, th{i}*mu{j})", 0.5, th(i) * mu(j))
                f(f"L_F(1/2, ph{i}^-1*mu{j})", 0.5, mu(j) / ph(i))
                f(f"L_F(1/2, th{i}^-1*nu{j})", 0.5, nu(j) / th(i))
                f(f"L_F(1/2, ph{i}*nu{j})", 0.5, ph(i) * nu(j))
        for i in range(1, l1 + 1):
            for j in range(i + 1, l1 + 1):
                f(f"L_F(1/2, mu{i}*th{j})", 0.5, mu(i) * th(j))
                f(f"L_F(1/2, nu{i}^-1*th{j})", 0.5, th(j) / nu(i))
                f(f"L_F(1/2, mu{i}^-1*ph{j})", 0.5, ph(j) / mu(i))
                f(f"L_F(1/2, nu{i}*th{j})", 0.5, nu(i) * th(j))  # verbatim; cross-checked
        for i in range(1, l1 + 1):
            f(f"L_F(1/2, Xi0*th{i})", 0.5, Xi0 * th(i))
            f(f"L_F(1/2, Xi0^-1*ph{i})", 0.5, ph(i) / Xi0)
        _split_ratio_blocks(f, mu, nu, th, ph, l2, l1)
        for i in range(1, l2 + 1):
            f(f"L_F(1, mu{i}*nu{i})^-1", 1.0, mu(i) * nu(i), True)
            f(f"L_F(1, Xi0^-1*mu{i})^-1", 1.0, mu(i) / Xi0, True)
            f(f"L_F(1, Xi0*nu{i})^-1", 1.0, Xi0 * nu(i), True)
        for i in range(1, l1 + 1):
            f(f"L_F(1, th{i}*ph{i})^-1", 1.0, th(i) * ph(i), True)
    return out


def _split_ratio_blocks(f, mu, nu, th, ph, l2: int, l1: int) -> None:
    # The inverse blocks shared verbatim by the two split parities.
    for i in range(1, l2 + 1):
        for j in range(i + 1, l2 + 1):
            f(f"L_F(1, mu{i}^-1*mu{j})^-1", 1.0, mu(j) / mu(i), True)
            f(f"L_F(1, nu{i}*mu{j})^-1", 1.0, nu(i) * mu(j), True)
            f(f"L_F(1, mu{i}*nu{j})^-1", 1.0, mu(i) * nu(j), True)
            f(f"L_F(1, nu{i}^-1*nu{j})^-1", 1.0, nu(j) / nu(i), True)
    for i in range(1, l1 + 1):
        for j in range(i + 1, l1 + 1):
            f(f"L_F(1, th{i}^-1*th{j})^-1", 1.0, th(j) / th(i), True)
            f(f"L_F(1, ph{i}*th{j})^-1", 1.0, ph(i) * th(j), True)
            f(f"L_F(1, th{i}*ph{j})^-1", 1.0, th(i) * ph(j), True)
            f(f"L_F(1, ph{i}^-1*ph{j})^-1", 1.0, ph(j) / ph(i), True)


def zeta_closed_factors(small: SatakeDatum, big: SatakeDatum) -> list[LFactor]:
    if big.field.is_split:
        return zeta_closed_split_factors(small, big)
    return zeta_closed_inert_factors(small, big)


# ---------------------------------------------------------------------------
# split base case


def _require_unitary(name: str, c: complex) -> None:
    if abs(abs(c) - 1.0) > 1e-9:
        raise ValueError(f"{name} must be unitary for the series to converge")


def zeta_base_split_closed(theta: complex, phi: complex, Xi0: complex,
                           field: FieldData) -> complex:
    """L_F(1/2, phi/Xi0) L_F(1/2, theta*Xi0) / L_F(1, theta*phi) over q_F, for
    the character values theta, phi and Xi0.

    The last factor is multiplied in reciprocal form, so the value degenerates
    to 0 (a ZeroFactor outcome) when theta*phi sits on the pole of L_F(1, .).
    """
    if not field.is_split:
        raise ValueError("split base case requested at an inert place")
    return factor_product(_base_split_factors(theta, phi, Xi0, field.q_F, prefix=""))


def _base_split_factors(theta: complex, phi: complex, Xi0: complex, q: int,
                        prefix: str) -> list[LFactor]:
    return [
        LFactor(f"{prefix}L_F(1/2, phi*Xi0^-1)", 0.5, q, phi / Xi0),
        LFactor(f"{prefix}L_F(1/2, theta*Xi0)", 0.5, q, theta * Xi0),
        LFactor(f"{prefix}L_F(1, theta*phi)^-1", 1.0, q, theta * phi, True),
    ]


def zeta_base_split_series(theta: complex, phi: complex, Xi0: complex,
                           field: FieldData, terms: int) -> complex:
    """Truncated integral: 1 + sum_{k=1..terms} (theta*Xi0/q^{1/2})^k + (phi/(Xi0 q^{1/2}))^k.

    For unitary characters the truncation error is bounded by
    2 q^{-(terms+1)/2} / (1 - q^{-1/2}).
    """
    if not field.is_split:
        raise ValueError("split base case requested at an inert place")
    if terms < 1:
        raise ValueError("need at least one term")
    for name, c in (("theta", theta), ("phi", phi), ("Xi0", Xi0)):
        _require_unitary(name, c)
    root = 1.0 / math.sqrt(field.q_F)
    r1 = theta * Xi0 * root
    r2 = phi / Xi0 * root
    total = 1.0 + 0.0j
    p1 = 1.0 + 0.0j
    p2 = 1.0 + 0.0j
    for _ in range(terms):
        p1 *= r1
        p2 *= r2
        total += p1 + p2
    return total


# ---------------------------------------------------------------------------
# inductive route


def truncate_big(big: SatakeDatum) -> SatakeDatum:
    """Drop the innermost character of the big datum: the U(m-2) datum whose
    characters are the first rank-1 characters (split: remove the tuple pair
    at positions rank and m+1-rank, keeping the middle entry)."""
    m = big.m
    if big.field.is_inert:
        return SatakeDatum(m - 2, big.field, big.chars[:-1])
    l = big.rank
    keep = [big.chars[i] for i in range(m) if i not in (l - 1, m - l)]
    return SatakeDatum(m - 2, big.field, tuple(keep))


def zeta_recursive_factors(small: SatakeDatum, big: SatakeDatum) -> list[LFactor]:
    _check_pair(small, big)
    field = big.field
    out: list[LFactor] = []
    cur_big, cur_small = big, small
    # a step's truncated datum is the next step's small one, so its
    # parameters carry over instead of being computed again
    small_bc = bc_params(small) if big.m > 2 else None
    while cur_big.m > 2:
        k = cur_big.m - 2
        l = cur_big.rank
        tag = f"step{k}: "
        trunc = truncate_big(cur_big)
        trunc_bc = bc_params(trunc)
        if field.is_inert:
            qe = field.q_E
            t = cur_big.chars[l - 1].value
            for idx, a in enumerate(small_bc.values):
                out.append(LFactor(f"{tag}L_E(1/2, bc{idx}*Xi{l})", 0.5, qe, a * t))
            for idx, a in enumerate(trunc_bc.values):
                out.append(LFactor(f"{tag}L_E(1, bc{idx}*Xi{l})^-1", 1.0, qe, a * t, True))
            chi_alpha = ((-1) ** k) * t
            out.append(LFactor(f"{tag}L_F(1, chi^{k}*Xi{l})^-1", 1.0, field.q_F, chi_alpha,
                               True, convention_sensitive=True))
        else:
            q = field.q_F
            mu_l, nu_l = cur_big.theta(l), cur_big.phi(l)
            for idx, a in enumerate(small_bc.values):
                out.append(LFactor(f"{tag}L_F(1/2, bc{idx}*mu{l})", 0.5, q, a * mu_l))
            for idx, a in enumerate(small_bc.dual_values):
                out.append(LFactor(f"{tag}L_F(1/2, bc{idx}^-1*nu{l})", 0.5, q, a * nu_l))
            # conjugate pairing: first components meet nu, duals meet mu
            for idx, a in enumerate(trunc_bc.values):
                out.append(LFactor(f"{tag}L_F(1, bc{idx}*nu{l})^-1", 1.0, q, a * nu_l, True))
            for idx, a in enumerate(trunc_bc.dual_values):
                out.append(LFactor(f"{tag}L_F(1, bc{idx}^-1*mu{l})^-1", 1.0, q, a * mu_l, True))
            out.append(LFactor(f"{tag}L_F(1, chi^{k}*mu{l}*nu{l})^-1", 1.0, q, mu_l * nu_l,
                               True, convention_sensitive=True))
        cur_big, cur_small, small_bc = cur_small, trunc, trunc_bc
    if field.is_split:
        out.extend(_base_split_factors(cur_big.theta(1), cur_big.phi(1),
                                       cur_small.chars[0].value, field.q_F, prefix="base: "))
    # inert base case contributes exactly 1
    return out

