"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and sample count is pinned here; nothing is deferred to later
calibration.  The identity and recursion criteria accept either a clean pass or
a failure localized to exactly one named factor (the audit outcome for a closed
form whose transcribed index pairing disagrees with every independent route).
Run with `pytest tests/test_acceptance.py -v -s`.
"""
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from conftest import unit_chars, unit_values
from localperiods import (Case, case_for, case_ranks, factor_product,
                          inert_place, make_datum, motive_A_value, rho_big,
                          split_place, std_tensor_lfactor,
                          std_tensor_lfactor_det, verify_localcalc,
                          verify_recursion, weyl_sum_A, zeta_base_split_closed,
                          zeta_base_split_series, zeta_closed_factors,
                          zeta_recursive_factors)
from localperiods.identity import rel_err, sample_datum, sample_pair, _rng_for
from localperiods.paramcalc import verify_appendix
from localperiods.weylsum import _d0_values, _d1_values
from weylref import (WeylElement, _b_values, act, enumerate_weyl,
                     induce_preservation_defect, rho_monomial, rho_small, special_vectors)

# The one place where a transcribed closed form disagrees with the recursion
# and the end-to-end identity: the odd-case split product pairs nu_i with
# theta_j where every independent route gives nu_i phi_j.  Reports must
# localize exactly this factor; affected combinations are (split, n = 3).
KNOWN_MISMATCHED_FACTOR = "L_F(1/2, nu1*th2)"


def report_line(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))


def timed(budget):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget, f"runtime {self.elapsed:.2f}s exceeds {budget}s"
    return _Timer()


def test_criterion_1_inert_base_case():
    with timed(1.0) as t:
        rng = np.random.default_rng(101)
        field = inert_place(2)
        worst = 0.0
        for _ in range(20):
            (Xi1,) = unit_chars(rng, 1)
            small = make_datum(1, field, [])
            big = make_datum(2, field, [Xi1])
            worst = max(worst, abs(factor_product(zeta_closed_factors(small, big)) - 1.0),
                        abs(factor_product(zeta_recursive_factors(small, big)) - 1.0))
    ok = worst == 0.0
    report_line("criterion 1: inert base case = 1", ok,
                f"max defect {worst:.1e}, {t.elapsed:.2f}s")
    assert ok


def test_criterion_2_split_base_case_series():
    with timed(1.0) as t:
        worst = 0.0
        for q in (2, 3):
            field = split_place(q)
            rng = np.random.default_rng(102)
            for _ in range(20):
                theta, phi, xi0 = unit_values(rng, 3)
                series = zeta_base_split_series(theta, phi, xi0, field, 200)
                closed = zeta_base_split_closed(theta, phi, xi0, field)
                worst = max(worst, rel_err(series, closed))
    ok = worst < 1e-8
    report_line("criterion 2: split base case series vs closed", ok,
                f"max rel err {worst:.1e}, {t.elapsed:.2f}s")
    assert ok


def test_criterion_3_weyl_constancy_and_special_vectors():
    with timed(5.0) as t:
        worst = 0.0
        worst_special = 0.0
        for q in (2, 3):
            field = inert_place(q)
            for n_plus_1 in (2, 3, 4, 5):
                case = case_for(n_plus_1)
                l_big, l_small = case_ranks(n_plus_1)
                expect = motive_A_value(n_plus_1, field)
                for k in range(100):
                    rng = _rng_for(103 + n_plus_1, k)
                    small, big = sample_pair(n_plus_1 - 1, field, rng)
                    a_val = weyl_sum_A(case, [c.inv() for c in big.chars],
                                       [c.inv() for c in small.chars], field)
                    worst = max(worst, rel_err(a_val, expect))
                # special vectors: only the identity pair survives in b.  The
                # special values are integer powers of q, so the vanishing is
                # checked in exact rational arithmetic (float evaluation would
                # drown an identical zero in amplified rounding noise).
                X, x = special_vectors(case, l_big, q)
                for wp in enumerate_weyl(l_big):
                    for w in enumerate_weyl(l_small):
                        if wp.is_identity and w.is_identity:
                            continue
                        bv = _b_values(case, act(wp, X), act(w, x), Fraction(1, q))
                        worst_special = max(worst_special, abs(float(bv)))
    ok = worst < 1e-6 and worst_special < 1e-10
    report_line("criterion 3: Weyl-sum constancy + motive value + special vectors", ok,
                f"max rel dev {worst:.1e}, max |b(non-id)| {worst_special:.1e}, {t.elapsed:.2f}s")
    assert ok


def test_criterion_4_determinant_oracle():
    with timed(1.0) as t:
        worst = 0.0
        for kind, mk in (("inert", inert_place), ("split", split_place)):
            for n in (1, 2, 3):
                field = mk(2)
                for k in range(50):
                    rng = _rng_for(104, 100 * n + k)
                    small = sample_datum(n + 1, field, rng)
                    big = sample_datum(n + 2, field, rng)
                    worst = max(worst, rel_err(std_tensor_lfactor(0.5, small, big),
                                               std_tensor_lfactor_det(0.5, small, big)))
    ok = worst < 1e-10
    report_line("criterion 4: standard tensor vs determinant oracle", ok,
                f"max rel err {worst:.1e}, {t.elapsed:.2f}s")
    assert ok


def test_criterion_5_recursion_consistency():
    with timed(2.0) as t:
        outcomes = []
        for kind, mk in (("inert", inert_place), ("split", split_place)):
            for n in (1, 2, 3, 4):
                report = verify_recursion(n, mk(2), samples=50, seed=105, tol=1e-9)
                localized = (len(report.factor_diffs) == 1
                             and report.factor_diffs[0].factor.startswith(
                                 KNOWN_MISMATCHED_FACTOR))
                outcomes.append((kind, n, report.passed, localized))
    ok = all(passed or localized for _, _, passed, localized in outcomes)
    failing = [(k, n) for k, n, p, _ in outcomes if not p]
    report_line("criterion 5: recursion vs closed forms (or single named factor)", ok,
                f"localized mismatches at {failing}, {t.elapsed:.2f}s")
    assert ok
    # the mismatch is exactly the known display and nowhere else
    assert failing == [("split", 3)]


def test_criterion_6_end_to_end_identity():
    with timed(30.0) as t:
        outcomes = []
        for kind, mk in (("inert", inert_place), ("split", split_place)):
            for q in (2, 3):
                for n in (1, 2, 3):
                    report = verify_localcalc(n, mk(q), samples=50, seed=106, tol=1e-7)
                    localized = (len(report.factor_diffs) == 1
                                 and report.factor_diffs[0].factor.startswith(
                                     KNOWN_MISMATCHED_FACTOR))
                    outcomes.append((kind, q, n, report.passed, localized))
    ok = all(passed or localized for _, _, _, passed, localized in outcomes)
    failing = [(k, q, n) for k, q, n, p, _ in outcomes if not p]
    report_line("criterion 6: zeta*S(1) = Delta*L(1/2)/(Ad*Ad)", ok,
                f"localized typo combos {failing}, {t.elapsed:.2f}s")
    assert ok
    assert failing == [("split", 2, 3), ("split", 3, 3)]


def test_criterion_7_appendix_suite():
    with timed(2.0) as t:
        worst_induce = 0.0
        reports = []
        for q in (2, 3):
            field = inert_place(q)
            reports.append(verify_appendix(field, samples=20, seed=107, tol=1e-9))
            worst_induce = max(worst_induce,
                               induce_preservation_defect(field, samples=20, seed=107))
    ok = all(r.passed for r in reports) and worst_induce < 1e-12
    report_line("criterion 7: theta-lift identities + induction preservation", ok,
                f"max prop err {max(r.max_rel_err for r in reports):.1e}, "
                f"induce defect {worst_induce:.1e}, {t.elapsed:.2f}s")
    assert ok


def test_criterion_8_alternating_sign():
    with timed(1.0) as t:
        worst = 0.0
        rng = np.random.default_rng(108)
        for case in (Case.A, Case.B):
            for l in (1, 2, 3):
                r_big = rho_big(case, l)
                r_small = rho_small(case, l)
                for _ in range(20):
                    X = unit_values(rng, l)
                    base1 = rho_monomial(X, r_big, WeylElement.identity(l)) * _d1_values(case, X)
                    base0 = rho_monomial(X, r_small, WeylElement.identity(l)) * _d0_values(case, X)
                    for w in enumerate_weyl(l):
                        moved = act(w, X)
                        worst = max(worst, abs(rho_monomial(X, r_big, w)
                                               * _d1_values(case, moved) - w.sign * base1))
                        worst = max(worst, abs(rho_monomial(X, r_small, w)
                                               * _d0_values(case, moved) - w.sign * base0))
    ok = worst < 1e-10
    report_line("criterion 8: alternating-sign structure of d1/d0", ok,
                f"max defect {worst:.1e}, {t.elapsed:.2f}s")
    assert ok


CLI_CASES = [
    ["identity", "--n", "1", "--place", "both", "--q", "2", "--samples", "12",
     "--seed", "42", "--format", "json"],
    ["recursion", "--n", "3", "--place", "split", "--q", "2", "--samples", "8",
     "--seed", "9", "--format", "json"],
    ["appendix", "--q", "3", "--samples", "5", "--seed", "3", "--format", "json"],
    ["table", "--n", "2", "--place", "split", "--q", "3", "--samples", "6", "--seed", "1"],
]


def test_criterion_9_cli_determinism():
    ok = True
    for argv in CLI_CASES:
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "localperiods.cli", *argv],
                                  capture_output=True, text=True)
            runs.append(proc.stdout.encode())
        if runs[0] != runs[1]:
            ok = False
    report_line("criterion 9: byte-identical CLI output under a fixed seed", ok)
    assert ok
