"""Expected output of a `verify` command, derived from the mathematics.

No golden file is used: the float digits of `max_rel_err` may change with a
documented change of summation order, so stdout is never compared with an
earlier version of the program. Instead:

* every inert report passes, and so does every split report at n = 1 or even
  n, and every basecase/appendix report: `pass` is true, `factor_diffs` is
  empty and `max_rel_err <= tol`;
* split identity/recursion reports at odd n >= 3 fail, and their factor labels,
  with the ` [vs ...]` suffix stripped, are exactly
  {L_F(1/2, nu<i>*th<j>) : 1 <= i < j <= (n+1)/2}. The value of each such
  factor, and of the L_F(1/2, ...) factor it is compared with, is an Euler
  factor at s = 1/2 with a unitary parameter, so |1 - 1/value| = q^{-1/2};
* `table` rows satisfy lhs = zeta * s_value and rhs = delta * lratio_half, delta
  is the exact motive value prod_{r=1}^{n+2} 1/(1 - chi^r q^{-r}), and its
  split odd-n rows are the only ones above the tolerance;
* the exit code is 1 exactly when some report fails, else 0.

An inert identity/weyl report or table row that misses its tolerance is
accepted only when rounding.py shows that the double Weyl sum missed it by
rounding alone; such reports are listed in `Verdict.rounding`.

A report is one JSON line, or one (place, q) block of a table.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import rounding
from workloads import Command

# The CLI's default tolerances. A report may use a tighter one, never a looser.
DEFAULT_TOL = {"identity": 1e-7, "weyl": 1e-6, "recursion": 1e-9,
               "basecase": 1e-8, "appendix": 1e-9, "table": 1e-7}
REPORT_KEYS = {"check", "n", "place", "q", "samples", "seed", "tol",
               "max_rel_err", "pass", "factor_diffs"}
TABLE_HEADER = "sample_index,zeta,s_value,delta,lratio_half,lhs,rhs,rel_err"
# Relative agreement expected between quantities recomputed from the rendered
# 15-digit table cells.
TABLE_RTOL = 1e-11
EULER_RTOL = 1e-12
# The CLI renders non-finite floats as bare nan/inf, which strict JSON lacks.
_NON_FINITE = re.compile(r"(?<=[:,\[])(-?)(nan|inf)(?=[,\]}])")


@dataclass
class Verdict:
    """Outcome of checking one command's output."""

    reports: int
    problems: list[str] = field(default_factory=list)   # one per wrong report
    pass_errs: list[float] = field(default_factory=list)  # of reports expected to pass
    rounding: list[str] = field(default_factory=list)   # missed tol by rounding alone

    @property
    def failed(self) -> int:
        return len(self.problems)


def expected_failure(check: str, n: int, place: str) -> bool:
    """The documented finding: split identity/recursion/table at odd n >= 3."""
    return (check in ("identity", "recursion", "table") and place == "split"
            and n >= 3 and n % 2 == 1)


def expected_labels(n: int) -> set[str]:
    h = (n + 1) // 2
    return {f"L_F(1/2, nu{i}*th{j})" for i in range(1, h + 1) for j in range(i + 1, h + 1)}


def motive_delta(m: int, place: str, q: int) -> float:
    chi = -1 if place == "inert" else 1
    out = 1.0
    for r in range(1, m + 1):
        out /= 1.0 - chi ** r / q ** r
    return out


def check_output(cmd: Command, stdout: str, exit_code: int | None) -> Verdict:
    blocks = cmd.blocks
    verdict = Verdict(reports=len(blocks))
    if cmd.check == "table":
        _check_table(cmd, stdout, verdict)
    else:
        _check_reports(cmd, stdout, verdict)
    expect_fail = any(expected_failure(cmd.check, cmd.n, place) for place, _ in blocks)
    want_code = 1 if expect_fail or verdict.rounding else 0
    if exit_code != want_code:
        verdict.problems = [f"exit code {exit_code}, expected {want_code}"] * len(blocks)
    return verdict


def parse_report(line: str) -> dict:
    return json.loads(_NON_FINITE.sub(
        lambda m: m.group(1) + ("NaN" if m.group(2) == "nan" else "Infinity"), line))


def _check_reports(cmd: Command, stdout: str, verdict: Verdict) -> None:
    lines = stdout.splitlines()
    if len(lines) != len(cmd.blocks):
        verdict.problems = [f"{len(lines)} report lines, expected {len(cmd.blocks)}"] * verdict.reports
        return
    for line, (place, q) in zip(lines, cmd.blocks):
        try:
            problem = _check_report(cmd, parse_report(line), place, q, verdict)
        except (ValueError, TypeError, KeyError, AttributeError, ArithmeticError) as err:
            problem = f"malformed report {line!r}: {err}"
        if problem:
            verdict.problems.append(f"{cmd.check} n={cmd.n} {place} q={q}: {problem}")


def _check_report(cmd: Command, rep: dict, place: str, q: int, verdict: Verdict) -> str | None:
    if set(rep) != REPORT_KEYS:
        return f"keys {sorted(rep)}"
    echo = {"check": cmd.check, "n": cmd.n, "place": place, "q": q,
            "samples": cmd.samples, "seed": cmd.seed}
    for key, want in echo.items():
        if rep[key] != want:
            return f"{key}={rep[key]!r}, expected {want!r}"
    tol, err = float(rep["tol"]), float(rep["max_rel_err"])
    if not 0 < tol <= DEFAULT_TOL[cmd.check]:
        return f"tol {tol} looser than the default {DEFAULT_TOL[cmd.check]}"
    if not expected_failure(cmd.check, cmd.n, place):
        passed = rep["pass"] is True and not rep["factor_diffs"] and 0 <= err <= tol
        if not passed and not (rep["pass"] is False and rep["factor_diffs"] and err > tol
                               and _by_rounding(cmd, place, q, tol, err, verdict)):
            return f"expected a pass, got pass={rep['pass']} max_rel_err={err}"
        verdict.pass_errs.append(err)
        return None
    if rep["pass"] is not False or not err > tol:
        return f"expected the odd-n failure, got pass={rep['pass']} max_rel_err={err}"
    labels = set()
    for diff in rep["factor_diffs"]:
        label = diff["factor"].split(" [vs ")[0]
        labels.add(label)
        values = [diff["lhs"]]
        if "[vs " in diff["factor"] and "L_F(1/2," in diff["factor"].split(" [vs ")[1]:
            values.append(diff["rhs"])
        for value in values:
            gap = abs(1 - 1 / parse_complex(value))
            if not math.isclose(gap, q ** -0.5, rel_tol=EULER_RTOL):
                return f"{diff['factor']} = {value} is not an Euler factor at s=1/2"
    if labels != expected_labels(cmd.n):
        return f"localized to {sorted(labels)}, expected {sorted(expected_labels(cmd.n))}"
    return None


def _by_rounding(cmd: Command, place: str, q: int, tol: float, err: float,
                 verdict: Verdict, row: int | None = None) -> bool:
    if place != "inert" or cmd.check not in ("identity", "weyl", "table"):
        return False
    why = rounding.explain(cmd.n, q, cmd.seed, cmd.samples, tol, err, only=row)
    if why:
        where = "" if row is None else f" row {row}"
        verdict.rounding.append(f"{' '.join(cmd.argv)}: q={q}{where}: {why}")
    return why is not None


def _check_table(cmd: Command, stdout: str, verdict: Verdict) -> None:
    lines = stdout.splitlines()
    want_rows = 1 + cmd.samples * len(cmd.blocks)
    if not lines or lines[0] != TABLE_HEADER or len(lines) != want_rows:
        verdict.problems = [f"table has {len(lines)} lines, expected {want_rows} "
                            "under the header"] * verdict.reports
        return
    tol = DEFAULT_TOL["table"]
    for b, (place, q) in enumerate(cmd.blocks):
        rows = lines[1 + b * cmd.samples: 1 + (b + 1) * cmd.samples]
        try:
            errs = [_check_row(row, k, cmd.n, place, q) for k, row in enumerate(rows)]
        except ValueError as err:
            verdict.problems.append(f"table n={cmd.n} {place} q={q}: {err}")
            continue
        if expected_failure("table", cmd.n, place):
            if not max(errs) > tol:
                verdict.problems.append(f"table n={cmd.n} {place} q={q}: no row above tol")
        elif all(err <= tol or _by_rounding(cmd, place, q, tol, err, verdict, row=k)
                 for k, err in enumerate(errs)):
            verdict.pass_errs.append(max(errs))
        else:
            verdict.problems.append(f"table n={cmd.n} {place} q={q}: rel_err {max(errs)} > {tol}")


def _check_row(row: str, k: int, n: int, place: str, q: int) -> float:
    cells = row.split(",")
    if len(cells) != 8 or cells[0] != str(k):
        raise ValueError(f"row {k} malformed: {row!r}")
    zeta, s_val, delta, lr, lhs, rhs = (parse_complex(c) for c in cells[1:7])
    err = float(cells[7])
    if not _close(lhs, zeta * s_val) or not _close(rhs, delta * lr):
        raise ValueError(f"row {k}: lhs/rhs are not the products of their columns")
    if not _close(delta, motive_delta(n + 2, place, q)):
        raise ValueError(f"row {k}: delta {delta} is not the motive value")
    recomputed = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    if abs(recomputed - err) > 1e-13 + 1e-6 * err:
        raise ValueError(f"row {k}: rel_err {err} does not match lhs/rhs ({recomputed})")
    return err


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= TABLE_RTOL * max(abs(a), abs(b))


def parse_complex(text: str) -> complex:
    """Parse the CLI's `re+imi` rendering."""
    if not text.endswith("i"):
        raise ValueError(f"not a rendered complex number: {text!r}")
    return complex(text[:-1] + "j")
