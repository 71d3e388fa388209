"""Command-line front end.

Subcommands run the verification suites over the cartesian product of the
requested places and residue cardinalities and stream one report per
combination to stdout (JSON lines by default); `table` writes the per-sample
rows of the identity check as CSV, one block of rows per combination.  Exit
status: 0 all checks passed, 1 verification failure (reports still emitted),
2 usage error.

Output is deterministic for a fixed command line: per-sample randomness is
derived from (seed, sample index), floats are rendered at a fixed precision
with sorted keys, and the optional worker pool (--threads N, `table` included)
maps only the draws of each sample's random inputs; every subcommand then
judges its samples in index order in the calling thread.  Samples are drawn
in the calling thread by default: the per-sample work holds the GIL, so a
thread pool makes runs slower, not faster.  A draw reads the place's kind but
never q, so run() draws each place's samples once and shares them with every
--q of the command (identity.shared_draws); nothing drawn outlives run().

The argument parser is built once, when the module is imported, and every
main() call parses with it: building it costs about 15 parses, so in-process
callers that run many commands pay for it once.  Nothing may mutate it after
it is built.  Help and error messages read the terminal width when they are
printed, not when the parser is built.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

# sample_pair is unused here, but bench/test_bench.py traces cli.sample_pair
from .identity import (SamplerExhausted, VerificationReport, identity_table,
                       sample_pair, shared_draws, verify_basecase, verify_localcalc,
                       verify_recursion, verify_weyl_constancy, worst_err)
from .numfield import FieldData, PlaceKind, inert_place, split_place
from .paramcalc import verify_appendix
from .weylsum import MAX_WEYL_RANK, SizeError, case_ranks

USAGE_ERROR = 2
JSON_DIGITS = 17
TABLE_DIGITS = 15


class UsageError(Exception):
    pass


class Check(NamedTuple):
    # weyl/appendix run at inert places only, basecase at split places only; the
    # default --place both narrows silently, an explicit wrong place is an error
    place: PlaceKind | None
    tol: float                  # default --tol
    # (config, field, **driver keywords) -> report, or for table the identity's
    # rows.  A call names its driver, so a rebound module name is honoured.
    call: Callable


CHECKS = {
    "identity": Check(None, 1e-7, lambda c, f, **kw: verify_localcalc(c.n, f, **kw)),
    "weyl": Check(PlaceKind.INERT, 1e-6, lambda c, f, **kw: verify_weyl_constancy(c.n, f, **kw)),
    "recursion": Check(None, 1e-9, lambda c, f, **kw: verify_recursion(c.n, f, **kw)),
    "basecase": Check(PlaceKind.SPLIT, 1e-8,
                      lambda c, f, **kw: verify_basecase(f, terms=c.terms, **kw)),
    "appendix": Check(PlaceKind.INERT, 1e-9, lambda c, f, **kw: verify_appendix(f, **kw)),
    "table": Check(None, 1e-7, lambda c, f, tol, **kw: identity_table(c.n, f, **kw)),
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: everything a run needs, reproducible from the
    command line alone (no config files or environment variables)."""

    command: str
    n: int
    place: str                  # inert | split | both
    q: tuple[int, ...]
    samples: int
    seed: int
    tol: float
    format: str                 # json | csv | text
    threads: int = 1
    terms: int = 200
    force_large: bool = False

    def __post_init__(self):
        if self.command not in CHECKS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.samples < 1:
            raise UsageError("--samples must be >= 1")
        if not self.tol > 0:  # nan included
            raise UsageError("--tol must be positive")
        if math.isinf(self.tol):  # every finite error would pass
            raise UsageError("--tol must be positive and finite")
        if self.seed < 0:
            raise UsageError("--seed must be nonnegative")
        if self.terms < 1:
            raise UsageError("--terms must be >= 1")
        if self.threads < 1:
            raise UsageError("--threads must be >= 1")
        if not self.q:
            raise UsageError("need at least one --q")
        for q in self.q:
            if q < 2:
                raise UsageError(f"--q must be >= 2, got {q}")
        if self.n < 0:
            raise UsageError("--n must be nonnegative")
        if self.command == "identity" and not self.force_large:
            if not 1 <= self.n <= 3:
                raise UsageError(f"--n {self.n} outside the guarded range 1..3 "
                                 "(use --force-large to override)")
        if self.command == "weyl" or (self.command in ("identity", "table")
                                      and self.place != "split"):
            # only inert places run the Weyl sum; its largest layer of states,
            # its real cost, grows with the small group's rank, which is bounded
            rank = case_ranks(self.n + 1)[1]
            if rank > MAX_WEYL_RANK:
                raise UsageError(f"--n {self.n} needs a Weyl group of rank {rank}, "
                                 f"over the limit of {MAX_WEYL_RANK}")

    def places(self) -> list[PlaceKind]:
        requested = {"inert": [PlaceKind.INERT], "split": [PlaceKind.SPLIT],
                     "both": [PlaceKind.INERT, PlaceKind.SPLIT]}[self.place]
        forced = CHECKS[self.command].place
        if forced is None:
            return requested
        if forced not in requested:
            raise UsageError(f"the {self.command} check runs at {forced.value} places")
        return [forced]

    def fields(self) -> list[FieldData]:
        return [inert_place(q) if kind is PlaceKind.INERT else split_place(q)
                for kind in self.places() for q in self.q]


def config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", 0),
        place=args.place,
        q=tuple(args.q) if args.q else (2,),
        samples=args.samples,
        seed=args.seed,
        tol=args.tol if args.tol is not None else CHECKS[args.command].tol,
        format=getattr(args, "format", "csv"),
        threads=args.threads,
        terms=getattr(args, "terms", 200),
        force_large=getattr(args, "force_large", False),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Numerical verification of unramified local period identities "
                    "for U(n+1) x U(n+2) pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_n: bool = True, with_format: bool = True):
        if with_n:
            p.add_argument("--n", type=int, default=1,
                           help="pair index: the groups are U(n+1) and U(n+2)")
        p.add_argument("--place", choices=["inert", "split", "both"], default="both")
        p.add_argument("--q", type=int, action="append", default=None,
                       help="residue cardinality; repeatable (default: 2)")
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None)
        if with_format:
            p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for drawing the samples "
                            "(default: 1, samples are drawn in the calling thread)")

    p = sub.add_parser("identity", help="end-to-end period identity zeta*S(1) vs Delta*L(1/2)")
    common(p)
    p.add_argument("--force-large", action="store_true",
                   help="allow n outside the guarded range 1..3")
    p = sub.add_parser("weyl", help="double Weyl average constancy and motive value (inert)")
    common(p)
    p = sub.add_parser("recursion", help="inductive zeta route against the closed forms")
    common(p)
    p = sub.add_parser("basecase", help="split base case: series oracle vs closed form")
    common(p, with_n=False)
    p.add_argument("--terms", type=int, default=200)
    p = sub.add_parser("appendix", help="theta-lift L-factor identities (inert)")
    common(p, with_n=False)
    p = sub.add_parser("table", help="per-sample value table for the identity check (CSV)")
    common(p, with_format=False)
    return parser


PARSER = build_parser()


# ---------------------------------------------------------------------------
# deterministic rendering


def format_float(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


def format_complex(z: complex, digits: int) -> str:
    z = complex(z)
    re = format_float(z.real, digits)
    im = format_float(abs(z.imag), digits)
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"


def render_json(obj, digits: int = JSON_DIGITS) -> str:
    if isinstance(obj, dict):
        items = (f'"{k}":{render_json(obj[k], digits)}' for k in sorted(obj))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v, digits) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        # non-finite floats are not JSON numbers; quote them like "nan+0i"
        text = format_float(obj, digits)
        return text if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, complex):
        return f'"{format_complex(obj, digits)}"'
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot render {type(obj)!r}")


def emit_report(report: VerificationReport, fmt: str, out) -> None:
    d = report.to_json_dict()
    if fmt == "json":
        out.write(render_json(d) + "\n")
    elif fmt == "csv":
        diffs = ";".join(
            f"{f['factor']}={format_complex(f['lhs'], TABLE_DIGITS)}|"
            f"{format_complex(f['rhs'], TABLE_DIGITS)}" for f in d["factor_diffs"])
        row = [d["check"], str(d["n"]), d["place"], str(d["q"]), str(d["samples"]),
               str(d["seed"]), format_float(d["tol"], TABLE_DIGITS),
               format_float(d["max_rel_err"], TABLE_DIGITS),
               "true" if d["pass"] else "false", diffs]
        out.write(",".join(_csv_quote(c) for c in row) + "\n")
    else:
        status = "PASS" if d["pass"] else "FAIL"
        out.write(f"{status} {d['check']} n={d['n']} place={d['place']} q={d['q']} "
                  f"samples={d['samples']} seed={d['seed']} "
                  f"max_rel_err={format_float(d['max_rel_err'], 6)} "
                  f"tol={format_float(d['tol'], 6)}\n")
        for f in d["factor_diffs"]:
            out.write(f"  factor {f['factor']}: lhs={format_complex(f['lhs'], 6)} "
                      f"rhs={format_complex(f['rhs'], 6)}\n")


REPORT_CSV_HEADER = "check,n,place,q,samples,seed,tol,max_rel_err,pass,factor_diffs"


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


# ---------------------------------------------------------------------------
# command execution


def _pool_map(threads: int):
    if threads == 1:
        return map, None
    # imported here: with logging and queue it is about 11 ms of every start
    from concurrent.futures import ThreadPoolExecutor
    executor = ThreadPoolExecutor(max_workers=threads)
    return executor.map, executor


def run(config: RunConfig) -> int:
    """Execute the matching verification over the (place, q) product, stream
    its output, and return the exit status."""
    pool_map, executor = _pool_map(config.threads)
    call = CHECKS[config.command].call
    try:
        with shared_draws():  # each place's draws serve every --q
            results = (call(config, field, samples=config.samples, seed=config.seed,
                            tol=config.tol, pool_map=pool_map)
                       for field in config.fields())
            if config.command == "table":
                return emit_table(results, config.tol, sys.stdout)
            reports = list(results)
    finally:
        if executor is not None:
            executor.shutdown()
    out = sys.stdout
    if config.format == "csv":
        out.write(REPORT_CSV_HEADER + "\n")
    for report in reports:
        emit_report(report, config.format, out)
    return 0 if all(r.passed for r in reports) else 1


TABLE_COLUMNS = ["sample_index", "zeta", "s_value", "delta", "lratio_half",
                 "lhs", "rhs", "rel_err"]


def emit_table(tables, tol: float, out) -> int:
    """Write each field's identity rows as CSV once they are computed."""
    errs = []
    out.write(",".join(TABLE_COLUMNS) + "\n")
    for rows in tables:
        for k, row in enumerate(rows):
            errs.append(row[-1])
            cells = [str(k)] + [format_complex(v, TABLE_DIGITS) for v in row[:-1]]
            cells.append(format_float(row[-1], TABLE_DIGITS))
            out.write(",".join(cells) + "\n")
    return 0 if worst_err(errs) <= tol else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
        code = run(config)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); the final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, SizeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except SamplerExhausted as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
