"""Workloads of the localperiods benchmark.

A workload is a fixed list of `verify` command lines, run in one process
through `localperiods.cli.main` with one worker thread (see THREADS). The
workload seed is passed to every command as `--seed` (weyl_heavy passes a
block of seeds derived from it, see WEYL_SEEDS), so the same seed gives the
same inputs and the same stdout.

Why each workload exists, and what a change to each layer should move:

* weyl_heavy: the brute-force double Weyl sum is nearly all of the traced self
  time. `weylsum.weyl_sum_A.*` and `identity.sample_pair.*` should move
  `wall_s` and `cpu_s` here. A change of summation order shows in
  `accuracy_digits` here; orbit tables show in `peak_rss_mb`.
* split_sweep: split places only (recursion at n = 1..8, identity at n = 1..8
  but 5 and 7, see split_identity_qs), so the Weyl sum is never called. The
  prediction for a Weyl-sum or sampler change is "no change". `zetarec.*`,
  `identity.match_factor_lists` (it fires on the split odd-n finding),
  `weylsum.s_value_split`, `satake.*` and `numfield.euler_factor` should move
  `wall_s` here, with some effect on small_suite.
* small_suite: all six subcommands at the guarded n = 1..3, both places (split
  identity at n = 3 at q = 3 only, see split_identity_qs): many small calls. A Weyl-sum change that adds fixed per-call cost shows up as a
  loss here. `paramcalc.verify_appendix`, `zetarec.zeta_base_split_series` and
  `cli.main` (argument parsing, driver loops, rendering) should move `wall_s`
  on this workload only.

`identity.verify.wait_s`, the time a verify driver is blocked on the
per-sample worker pool, is close to 0 while THREADS is 1; with a pool it
should move `wall_s` against `cpu_s` on every workload.
"""
from __future__ import annotations

from dataclasses import dataclass

QS = (2, 3)
# Every command runs with --threads 1. The CLI's default is a pool of
# os.cpu_count() threads, but the per-sample work is pure Python under the GIL.
# On a 2-CPU host, in alternating passes of weyl_heavy, the pool took 5.0-6.3 s
# against 4.0-4.8 s for one thread; and on a shared host its GIL hand-offs wait
# for the scheduler, which spread wall_s between runs by 23-36% against 6-9%
# for cpu_s.
THREADS = 1

# Places a subcommand reports on; weyl/appendix run at inert places only and
# basecase at split places only, whatever --place asks for.
_PLACES = {"inert": ("inert",), "split": ("split",), "both": ("inert", "split")}
_ONLY_AT = {"weyl": ("inert",), "appendix": ("inert",), "basecase": ("split",)}


@dataclass(frozen=True)
class Command:
    """One `verify` invocation and what its output must cover."""

    check: str
    n: int                      # 0 for basecase/appendix, which take no --n
    places: tuple[str, ...]     # in report order
    qs: tuple[int, ...]
    samples: int
    seed: int
    argv: tuple[str, ...]

    @property
    def blocks(self) -> list[tuple[str, int]]:
        """The (place, q) pairs the output reports on, in order."""
        return [(place, q) for place in self.places for q in self.qs]


def command(check: str, seed: int, samples: int, n: int | None = None,
            place: str = "both", qs: tuple[int, ...] = QS) -> Command:
    argv = [check]
    if n is not None:
        argv += ["--n", str(n)]
        if check == "identity" and not 1 <= n <= 3:
            argv.append("--force-large")
    argv += ["--place", place]
    for q in qs:
        argv += ["--q", str(q)]
    argv += ["--samples", str(samples), "--seed", str(seed), "--threads", str(THREADS)]
    return Command(check, 0 if n is None else n, _ONLY_AT.get(check, _PLACES[place]),
                   qs, samples, seed, tuple(argv))


# The Weyl-sum error of a sample depends strongly on how close its orbit comes
# to the d1/d0 vanishing locus, so weyl_heavy checks many small, independent
# reports: the weyl command runs at WEYL_SEEDS consecutive CLI seeds, from
# seed * WEYL_SEEDS on, one q each (q = 2 and q = 3 at one seed share the
# sampled angles, and so their error).
WEYL_SEEDS = 48


def weyl_heavy(seed: int) -> list[Command]:
    first = seed * WEYL_SEEDS
    return [command("identity", first, 4, n=6, place="inert")] + [
        command("weyl", first + r, 2, n=5, place="inert", qs=(QS[r % 2],))
        for r in range(WEYL_SEEDS)]


# Split identity at odd n >= 3 fails by design, and its failure localizer then
# calls satake.std_tensor_lfactor_det. That function's absolute POLE_EPS guard
# raises PoleError when the product of its 2(n+1)(n+2) Euler factors is small
# but not zero, which aborts the whole command. Sampled rates per sample: 5e-5
# at n=3, q=2, but 1.5e-6 at q=3; 1.3e-3 at n=5 and 6.2e-3 at n=7 (q=2).
# Example: `verify identity --n 7 --force-large --place split --q 2 --samples 10
# --seed 158315492`. So the workloads run that check at n=3, q=3 only;
# recursion, which never calls the determinant, runs at every n and q.
def split_identity_qs(n: int) -> tuple[int, ...]:
    """The q values at which a workload runs split identity at n."""
    if n < 3 or n % 2 == 0:
        return QS
    return (3,) if n == 3 else ()


def split_sweep(seed: int) -> list[Command]:
    return [command(check, seed, 10, n=n, place="split", qs=qs)
            for n in range(1, 9)
            for check, qs in (("identity", split_identity_qs(n)), ("recursion", QS)) if qs]


def small_suite(seed: int) -> list[Command]:
    cmds = [command("identity", seed, 10, n=n) for n in (1, 2)]
    cmds += [command("identity", seed, 10, n=3, place="inert"),
             command("identity", seed, 10, n=3, place="split", qs=split_identity_qs(3))]
    cmds += [command(check, seed, 10, n=n)
             for check in ("recursion", "table", "weyl") for n in (1, 2, 3)]
    return cmds + [command("basecase", seed, 10), command("appendix", seed, 10)]


WORKLOADS = {"weyl_heavy": weyl_heavy, "split_sweep": split_sweep,
             "small_suite": small_suite}
