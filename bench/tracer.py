"""Call tracing of the program's public functions, from outside the program.

`Tracer.install` replaces each traced function in every `localperiods` module
that binds it, including the modules that imported it by name, and
`Tracer.uninstall` puts the originals back. Each thread keeps its own span
stack, so self time (a span's duration minus the time its child spans cover)
stays right under the CLI's worker pool. Spans are folded into per-thread
totals in memory; nothing is written until the run ends.

A verify driver's wait on the worker pool is recorded as a wait interval: it
is taken out of the enclosing span's self time but is not a span itself, so
the shares of the traced functions do not count the blocked thread twice.
The per-sample tasks the pool runs are credited to the span that submitted
them: their time outside traced calls is self time of that span (for example
paramcalc.verify_appendix, or cli.main for the drivers that are not traced).
"""
from __future__ import annotations

import functools
import math
import sys
import threading
from time import perf_counter

SPANS = (
    "identity.sample_pair",
    "weylsum.weyl_sum_A",
    "weylsum.s_value_split",
    "zetarec.zeta_closed_factors",
    "zetarec.zeta_recursive_factors",
    "zetarec.zeta_base_split_series",
    "satake.std_tensor_lfactor",
    "satake.std_tensor_lfactor_det",
    "satake.adjoint_lfactor",
    "numfield.euler_factor",
    "identity.match_factor_lists",
    "paramcalc.verify_appendix",
    "cli.main",
)
DRIVERS = ("identity.verify_localcalc", "identity.verify_weyl_constancy",
           "identity.verify_recursion", "identity.verify_basecase",
           "paramcalc.verify_appendix")
WAIT = "identity.verify.wait"
PACKAGE = "localperiods"


def weyl_order(rank: int) -> int:
    """|(Z/2)^l x S_l| = 2^l l!."""
    return 2 ** rank * math.factorial(rank)


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []             # [name, child time] of each open span
        self.totals: dict[str, list] = {}       # name -> [calls, self_s]
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _timed(self, name: str, fn, args, kwargs, calls: int = 1):
        """Call fn inside a span credited to `name`."""
        state = self._state()
        frame = [name, 0.0]
        state.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            state.stack.pop()
            if state.stack:
                state.stack[-1][1] += duration
            total = state.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += duration - frame[1]

    def _current(self) -> str | None:
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def _count(self, key: str, amount: int) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + amount

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _replace(self, qualname: str, make_wrapper) -> None:
        """Rebind `<package>.<qualname>` everywhere it is bound."""
        module_name, attr = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for module in self._modules():
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, binding, original))
                    setattr(module, binding, wrapper)

    def install(self) -> None:
        tracer = self

        def span(name):
            return lambda fn: lambda *args, **kw: tracer._timed(name, fn, args, kw)

        def timed_pool(fn):
            def driver(*args, **kwargs):
                pool_map = kwargs.get("pool_map", map)

                def timed_map(task, items):
                    parent = tracer._current()
                    credited = (lambda item: tracer._timed(parent, task, (item,), {}, calls=0)
                                if parent else task)
                    return tracer._timed(WAIT, lambda: list(pool_map(credited, items)), (), {})

                kwargs["pool_map"] = timed_map
                return fn(*args, **kwargs)
            return driver

        def count_draws(fn):
            def sample_datum(*args, **kwargs):
                tracer._count("sample_datum", 1)
                return fn(*args, **kwargs)
            return sample_datum

        def count_pairs(fn):
            case_ranks = sys.modules[f"{PACKAGE}.weylsum"].case_ranks

            def weyl_sum_A(case, big_chars, small_chars, *args, **kwargs):
                big, small = case_ranks(len(big_chars) + len(small_chars))
                tracer._count("weyl_pairs", weyl_order(big) * weyl_order(small))
                return fn(case, big_chars, small_chars, *args, **kwargs)
            return weyl_sum_A

        for name in DRIVERS:
            self._replace(name, timed_pool)
        self._replace("identity.sample_datum", count_draws)
        self._replace("weylsum.weyl_sum_A", count_pairs)
        for name in SPANS:
            self._replace(name, span(name))

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patches):
            setattr(module, binding, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _totals(self) -> tuple[dict[str, list], dict[str, int]]:
        """(name -> [calls, self_s], counter -> count), summed over threads."""
        totals: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_s) in state.totals.items():
                total = totals.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += self_s
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0) + value
        return totals, counts

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass per-layer metrics as name -> (value, unit)."""
        totals, counts = self._totals()
        span_self = sum(self_s for name, (_, self_s) in totals.items() if name != WAIT)
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
            out[f"{name}.share"] = (self_s / span_self if span_self else 0.0, "ratio")
        pairs = counts.get("weyl_pairs", 0)
        weyl_self = totals.get("weylsum.weyl_sum_A", (0, 0.0))[1]
        out["weylsum.weyl_sum_A.pairs"] = (pairs / passes, "count")
        out["weylsum.weyl_sum_A.pairs_per_s"] = (pairs / weyl_self if weyl_self else 0.0, "1/s")
        pair_calls = totals.get("identity.sample_pair", (0, 0.0))[0]
        draws = counts.get("sample_datum", 0)
        out["identity.sample_pair.draws_per_pair"] = (
            draws / (2 * pair_calls) if pair_calls else 0.0, "ratio")
        out["identity.verify.wait_s"] = (totals.get(WAIT, (0, 0.0))[1] / passes, "s")
        return out
