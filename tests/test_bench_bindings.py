"""The benchmark under bench/ drives the program through names it looks up:
its workloads' command lines, the functions its tracer rebinds, the
pool_map keyword the tracer injects into the drivers, and what its rounding
oracle reads of sampled data.  These tests import bench/workloads.py and
bench/tracer.py, and run one small sample through those reads, so a change to
src/ that would break a benchmark run or its trace fails here first."""
import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np
import pytest

import localperiods as lp
import localperiods.cli as cli
import localperiods.identity as identity

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, tracer = load_bench("workloads"), load_bench("tracer")


def resolve(qualname):
    module, attr = qualname.rsplit(".", 1)
    return getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), attr)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_command_parses(workload):
    for command in workloads.WORKLOADS[workload](0):
        config = cli.config_from_args(cli.PARSER.parse_args(list(command.argv)))
        assert config.command == command.check and config.seed == command.seed


def test_every_traced_name_resolves():
    for qualname in tracer.SPANS + tracer.DRIVERS + ("identity.sample_datum",):
        assert callable(resolve(qualname)), qualname


def test_drivers_take_pool_map_by_keyword():
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for fn in [resolve(name) for name in tracer.DRIVERS] + [identity.identity_table]:
        assert inspect.signature(fn).parameters["pool_map"].kind in keyword, fn.__name__


def test_sample_chars_answer_the_rounding_oracles_reads():
    # bench/rounding.py inverts each character of sample_pair's data with
    # .inv(), reads .inv().value, and hands the inverted characters to
    # weyl_sum_A, all through the package's top-level names
    n, field = 3, lp.inert_place(2)
    small, big = lp.sample_pair(n, field, np.random.default_rng([0, 0]))
    for c in small.chars + big.chars:
        assert c.inv().value == 1 / c.value
    value = lp.weyl_sum_A(lp.case_for(n + 1), [c.inv() for c in big.chars],
                          [c.inv() for c in small.chars], field)
    assert abs(value - lp.motive_A_value(n + 1, field)) < 1e-9
