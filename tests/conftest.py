import cmath

import numpy as np
import pytest

from localperiods import CharValue, inert_place, split_place


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def unit_values(rng, count):
    return [cmath.exp(2j * cmath.pi * t) for t in rng.uniform(0.0, 1.0, size=count)]


def unit_chars(rng, count):
    return [CharValue(v) for v in unit_values(rng, count)]


@pytest.fixture(params=[2, 3], ids=["q2", "q3"])
def q(request):
    return request.param


@pytest.fixture
def inert2():
    return inert_place(2)


@pytest.fixture
def split2():
    return split_place(2)
