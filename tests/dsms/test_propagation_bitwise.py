"""The plain-Python bound rules are bit for bit the numpy formulas they replaced.

``aggregate_bound`` used to validate with ``np.asarray`` / ``np.any`` and
reduce with ``np.sum`` / ``np.max``.  The rules an answer uses now run over
the member list in Python; these tests pin them to those numpy formulas,
written out below, on every numpy the package supports:

* sum and mean are bit-identical for every non-negative list (numpy's
  pairwise summation, copied operation for operation);
* min, max, median and quantiles are bit-identical whenever the maximum is
  non-zero (with a zero maximum, which of +0.0 and −0.0 ``np.max`` returns
  is implementation-defined);
* every input the numpy version refused still raises ``QueryError``, and
  NaN — which the numpy version let through as a NaN answer bound — does
  too.
"""

from __future__ import annotations

import math
import struct
import warnings
from types import GeneratorType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsms.precision_propagation import aggregate_bound
from repro.errors import QueryError

SUMS = ("sum", "mean", "avg")
EXTREMES = ("min", "max", "median", "q0", "q0.5", "q0.95", "q1")
RULES = SUMS + EXTREMES + ("count",)


def numpy_rule(name: str, bounds) -> float:
    """The bound rules as they were, on numpy."""
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise QueryError("bounds must be a non-empty 1-D list")
    if np.any(arr < 0):
        raise QueryError("bounds must be non-negative")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow to inf
        if name in ("mean", "avg"):
            return float(np.sum(arr) / arr.size)
        if name == "sum":
            return float(np.sum(arr))
        if name == "count":
            return 0.0
        return float(np.max(arr))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


SUBNORMAL_MAX = 2.2250738585072014e-308 * (1 - 2**-52)
SALT = (0.0, -0.0, 5e-324, 1e-310, SUBNORMAL_MAX, 2.2250738585072014e-308,
        0.1, 0.5, 1.0, 1e16, 1e300, 1.7976931348623157e308, math.inf)

element = st.one_of(
    st.floats(0.0, 1e6),
    st.floats(0.0, SUBNORMAL_MAX),
    st.floats(0.0, allow_infinity=False),
    st.sampled_from(SALT),
)
runs = st.builds(lambda x, n: [x] * n, element, st.integers(1, 300))
bound_lists = st.one_of(
    st.lists(element, min_size=1, max_size=300),
    runs,
    st.lists(runs, min_size=1, max_size=6).map(lambda rs: [x for r in rs for x in r][:300]),
)


@settings(max_examples=400, deadline=None)
@given(bounds=bound_lists)
def test_sums_are_bitwise_numpys(bounds):
    for name in SUMS:
        assert bits(aggregate_bound(name, bounds, bounds)) == bits(numpy_rule(name, bounds))


@settings(max_examples=400, deadline=None)
@given(bounds=bound_lists)
def test_extremes_are_bitwise_numpys_unless_the_maximum_is_zero(bounds):
    for name in EXTREMES:
        got = aggregate_bound(name, bounds, bounds)
        want = numpy_rule(name, bounds)
        assert got == want
        if want != 0.0:
            assert bits(got) == bits(want)
    assert bits(aggregate_bound("count", bounds, bounds)) == bits(0.0)


@pytest.mark.parametrize(
    "n", [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257, 300, 1000, 5000]
)
def test_every_pairwise_block_boundary(n):
    rng = np.random.default_rng(n)
    bounds = (rng.random(n) * 10.0 ** rng.integers(-20, 20, n)).tolist()
    for name in RULES:
        assert bits(aggregate_bound(name, bounds, bounds)) == bits(numpy_rule(name, bounds))


def test_an_all_negative_zero_window_sums_to_positive_zero():
    for name in SUMS:
        assert bits(aggregate_bound(name, [-0.0] * 9, [0.0] * 9)) == bits(0.0)
        assert bits(numpy_rule(name, [-0.0] * 9)) == bits(0.0)


@pytest.mark.parametrize(
    "bounds",
    [
        [1, 2, 3],
        [True, 0.25],
        np.array([0.1, 0.2, 0.3]),
        [np.float32(0.1), np.float64(0.7)],
        (0.5, 0.25),
    ],
    ids=["ints", "bool", "ndarray", "numpy-scalars", "tuple"],
)
def test_numbers_numpy_coerced_still_coerce(bounds):
    for name in RULES:
        assert bits(aggregate_bound(name, bounds, bounds)) == bits(numpy_rule(name, bounds))


REFUSED = [
    [],
    [-1e-300],
    [0.5, -0.0, -1.0],
    [-math.inf],
    [[0.5]],
    [[0.5], [0.25]],
    np.zeros((2, 2)),
    np.float64(0.5),
    0.5,
    [0.5, "x"],
    ["abc"],
    np.array(0.5),
    {0.5, 0.25},
    frozenset({0.5, 0.25}),
    (b for b in [0.5, 0.25]),
]


def refused_id(bounds) -> str:
    """``repr``, except for a generator, whose repr holds its address."""
    return "generator" if isinstance(bounds, GeneratorType) else repr(bounds)


@pytest.mark.parametrize("bounds", REFUSED, ids=refused_id)
@pytest.mark.parametrize("name", RULES + ("var",))
def test_what_numpy_refused_is_a_query_error(name, bounds):
    with pytest.raises(Exception):
        numpy_rule(name, bounds)
    with pytest.raises(QueryError):
        aggregate_bound(name, bounds, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("bounds", [[math.nan], [0.5, None]], ids=repr)
def test_what_numpy_read_as_nan_is_now_refused(bounds):
    assert math.isnan(numpy_rule("sum", bounds))  # a NaN answer bound, once
    for name in RULES + ("var",):
        with pytest.raises(QueryError):
            aggregate_bound(name, bounds, [0.0] * len(bounds))


@settings(max_examples=100, deadline=None)
@given(bounds=bound_lists, data=st.data())
def test_nan_is_refused(bounds, data):
    at = data.draw(st.integers(0, len(bounds)))
    poisoned = bounds[:at] + [math.nan] + bounds[at:]
    for name in RULES + ("var",):
        with pytest.raises(QueryError):
            aggregate_bound(name, poisoned, [0.0] * len(poisoned))
