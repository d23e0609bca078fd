"""The step kernel's CSV formatter ``repr_rows``, compiled and in its Python
twin, against Python's repr."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochlyap import integrator

GUARD = 64  # bytes past the formatter's bound of 25 a value, left untouched

pytestmark = pytest.mark.usefixtures("kernel")


def repr_rows(values, cols=1, first=0, dt=0.0):
    """values, cols to a row, as the kernel formats them; where dt is not 0,
    each row i led by (first + i) * dt."""
    v = np.ascontiguousarray(np.asarray(values, dtype=float).reshape(-1, cols))
    bound = 25 * v.shape[0] * (cols + (dt != 0))
    text = np.full(bound + GUARD, 0xFF, np.uint8)
    size = integrator._kernel().repr_rows(v, v.shape[0], cols, first, dt, text)
    assert size <= bound and (text[size:] == 0xFF).all()
    return text[:size].tobytes().decode("ascii")


def mismatch(values, cols=1, first=0, dt=0.0):
    """The first row that repr_rows writes other than ",".join(map(repr, row)),
    row led by (first + i) * dt where dt is not 0, as (index, written, repr),
    or None; the text ends with a newline."""
    rows = np.asarray(values, dtype=float).reshape(-1, cols)
    got = repr_rows(rows, cols, first, dt).split("\n")
    want = [",".join(map(repr, [(first + i) * dt] * (dt != 0) + row))
            for i, row in enumerate(rows.tolist())] + [""]
    pairs = enumerate(itertools.zip_longest(got, want))
    return next(((i, g, w) for i, (g, w) in pairs if g != w), None)


def edge_values():
    """Zeros, both sides of the layout switches at 1e-4 and 1e16, the
    extremes, every power of two, the powers of ten and the special values."""
    nan, inf = math.nan, math.inf
    values = [0.0, -0.0, 9999999999999998.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308, inf, -inf, nan,
              math.copysign(nan, -1), 0.1, 0.3, 1 / 3, 123.0, 1e22, 1e23]
    for edge in (1e-4, 1e16):
        values += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, inf)]
    values += [2.0**k for k in range(-1074, 1024)]
    values += [float(f"1e{k}") for k in range(-324, 309)]
    return values + [-v for v in values]


def test_edge_values():
    assert mismatch(edge_values()) is None


def test_negative_nan_is_nan():
    assert repr_rows([math.copysign(math.nan, -1.0)]) == "nan\n"


def test_random_bit_patterns():
    # every exponent and mantissa pattern, NaN payloads of either sign included
    bits = np.random.default_rng(20180618).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert mismatch(bits.view(np.float64)) is None


# Every double with 1e-4 <= |x| < 1e16 takes the formatter's exact integer path,
# and every other one std::to_chars; the tests below cover the integer path.


def test_random_bit_patterns_of_the_positional_range():
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    rng = np.random.default_rng(20260417)
    values = rng.integers(lo, hi, 200_000).view(np.float64)
    assert mismatch(values * rng.choice([-1.0, 1.0], values.size)) is None


def test_powers_of_two_and_their_neighbours():
    # at m = 2^52 the rounding interval is narrower below than above
    values = []
    for k in range(-13, 54):
        values += [math.nextafter(2.0**k, 0.0), 2.0**k, math.nextafter(2.0**k, math.inf)]
    assert mismatch(values + [-v for v in values]) is None


def test_decimals_of_every_length_and_exponent():
    rng = np.random.default_rng(1706)
    values = []
    for exponent in range(-4, 16):
        for digits in range(1, 18):
            for i in rng.integers(10 ** (digits - 1), 10**digits, 40).tolist():
                values.append(float(f"{i}e{exponent - digits + 1}"))
    assert mismatch(values) is None


@pytest.mark.parametrize("dt", [1e-3, 3e-3, 1e-4, 0.05, 1 / 3])
def test_the_time_column_simulate_writes(dt):
    assert mismatch(np.arange(100_000) * dt) is None


# simulate's rows: the t column from the row index, (first + i) * dt, then x, y, z;
# first + i stays below 2^53, where a float holds every integer
@pytest.mark.parametrize("dt", [1e-3, 3e-3, 1e-4, 0.05, 1 / 3])
@pytest.mark.parametrize("first", [0, 1, 99_328, 2**53 - 1025])
@pytest.mark.parametrize("rows", [0, 1023, 1024, 1025])
def test_the_index_column(rows, first, dt):
    states = np.random.default_rng(rows).standard_normal((rows, 3)) * 20.0
    assert mismatch(states, 3, first, dt) is None


def significant_digits(x):
    """The number of digits in repr(x), leading and trailing zeros aside."""
    mantissa = repr(abs(x)).split("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


def test_sixteen_and_seventeen_digits_at_every_decade_edge():
    # the formatter picks 16 or 17 digits without a branch; of the 60 doubles
    # on either side of each power of ten from 1e-4 to 1e16, those with 16
    # or 17 digits (the doubles just below a power need at most 16)
    values = []
    for k in range(-4, 17):
        counts = set()
        for way in (0.0, math.inf):
            x, side = float(f"1e{k}"), []
            for _ in range(60):
                x = math.nextafter(x, way)
                if significant_digits(x) in (16, 17):
                    side.append(x)
                    counts.add(significant_digits(x))
            assert side, (k, way)
            values += side
        assert counts == {16, 17}, k
    assert mismatch(values + [-v for v in values]) is None


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=16))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_property_floats(values):
    assert mismatch(values) is None


@pytest.mark.parametrize("cols", [1, 2, 4, 6, 7])
def test_rows_are_comma_separated_and_newline_terminated(cols):
    rng = np.random.default_rng(cols)
    values = rng.standard_normal((50, cols)) * 10.0 ** rng.integers(-8, 20, (50, cols))
    values[7] = -0.0
    values[11, 0] = math.nan
    assert mismatch(values, cols) is None


def test_no_rows():
    assert repr_rows(np.empty((0, 4)), 4) == ""
