"""floattext.csv_lines against Python's own text: str for the ints, repr for every float."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssbelab.floattext import csv_lines


def _reference(index, block) -> bytes:
    return "".join(
        str(i) + "".join("," + repr(v) for v in row) + "\n"
        for i, row in zip(np.asarray(index).tolist(), np.asarray(block, dtype=np.float64).tolist())
    ).encode()


def _floats_of(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _check(values, width=3):
    """Format ``values`` as rows of ``width`` columns and compare line by line."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width)
    index = np.arange(len(values))
    got, want = csv_lines(index, values), _reference(index, values)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        raise AssertionError(f"{len(bad)} lines differ, first {bad[:3]}")


# Bit patterns by class: +-0, subnormals, normals, +-inf and NaNs with any payload.
_SIGN = st.sampled_from([0, 1 << 63])
_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(int.__or__, _SIGN, st.integers(0, 2**52 - 1)),  # zero or subnormal
    st.builds(int.__or__, _SIGN, st.just(0x7FF << 52)),  # inf
    st.builds(lambda s, m: s | 0x7FF << 52 | m, _SIGN, st.integers(1, 2**52 - 1)),  # nan
    st.builds(lambda s, e, m: s | e << 52 | m, _SIGN, st.integers(1, 2046), st.integers(0, 2**52 - 1)),
    st.builds(lambda s, e: s | e << 52, _SIGN, st.integers(1, 2046)),  # powers of two
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_PATTERNS, min_size=1, max_size=40), st.integers(1, 5))
def test_every_bit_pattern_reads_as_its_repr(bits, width):
    _check(_floats_of(bits), width)


def test_a_million_random_bit_patterns_read_as_their_repr():
    rng = np.random.default_rng(20240601)
    for _ in range(16):
        _check(_floats_of(rng.integers(0, 2**64, 2**16, dtype=np.uint64)))


def test_decimal_shaped_values_read_as_their_repr():
    # Values a path or a summary holds: short decimals, integers, near-ties and
    # both notations, each near the decimal point's every position.
    rng = np.random.default_rng(7)
    n = 2**15
    mantissa = rng.integers(1, 10**rng.integers(1, 18, n), dtype=np.int64).astype(np.float64)
    _check(mantissa * 10.0 ** rng.integers(-25, 25, n))
    scaled = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n)).tolist()
    _check([round(v, d) for v, d in zip(scaled, rng.integers(0, 12, n).tolist())])
    _check(rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n))
    _check(np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1022, 1024, n)))
    near = 10.0 ** rng.integers(-300, 300, n)
    _check(np.nextafter(near, np.where(rng.random(n) < 0.5, 0.0, np.inf)))


_EDGES = [
    2.0**e for e in range(-1074, 1024)
] + [
    1e-4, 1e-5, 0.0001234, 0.00001234, 9999999999999998.0, 1e16, 1e15, 1e17, 1e22, 1e23,
    5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
    0.1, 0.2, 0.3, 1 / 3, 2 / 3, math.pi, math.e, 1.5, 0.5, 100.0, 123.0, 1234567.0,
    4503599627370496.0, 9007199254740992.0, 9007199254740993.0, 123456789012345678.0,
    1234567890123456.7, 0.000123456789012345678, 12345678901234567890.0,
    0.0, float("inf"), float("nan"),
]


def test_edge_values_read_as_their_repr():
    _check(_EDGES + [-v for v in _EDGES], width=1)
    _check(_EDGES + [-v for v in _EDGES], width=7)
    # NaNs with the sign bit and a payload still read "nan".
    _check(_floats_of([0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]))


@pytest.mark.parametrize("ints", [
    [0], [7], [9, 10, 11], [99999999, 100000000], [10**15, 10**16 - 1, 10**16],
    [2**63 - 1, 0, 5], list(range(0, 2000, 3)),
])
def test_the_int_column_reads_as_str(ints):
    block = np.full((len(ints), 2), 0.25)
    assert csv_lines(ints, block) == _reference(ints, block)
    assert csv_lines(ints, np.empty((len(ints), 0))) == "".join(f"{i}\n" for i in ints).encode()


def test_empty_input_and_bad_columns():
    assert csv_lines([], np.empty((0, 3))) == b""
    assert csv_lines(np.arange(0), np.empty((0, 0))) == b""
    with pytest.raises(ValueError, match="non-negative"):
        csv_lines([-1, 2], np.zeros((2, 1)))
    with pytest.raises(ValueError, match="index column"):
        csv_lines([1, 2, 3], np.zeros((2, 1)))


def test_a_strided_block_and_float_ints_are_read_as_values():
    block = np.arange(24, dtype=np.float64).reshape(6, 4)[:, ::2] / 7.0
    assert csv_lines(np.arange(6), block) == _reference(np.arange(6), block)
    assert csv_lines([3], [[1]]) == b"3,1.0\n"
