"""floatrows.float_rows against its specification, the per-value repr join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fond import floatrows


def repr_rows(prefixes, values) -> bytes:
    return "".join(p + ",".join(map(repr, row.tolist())) + "\n"
                   for p, row in zip(prefixes, values)).encode()


def written(prefixes, values) -> bytes:
    return b"".join(floatrows.float_rows(prefixes, values))


def assert_rows_match(values, prefixes=None):
    values = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    if prefixes is None:
        prefixes = [f"{i},{i % 7},shared," for i in range(len(values))]
    got, want = written(prefixes, values), repr_rows(prefixes, values)
    if got != want:   # name the first value that differs
        for row, (g, w) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
            assert g == w, f"row {row}: {values[row].tolist()}"
    assert got == want


def general_case(values) -> np.ndarray:
    """Where Ryu's general case applies, for values in the fast range."""
    bits = np.abs(np.asarray(values, dtype=np.float64)).view(np.uint64)
    return floatrows._shortest(bits)[2]


# Every path: zero and signed zero, integers and short dyadic values (the
# general case), the edges of the fast range (1e-4 and the double below it,
# 2**50 and the doubles around it), values past 1e16 that repr writes in
# exponent form, the smallest subnormal, and plain values of both signs
EDGES = [-0.0, 0.0, 3.0, -3.0, 1e15, 0.375, -0.375, 0.1, -0.1, 1 / 3, 2 / 3,
         1e-4, -1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
         2.0 ** 50, np.nextafter(2.0 ** 50, 0.0), np.nextafter(2.0 ** 50, np.inf),
         -np.nextafter(2.0 ** 50, 0.0), 2.0 ** 49 + 0.5, 1e16, np.nextafter(1e16, 0.0),
         np.nextafter(1e16, np.inf), 9007199254740993.0, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 123.456, 0.000123456789,
         99999.99999999999, 0.30000000000000004, 1.0000000000000002, 0.9999999999999999,
         *(2.0 ** k for k in range(-20, 60, 3)), *(-(2.0 ** k) for k in range(-16, 52, 5))]


def test_every_path_matches_repr():
    values = np.array(EDGES)
    assert_rows_match(values[None, :])
    assert_rows_match(values[:, None])
    # the input reaches both paths: fast values, and fallback values in
    # and out of the fast range
    size = np.abs(values)
    in_range = (size >= 1e-4) & (size < 2.0 ** 50)
    general = general_case(np.where(in_range, size, 0.1))
    assert (in_range & ~general).any() and (in_range & general).any() and (~in_range).any()
    assert general[EDGES.index(0.375)] and general[EDGES.index(3.0)]
    assert not general[EDGES.index(0.1)]


def test_non_finite_values_empty_input_and_many_rows():
    assert_rows_match(np.array([[np.nan, np.inf, -np.inf, 1.5]]))
    assert written([], np.zeros((0, 3))) == b""
    # prefixes of any length, and more rows than one sub-block
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2 * floatrows.SUB_VALUES // 3 + 5, 3))
    assert_rows_match(values, [",".join(["7"] * (i % 11)) for i in range(len(values))])


@settings(max_examples=150, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 70)),
                     elements=st.floats(allow_nan=False, allow_infinity=False)),
       prefix=st.text(st.characters(max_codepoint=127), max_size=12))
def test_any_finite_matrix_matches_repr(values, prefix):
    assert_rows_match(values, [prefix] * len(values))


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_sweep_matches_repr(seed):
    # over both seeds, 1,000,000 random bit patterns (sign and mantissa
    # uniform, exponent uniform over the fast range) and 1,000,000 normal
    # draws at scales from 1e-4 to 1e12, plus random bit patterns over
    # every exponent
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, size=500_000, dtype=np.uint64)
    exponent = rng.integers(1009, 1073, size=bits.size).astype(np.uint64)
    fast = (bits & np.uint64((1 << 52) - 1 | 1 << 63)) | exponent << np.uint64(52)
    scales = 10.0 ** rng.integers(-4, 13, size=(2500, 1))
    sweeps = [fast.view(np.float64).reshape(-1, 50),
              rng.normal(size=(2500, 200)) * scales,
              rng.integers(0, 2 ** 64, size=(200, 50), dtype=np.uint64).view(np.float64)]
    for values in sweeps:
        assert_rows_match(values)


def test_values_next_to_the_general_case_match_repr():
    # 4 * m2 with q - 1 trailing zero bits takes the fast path, with q it
    # is the general case; q depends on the exponent, so every exponent of
    # the fast range is tried with random bits above the threshold. From
    # 2**49 up, q is 2 and every double is in the general case.
    rng = np.random.default_rng(5)
    near, general = [], [2.0 ** 49, np.nextafter(2.0 ** 49, 0.0) * 2]
    for biased in range(1009, 1072):
        q = ((1077 - biased) * 732923 >> 20) - 1
        zeros = q - 2                     # low bits of m2 that are zero in the general case
        for upper in rng.integers(0, 2 ** 52, size=20).tolist():
            m2 = ((upper | 1) << zeros | 1 << 52) & ((1 << 53) - 1) | 1 << 52
            for mantissa, into in ((m2, general), (m2 ^ 1 << zeros - 1, near)):
                into.append(float(np.uint64(biased << 52 | mantissa & ((1 << 52) - 1))
                                  .view(np.float64)))
    assert general_case(general).all() and not general_case(near).any()
    assert_rows_match(np.array(near + general[2:]).reshape(-1, 40))
    assert_rows_match(np.array([general[:2]]))
    assert_rows_match(-np.array(near).reshape(-1, 20))
