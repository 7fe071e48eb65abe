"""CSV rows of float64 values, byte for byte as ``repr`` writes them.

``float_rows(prefixes, values)`` yields, for each row, the bytes of its
prefix, then ``repr`` of each of its values (``row.tolist()``) joined by
commas, then a newline. ``repr`` is the specification and stays the
fallback. The fast path gets the same bytes from whole-array numpy steps
on sub-blocks of about ``SUB_VALUES`` values:

- the shortest round-trip digits by Ryu (Adams, PLDI 2018, "Ryu: fast
  float-to-string conversion"), in uint64 arithmetic: its
  ``mulShiftAll64`` (two 64 x 64-bit products per value, each built from
  32-bit partial products) and its digit-removal loop;
- the digits as characters, through a table of the 10,000 four-digit
  strings, in one fixed layout per value: sign, 16 integer digits, ``.``,
  20 fraction digits, separator;
- a mask of the characters ``repr`` writes (the sign of a negative value,
  the integer digits from the first non-zero one, the fraction digits up
  to the last non-zero one), and one ``compress`` and ``tobytes()``.

The fast range is 1e-4 <= |x| < 2**50. ``repr`` writes each such value in
positional form (it turns to exponent form below 1e-4 and from 1e16 up),
with at most 16 integer and 20 fraction digits. Everything else is
formatted by ``repr``, one value at a time: zero, non-finite values, |x|
outside the fast range, and Ryu's general case. That case is where
``4 * m2`` has at least ``q`` trailing zero bits, so that the removed
digits may all be zero; it holds for short dyadic values such as 0.375
or 3.0, and for every double from 2**49 up (there q <= 2).
"""

from __future__ import annotations

import math

import numpy as np

# Values per whole-array pass (64 rows of the wide benchmark's 64 columns),
# so that its temporaries stay near 2 MB and in cache. On that dump (2-vCPU
# Xeon), passes of 256 rows ran about 40% slower and raised the peak RSS of
# a dump-only process by 4 MB more.
SUB_VALUES = 4096

_FAST_MIN, _FAST_END = 1e-4, 2.0 ** 50

_POW10 = np.array([10 ** n for n in range(20)], dtype=np.uint64)
# "0000" .. "9999", one uint32 per four characters
_QUADS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()

# One value's 40 characters: sign, 16 integer digits, '.', 20 fraction
# digits, ',' (or the row's '\n') and one unused byte; as five uint64
# words, so that whole layouts and masks are copied a word at a time.
_INT, _DOT, _FRAC, _SEP = slice(1, 17), 17, slice(18, 38), 38
_WIDTH = 40
_TEMPLATE, _TEMPLATE_END = (
    np.frombuffer(f"-{'0' * 16}.{'0' * 20}{end} ".encode(), dtype=np.uint64) for end in ",\n")


def _keep_table() -> np.ndarray:
    """The characters ``repr`` keeps of a layout, as uint64 words, for each
    (sign, integer digits 1..16, fraction digits 1..20): row
    (neg * 16 + ints - 1) * 20 + fracs - 1."""
    neg, ints, fracs = (a.reshape(-1, 1) for a in np.meshgrid(
        [0, 1], np.arange(1, 17), np.arange(1, 21), indexing="ij"))
    col = np.arange(_WIDTH)
    keep = (((col == 0) & (neg == 1)) | ((col >= _DOT - ints) & (col < _FRAC.start + fracs))
            | (col == _SEP))
    return keep.view(np.uint64)


_KEEP = _keep_table()


def _exponent_tables():
    """Everything of Ryu's e2 < 0 branch that depends on the exponent alone,
    indexed by the biased exponent of a double in the fast range:
    (low and high words of its power of 5, the shift of vr, vp and vm as
    (left, right) amounts, the decimal exponent e10, and the mask of the
    low bits of m2 that are all zero in the general case). Built from
    Python ints."""
    tables = [np.zeros(2048, dtype=dtype) for dtype in (np.uint64,) * 4 + (np.int64, np.uint64)]
    mul_lo, mul_hi, left, right, e10, zeros = tables
    for biased in range(math.frexp(_FAST_MIN)[1] + 1022, math.frexp(_FAST_END)[1] + 1022):
        e2 = biased - (1023 + 52 + 2)          # x = 4 * m2 * 2**e2
        q = (-e2 * 732923 >> 20) - 1           # log10(5**-e2) - 1, as -e2 > 1
        i = -e2 - q
        k = (i * 1217359 >> 19) + 1 - 125      # bits of 5**i, less 125
        mul = 5 ** i >> k if k >= 0 else 5 ** i << -k
        mul_lo[biased], mul_hi[biased] = mul & (2 ** 64 - 1), mul >> 64
        right[biased] = q - k - 65             # vr = 4 * m2 * mul >> (q - k), read from
        left[biased] = 64 - right[biased]      # the top words of 2 * m2 * mul
        e10[biased] = q + e2
        zeros[biased] = (1 << q) - 1 >> 2      # 4 * m2 has >= q trailing zero bits
    return tables


_BY_EXPONENT = _exponent_tables()


def _umul128(a, b):
    """(low, high) words of the 128-bit products a * b of uint64 arrays."""
    a_lo, a_hi = a & 0xFFFFFFFF, a >> 32
    b_lo, b_hi = b & 0xFFFFFFFF, b >> 32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    cross = (lo_lo >> 32) + (hi_lo & 0xFFFFFFFF) + lo_hi
    low = (cross << 32) | (lo_lo & 0xFFFFFFFF)
    high = a_hi * b_hi + (hi_lo >> 32) + (cross >> 32)
    return low, high


def _shortest(bits):
    """Ryu's shortest digits of the positive doubles ``bits`` (uint64), all
    in the fast range: (digits, exponent, general), value = digits *
    10**exponent wherever ``general`` is False. Where it is True, Ryu's
    general case applies and the digits are not to be used."""
    biased = (bits >> 52).astype(np.intp)
    mul_lo, mul_hi, left, right, e10, zeros = (t[biased] for t in _BY_EXPONENT)
    m2 = (bits & ((1 << 52) - 1)) | (1 << 52)
    general = m2 & zeros == 0

    # mulShiftAll64: vr, vp, vm = (4 * m2 + {0, 2, -2}) * mul >> j, from the
    # two products of 2 * m2 with mul's words. vm's offset is -1 - mmShift
    # with mmShift = 1 for a non-zero mantissa; a power of two (mmShift 0)
    # has 54 trailing zero bits in 4 * m2 and is always in the general case.
    m = m2 << 1
    lo, tmp = _umul128(m, mul_lo)
    mid, hi = _umul128(m, mul_hi)
    mid += tmp
    hi += mid < tmp
    vr = (hi << left) | (mid >> right)
    plus = lo + mul_lo
    mid_plus = mid + mul_hi + (plus < lo)
    vp = ((hi + (mid_plus < mid)) << left) | (mid_plus >> right)
    minus = lo - mul_lo
    mid_minus = mid - mul_hi - (minus > lo)
    vm = ((hi - (mid_minus > mid)) << left) | (mid_minus >> right)

    # Remove the digits on which vp and vm differ; vr rounds up if the
    # removed part is at least half a unit (no ties off the general case),
    # or if it would fall on vm, which the interval leaves out.
    removed = np.zeros(bits.shape, dtype=np.intp)
    for p in _POW10[1:]:
        cut = vp // p > vm // p
        if not cut.any():
            break
        removed += cut
    scale = _POW10[removed]
    digits = vr // scale
    rest = vr - digits * scale
    digits += (digits == vm // scale) | (rest * 2 >= scale)
    return digits, e10 + removed, general


def _divmod(x, d: int):
    """``divmod(x, d)`` by way of ``//``, which has numpy's fast path for a
    scalar divisor (``%`` and ``np.divmod`` take the slow one)."""
    quotient = x // d
    return quotient, x - quotient * d


def _layout(cells, keep, neg, digits, exp10) -> None:
    """Write the characters of each value (-1)**neg * digits * 10**exp10,
    with at most 16 integer and 20 fraction digits, into ``cells`` (values
    x ``_WIDTH`` uint8) and the mask of those ``repr`` writes into ``keep``
    (values x 5 uint64). ``digits`` never ends in a zero, as Ryu's common
    case gives none (its loop would have removed it), so the fraction's
    last digit is that of ``digits``."""
    frac_digits = np.minimum(np.maximum(-exp10, 0), 20)
    scale = _POW10[np.minimum(frac_digits, 19)]
    whole = digits // scale
    frac = digits - whole * scale
    big = exp10 > 0
    if big.any():
        whole[big] = digits[big] * _POW10[exp10[big]]
    # The 20-digit fraction field: its first 12 digits and its last 8
    scale = _POW10[np.maximum(frac_digits - 12, 0)]
    first = frac // scale
    last = (frac - first * scale) * _POW10[np.minimum(20 - frac_digits, 8)]
    first *= _POW10[np.maximum(12 - frac_digits, 0)]

    # The 36 digits as five 8-digit groups (the first fraction group has
    # only 4), each as two 4-digit quads, each as four characters
    groups = np.empty(digits.shape + (5,), dtype=np.uint32)
    groups[..., 0], groups[..., 1] = _divmod(whole, 10 ** 8)
    groups[..., 2], groups[..., 3] = _divmod(first, 10 ** 8)
    groups[..., 4] = last
    quads = np.empty(groups.shape + (2,), dtype=np.intp)
    quads[..., 0], quads[..., 1] = _divmod(groups, 10 ** 4)
    chars = _QUADS.take(quads).view(np.uint8).reshape(digits.shape + (40,))
    cells[..., _INT] = chars[..., :16]
    cells[..., _FRAC] = chars[..., 20:]

    int_digits = np.ones(digits.shape, dtype=np.intp)
    for p in _POW10[1:16]:
        more = whole >= p
        if not more.any():
            break
        int_digits += more
    code = (neg * 16 + int_digits - 1) * 20 + np.maximum(frac_digits, 1) - 1
    np.take(_KEEP, code, axis=0, out=keep, mode="clip")


def _sub_block(prefixes, values: np.ndarray) -> bytes:
    """The rows of ``values`` (float64, at least one column) and their
    prefixes, as ``float_rows`` writes them."""
    rows, width = values.shape
    size = np.abs(values)
    fast = (size >= _FAST_MIN) & (size < _FAST_END)
    size[~fast] = 0.1           # keeps the fast path's arithmetic in range
    digits, exp10, general = _shortest(size.view(np.uint64))
    fast &= ~general

    # One line per row: its prefix, padded to whole words, then its values
    lengths = np.fromiter(map(len, prefixes), dtype=np.intp, count=rows)
    head = -(-int(lengths.max(initial=0)) // 8) * 8
    line = np.empty((rows, head + width * _WIDTH), dtype=np.uint8)
    keep = np.empty(line.shape, dtype=bool)
    keep[:, :head] = np.arange(head) < lengths[:, None]
    line[:, :head][keep[:, :head]] = np.frombuffer("".join(prefixes).encode("ascii"),
                                                   dtype=np.uint8)
    cells = line[:, head:].view(np.uint64).reshape(rows, width, -1)
    cells[:, :-1] = _TEMPLATE
    cells[:, -1] = _TEMPLATE_END
    cells = cells.view(np.uint8)
    kept = keep[:, head:].view(np.uint64).reshape(rows, width, -1)
    _layout(cells, kept, np.signbit(values), digits, exp10)
    kept = kept.view(bool)
    for r, c in zip(*np.nonzero(~fast)):        # off the fast path: repr itself
        text = repr(float(values[r, c])).encode()
        cells[r, c, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        kept[r, c, :_SEP] = False
        kept[r, c, :len(text)] = True
    return line.reshape(-1).compress(keep.reshape(-1)).tobytes()


def float_rows(prefixes, values):
    """Yield, for the rows of the 2-D float64 array ``values`` (at least
    one column) and their ASCII ``prefixes`` (one str per row), the bytes
    of each prefix, then ``repr`` of each value of its row joined by
    commas, then a newline: one bytes object per sub-block of
    ``SUB_VALUES // width`` rows (at least one)."""
    values = np.asarray(values, dtype=np.float64)
    rows = max(1, SUB_VALUES // values.shape[1])
    for start in range(0, len(values), rows):
        yield _sub_block(prefixes[start:start + rows], values[start:start + rows])
