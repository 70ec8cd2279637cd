"""How a report or a table becomes an artifact.

A report is a dataclass that inherits :class:`Report`.  Its JSON form holds
its fields in declaration order (arrays as lists, nested dataclasses
expanded), followed by every property the class defines: its verdicts.  A
field whose metadata sets ``artifact`` false (run health) is left out.
Every CSV artifact is written by :func:`csv_text`, except the sample
batch, whose rows :func:`float_rows` formats with numpy into the same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import numpy as np


class Report:
    """Mixin for report dataclasses: serialized as fields, then verdicts."""

    def as_dict(self) -> dict:
        doc = {}
        for f in dataclasses.fields(self):
            if not f.metadata.get("artifact", True):
                continue
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            doc[f.name] = value
        for name, attr in vars(type(self)).items():
            if isinstance(attr, property):
                doc[name] = getattr(self, name)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def csv_text(header, rows) -> str:
    """A header row and data rows as CSV text with ``\\n`` line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# shortest round-trip text of many floats at once

#: 5^0 .. 5^22; 5^22 serves the smallest values of the fast domain, near 1e-4
_POW5 = np.array([5**k for k in range(23)], dtype=np.int64)
#: 10^0 .. 10^18, every power of ten below 2^63
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_LOW31 = (1 << 31) - 1
_LOW62 = (1 << 62) - 1
_MANTISSA = (1 << 52) - 1
#: a fast-domain value that stands in for the fallback values in the arithmetic
_STAND_IN = 0.3
#: digit columns the text matrix is filled with, two uint32 halves of 9
_DIGITS = 18


def _mul_wide(m: np.ndarray, p: np.ndarray) -> tuple:
    """The exact product m * p of int64 arrays with m < 2^55 and p < 2^52 as
    (hi, lo), m * p = hi 2^62 + lo with 0 <= lo < 2^62, in 31-bit limbs: no
    partial sum reaches 2^63, so int64 never wraps."""
    m1, m0 = m >> 31, m & _LOW31
    p1, p0 = p >> 31, p & _LOW31
    mid = m1 * p0
    m1 *= p1  # the high limbs' product, below 2^45
    p1 *= m0
    mid += p1  # below 2^56
    del p1
    m0 *= p0  # the low limbs' product, below 2^62
    del p0
    lo = (mid & _LOW31) << 31
    lo += m0
    mid >>= 31
    m1 += mid
    m1 += lo >> 62  # the carry out of the low word
    lo &= _LOW62
    return m1, lo


def _scaled_interval(x: np.ndarray) -> tuple:
    """Ryu's first step, over an array of doubles with 1e-4 <= |x| < 1e16
    whose significand is not a power of two.

    Such an x is mv 2^e2 with mv = 4 m2 and e2 < 0, and reads back from any
    number in [(mv - 2) 2^e2, (mv + 2) 2^e2], the ends included when m2 is
    even.  Scaled by 10^-exp10 = 5^i / 2^q, with q = max(floor(-e2 log10 5)
    - 1, 0) and i = -e2 - q, x and the two ends floor to the integers vr,
    vp and vm, exactly.  Returns those and exp10 (int64), whether m2 is
    even, and whether vr and vm are exact; vp is one less when it is exact
    but excluded.  The temporaries end here, before the digit loop.
    """
    bits = np.abs(x).view(np.int64)
    neg_e2 = 1077 - (bits >> 52)  # 1077 = 1023 + 52 + 2
    # 732923 / 2^20 is log10 5 to 2620
    q = np.maximum((neg_e2 * 732923) >> 20, 1) - 1
    exp10 = q - neg_e2
    pow5 = _POW5[neg_e2 - q]
    del neg_e2
    mv = (bits & _MANTISSA) | (1 << 52)
    del bits
    even = (mv & 1) == 0
    mv <<= 2
    hi, lo = _mul_wide(mv, pow5)
    del mv
    below = (1 << q) - 1  # the bits that the shift by q drops
    vr = (lo >> q) | (hi << (62 - q))
    rem = lo & below
    del hi, lo
    # the ends are (mv -+ 2) 5^i: add and subtract 2 5^i in quotient and remainder
    pow5 <<= 1
    step = pow5 >> q
    del q
    pow5 &= below
    vr_exact = rem == 0
    vm_exact = even & (rem == pow5)
    borrow = rem < pow5
    rem += pow5  # below 2^(q+1): at most one carry
    vp = vr + step
    vp += rem > below
    vp -= ~even & (rem & below == 0)  # an excluded end that is exact
    vm = np.subtract(vr, step, out=step)
    vm -= borrow
    return vr, vp, vm, exp10, even, vr_exact, vm_exact


def _shortest_digits(x: np.ndarray) -> tuple:
    """Ryu's general case (Adams, PLDI 2018) over an array: the shortest
    decimal ``digits * 10^exp10`` that reads back as each double, the one
    nearest the double among those (ties to even), as int64 arrays, for the
    doubles :func:`_scaled_interval` takes.  The digits come from dropping
    the trailing decimals of vr that keep it inside the interval [vm, vp].
    """
    vr, vp, vm, exp10, even, vr_exact, vm_exact = _scaled_interval(x)

    # removed: the largest j with vp // 10^j > vm // 10^j.  The test is
    # monotone in j; most rows stop by j = 4, so only the rest loop on.
    removed = np.zeros(x.shape, np.int64)
    for j in range(1, 5):
        removed += vp // _POW10[j] > vm // _POW10[j]
    rest = np.flatnonzero(removed == 4)
    for j in range(5, len(_POW10)):
        rest = rest[vp[rest] // _POW10[j] > vm[rest] // _POW10[j]]
        if not rest.size:
            break
        removed[rest] += 1
    # an exact, included vm: drop the trailing zeros it still has
    rest = np.flatnonzero(vm_exact)
    if rest.size:
        vm_exact[rest] = vm[rest] % _POW10[removed[rest]] == 0
        rest = rest[vm_exact[rest]]
        while rest.size:
            rest = rest[vm[rest] // _POW10[removed[rest]] % 10 == 0]
            removed[rest] += 1

    del vp
    low = vm // _POW10[removed]
    del vm
    some = removed > 0
    digits = vr // _POW10[np.maximum(removed - 1, 0)]  # and the last digit removed
    last = np.where(some, digits % 10, 0)
    np.floor_divide(digits, 10, out=digits, where=some)
    # round half to even when vr is exactly ...d50...0
    rest = np.flatnonzero(vr_exact & (last == 5) & (digits % 2 == 0))
    if rest.size:
        tie = vr[rest] % _POW10[removed[rest] - 1] == 0
        last[rest[tie]] = 4
    digits += ((digits == low) & ~(even & vm_exact)) | (last >= 5)
    exp10 += removed
    return digits, exp10


def fast_domain(x: np.ndarray) -> np.ndarray:
    """Which of the float64 values ``x`` :func:`float_rows` writes from its
    integer arithmetic, not through ``repr``: 1e-4 <= |x| < 1e16 with a
    significand that is not a power of two."""
    size = np.abs(x)
    return (size >= 1e-4) & (size < 1e16) & ((x.view(np.int64) & _MANTISSA) != 0)


def float_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines, byte for byte
    ``",".join(map(repr, row)) + "\\n"`` per row.

    A value with 1e-4 <= |x| < 1e16 whose significand is not a power of two
    (every value ``repr`` writes in positional notation, save the powers of
    two, whose rounding interval is asymmetric) takes its digits from
    :func:`_shortest_digits`, over the whole array at once.  Every other
    value (zero, exponent form, a power of two, a subnormal, inf, nan) goes
    through ``repr``.  The text is laid out in one uint8 matrix, a value per
    row, right-aligned: fraction digits, ".", integer digits, sign, and the
    separator in the last column; one boolean mask keeps the text.
    """
    x = np.ascontiguousarray(block, dtype=float)
    d = x.shape[1]
    x = x.ravel()
    fast = fast_domain(x)
    slow = np.flatnonzero(~fast)
    digits, exp10 = _shortest_digits(np.where(fast, x, _STAND_IN))

    # the text shows the integer shown = |x| 10^frac (its shortest digits)
    # with frac fraction digits: those of digits if exp10 < 0, else one "0"
    frac = np.where(exp10 < 0, -exp10, 1)
    shown = digits * _POW10[np.where(exp10 < 0, 0, exp10 + 1)]
    point = np.searchsorted(_POW10, digits, side="right") + exp10  # 0.d1d2... x 10^point
    # each del drops a chunk-sized array once it is spent: the peak of a call
    # stays near 0.8 MiB at 8192 values (0.6 MiB for the former %-format)
    del digits, exp10
    length = np.maximum(point, 1) + frac + 1 + (x < 0)
    fallback = [repr(v) for v in x[slow].tolist()]
    length[slow] = [len(t) for t in fallback]
    width = max(int(length.max(initial=0)), _DIGITS) + 1

    text = np.full((x.size, width), ord("0"), np.uint8)
    # the digits of shown (below 10^17), right-aligned before the separator
    halves = np.empty((2, x.size), np.uint32)
    halves[0], halves[1] = shown % 10**9, shown // 10**9
    del shown
    for k in range(9):
        ahead = halves // 10
        place = (halves - ahead * 10).astype(np.uint8)
        text[:, width - 2 - k] += place[0]
        text[:, width - 11 - k] += place[1]
        halves = ahead
    # the point: below 1 the zeros left of the fraction already read "0",
    # from 1 on the integer digits move one column left to make room
    dot = width - 2 - frac
    rows = np.flatnonzero(point > 0)
    if rows.size:
        left = np.arange(width - 2) < dot[rows, None]
        sub = text[rows]
        sub[:, :-2] = np.where(left, sub[:, 1:-1], sub[:, :-2])
        text[rows] = sub
    text[np.arange(x.size), dot] = ord(".")
    del frac, point, dot
    start = width - 1 - length
    negative = np.flatnonzero(x < 0)
    text[negative, start[negative]] = ord("-")
    if fallback:
        text[slow, :-1] = np.frombuffer(
            "".join(t.rjust(width - 1) for t in fallback).encode("ascii"), np.uint8
        ).reshape(len(fallback), width - 1)
    text[:, -1] = ord(",")
    text[d - 1 :: d, -1] = ord("\n")
    keep = (np.arange(width) >= np.arange(width)[:, None]).take(start, axis=0)
    del length, start
    text = text[keep]
    del keep
    return str(text, "ascii")
