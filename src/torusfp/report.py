"""How a report or a table becomes an artifact.

A report is a dataclass that inherits :class:`Report`.  Its JSON form holds
its fields in declaration order (arrays as lists, nested dataclasses
expanded), followed by every property the class defines: its verdicts.  A
field whose metadata sets ``artifact`` false (run health) is left out.
Every CSV artifact is written by :func:`csv_text`, except the all-float
tables (the sample batch and the evolution traces), which :func:`float_csv`
writes in pieces: :func:`float_rows` formats their rows with numpy into the
same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
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


#: rows per :func:`float_rows` call of :func:`float_csv`
CSV_CHUNK = 4096


def float_csv(header, columns: np.ndarray):
    """An all-float table as CSV text in pieces, the same bytes as
    :func:`csv_text` writes of the values' reprs (no value needs quoting).
    ``columns`` holds the table's columns as its rows: the transpose of a
    row-major table, whose chunks are then views.  The header comes first,
    then CSV_CHUNK rows at a time, each chunk one :func:`float_rows` call, so
    the text of the whole table need not exist at once."""
    yield ",".join(header) + "\n"
    for start in range(0, columns.shape[1], CSV_CHUNK):
        yield float_rows(columns[:, start : start + CSV_CHUNK].T)


# ---------------------------------------------------------------------------
# shortest round-trip text of many floats at once

#: 5^0 .. 5^22; 5^22 serves the smallest values of the fast domain, near 1e-4
_POW5 = np.array([5**k for k in range(23)], dtype=np.int64)
#: 10^0 .. 10^22 as doubles, each exact
_POW10_FLOAT = np.array([float(10**k) for k in range(23)])
#: 10^0 .. 10^18, every power of ten below 2^63
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_MANTISSA = (1 << 52) - 1
#: a fast-domain value that stands in for the fallback values in the arithmetic
_STAND_IN = 0.3
#: bytes per value in the text matrix: a group of zeros, five groups of four
#: digit columns, then the separator and three padding bytes
_WIDTH = 28
#: the separator's column; the digits end just left of it
_SEP = 24
#: the entries of "," and "\n" in the table of digit groups
_COMMA, _NEWLINE = 10**4, 10**4 + 1


@functools.cache
def _layout_tables() -> tuple:
    """The constant tables of :func:`float_rows`, built on its first call:
    at import they cost a process that writes no samples about 0.3 MiB of
    resident memory (numpy code and caches it would not touch otherwise).

    - quads: 0 .. 9999 as four ASCII digits each, then "," and "\\n" padded
      with NULs, one uint32 per entry, its bytes in text order;
    - keep: row s holds the columns s .. _SEP, where a row's text starts at
      column s.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1).reshape(-1, 4)
    ends = np.array([[ord(","), 0, 0, 0], [ord("\n"), 0, 0, 0]], np.uint8)
    quads = np.concatenate([groups, ends]).view(np.uint32).ravel()
    keep = (np.arange(_WIDTH) >= np.arange(_SEP + 1)[:, None]) & (np.arange(_WIDTH) <= _SEP)
    return quads, keep


def _scaled_interval(size: np.ndarray) -> tuple:
    """Ryu's first step, over an array of sizes |x| of doubles with 1e-4 <=
    |x| < 1e16 whose significand is not a power of two; ``size`` is
    overwritten.

    Such an x is mv 2^e2 with mv = 4 m2 and e2 < 0, and reads back from any
    number in [(mv - 2) 2^e2, (mv + 2) 2^e2], the ends included when m2 is
    even.  Scaled by 10^-exp10 = 5^i / 2^q, with q = max(floor(-e2 log10 5)
    - 1, 0) and i = -e2 - q, x and the two ends floor to the integers vr,
    vp and vm, exactly.  Returns those and exp10 (int64), whether vr is
    exact and whether vm is exact and included; vp is one less when it is
    exact but excluded.

    The double product |x| 10^i is within 513 of vr (below 2^62): call its
    integer part a.  Then r = mv 5^i - a 2^q is below 2^56 in size, so
    int64 arithmetic that wraps at 2^64 (on both products) still gets it
    exactly, and vr = a + r // 2^q, the ends likewise from r -+ 2 5^i.  The
    ends are exact only where 2^q divides 2 (2 m2 -+ 1) 5^i: at q <= 1.
    """
    bits = size.view(np.int64)
    i = bits >> 52
    np.subtract(1077, i, out=i)  # -e2; 1077 = 1023 + 52 + 2
    # 732923 / 2^20 is log10 5 to 2620
    q = i * 732923
    q >>= 20
    np.maximum(q, 1, out=q)
    q -= 1
    i -= q
    ends = np.flatnonzero(q <= 1)
    odd = bits[ends] & 1
    rem = bits & _MANTISSA
    rem |= 1 << 52
    rem <<= 2  # mv
    size *= _POW10_FLOAT[i]
    approx = size.astype(np.int64)
    twice = _POW5[i]
    exp10 = np.negative(i, out=i)
    rem = rem.view(np.uint64)
    rem *= twice.view(np.uint64)
    twice <<= 1
    rem -= approx.view(np.uint64) << q.view(np.uint64)
    rem = rem.view(np.int64)  # r = mv 5^i - a 2^q
    vr = rem >> q
    vr += approx
    vr_exact = np.left_shift(1, q)
    vr_exact -= 1
    vr_exact &= rem
    vr_exact = vr_exact == 0
    vp = rem + twice
    vp >>= q
    vp += approx
    vm = np.subtract(rem, twice, out=rem)
    vm >>= q
    vm += approx
    del approx, twice
    vm_exact = np.zeros(size.shape, bool)
    vm_exact[ends] = odd == 0
    vp[ends] -= odd
    return vr, vp, vm, exp10, vr_exact, vm_exact


def _shortest_digits(x: np.ndarray) -> tuple:
    """Ryu's general case (Adams, PLDI 2018) over an array: the shortest
    decimal ``digits * 10^exp10`` that reads back as each double, the one
    nearest the double among those (ties to even), as int64 arrays, for the
    sizes :func:`_scaled_interval` takes (and overwrites).  The digits come
    from dropping the trailing decimals of vr that keep it inside the
    interval [vm, vp].
    """
    vr, vp, vm, exp10, vr_exact, vm_exact = _scaled_interval(x)

    # removed: the largest j with vp // 10^j > vm // 10^j, a test monotone
    # in j.  vp - vm < 402, so for j <= 4 it reads only vm mod 10^4 and
    # vp - vm: the two below 2^16, divided by 10 in place step by step.
    tail = np.empty((2, x.size), np.int64)
    np.subtract(vp, vm, out=tail[0])
    np.floor_divide(vm, 10**4, out=tail[1])
    tail[1] *= -(10**4)
    tail[1] += vm
    tail[0] += tail[1]
    tail = tail.astype(np.uint16)
    removed = np.zeros(x.size, np.uint8)
    for _ in range(4):
        tail //= 10
        removed += tail[0] > tail[1]
    removed = removed.astype(np.intp)
    # the few rows that reach 4 test every further j at once
    rest = np.flatnonzero(removed == 4)
    if rest.size:
        removed[rest] += (vp[rest, None] // _POW10[5:] > vm[rest, None] // _POW10[5:]).sum(axis=1)
    # an exact, included vm: drop the trailing zeros it still has
    rest = np.flatnonzero(vm_exact)
    if rest.size:
        vm_exact[rest] = vm[rest] % _POW10[removed[rest]] == 0
        rest = rest[vm_exact[rest]]
        while rest.size:
            rest = rest[vm[rest] // _POW10[removed[rest]] % 10 == 0]
            removed[rest] += 1

    del vp
    scale = _POW10[removed]
    digits = vr // scale
    below = digits * scale
    # digits * scale <= vm: below the interval, unless it is vm, exact and included
    outside = below <= vm
    outside[vm_exact] = False
    del vm
    vr -= below
    vr <<= 1  # twice the removed part: at least scale when it rounds up
    up = vr >= scale
    # round half to even when vr is exactly ...d50...0
    rest = np.flatnonzero(vr_exact)
    if rest.size:
        up[rest] &= (vr[rest] != scale[rest]) | (digits[rest] & 1 == 1)
    up |= outside
    np.add(digits, up.view(np.uint8), out=digits)
    exp10 += removed
    return digits, exp10


def fast_domain(x: np.ndarray) -> np.ndarray:
    """Which of the float64 values ``x`` :func:`float_rows` writes from its
    integer arithmetic, not through ``repr``: 1e-4 <= |x| < 1e16 with a
    significand that is not a power of two."""
    return _fast_sizes(np.abs(x))


def _fast_sizes(size: np.ndarray) -> np.ndarray:
    """:func:`fast_domain` of the values whose sizes |x| are ``size``."""
    return (size >= 1e-4) & (size < 1e16) & ((size.view(np.int64) & _MANTISSA) != 0)


def float_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines, byte for byte
    ``",".join(map(repr, row)) + "\\n"`` per row.

    A value with 1e-4 <= |x| < 1e16 whose significand is not a power of two
    (every value ``repr`` writes in positional notation, save the powers of
    two, whose rounding interval is asymmetric) takes its digits from
    :func:`_shortest_digits`, over the whole array at once.  Every other
    value (zero, exponent form, a power of two, a subnormal, inf, nan) goes
    through ``repr``.  The text is laid out in one uint8 matrix, a value per
    row of _WIDTH bytes: the digits right-aligned before the separator,
    written four at a time from a table into a uint32 view, with "." and "-"
    placed by flat index; one boolean mask keeps the text.
    """
    x = np.ascontiguousarray(block, dtype=float)
    d = x.shape[1]
    x = x.ravel()
    n = x.size
    size = np.abs(x)
    slow = np.flatnonzero(~_fast_sizes(size))
    big = size >= 1
    size[slow] = _STAND_IN
    digits, exp10 = _shortest_digits(size)
    del size

    # The 20 digit columns before the separator hold digits (below 10^18)
    # right-aligned, its last frac digits the fraction, and "." overwrites
    # the digit 0 left of those.  Below 1 that is the 0 of "0.", with the
    # sign left of it; from 1 on, the digits get a 0 inserted there.
    frac = np.negative(exp10, out=exp10)
    del exp10
    sign = (_SEP - 3) - frac
    big = np.flatnonzero(big)
    if big.size:
        shown = digits[big] * _POW10[np.maximum(1 - frac[big], 0)]  # |x| 10^frac
        frac[big] = np.maximum(frac[big], 1)
        sign[big] = (_SEP - 2) - np.searchsorted(_POW10, shown, side="right")
        digits[big] = 10 * shown - 9 * (shown % _POW10[frac[big]])
        del shown

    table, keep_from = _layout_tables()
    text = np.empty((n, _WIDTH // 4), np.uint32)
    text[:, 0] = table[0]
    high = digits // 10**8
    digits -= high * 10**8
    top = high // 10**8
    high -= top * 10**8
    halves = np.empty((2, n), np.uint32)
    halves[0], halves[1] = high, digits
    del high, digits
    quads = halves // 10**4
    halves -= quads * 10**4
    for col, group in enumerate((top, quads[0], halves[0], quads[1], halves[1]), start=1):
        text[:, col] = table.take(group)
    del top, quads, halves, group
    text[:, -1] = table[_COMMA]
    text[d - 1 :: d, -1] = table[_NEWLINE]

    text = text.view(np.uint8)
    rows = np.arange(0, n * _WIDTH, _WIDTH)  # each row's flat index
    text.ravel()[rows + sign] = ord("-")  # dropped when x >= 0
    rows += _SEP - 1
    rows -= frac
    text.ravel()[rows] = ord(".")
    del rows, frac
    start = np.add(sign, x >= 0, out=sign)
    del sign
    if slow.size:
        fallback = [repr(v) for v in x[slow].tolist()]
        start[slow] = [_SEP - len(t) for t in fallback]
        text[slow, :_SEP] = np.frombuffer(
            "".join(t.rjust(_SEP) for t in fallback).encode("ascii"), np.uint8
        ).reshape(len(fallback), _SEP)
    keep = keep_from.take(start, axis=0)
    del start
    text = text[keep]
    del keep
    return str(text, "ascii")
