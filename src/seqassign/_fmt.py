"""Decimal text of float64 and int64 arrays in uint64 NumPy arithmetic.

`float_cells` writes, for every finite float64, the bytes of
`float.__repr__`, and `int_cells`, for every int64, the bytes of `str`, into
a uint8 matrix with one column a value and one row a character slot; an
unused slot holds NUL.  `join_rows` lays such matrices and fixed separators
side by side and drops the NUL slots, so a table's text is made with no
Python string per cell.

The float digits are Ryu's (Adams, PLDI 2018): the shortest decimal in the
value's rounding interval, the one closest to the value when there are
several, ties to even, which is what repr prints.  With the value m 2^e2
(m the 53-bit significand, e2 its binary exponent less 2), the interval's
points 4m - 1 - s, 4m and 4m + 2 are scaled by 2^e2 / 10^q through a
125-bit entry of a power-of-five table and floored (s is 0 only at a
power of two, whose gap below is half the gap above).  The 183-bit product
of 4m and the entry is built once from 32-bit halves; the other two points
add or subtract the entry with carries.  Ryu then drops digits one at a
time while the interval's ends differ above them; here their number is
found at once, as the most trailing zeros of a number between the ends.
Whatever depends on the exponent alone is read from per-exponent tables,
built on first use.  Values are taken 4096 at a time, so that the
temporaries stay a few tens of KiB: fresh pages for larger ones cost more
than the arithmetic.

Every constant is an np.uint64 scalar and every shift count a uint64
array: a Python int mixed with uint64 arrays may turn them into float64
under NumPy's value-based casting (NumPy 1.x).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_U = np.uint64
_0, _1, _2, _5, _10, _10K = (_U(v) for v in (0, 1, 2, 5, 10, 10_000))
_TEN16, _ZERO16 = np.uint16(10), np.uint16(ord("0"))
_32, _52 = _U(32), _U(52)
_LOW32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_SIGN = _U(1 << 63)
_ONE = _U(0x3FF0000000000000)  # the bits of 1.0
_INF = _U(0x7FF0000000000000)  # the bits of inf: larger magnitudes are nan

_POW5_BITS = 125  # bits of a power-of-five table entry
_DIGITS = 17  # repr needs at most 17 significant digits
_STEP = 1 << 12  # values formatted at a time
_PAD = 0

FLOAT_SLOTS = 29  # "-", "0.000", 17 digits and a point, "e+308"


def _pow5bits(e):
    """The bit length of 5^e, e >= 0 (Ryu's pow5bits)."""
    return ((e * 1217359) >> 19) + 1


@lru_cache(maxsize=1)
def _power_tables() -> dict:
    """Per biased exponent b (0..2047): the power-of-five entry's 64-bit
    words (lo, hi, and their 32-bit halves), twice the entry (lo2, hi2), the
    right shift past the product's low word (dist, and back = 64 - dist),
    the decimal exponent e10 of the scaled points, Ryu's q, the mask of the
    low q bits of 4m whose clearing makes 4m's point exact (all ones where
    no point can be), and whether Ryu's other exactness rules apply
    (special).  Also the powers of ten and of five, and the slot tables of
    the sign and lead and of the exponent.  Built on first use."""
    word = (1 << 64) - 1
    # 2^k / 5^q rounded up for e2 >= 0, 5^i / 2^k for e2 < 0, 125 bits each
    entries = []
    for q in range(342):
        entries.append((1 << ((5**q).bit_length() - 1 + _POW5_BITS)) // 5**q + 1)
    for i in range(326):
        cut = (5**i).bit_length() - _POW5_BITS
        entries.append(5**i >> cut if cut >= 0 else 5**i << -cut)
    e2 = np.maximum(np.arange(2048), 1) - 1077
    up = e2 >= 0
    ep, en = np.maximum(e2, 0), np.maximum(-e2, 0)
    qp = ((ep * 78913) >> 18) - (ep > 3)  # floor(log10 2^ep), less one past 3
    qn = ((en * 732923) >> 20) - (en > 1)  # floor(log10 5^en), less one past 1
    i_n = en - qn
    q = np.where(up, qp, qn)
    row = np.where(up, qp, 342 + i_n)
    shift = np.where(
        up, qp - ep + _POW5_BITS + _pow5bits(qp) - 1, qn - _pow5bits(i_n) + _POW5_BITS
    )
    low_q = (_1 << np.minimum(q, 63).astype(np.uint64)) - _1
    t = {
        "dist": (shift - 64).astype(np.uint64),
        "back": (128 - shift).astype(np.uint64),
        "e10": np.where(up, qp, qn + e2),
        "q": q,
        "mask": np.where(~up & (q < 63), low_q, ~_0),
        "special": np.where(up, q <= 21, q <= 1),
        "pow10": np.array([10**k for k in range(20)], dtype=np.uint64),
        "pow5": np.array([5**k for k in range(23)], dtype=np.uint64),
    }
    for name, values in (("", entries), ("2", [2 * v for v in entries])):
        t["lo" + name] = np.array([v & word for v in values], dtype=np.uint64)[row]
        t["hi" + name] = np.array([v >> 64 for v in values], dtype=np.uint64)[row]
    for name in ("lo", "hi"):
        t[name + "0"] = t[name] & _LOW32
        t[name + "1"] = t[name] >> _32
    # "-" and "0.000" by sign and lead length; "e+dd" by exponent
    lead = [b"", b"0.", b"0.0", b"0.00", b"0.000"]
    t["lead"] = _slot_table([s + z for s in (b"", b"-") for z in lead], 6)
    t["exponent"] = _slot_table([b"e%+03d" % e for e in range(-324, 309)] + [b""], 5)
    return t


def _slot_table(texts, slots) -> np.ndarray:
    """The (slots, len(texts)) uint8 table of the texts, right-aligned."""
    table = np.zeros((len(texts), slots), dtype=np.uint8)
    for row, text in zip(table, texts):
        row[slots - len(text) :] = np.frombuffer(text, dtype=np.uint8)
    return table.T.copy()


def _mul_high(a0, a1, b0, b1):
    """The high words of the 128-bit products (a1 2^32 + a0)(b1 2^32 + b0)
    of 32-bit halves, for a1 below 2^23: then the middle sum cannot carry
    out of 64 bits."""
    a0b1 = a0 * b1
    mid = (a0b1 & _LOW32) + a1 * b0 + ((a0 * b0) >> _32)
    return a1 * b1 + (a0b1 >> _32) + (mid >> _32)


def _shortest(bits):
    """(digits, e10) of the shortest round-trip decimal of each finite,
    nonzero float64 given by its bit pattern with the sign cleared: repr
    prints digits * 10^e10, with digits below 10^17."""
    t = _power_tables()
    b = (bits >> _52).astype(np.intp)
    mantissa = bits & _MANTISSA
    sub = b == 0
    m2 = np.where(sub, mantissa, mantissa | _HIDDEN)
    even = (m2 & _1) == _0
    wide = (mantissa != _0) | (b <= 1)  # the interval's lower half is full
    mv = m2 << _2

    # the 183-bit product P = 4m * entry, as words p2:p1:p0
    a0 = mv & _LOW32
    a1 = mv >> _32
    lo, hi = t["lo"][b], t["hi"][b]
    p0 = mv * lo
    low1 = mv * hi
    p1 = _mul_high(a0, a1, t["lo0"][b], t["lo1"][b]) + low1
    p2 = _mul_high(a0, a1, t["hi0"][b], t["hi1"][b]) + (p1 < low1)
    dist = t["dist"][b]
    back = t["back"][b]
    vr = (p2 << back) | (p1 >> dist)
    # upper point: P + 2 entry
    lo2, hi2 = t["lo2"][b], t["hi2"][b]
    s0 = p0 + lo2
    s1 = p1 + hi2
    c1 = (s1 < hi2) | ((s1 == ~_0) & (s0 < lo2))
    s1 += s0 < lo2
    vp = ((p2 + c1) << back) | (s1 >> dist)
    # lower point: P - (1 + wide) entry
    lo_m = np.where(wide, lo2, lo)
    hi_m = np.where(wide, hi2, hi)
    d1 = p1 - hi_m
    c1 = (p1 < hi_m) | ((d1 == _0) & (p0 < lo_m))
    d1 -= p0 < lo_m
    vm = ((p2 - c1) << back) | (d1 >> dist)

    # is a point's decimal exact (the flags of Ryu's trailing zeros)
    vr_tz = (mv & t["mask"][b]) == _0
    vm_tz = np.zeros(len(bits), dtype=bool)
    s = np.flatnonzero(t["special"][b])
    if s.size:
        q = t["q"][b[s]]
        mvs, ev, ws = mv[s], even[s], wide[s].astype(np.uint64)
        up = b[s] >= 1077
        p5 = t["pow5"][np.minimum(q, 22)]
        five = mvs % _5 == _0
        vr_tz[s] = np.where(up, five & (mvs % p5 == _0), True)
        vm_tz[s] = np.where(up, ~five & ev & ((mvs - _1 - ws) % p5 == _0), ev & (ws == _1))
        vp[s] -= np.where(up, ~five & ~ev & ((mvs + _2) % p5 == _0), ~ev).astype(np.uint64)

    # Ryu removes digits while vp // 10 > vm // 10, that is r digits for
    # the most trailing zeros r of a number in (vm, vp].  With 10^k <= vp -
    # vm < 10^(k+1), the interval holds a multiple of 10^k, and of 10^(k+1)
    # at most one, vp rounded down, whose zeros are then counted.
    pow10 = t["pow10"]
    k = np.searchsorted(pow10[1:], vp - vm, side="right")
    step = pow10[np.minimum(k + 1, 19)]
    top = vp // step
    over = (top * step > vm) & (k < 19)  # k stays far lower for a float64
    removed = k + over
    tens = top // _10
    s = np.flatnonzero(over & (tens * _10 == top))
    if s.size:
        removed[s] += 1
        _count_zeros(tens[s], s, removed)
    # an exact vm goes on losing zeros, if the digits it lost were zeros
    s = np.flatnonzero(vm_tz)
    if s.size:
        p = pow10[removed[s]]
        kept = vm[s] // p
        vm_tz[s] = kept * p == vm[s]
        more = vm_tz[s] & (kept > _0)
        _count_zeros(kept[more], s[more], removed)
    digits = vr // pow10[np.maximum(removed - 1, 0)]  # with the last removed digit
    tens = digits // _10
    last = np.where(removed > 0, digits - tens * _10, _0)
    digits = np.where(removed > 0, tens, digits)
    # a removed ...5000 of an exact vr is a tie: round half to even
    s = np.flatnonzero(vr_tz)
    if s.size:
        r = removed[s]
        tie = (last[s] == _5) & ((digits[s] & _1) == _0)
        tie &= (r <= 1) | (vr[s] % pow10[np.maximum(r - 1, 0)] == _0)
        last[s[tie]] = _U(4)
    # the digits equal vm's, vm // 10^removed, when vm reaches digits 10^removed
    low = vm >= digits * pow10[removed]
    round_up = (low & (~even | ~vm_tz)) | (last >= _5)
    return digits + round_up, t["e10"][b] + removed


def _count_zeros(x, rows, counts) -> None:
    """Add to counts[rows] the trailing decimal zeros of the positive x,
    one value a row."""
    while rows.size:
        q = x // _10
        zero = q * _10 == x
        rows, x = rows[zero], q[zero]
        counts[rows] += 1


def _digit_rows(x, count, out):
    """Write the `count` decimal digits of the uint64 array x, most
    significant first, into the rows of out as ASCII; x is below 10^count.
    x is cut into groups of four digits, and the groups' digits are taken
    in uint16 arithmetic, one digit of every group a step."""
    groups = -(-count // 4)
    top = count - 4 * (groups - 1)  # digits of the leading group
    g = np.empty((groups, len(x)), dtype=np.uint16)
    for i in range(groups - 1, 0, -1):
        q = x // _10K
        g[i] = x - q * _10K
        x = q
    g[0] = x
    for k in range(4):
        q = g // _TEN16
        g -= q * _TEN16
        g += _ZERO16
        # the k-th digit from the right of each group
        if k < top:
            out[top - 1 - k :: 4] = g
        else:
            out[top + 3 - k :: 4] = g[1:]
        g = q


_PLACES = np.arange(18, dtype=np.uint8)[:, None]


def float_cells(x: np.ndarray) -> np.ndarray:
    """The (29, len(x)) uint8 slots of repr(v) for every v of the float64
    array x, NUL where unused; the slots of a non-finite v are arbitrary."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty((FLOAT_SLOTS, len(x)), dtype=np.uint8)
    for lo in range(0, len(x), _STEP):
        _float_slots(x[lo : lo + _STEP].view(np.uint64), out[:, lo : lo + _STEP])
    return out


def _float_slots(bits, out) -> None:
    """Slots 0-5 hold the sign and a fixed value's "0.000" lead, 6-23 the
    digits with the point among them, 24-28 the exponent."""
    t = _power_tables()
    mag = bits & ~_SIGN
    zero = mag == _0
    digits, e10 = _shortest(np.where(zero | (mag >= _INF), _ONE, mag))
    digits[zero] = _0
    nd = np.searchsorted(t["pow10"][1:_DIGITS], digits, side="right") + 1
    point = (e10 + nd).astype(np.int16)  # the value is 0.d1d2... * 10^point
    point[zero] = 1
    fixed = (point > -4) & (point <= 16)
    nd8 = nd.astype(np.uint8)
    # digits left-aligned on 17 places; a fixed value past its last digit
    # goes on with zeros up to the point and one more, for "123.0"
    rows = out[6:23]
    _digit_rows(digits * t["pow10"][_DIGITS - nd], _DIGITS, rows)
    past = fixed & (point >= nd8)
    rows *= _PLACES[:_DIGITS] < np.where(past, point + 1, nd8).astype(np.uint8)
    # then the point goes between the digits, shifting the rest one slot
    dot = np.where(fixed, np.where(point > 0, point, 18), np.where(nd8 > 1, 1, 18))
    dot = dot.astype(np.uint8)
    body = out[6:24]
    body[17] = _PAD
    np.copyto(body[1:], body[:-1].copy(), where=_PLACES[1:] > dot)
    has = np.flatnonzero(dot < 18)
    body[dot[has], has] = ord(".")
    # sign and lead, and exponent, from small tables
    lead = np.where(fixed & (point <= 0), 1 - point, 0) + 5 * (bits >= _SIGN)
    out[0:6] = t["lead"].take(lead, axis=1)
    out[24:29] = t["exponent"].take(np.where(fixed, 633, point + 323), axis=1)


def int_cells(x: np.ndarray) -> np.ndarray:
    """The uint8 slots of str(v) for every v of the int64 array x, one
    column a value: a sign slot, then as many digit slots as the widest
    value needs, right-aligned; NUL where unused."""
    x = np.ascontiguousarray(x, dtype=np.int64)
    count = len(str(max(int(x.max()), -int(x.min())))) if len(x) else 1
    out = np.empty((1 + count, len(x)), dtype=np.uint8)
    bits = x.view(np.uint64)
    neg = x < 0
    mag = np.where(neg, ~bits + _1, bits)
    out[0] = np.where(neg, ord("-"), _PAD)
    _digit_rows(mag, count, out[1:])
    if count > 1:
        places = np.arange(count - 1, 0, -1)[:, None]  # digits to the right
        out[1:count] *= mag >= _power_tables()["pow10"][places]
    return out


def text_cells(texts) -> np.ndarray:
    """The (slots, len(texts)) uint8 slots of the given str cells,
    NUL-padded."""
    data = np.array([t.encode() for t in texts], dtype=bytes)
    return data.view(np.uint8).reshape(len(texts), data.dtype.itemsize).T


def join_rows(pieces, rows: int) -> bytes:
    """The text of `rows` rows, each the concatenation of the pieces in
    order: a (slots, rows) uint8 cell matrix, or bytes repeated on every
    row.  The pieces are stacked slot by slot, read out row by row, and the
    NUL slots deleted in one pass."""
    widths = [len(p) for p in pieces]
    out = np.empty((sum(widths), rows), dtype=np.uint8)
    at = 0
    for piece, w in zip(pieces, widths):
        if isinstance(piece, bytes):
            piece = np.frombuffer(piece, dtype=np.uint8)[:, None]
        out[at : at + w] = piece
        at += w
    return out.T.tobytes().translate(None, b"\0")
