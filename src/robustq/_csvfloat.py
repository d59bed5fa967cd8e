"""CSV rows of float tables in the bytes of ``format(v, ".17g")``, computed
with array arithmetic.

Each finite double x with 2**-930 <= |x| < 2**930 (about 1e-280 to 1e280)
gets its correctly rounded 17-digit significand N and decimal exponent k,
|x| ~ N * 10**(k - 16), from Dekker's error-free product (Dekker, "A
floating-point technique for extending the available precision", Numer.
Math. 18, 1971):

1. log10 proposes k, and q = 16 - k.
2. 10**q is a double-double H + L, built once from exact integers.
3. |x| * H = p + e exactly, with p an integral double (it exceeds 2**53),
   and t = e + |x| * L carries |x| * 10**q - p to within 1e-13.
4. N = p + round(t), kept only if t is not within 1e-9 of a tie.
5. 10**16 < N < 10**17 confirms k.  Otherwise k moves one step and N is
   computed again.  N = 10**16 is accepted only from the step above,
   because a value just under 10**k also rounds to it at exponent k, and
   N = 10**17 is 1.0000000000000000 at exponent k + 1.

Only +, -, *, floor and comparisons decide a digit, so the bytes do not
depend on how the CPU evaluates log10: a log10 off by an ulp costs a second
pass or a fallback, never a wrong digit.  Zeros are written directly.
Every other value (NaN, infinities, subnormals, the ends of the range,
near-ties, an exponent still unconfirmed) goes through ``format(v,
".17g")``: a fast path that decides most values beside an exact one for
the rest, as in Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI
2018).

Each value's text is laid out in a 32-byte slot, every field at a fixed
place and 0 where the value has none of it:

    byte  0      sign
          1-5    "0.000" before the digits of 1e-4 <= |x| < 1
          6-23   the digits, with the point among them
          24-28  "e+ddd"
          29     separator

and a chunk's text is its slots' nonzero bytes, in order.  Tables indexed
by the exponent and the count of significant digits hold the bytes and the
masks of every layout, so one value costs a few whole-slot operations.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, NamedTuple

import numpy as np

# biased binary exponents of the bulk range: 2**+-930 is about 10**+-279.96
_BULK_EXPONENTS = (1023 - 930, 1023 + 930)
_K_MAX = 281  # |k| there, after a correction step or a carry
_TIE = 1e-9  # |frac(t) - 1/2| at or below this falls back; t errs < 1e-13
_N_LOW, _N_HIGH = 10 ** 16, 10 ** 17

_SLOT = 32
_PREFIX, _DIGITS, _EXP, _SEP = 1, 6, 24, 29  # byte offsets in a slot
# layouts: "0.000ddd" at exponents -4..-1, "ddd.ddd" at 0..16, then "d.ddde+x"
_LAYOUTS = 22


class _Tables(NamedTuple):
    power: tuple  # H, L, H's Veltkamp halves: 10**(16 - k) at _K_MAX - k
    group: np.ndarray  # "0000".."9999" as uint32
    group_sig: np.ndarray  # (4, 10000): N's significant digits to group j
    a_mask: np.ndarray  # (layouts * 18, _SLOT): digits before the point
    b_mask: np.ndarray  # the same, digits after the point
    dot: np.ndarray  # the point
    frame: np.ndarray  # sign, prefix, exponent and separator bytes of each
    #                    (exponent, sign, last column)


def _split(value):
    """Veltkamp's halves: value = hi + lo, each with at most 26 bits."""
    c = 134217729.0 * value  # 2**27 + 1
    hi = c - (c - value)
    return hi, value - hi


def _power_table() -> tuple:
    high = np.empty(2 * _K_MAX + 1)
    low = np.empty_like(high)
    for row, k in enumerate(range(_K_MAX, -_K_MAX - 1, -1)):
        q = 16 - k
        if q >= 0:
            high[row] = float(10 ** q)
            low[row] = float(10 ** q - int(high[row]))
        else:
            scale = 10 ** -q
            num, den = (1 / scale).as_integer_ratio()
            high[row] = num / den
            low[row] = (den - num * scale) / (den * scale)
    return (high, low, *_split(high))


def _layout_tables():
    """Masks and point bytes of each (layout, significant digits s)."""
    layout, s = np.divmod(np.arange(_LAYOUTS * 18), 18)
    exponent = layout - 4
    fixed = layout < _LAYOUTS - 1
    whole = np.where(fixed, exponent + 1, 1)  # digits before the point
    keep = np.where(fixed & (exponent >= 0), np.maximum(s, whole), s)
    point = np.where((s > whole) & (whole > 0), whole, 18)
    r = np.arange(18)[None, :]  # place in the digit field
    a_mask = np.zeros((layout.size, _SLOT), np.uint8)
    b_mask = np.zeros_like(a_mask)
    dot = np.zeros_like(a_mask)
    a_mask[:, _DIGITS:_EXP] = 255 * ((r < point[:, None])
                                     & (r < keep[:, None]))
    b_mask[:, _DIGITS:_EXP] = 255 * ((r > point[:, None])
                                     & (r - 1 < keep[:, None]))
    dot[:, _DIGITS:_EXP] = ord(".") * (r == point[:, None])
    return a_mask, b_mask, dot


def _frame_table():
    x = np.arange(-_K_MAX, _K_MAX + 1)
    frame = np.zeros((x.size, 2, 2, _SLOT), np.uint8)  # exponent, sign, last
    frame[:, 1, :, 0] = ord("-")
    frame[:, :, 0, _SEP] = ord(",")
    frame[:, :, 1, _SEP] = ord("\n")
    small = (x >= -4) & (x < 0)  # "0." and -x - 1 zeros before the digits
    frame[small, :, :, _PREFIX] = ord("0")
    frame[small, :, :, _PREFIX + 1] = ord(".")
    for j in range(3):
        frame[small & (-x - 1 > j), :, :, _PREFIX + 2 + j] = ord("0")
    sci = (x < -4) | (x > 16)
    mag = np.abs(x)[sci, None, None]
    frame[sci, :, :, _EXP] = ord("e")
    frame[sci, :, :, _EXP + 1] = np.where(x[sci] < 0, ord("-"),
                                          ord("+"))[:, None, None]
    frame[sci, :, :, _EXP + 2] = np.where(mag >= 100, 48 + mag // 100, 0)
    frame[sci, :, :, _EXP + 3] = 48 + mag // 10 % 10
    frame[sci, :, :, _EXP + 4] = 48 + mag % 10
    return frame.reshape(-1, _SLOT)


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    """Built on first use, from exact integers (Python's int true division
    rounds correctly) and numpy; about 0.2 MB."""
    g = np.arange(10_000)
    group = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10],
                      axis=1) + 48).astype(np.uint8).view(np.uint32).ravel()
    sig = np.select([g % 10 > 0, g % 100 > 0, g % 1000 > 0, g > 0],
                    [4, 3, 2, 1], 0)
    group_sig = np.where(g > 0, np.arange(1, 17, 4)[:, None] + sig,
                         0).astype(np.int8)
    tables = _Tables(_power_table(), group, group_sig, *_layout_tables(),
                     _frame_table())
    for table in (*tables.power, *tables[1:]):
        table.flags.writeable = False
    return tables


def _round_scaled(a, a_hi, a_lo, k, power):
    """(N, near_tie): N = round(a * 10**(16 - k)) as int64, near_tie where
    the rounding is too close to call."""
    row = _K_MAX - k
    high, low, h_hi, h_lo = (column.take(row) for column in power)
    p = a * high
    e = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    t = e + a * low
    floor = np.floor(t)
    frac = t - floor
    n = p.astype(np.int64) + (floor + (frac > 0.5)).astype(np.int64)
    return n, np.abs(frac - 0.5) <= _TIE


def _significands(a, power):
    """(N, k, decided) for magnitudes ``a`` in the bulk range."""
    a_hi, a_lo = _split(a)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, tie = _round_scaled(a, a_hi, a_lo, k, power)
    inside = (n > _N_LOW) & (n < _N_HIGH)
    decided = inside & ~tie
    # one step corrects any log10; N = 10**16 steps down, as a value just
    # under 10**k also rounds to it at exponent k
    redo = np.flatnonzero(~inside)
    if redo.size:
        up = n[redo] >= _N_HIGH
        k_redo = k[redo] + np.where(up, 1, -1)
        n_redo, tie_redo = _round_scaled(a[redo], a_hi[redo], a_lo[redo],
                                         k_redo, power)
        carry = n_redo == _N_HIGH  # 9.99...95 and up: 1.0000000000000000
        n_redo[carry] = _N_LOW  # at exponent k + 1
        k_redo[carry] += 1
        n[redo], k[redo] = n_redo, k_redo
        decided[redo] = ~tie_redo & (n_redo < _N_HIGH) \
            & ((n_redo > _N_LOW) | carry | up)
    return n, k, decided


def _digit_words(n, tables):
    """(words, s): N's 17 ASCII digits at bytes 7-23 of each row of the
    (size, _SLOT // 4) uint32 ``words``, and s, its digits up to the last
    nonzero one (0 for N = 0)."""
    high = n // 100_000_000  # 9 digits, then 8
    low = (n - high * 100_000_000).astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 100_000_000
    mid = high - lead * 100_000_000
    g1, g3 = mid // 10_000, low // 10_000
    groups = (lead, g1, mid - g1 * 10_000, g3, low - g3 * 10_000)
    words = np.empty((n.size, _SLOT // 4), np.uint32)
    for j, g in enumerate(groups):
        tables.group.take(g, out=words[:, 1 + j])
    s = (lead > 0).astype(np.int8)
    for j in range(4):
        np.maximum(s, tables.group_sig[j].take(groups[1 + j]), out=s)
    return words, s


def _fill_slots(slots, x, last, tables) -> None:
    """Lay out each value of the flat float64 array ``x`` in its row of the
    uint8 ``slots`` (size, _SLOT); ``last`` is 1 where the value ends a row."""
    bits = x.view(np.uint64)
    magnitude_bits = bits & np.uint64(0x7FFF_FFFF_FFFF_FFFF)
    biased = (magnitude_bits >> np.uint64(52)).astype(np.int16)
    low_e, high_e = _BULK_EXPONENTS
    bulk = (biased >= low_e) & (biased < high_e)
    zero = magnitude_bits == 0
    a = np.where(bulk, magnitude_bits.view(np.float64), 1.0)

    n, k, decided = _significands(a, tables.power)
    decided &= bulk
    decided |= zero
    n[~decided] = _N_LOW  # any N in range: these slots are overwritten
    n[zero] = 0  # "0": one digit at exponent 0
    k[zero] = 0

    words, s = _digit_words(n, tables)
    fixed = (k >= -4) & (k <= 16)
    code = np.where(fixed, k + 4, _LAYOUTS - 1) * 18 + s
    sign = (bits >> np.uint64(63)).astype(np.int64)
    frame = ((k + _K_MAX) * 2 + sign) * 2 + last

    # digit j of the line before the point sits at byte 6 + j, and of the
    # line after it at 7 + j, where _digit_words put it
    after = words.view(np.uint64)
    slots[:, _DIGITS:_EXP - 1] = words.view(np.uint8)[:, _DIGITS + 1:_EXP]
    out = slots.view(np.uint64)
    out &= tables.a_mask.take(code, axis=0).view(np.uint64)
    after &= tables.b_mask.take(code, axis=0).view(np.uint64)
    out |= after
    out |= tables.dot.take(code, axis=0).view(np.uint64)
    out |= tables.frame.take(frame, axis=0).view(np.uint64)

    fallback = np.flatnonzero(~decided)
    if fallback.size:
        text = [format(v, ".17g") for v in x[fallback].tolist()]
        slots[fallback, :_SEP] = np.array(text, dtype=f"S{_SEP}") \
            .view(np.uint8).reshape(-1, _SEP)


def row_chunks(arrays: List[np.ndarray], n_rows: int,
               chunk_rows: int) -> Iterator[bytes]:
    """The CSV rows of one-dimensional float or bool columns,
    ``chunk_rows`` at a time, each value as ``format(float(v), ".17g")``
    writes it."""
    tables = _tables()
    m = len(arrays)
    rows = min(chunk_rows, n_rows)
    slots = np.empty((rows * m, _SLOT), np.uint8)  # one buffer for every chunk
    values = np.empty((rows, m))
    last = np.tile(np.arange(m) == m - 1, rows).astype(np.int64)
    for start in range(0, n_rows, chunk_rows):
        size = min(chunk_rows, n_rows - start)
        part = values[:size]
        # casting a float32 signalling NaN warns; it still formats as "nan"
        with np.errstate(invalid="ignore"):
            for j, array in enumerate(arrays):
                part[:, j] = array[start:start + size]
        chunk = slots[:size * m]
        _fill_slots(chunk, part.reshape(-1), last[:size * m], tables)
        yield chunk[chunk != 0].tobytes()
