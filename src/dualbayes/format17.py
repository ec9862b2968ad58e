"""Rows of float64 values printed as ``'%.17g' % value`` prints each one.

The CLI prints every probability to 17 significant digits, which round-trips
any float64.  Python's ``%`` costs over half a microsecond per value; this
module builds the same bytes for a whole block of a table with a few dozen
numpy operations.

The digits are exact (after Gay, "Correctly Rounded Binary-Decimal and
Decimal-Binary Conversions", 1990).  An ``x`` in ``[1e-10, 10)``, which holds
every posterior the CLI prints but the tiniest, is ``m·2^q`` with an integer
``m < 2^53``.  Its decimal exponent ``X = floor(log10 x) <= 0`` is read from
two tables over the binary exponent, and its 17 digits are the integer
``D = round-half-even(x·10^s)``, ``s = 16 - X``, computed as
``m·5^s·2^(q+s)``: a 128-bit product of 32-bit halves, shifted right, its
discarded bits rounded.  No ``D`` rounds up to ``10^17``, which would move
``X``: that takes a value within ``5e-18`` (relative) below a power of ten,
and the float64 closest below any of ``1e-9 ... 10`` is at least ``4.5e-17``
below it.  Zero prints ``0``; any other value (a negative, ``-0``, NaN, an
infinity, a magnitude below ``1e-10`` or of 10 or more) goes through ``%``
one value at a time.

Each value then fills a 32-byte slot, ``d_j`` being its j-th digit and
``E`` the two digits of ``-X``.  In fixed point below 1 (here ``X = -3``),
in fixed point at ``X = 0``, and in the exponent form the slots are::

    . . . 0 . 0 0 d0 | d1 ... d16 | sep . . . . . . .
    . . . . . . d0 . | d1 ... d16 | sep . . . . . . .
    . . . . . . d0 . | d1 ... d16 | e - E E sep . . .

A table keyed by ``X``, the number of digits left once trailing zeros go,
and whether the value ends its row turns the bytes ``%g`` does not print
into :data:`HOLE`, a byte no UTF-8 text holds: the point when no digit
follows it, stripped digits, the separator after a row's last value.  A row
is its head, its slots and its tail side by side, and one boolean mask drops
the holes of a whole block; most values print one run of bytes, which keeps
that pass fast.

The integer work is shifts, adds, multiplies and ``//`` on uint64: an
integer test is a shifted sign or carry bit, never a comparison, a mask or
a boolean cast, because each integer loop a process runs for the first
time maps more of numpy's code into its memory.  The tables are built from Python
integers and strings by copies, for the same reason.
"""

from __future__ import annotations

import math

import numpy as np

#: The byte that marks what a row does not print; UTF-8 never uses it.
HOLE = 0xFF

_SLOT = 32  # bytes per value: d1 to d16 are bytes 8 to 23
_LOW, _HIGH = 1e-10, 10.0  # the values formatted with integer arithmetic
_X_MIN, _X_SPAN = -10, 11  # X of 1e-10 up to 0
_DIGITS = 17
_ZERO = _X_SPAN * _DIGITS  # the code of a zero, past those of (X, kept)
_U = np.uint64  # numpy 1.x turns uint64 with a Python int into float64
_TEN4, _TEN8, _TEN16 = _U(10**4), _U(10**8), _U(10**16)


def _power_of_ten_at_least(n: int) -> float:
    """The least float64 that is at least ``10**n``."""
    value = float(f"1e{n}")
    num, den = value.as_integer_ratio()
    below = num * 10**max(-n, 0) < den * 10**max(n, 0)
    return math.nextafter(value, math.inf) if below else value


def _exponent_tables():
    """``(low, step)`` indexed by the biased binary exponent ``e`` of a value
    ``x`` in range: ``X - _X_MIN = low[e] + (x >= step[e])``."""
    low, step = np.zeros(2048, dtype=np.uint64), np.full(2048, np.inf)
    for p in range(-34, 4):  # the binades [2^p, 2^(p + 1)) that meet [1e-10, 10)
        # the largest j with 10^j <= 2^p; every value formatted from binade
        # -34, which starts below 1e-10, has X = -10
        j = max(math.floor(p * math.log10(2)), _X_MIN)
        above = _power_of_ten_at_least(j + 1)
        low[p + 1023] = j - _X_MIN
        step[p + 1023] = above if above < 2.0 ** (p + 1) else math.inf
    return low, step


def _fixed_below_one(x: int) -> bool:
    """Whether ``%g`` prints a value of exponent ``x`` as ``0.`` and digits."""
    return -4 <= x < 0


def _hole_table() -> np.ndarray:
    """Four words of holes per value: row ``last * (_ZERO + 1) + code`` for a
    value whose ``code`` is ``(X - _X_MIN) * _DIGITS + kept - 1``, or
    ``_ZERO`` for a zero, where ``last`` drops the separator."""
    table = np.full((2, _ZERO + 1, _SLOT), HOLE, dtype=np.uint8)
    values = table[:, :-1].reshape(2, _X_SPAN, _DIGITS, _SLOT)
    # digits[s]: d1 to d_(s-1), bytes 8 to 23
    digits = np.full((_DIGITS + 1, 16), HOLE, dtype=np.uint8)
    for shown in range(1, _DIGITS + 1):
        digits[shown, :shown - 1] = 0
    values[..., 8:24] = digits[1:]
    for row, x in enumerate(_XS):
        sep = 28 if x < -4 else 24
        if _fixed_below_one(x):  # "0." and -x - 1 zeros, then d0 at byte 7
            values[:, row, :, 6 + x:8] = 0
        else:  # d0 at byte 6, a point at 7 when a digit follows it
            values[:, row, :, 6] = 0
            values[:, row, 1:, 7] = 0
        values[:, row, :, 24:sep] = 0  # e-XX
        values[0, row, :, sep] = 0
    table[:, -1, 5] = 0  # a zero is laid out as 0.5 and prints its "0"
    table[0, -1, 24] = 0
    return table.reshape(-1, _SLOT).view(np.uint64)


def _ascii(texts) -> np.ndarray:
    """Texts of one length as the rows of a uint8 matrix."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint8).reshape(len(texts), -1)


def _lead(x: int, d: int) -> str:
    """The first word of a slot: ``0.`` and its zeros, d0, a point; ``#``
    fills bytes that are always holes."""
    if _fixed_below_one(x):
        return "#" * (6 + x) + "0." + "0" * (-x - 1) + str(d)
    return f"######{d}."


_XS = range(_X_MIN, _X_MIN + _X_SPAN)
# "dddd" of each group of four digits, from the two-digit table, and how many
# zeros end it (4 for 0000)
_PAIRS = _ascii([f"{d:02d}" for d in range(100)])
_QUADS = np.empty((100, 100, 4), dtype=np.uint8)
_QUADS[:, :, :2] = _PAIRS[:, None]
_QUADS[:, :, 2:] = _PAIRS[None, :]
_QUADS = _QUADS.reshape(-1, 4).view(np.uint32).ravel()
_PAIR_ZEROS = [2] + [int(d % 10 == 0) for d in range(1, 100)]
_QUAD_ZEROS = np.empty((100, 100), dtype=np.uint64)
_QUAD_ZEROS[:] = _PAIR_ZEROS
_QUAD_ZEROS[:, 0] = [2 + zeros for zeros in _PAIR_ZEROS]
_QUAD_ZEROS = _QUAD_ZEROS.ravel()
_LEADS = _ascii([_lead(x, d) for x in _XS for d in range(10)]).view(np.uint64).ravel()
# the last word without its separator, and a 1 where the separator goes
_EXPONENTS = _ascii([f"e-{-x:02d}\0\0\0\0" if x < -4 else "\0" * 8 for x in _XS])
_EXPONENTS = _EXPONENTS.view(np.uint64).ravel()
_SEPARATORS = _ascii(["\0\0\0\0\1\0\0\0" if x < -4 else "\1" + "\0" * 7 for x in _XS])
_SEPARATORS = _SEPARATORS.view(np.uint64).ravel()
_FIVES = [5 ** (16 - x) for x in _XS]
_FIVES_HIGH = np.array([f >> 32 for f in _FIVES], dtype=np.uint64)
_FIVES_LOW = np.array([f & 0xFFFFFFFF for f in _FIVES], dtype=np.uint64)
_X_LOW, _X_STEP = _exponent_tables()
_HOLES = _hole_table()


def _blank(n_rows: int, width: int) -> np.ndarray:
    """``n_rows`` rows of holes, ``width`` rounded up to a multiple of 8."""
    return np.full((n_rows, -(-width // 8) * 8), HOLE, dtype=np.uint8)


def pieces(texts) -> np.ndarray:
    """The UTF-8 bytes of each of ``texts`` as one row of a uint8 matrix,
    padded with holes to a width that is a multiple of 8."""
    encoded = [text.encode() for text in texts]
    rows = _blank(len(encoded), max(map(len, encoded)))
    for row, text in zip(rows, encoded):
        row[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    return rows


def counters(prefix: str, start: int, stop: int, suffix: str) -> np.ndarray:
    """Pieces ``f"{prefix}{t}{suffix}"`` for ``t`` in ``range(start, stop)``,
    ``0 <= start < stop``."""
    before, after = prefix.encode(), suffix.encode()
    width = -(-len(str(stop - 1)) // 4) * 4  # whole groups of four digits
    end = len(before) + width
    rows = _blank(stop - start, end + len(after))
    rows[:, :len(before)] = np.frombuffer(before, dtype=np.uint8)
    rows[:, end:end + len(after)] = np.frombuffer(after, dtype=np.uint8)
    t = np.arange(start, stop, dtype=np.uint64)
    for right in range(end, len(before), -4):
        group = t // _TEN4
        quad = _QUADS.take((t - group * _TEN4).view(np.int64))
        rows[:, right - 4:right] = quad.view(np.uint8).reshape(-1, 4)
        t = group
    for j in range(1, width):  # t runs up, so the rows with t < 10^j lead with zeros
        rows[:max(0, 10**j - start), end - 1 - j] = HOLE
    return rows


def _decimal(a: np.ndarray):
    """``(X - _X_MIN, D)`` of each value of ``a``, all in ``[1e-10, 10)``.

    Each test is a shift of a sign or carry bit, not a comparison."""
    bits = a.view(np.uint64)
    e = bits >> _U(52)
    below = (a - _X_STEP.take(e.view(np.int64))).view(np.uint64) >> _U(63)
    xi = _X_LOW.take(e.view(np.int64)) + _U(1) - below
    m = (((bits << _U(12)) >> _U(12)) | _U(2**52)) << _U(3)  # so that the shift below is 1 to 63
    m1, m0 = m >> _U(32), (m << _U(32)) >> _U(32)
    f1, f0 = _FIVES_HIGH.take(xi.view(np.int64)), _FIVES_LOW.take(xi.view(np.int64))
    low = m0 * f0
    mid = m1 * f0 + m0 * f1
    lower = low + (mid << _U(32))
    carry = ((low >> _U(32)) + ((mid << _U(32)) >> _U(32))) >> _U(32)  # out of lower
    upper = m1 * f1 + (mid >> _U(32)) + carry
    shift = xi + _U(1062 + _X_MIN) - e  # 3 - q - s
    left = _U(64) - shift
    d = (upper << left) | (lower >> shift)
    # round half to even: up when the first bit shifted out is set and any
    # other is, or d is odd
    dropped = lower << left
    rest = (dropped << _U(1)) | ((d << _U(63)) >> _U(63))
    d += (dropped >> _U(63)) * ((rest | (_U(0) - rest)) >> _U(63))
    return xi, d


def _digit_groups(d: np.ndarray):
    """The first digit of each 17-digit ``D`` and its four groups of four."""
    lead = d // _TEN16
    rest = d - lead * _TEN16
    high8 = rest // _TEN8
    low8 = rest - high8 * _TEN8
    g1 = high8 // _TEN4
    g3 = low8 // _TEN4
    return lead, (g1, high8 - g1 * _TEN4, g3, low8 - g3 * _TEN4)


def _trailing_zeros(groups) -> np.ndarray:
    """How many zeros end each ``D``, from the four-digit groups after its
    first digit, which is never 0."""
    zeros = _QUAD_ZEROS.take(groups[3].view(np.int64))
    whole = np.flatnonzero(zeros >> _U(2))  # rare: the last four digits are zeros
    if whole.size:
        more = [group[whole].view(np.int64) for group in groups]
        ends = _QUAD_ZEROS.take(more[3])
        for ended, group in zip((4, 8, 12), more[2::-1]):  # 1 while all digits after are 0
            ends += ends // _U(ended) * _QUAD_ZEROS.take(group)
        zeros[whole] = ends
    return zeros


def _slots(values: np.ndarray, sep: str) -> np.ndarray:
    """The ``(R, N * _SLOT)`` bytes of the values of an ``(R, N)`` array,
    each but a row's last followed by ``sep``."""
    v = values.reshape(-1)
    fast = (v >= _LOW) & (v < _HIGH)
    a = v.copy()
    a[~fast] = 0.5  # laid out as 0.5, whose slot holds the "0" a zero prints
    xi, d = _decimal(a)
    lead, groups = _digit_groups(d)
    code = np.where(fast, xi * _U(_DIGITS) + (_U(_DIGITS - 1) - _trailing_zeros(groups)),
                    _U(_ZERO))
    code.reshape(values.shape)[:, -1] += _U(_ZERO + 1)  # no separator

    words = np.empty((v.size, _SLOT // 8), dtype=np.uint64)
    words[:, 0] = _LEADS.take((xi * _U(10) + lead).view(np.int64))
    quads = words.view(np.uint32)
    for k, group in enumerate(groups, 2):
        quads[:, k] = _QUADS.take(group.view(np.int64))
    words[:, 3] = (_EXPONENTS | _SEPARATORS * _U(ord(sep))).take(xi.view(np.int64))
    words |= _HOLES.take(code.view(np.int64), axis=0)

    slots = words.view(np.uint8)
    other = np.flatnonzero(~fast & ((v != 0) | np.signbit(v)))  # all but +0.0
    if other.size:
        text = np.array([b"%.17g" % x for x in v[other].tolist()], dtype="S24")
        chars = text.view(np.uint8).reshape(-1, 24)
        chars[chars == 0] = HOLE
        slots[other, :24] = chars
    return slots.reshape(values.shape[0], -1)


def rows(values: np.ndarray, sep: str, head: np.ndarray, tail: np.ndarray) -> str:
    """The text of each row ``r`` of ``values``:
    ``head[r] + sep.join('%.17g' % v for v in values[r]) + tail[r]``.

    ``values`` is an ``(R, N)`` float64 array with ``N >= 1`` and ``sep`` one
    ASCII character; ``head`` and ``tail`` are pieces (:func:`pieces`), one
    row each or one row for all.
    """
    n_rows, n = values.shape
    start, stop = head.shape[1], head.shape[1] + n * _SLOT
    out = np.empty((n_rows, stop + tail.shape[1]), dtype=np.uint8)
    out[:, :start] = head
    out[:, start:stop] = _slots(values, sep)
    out[:, stop:] = tail
    return out[out != HOLE].tobytes().decode()
