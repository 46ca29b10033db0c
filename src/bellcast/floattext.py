"""``repr`` of a whole float64 array at once, computed in uint64 numpy lanes.

``reprs(values)`` equals ``list(map(repr, values.tolist()))`` for finite
values, byte for byte, in a fixed number of numpy calls per array rather than
one Python call per value.

* Digits: Schubfach (Giulietti, "The Schubfach way to render doubles",
  2020).  A positive double ``c * 2**q`` has the rounding interval ``Rv``
  between the midpoints to its neighbours, closed when ``c`` is even as
  round-half-even makes it.  With ``k = floor(log10(2**q))`` (of ``3/4 *
  2**q`` where the spacing below is half the spacing above), ``s =
  floor(v / 10**k)`` has at most 17 digits, ``Rv`` is narrower than
  ``10**(k + 1)``, and the shortest decimal in ``Rv`` is ``s`` or ``s + 1``,
  or a multiple of ten next to them, at ``10**k``.  Among the candidates of
  that length in ``Rv`` the one closest to ``v`` wins, ties to even; that
  is the digit string ``repr`` prints.  The products ``4 * v / 10**k``,
  and those of the two interval ends, are rounded to odd from one 126-bit
  power of ten ``g``: the low bit says whether any remainder was dropped,
  which is all the comparisons against ``Rv`` need.  The table of ``g`` is
  built from Python ints at import.  The shorter candidate is tried from
  ``s >= 10``, where the JDK's ``Double.toString`` tries it from ``s >= 100``
  and scales the two smallest subnormals by ten first: ``repr`` prints
  ``5e-324`` and ``5e-323`` with one digit, the JDK ``4.9E-324``.
* Layout: ``repr`` writes the digits positionally when the first digit's
  decimal exponent ``x`` is in ``[-4, 16)``, with ``.0`` on integral
  values, and otherwise as ``d.ddde±XX`` with at least two exponent digits.
  Each value gets one row of ``uint8`` columns (sign, integer digits, dot,
  fraction digits, exponent, ``,``), zero where a character is absent, and
  one ``translate`` of the rows' bytes drops the zeros before they are
  decoded and split.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .stream import _LOW32, _UINT64

# floor(log10(2**q)) and floor(log10(3/4 * 2**q)) for |q| <= 1100, and
# floor(log2(10**e)) for |e| <= 400, as fixed-point products (the JDK's
# MathUtils constants).
_LOG10_2 = 661_971_961_083
_LOG10_3_4 = -274_743_187_321
_LOG2_10 = 913_124_641_741

_K_MIN = -324  # floor(log10(2**-1074)), the smallest subnormal's k
_K_MAX = 292  # floor(log10(2**971)), the largest double's k


def _flog2pow10(e):
    return (e * _LOG2_10) >> 38


def _g_table() -> np.ndarray:
    """``g = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1``, in [2**125,
    2**126), for each ``k`` from ``_K_MIN``, as ``g = g1 * 2**63 + g0``: a
    ``(4, K)`` table of the 32-bit halves ``g1 >> 32``, ``g1 & M``,
    ``g0 >> 32`` and ``g0 & M``, each below 2**32 and the high ones below
    2**31."""
    table = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            g = (10**-k << shift) if shift >= 0 else (10**-k >> -shift)
        else:
            g = (1 << shift) // 10**k
        g1, g0 = divmod(g + 1, 1 << 63)
        table.append([*divmod(g1, 1 << 32), *divmod(g0, 1 << 32)])
    words = np.array(table, np.uint64).T.copy()
    words.setflags(write=False)
    return words


_G = _g_table()
_MASK52 = np.uint64((1 << 52) - 1)
_MASK63 = np.uint64((1 << 63) - 1)
_NOT3 = np.uint64((1 << 64) - 4)
_HIDDEN = np.uint64(1 << 52)
_TEN = np.uint64(10)

# Digit text: a decimal below 10**17 as five groups of four digits, each
# read from a table of the 10**4 four-character strings (the top group's
# first three characters are always "000").
_PAIRS = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), "<u2")
_QUADS = (_PAIRS[:, None].astype("<u4") | _PAIRS.astype("<u4") << 16).ravel()
_QUAD = np.uint64(10**4)
_ZEROS8 = np.uint64(int.from_bytes(b"0" * 8, "little"))
_DIGITS = 17
_POWERS = 10 ** np.arange(_DIGITS, dtype=np.uint64)

# Layout: values show the decimal exponents 15 down to -20 at most (x = 15,
# and x = -4 with 17 digits), so a window of columns needs at most 19 '0's
# before the first digit.
_PAD_LEFT = 15 + 4
_COLUMNS = np.arange(15 + 20 + 1, dtype=np.uint8)
_CHARS = np.frombuffer(b"0-.e+,", np.uint8)
_ZERO, _MINUS, _DOT, _E, _PLUS, _COMMA = _CHARS


def _round_to_odd(g, cp):
    """``g * cp / 2**127`` rounded to odd as Schubfach's proof takes it, from
    ``g1 * cp`` and the top 64 bits of ``g0 * cp``, for ``g`` as four 32-bit
    halves (see ``_g_table``) and ``cp`` below 2**60.

    With ``cp``'s high half below 2**28 and the high halves of ``g1`` and
    ``g0`` below 2**31, no sum of partial products passes 2**64."""
    g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _UINT64[32], cp & _LOW32
    low = g1_lo * cp_lo
    mid = g1_hi * cp_lo + g1_lo * cp_hi + (low >> _UINT64[32])
    high = g1_hi * cp_hi + (mid >> _UINT64[32])
    low = ((mid << _UINT64[32]) | (low & _LOW32)) >> _UINT64[1]
    mid = g0_hi * cp_lo + g0_lo * cp_hi + (g0_lo * cp_lo >> _UINT64[32])
    z = low + g0_hi * cp_hi + (mid >> _UINT64[32])
    return (high + (z >> _UINT64[63])) | ((z & _MASK63) != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal ``d * 10**k`` in each positive double's rounding
    interval, closest to the double, ties to even, as ``(d, k)``."""
    exponent = (bits >> _UINT64[52]).astype(np.int64)
    normal = exponent != 0
    c = (bits & _MASK52) | normal * _HIDDEN
    q = exponent - 1075 + ~normal
    irregular = (c == _HIDDEN) & (exponent > 1)
    k = (q * _LOG10_2 + irregular * _LOG10_3_4) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    # c and its interval ends, times 4 (the lower end is nearer when the
    # spacing below is half the spacing above), shifted for the product;
    # built in place, which saves 3-5% of a call against np.stack.
    ends = np.empty((3, len(bits)), np.uint64)
    np.left_shift(c, _UINT64[2], out=ends[0])
    np.subtract(ends[0], _UINT64[2] - irregular, out=ends[1])
    np.add(ends[0], _UINT64[2], out=ends[2])
    ends <<= h
    vb, vbl, vbr = _round_to_odd(_G.take(k - _K_MIN, axis=1)[:, None], ends)
    odd = c & _UINT64[1]  # Rv is open for odd c, where a tie rounds away
    lower = vbl + odd
    upper = vbr - odd
    # s and t = s + 1, at 10**k, bracket v; if both are in Rv, the one
    # nearer v wins, the even one on a tie.
    s = vb >> _UINT64[2]
    four_s = vb & _NOT3
    low_in = lower <= four_s
    high_in = four_s + _UINT64[4] <= upper
    nearer_t = (vb & _UINT64[3]) + (s & _UINT64[1]) > _UINT64[2]
    digits = s + (high_in & (nearer_t | ~low_in))
    # A multiple of ten beside s in Rv is one digit shorter.
    sp10 = s // _TEN * _TEN
    low_in = lower <= sp10 << _UINT64[2]
    high_in = (sp10 << _UINT64[2]) + _UINT64[40] <= upper
    shorter = (low_in != high_in) & (s >= _TEN)
    return np.where(shorter, sp10 + high_in * _TEN, digits), k


def _decimal(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each decimal below 10**17 as 17 characters with leading zeros, its
    length and its length without trailing zeros (each at least 1)."""
    # Five groups of four digits after a "0000" group: the 17 digits are
    # bytes 7 to 23 of each row.
    groups = np.zeros((len(digits), 6), np.intp)
    rest = digits
    for group in range(5, 1, -1):
        quotient = rest // _QUAD
        groups[:, group] = rest - quotient * _QUAD
        rest = quotient
    groups[:, 1] = rest
    quads = _QUADS[groups]
    length = np.maximum(np.searchsorted(_POWERS, digits, "right"), 1)
    # The last nonzero digit: each 8-byte word's highest byte that is not
    # '0' is found from the exponent of the word as a float (its bytes are
    # at most 9 after the xor, so rounding never carries past a byte).
    words = quads.view(np.uint64) ^ _ZEROS8
    used = (np.frexp(words.astype(np.float64))[1] + 7) >> 3
    last = np.where(used[:, 1], used[:, 1] + 8, used[:, 0])
    last = np.where(used[:, 2], used[:, 2] + 16, last)
    return quads.view(np.uint8)[:, 7:], length, np.maximum(length - (24 - last), 1)


def _window(chars, start, width: int) -> np.ndarray:
    """Row i's ``width`` characters from ``start[i]`` of its digits padded
    with '0's on both sides."""
    padded = np.full((len(chars), _PAD_LEFT + _DIGITS + width), _ZERO)
    padded[:, _PAD_LEFT : _PAD_LEFT + _DIGITS] = chars
    # sliding_window_view, without its argument checks
    windows = as_strided(
        padded, (len(chars), _PAD_LEFT + _DIGITS + 1, width), (padded.strides[0], 1, 1)
    )
    return windows[np.arange(len(chars)), start]


def _rows(bits: np.ndarray) -> np.ndarray:
    """One ``uint8`` row per double: its ``repr`` and a comma, with zero
    bytes where a column holds no character."""
    magnitude = bits & _MASK63
    digits, k = _shortest(magnitude)
    zero = magnitude == 0  # written as the one digit 0 at 10**0
    digits[zero] = 0
    k[zero] = 0
    chars, length, count = _decimal(digits)
    x = k + length - 1

    positional = (-4 <= x) & (x < 16)
    shown_x = np.where(positional, x, 0)
    high = np.maximum(shown_x, 0)
    low = shown_x - count + 1
    low = np.where(positional, np.minimum(low, -1), low)
    top, bottom = int(high.max()), min(int(low.min()), -1)
    width = top - bottom + 1

    # Column i shows the decimal exponent top - i, and the digit j of the
    # value shows in column shown_x - j; blank outside [low, high].
    text = _window(chars, _PAD_LEFT + _DIGITS - length + shown_x - top, width)
    first = (top - high).astype(np.uint8)
    shown = _COLUMNS[:width] - first[:, None] <= (high - low).astype(np.uint8)[:, None]
    np.multiply(text, shown, out=text)

    wide = np.flatnonzero(~positional)
    rows = np.zeros((len(bits), width + 3 + 5 * bool(wide.size)), np.uint8)
    rows[:, 0] = (bits >> _UINT64[63]).astype(np.uint8) * _MINUS
    rows[:, 1 : top + 2] = text[:, : top + 1]
    rows[:, top + 2] = np.where(low < 0, _DOT, 0)
    rows[:, top + 3 : width + 2] = text[:, top + 1 :]
    if wide.size:
        x = x[wide]
        magnitude = np.abs(x)
        exp = np.empty((wide.size, 5), np.uint8)
        exp[:, 0] = _E
        exp[:, 1] = np.where(x < 0, _MINUS, _PLUS)
        exp[:, 2] = np.where(magnitude >= 100, magnitude // 100 + _ZERO, 0)
        exp[:, 3] = magnitude // 10 % 10 + _ZERO
        exp[:, 4] = magnitude % 10 + _ZERO
        rows[wide, -6:-1] = exp
    rows[:, -1] = _COMMA
    return rows


def reprs(values: np.ndarray) -> list[str]:
    """``list(map(repr, values.ravel().tolist()))`` for an array of finite
    floats: their ``repr`` text in row-major order."""
    values = np.ascontiguousarray(values, np.float64).ravel()
    if not np.isfinite(values).all():
        raise ValueError("reprs takes finite values only")
    if not values.size:
        return []
    rows = _rows(values.view(np.uint64))
    return rows.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]
