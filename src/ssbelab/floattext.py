"""CSV lines of an int column and a float block, every float as its ``repr``.

``csv_lines(index, block)`` writes row i as ``index[i],block[i,0],...``
and a newline.  A float's text is ``repr(float(v))``: the shortest digit
string that reads back to v, the closest such one, ties to an even last
digit.  The digits come from Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020; Java's ``Double.toString`` since JDK 19): v is
c 2^q, the power of ten g(k) ~ 10^-k is a 126-bit integer, and three
products with it bound the decimal interval that rounds to v.  The
products run on uint64 arrays, 64 x 64 -> 128 bits from 32-bit limbs, so
no floating-point rounding enters a decision.

The layout is CPython's ``'r'`` format: fixed notation for a decimal
point position -4 < decpt <= 16, with ``.0`` after an integral value, and
``d[.ddd]e±XX`` otherwise.  ``nan``, ``inf``, ``-inf`` and ``±0.0`` are
constant text; a subnormal, the one class left over, goes through
``repr``.  A cell is four little-endian uint64 words, NUL-padded: the
separator, the sign, "0000" and the 17 digits, the point inserted by a
one-byte shift under masks looked up by (decpt, digit count), and the
exponent suffix.  A line is its cells side by side, every byte written;
the padding is deleted from a block of lines in one ``bytes.translate``.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_M52 = _U((1 << 52) - 1)
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(log2(10^e)) (Schubfach's MathUtils)."""
    return (e * 913_124_641_741) >> 38


def _g_table():
    """g(k) = floor(10^-k 2^-r) + 1, 2^125 <= g < 2^126, for k = _K_MIN.._K_MAX.

    Rows: g1 and the 32-bit limbs L0..L3, where g = g1 2^63 + g0,
    g0 = L1 2^32 + L0 and g1 = L3 2^32 + L2.
    """
    rows = np.zeros((5, _K_MAX - _K_MIN + 1), _U)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g = (1 << -r) // 10**k + 1
        else:
            g = (10**-k << -r if r <= 0 else 10**-k >> r) + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows[:, i] = [g1, g0 & 0xFFFFFFFF, g0 >> 32, g1 & 0xFFFFFFFF, g1 >> 32]
    return rows


def _body_masks():
    """Masks of a cell's words by (decpt class, significant digits), 22 x 18 keys.

    The body E = "0000" + 17 digits sits at cell bytes 2..22.  The point
    goes before E[p]; body positions start..end are kept.  A keeps bytes
    before the point, B bytes after it (E shifted up a byte), C is the
    point.  The class is decpt clipped to [-4, 17] and shifted by 4: 0 and
    21 are exponent notation.
    """
    decpt = np.arange(22)[:, None, None] - 4
    nd = np.arange(18)[None, :, None]
    fixed = (decpt > -4) & (decpt <= 16)
    p = np.where(fixed, decpt + 4, 5)
    end = np.where(fixed, np.maximum(nd + 4, p + 1), np.where(nd > 1, nd + 4, 4))
    j = np.arange(32) - 2  # body position of each cell byte
    keep = (j >= np.minimum(p - 1, 4)) & (j <= end)
    byte = np.uint8(0xFF)
    masks = np.stack([byte * (keep & (j < p)), byte * (keep & (j > p)), np.uint8(46) * (keep & (j == p))])
    return masks.reshape(3, 22 * 18, 32).view("<u8")


def _suffixes():
    """Separator, sign and exponent suffix of a cell, by (decpt + 307) * 2 + negative."""
    table = np.zeros((617, 2, 4), _U)
    table[:, :, 0] = [0x2C, 0x2D2C]  # "," and ",-"
    table[:, :, 3] = np.array([
        0 if -4 < decpt <= 16 else int.from_bytes(b"e%+03d" % (decpt - 1), "little")
        for decpt in range(-307, 310)
    ], _U)[:, None]
    return table.reshape(-1, 4)


def _specials():
    """Whole cells of 0.0, a subnormal (a placeholder: repr writes it), inf and nan, by sign."""
    table = np.zeros((8, 32), np.uint8)
    for kind, text in enumerate((b"0.0", b"", b"inf", b"nan")):
        for neg in (0, 1):
            cell = b"," + (b"-" if neg and kind != 3 else b"") + text  # repr(nan) has no sign
            table[2 * kind + neg, : len(cell)] = np.frombuffer(cell, np.uint8)
    return table.view("<u8")


_G = _g_table()
_A, _B, _C = _body_masks()
_SUFFIX = _suffixes()
_SPECIAL = _specials()
# The magnitude bits that open each non-normal class after 0.0: subnormal, inf, nan.
_SPECIAL_BITS = np.array([1, 0x7FF0000000000000, 0x7FF0000000000001], dtype=_U)
# _KEEP_FROM[s]: three words whose bytes s.. are kept.
_KEEP_FROM = np.array([[0] * s + [0xFF] * (24 - s) for s in range(25)], np.uint8).view("<u8")
_POW10 = np.array([10**i for i in range(20)], dtype=_U)
_NEWLINE = _U(10 << 56)


def _ascii8(w):
    """Eight ASCII digits of each w < 10^8, the first in the lowest byte (SWAR)."""
    hi = w // _U(10000)
    v = hi | ((w - hi * _U(10000)) << _U(32))
    hi = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    v = hi | ((v - hi * _U(100)) << _U(16))
    hi = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    v = hi | ((v - hi * _U(10)) << _U(8))
    v |= _U(0x3030303030303030)
    return v


def _shortest(mag):
    """Schubfach on positive normal doubles with bits ``mag``.

    Returns (f, k): the closest of the shortest decimals that round to v is
    f 10^k, f of 16 or 17 digits (trailing zeros pad it).
    """
    # v = c 2^q and k = floor(log10(2^q)) (Schubfach's flog10pow2).  At the start
    # of a binade (c = 2^52, q above the least) the interval below v is half as
    # wide: k = floor(log10(3/4 2^q)) and cbl = cb - 1.
    q = (mag >> _U(52)).view(np.int64)
    narrow = (mag & _M52) == 0
    narrow &= q > 1
    q -= 1075
    k = q * 661_971_961_083
    k -= narrow * 274_743_187_321
    k >>= 41
    h = _flog2pow10(-k)
    h += q
    h += 2
    del q
    g1, l0, l1, l2, l3 = np.take(_G, k - _K_MIN, axis=1)
    cb = ((mag & _M52) | _U(1 << 52)) << _U(2)
    # cb and its interval's ends cbl, cbr, shifted by h, as one (3, n) block.
    cp = np.empty((3, len(mag)), _U)
    cp[0] = cb
    np.subtract(cb, _U(2), out=cp[1])
    cp[1] += narrow
    np.add(cb, _U(2), out=cp[2])
    cp <<= h.view(_U)
    del h
    # x1 = high 64 bits of g0 cp, y1 those of g1 cp; every partial sum stays below 2^64.
    c1 = cp >> _U(32)
    z = cp * g1
    z >>= _U(1)
    c0 = cp
    c0 &= _M32
    acc = np.multiply(c0, l0)
    acc >>= _U(32)
    tmp = np.multiply(c1, l0)
    acc += tmp
    np.multiply(c0, l1, out=tmp)
    acc += tmp
    acc >>= _U(32)
    np.multiply(c1, l1, out=tmp)
    acc += tmp
    # rop: floor(g cp / 2^127), its last bit set when the dropped bits are not all zero.
    z += acc
    np.multiply(c0, l2, out=acc)
    acc >>= _U(32)
    np.multiply(c1, l2, out=tmp)
    acc += tmp
    np.multiply(c0, l3, out=tmp)
    acc += tmp
    acc >>= _U(32)
    np.multiply(c1, l3, out=tmp)
    acc += tmp
    del c0, c1, tmp
    y1 = acc
    y1 += z >> _U(63)
    z &= _M63
    z += _M63
    z >>= _U(63)
    y1 |= z
    del z
    vb, vbl, vbr = y1
    out = (cb >> _U(2)) & _U(1)  # an odd c leaves the interval's ends out
    vbl += out
    vbr -= out
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    # One of s, s + 1 in the interval, else the closer to v, an even s on a tie.
    uin = vbl <= s << _U(2)
    win = (s << _U(2)) + _U(4) <= vbr
    mid = (s << _U(2)) + _U(2)
    up = (vb == mid) & (s & _U(1)).astype(bool)
    up |= vb > mid
    one_in = uin ^ win
    up &= ~one_in
    up |= one_in & win
    f = s + up
    # But first a multiple of ten, when the interval holds exactly one of sp10 and sp10 + 10.
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    shorter = upin != wpin
    if shorter.any():
        np.copyto(f, sp10 + _U(10) * wpin, where=shorter)
    return f, k


def _float_cells(values):
    """The cells of float64 ``values`` (n,): an (n, 4) array of words, separator first."""
    bits = values.view(_U)
    neg = bits >> _U(63)
    mag = bits & _M63
    odd = ((mag >> _U(52)) + _U(1)) & _U(2047) <= _U(1)  # exponent bits all 0 or all 1
    any_odd = odd.any()
    f, k = _shortest(np.where(odd, _U(0x3FF0000000000000), mag) if any_odd else mag)
    # f to exactly 17 digits; v = 0.d1...d17 10^decpt.
    short = f < _U(10**16)
    f += f * _U(9) * short
    decpt = k + 17 - short
    lead = f // _U(10**16)
    f -= lead * _U(10**16)
    halves = np.empty((len(f), 2), _U)
    np.floor_divide(f, _U(10**8), out=halves[:, 0])
    np.subtract(f, halves[:, 0] * _U(10**8), out=halves[:, 1])
    digits = _ascii8(halves)
    # Significant digits: 1 + the count of digits 2..17 up to the last that is not "0".
    # A byte's top bit flags a digit other than "0"; the flags are spread to every lower
    # byte of a word, and a flag in the second word to all of the first.
    flags = digits ^ _U(0x3030303030303030)
    flags |= (flags & _U(0x7F7F7F7F7F7F7F7F)) + _U(0x7F7F7F7F7F7F7F7F)
    flags &= _U(0x8080808080808080)
    for shift in (8, 16, 32):
        flags |= flags >> _U(shift)
    flags[:, 0] |= (flags[:, 1] & _U(0x80)) * _U(0x0101010101010101)
    counts = np.bitwise_count(flags)
    key = np.maximum(decpt, -4)
    np.minimum(key, 17, out=key)
    key += 4
    key *= 18
    key += counts[:, 0]
    key += counts[:, 1]
    key += 1
    # "0000", the lead digit and digits 2..17 at cell bytes 2..22.
    cells = np.empty((len(f), 4), _U)
    lead += _U(48)
    np.bitwise_or(lead << _U(48), digits[:, 0] << _U(56), out=cells[:, 0])
    cells[:, 0] |= _U(0x30303030 << 16)
    np.bitwise_or(digits[:, 0] >> _U(8), digits[:, 1] << _U(56), out=cells[:, 1])
    np.right_shift(digits[:, 1], _U(8), out=cells[:, 2])
    cells[:, 3] = 0
    # The bytes from the point on move up one; word 3 is zero, so no carry crosses cells.
    flat = cells.reshape(-1)
    shifted = flat << _U(8)
    shifted[1:] |= flat[:-1] >> _U(56)
    shifted &= np.take(_B, key, axis=0).reshape(-1)
    cells &= np.take(_A, key, axis=0)
    flat |= shifted
    cells |= np.take(_C, key, axis=0)
    row = decpt  # in place: the separator, sign and suffix row, (decpt + 307) * 2 + negative
    row += 307
    row *= 2
    row += neg.view(np.int64)
    cells |= np.take(_SUFFIX, row, axis=0)
    if any_odd:
        rows = np.flatnonzero(odd)
        kind = np.searchsorted(_SPECIAL_BITS, mag[rows], side="right")
        cells[rows] = np.take(_SPECIAL, 2 * kind + neg[rows].view(np.int64), axis=0)
        for i in rows[kind == 1].tolist():
            cells[i] = np.frombuffer(b",%r" % float(values[i]) + bytes(31), "<u8", 4)
    return cells


def _int_words(index, words):
    """Decimal text of ints 0 <= index < 10^(8 words), right-aligned in ``words`` words per row."""
    x = index.astype(_U)
    groups = np.empty((len(x), words), _U)
    for j in range(words - 1, 0, -1):
        x, groups[:, j] = np.divmod(x, _U(10**8))
    groups[:, 0] = x
    text = _ascii8(groups)
    width = np.maximum(np.searchsorted(_POW10, index.astype(_U), side="right"), 1)
    text &= np.take(_KEEP_FROM, 24 - width, axis=0)[:, 3 - words :]
    return text


def csv_lines(index, block) -> bytes:
    """Lines ``i,v_1,...,v_k\\n``: ``index`` an (m,) column of ints >= 0, ``block`` (m, k) floats.

    Every float reads as ``repr(float(v))`` and every int as ``str(i)``.
    """
    index = np.asarray(index, dtype=np.int64)
    block = np.ascontiguousarray(block, dtype=np.float64)
    m, k = block.shape
    if index.shape != (m,):
        raise ValueError(f"index column has shape {index.shape}, block has {m} rows")
    if m == 0:
        return b""
    if index.min() < 0:
        raise ValueError("the index column must be non-negative")
    words = -(-len(str(int(index.max()))) // 8)
    cells = _float_cells(block.reshape(-1)).reshape(m, 4 * k) if k else np.zeros((m, 1), _U)
    line = np.empty((m, words + cells.shape[1]), _U)
    line[:, :words] = _int_words(index, words)
    line[:, words:] = cells
    del cells
    line[:, -1] |= _NEWLINE
    return line.astype("<u8", copy=False).view(np.uint8).tobytes().translate(None, b"\0")
