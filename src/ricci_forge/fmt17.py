"""Exact ``%.17g`` text of a float64 block, computed in numpy.

For ``|x|`` in ``[1e-250, 1e250]`` the 17 significant digits come from
``y = |x| * 10**j``, ``j = 16 - floor(log10|x|)``, evaluated as a
double-double: the rounded product ``p`` plus its exact error (Dekker's
TwoProduct; T. J. Dekker, Numer. Math. 18, 1971) plus ``|x|`` times the low
part of ``10**j``. Once
``y >= 2**53`` the product ``p`` is an integer, so the digit string is
``p + round(r)``; the error of ``r`` is below 1e-13. A cell whose fraction
lies within ``_TIE`` of 1/2 may be a tie, and it takes Python's own
correctly rounded ``%.17g``, as do zeros, subnormals and the cells outside
the range above. Non-finite cells are empty.

The 17 digits are the leading one and four groups of four, one ``(4,
cells)`` uint16 array cut from the two 8-digit halves; each group is split
by 100 and each half of it by 10. Every step divides all the groups at
once: five vectorized divisions in place of sixteen, one per digit.

Each cell is then laid out in byte slots, one row of a ``(slots, cells)``
uint8 array per slot, following the ``%g`` rules: fixed notation for
``-4 <= X < 17``, else ``d.ddde±XX``, trailing zeros and a bare ``.``
removed. The slots are the sign; ``0.`` and up to three zeros for
``X < 0``; the 17 digits with one dot slot, after digit ``X`` in fixed
notation or after the first digit in exponent form; ``e``, the exponent's
sign and three digits, the first only from 100 up; and the separator. A
block has the five exponent slots only if one of its cells is in exponent
form, so it has 25 or 30 slots; a fallback cell's own text, at most 24
bytes, fits the 24 slots before them. The slots are filled by 0/1-mask
arithmetic (the exponent slots only at the cells in exponent form), so a
slot a cell leaves unused holds 0; the array is read out once in
transposed order, one row per cell, and its zero bytes are deleted.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_LO, _HI = 1e-250, 1e250
_KMIN = -252  # decimal exponents k of the fast cells, with a retry's step
_TIE = 1e-9
_TWO53 = 2.0**53
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant

# the byte slots of a cell: the sign, "0.000" for X = -4..-1, the 17 digits
# with one dot, "e±ddd" (only in a block with a cell in exponent form), the
# separator; a fallback cell's own text fills slots 0..23
_PREFIX, _DIGITS, _EXP = 1, 6, 24
# each byte of "0.000" and the largest X that shows it
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_ZEROS_UPTO = np.array([-1, -1, -2, -3, -4], dtype=np.int16)[:, None]
_DIGIT_NO = np.arange(17, dtype=np.uint8)[:, None]
# the digits kept when digit i, for i = 1..16, is the last nonzero one
_SIG_NO = np.arange(2, 18, dtype=np.uint8)[:, None]
_DOT = np.uint8(ord("."))


@lru_cache(maxsize=None)
def _tables():
    """The double-double ``10**(16-k)`` for k from ``_KMIN`` to
    ``-_KMIN``, built on the first render, as rows: its high part, its low
    part, and the high part split in two halves."""
    hi, lo = [], []
    for k in range(_KMIN, 1 - _KMIN):
        j = 16 - k
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        h = num / den  # int / int is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)])


def _split(v):
    t = _SPLIT * v
    hi = t - (t - v)
    return hi, v - hi


def _scaled(a, k, tables):
    """``floor(a * 10**(16-k))`` as int64 with the fraction left over, and
    whether the product had reached 2**53 (below it the floor is not
    exact, and the cell needs a smaller k)."""
    hi, lo, bh, bl = tables.take(k - np.int16(_KMIN), axis=1)
    p = a * hi
    ah, al = _split(a)
    r = (al * bl - (((p - ah * bh) - al * bh) - ah * bl)) + a * lo
    fl = np.floor(r)
    return p.astype(np.int64) + fl.astype(np.int64), r - fl, p >= _TWO53


def _cut(rows, unit, out):
    """Each row of ``rows`` cut into its quotient and remainder by
    ``unit``, written to ``out`` as two consecutive rows; returns ``out``.
    Its integer type may be narrower than that of ``rows``, and both parts
    must fit in it."""
    unit = rows.dtype.type(unit)
    q = rows // unit
    cut = out.reshape(len(rows), 2, rows.shape[1])
    cut[:, 0] = q
    q *= unit
    np.subtract(rows, q, out=cut[:, 1], casting="unsafe")
    return out


def render_block(block) -> bytes:
    """``%.17g`` ASCII text of every cell of a 2-D float64 block, cells
    separated by ``,`` and every row ended by a newline; a non-finite cell
    is empty."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    x = block.ravel()
    tables = _tables()

    a = np.abs(x)
    fast = (a >= _LO) & (a <= _HI)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int16)
    n, frac, whole = _scaled(a, k, tables)
    # log10 can be one off near a power of ten: retry those cells once
    low = ~whole | (n < 10**16)
    redo = np.flatnonzero(low | (n >= 10**17))
    if redo.size:
        k[redo] += np.where(low[redo], np.int16(-1), np.int16(1))
        n[redo], frac[redo], whole = _scaled(a[redo], k[redo], tables)
        bad = ~whole | (n[redo] < 10**16) | (n[redo] >= 10**17)
        frac[redo[bad]] = 0.5  # out of range twice: hand to the fallback
    n += frac > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    fast &= np.abs(frac - 0.5) >= _TIE
    n[~fast] = 0  # a fallback or empty cell shows no digit
    # each temporary is dropped once used: a block's memory peak is what is
    # alive at one time
    del a, frac, low, carry

    # the 17 digits: the leading one, then the two 8-digit halves of the
    # rest cut into four groups of four, each group by 100 and each half of
    # that by 10
    digits = np.empty((17, x.size), dtype=np.uint8)
    halves = _cut(n[None], 10**8, np.empty((2, x.size), dtype=np.uint32))
    del n
    lead = halves[0] // np.uint32(10**8)
    digits[0] = lead
    halves[0] -= lead * np.uint32(10**8)
    groups = _cut(halves, 10**4, np.empty((4, x.size), dtype=np.uint16))
    _cut(_cut(groups, 100, np.empty((8, x.size), dtype=np.uint8)), 10, digits[1:])
    del halves, lead, groups
    # digits left once trailing zeros are stripped
    nsig = (digits[1:] != 0).view(np.uint8) * _SIG_NO
    nsig = np.maximum(nsig.max(axis=0), np.uint8(1))

    fixed = fast & (k >= -4) & (k < 17)
    # digits before the dot: X + 1 in fixed notation (none below 1), one in
    # exponent form; a fallback or empty cell shows no digit
    before = np.where(fixed, np.maximum(k + np.int16(1), np.int16(0)),
                      np.int16(1)).astype(np.uint8) * fast
    shown = np.maximum(nsig, before) * fast
    dot = fast & (nsig > before) & (before > 0)
    sci = np.flatnonzero(fast & ~fixed)

    # "e±ddd" only if a cell is in exponent form
    sep = _EXP + 5 * bool(sci.size)
    cells = np.empty((sep + 1, x.size), dtype=np.uint8)
    np.multiply(np.signbit(x) & fast, np.uint8(ord("-")), out=cells[0])
    np.multiply(fixed & (k <= _ZEROS_UPTO), _ZEROS, out=cells[_PREFIX:_DIGITS])
    # the shown digits become ASCII; past them every digit is 0 and stays
    # a 0 byte. The masks are 0/1 bytes, so no product casts a bool
    mask = (_DIGIT_NO < shown).view(np.uint8)
    digits += np.multiply(mask, np.uint8(ord("0")), out=mask)
    # digit i sits at slot i before the dot and at slot i + 1 after it, the
    # dot at slot `before`; the last slot only ever holds a digit after it
    np.less(_DIGIT_NO, before, out=mask.view(bool))
    np.multiply(digits, mask, out=cells[_DIGITS:_DIGITS + 17])
    digits -= cells[_DIGITS:_DIGITS + 17]
    cells[_DIGITS + 17] = 0
    cells[_DIGITS + 1:_EXP] += digits
    np.equal(_DIGIT_NO, before, out=mask.view(bool))
    mask &= dot
    cells[_DIGITS:_DIGITS + 17] += np.multiply(mask, _DOT, out=mask)
    del digits, mask
    if sep > _EXP:
        cells[_EXP:sep] = 0
        ks = k[sci]
        e = np.abs(ks)
        cells[_EXP, sci] = ord("e")
        cells[_EXP + 1, sci] = np.where(ks < 0, np.uint8(ord("-")), np.uint8(ord("+")))
        cells[_EXP + 2, sci] = (e >= 100) * (e // np.int16(100) + np.int16(ord("0")))
        cells[_EXP + 3, sci] = e // np.int16(10) % np.int16(10) + np.int16(ord("0"))
        cells[_EXP + 4, sci] = e % np.int16(10) + np.int16(ord("0"))
    cells[sep] = ord(",")
    cells[sep, block.shape[1] - 1::block.shape[1]] = ord("\n")
    # a fallback cell's slots are all 0 so far
    for i in np.flatnonzero(np.isfinite(x) & ~fast):
        text = b"%.17g" % x[i]
        cells[:len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return cells.T.tobytes().translate(None, b"\0")
