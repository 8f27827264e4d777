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

Each cell is then laid out in 30 byte slots, one row of a ``(slots,
cells)`` uint8 array per slot, following the ``%g`` rules: fixed notation
for ``-4 <= X < 17``, else ``d.ddde±XX``, trailing zeros and a bare ``.``
removed. The slots are the sign; ``0.`` and up to three zeros for
``X < 0``; the 17 digits with one dot slot, after digit ``X`` in fixed
notation or after the first digit in exponent form; ``e``, the exponent's
sign and three digits, the first only from 100 up; and the separator. The
slots are filled by 0/1-mask arithmetic (the exponent slots only at the
cells in exponent form), so a slot a cell leaves unused holds 0; the array
is transposed once, to one row per cell, and its zero bytes are deleted.
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
# with one dot, "e±ddd", the separator; a fallback cell's own text fills
# slots 0..23
_PREFIX, _DIGITS, _EXP, _SEP = 1, 6, 24, 29
_SLOTS = _SEP + 1
# each byte of "0.000" and the largest X that shows it
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_ZEROS_UPTO = np.array([-1, -1, -2, -3, -4], dtype=np.int64)[:, None]
_DIGIT_NO = np.arange(17, dtype=np.uint8)[:, None]
_DOT = np.uint8(ord("."))


@lru_cache(maxsize=None)
def _tables():
    """The double-double ``10**(16-k)`` for k from ``_KMIN`` to
    ``-_KMIN``, built on the first render."""
    hi, lo = [], []
    for k in range(_KMIN, 1 - _KMIN):
        j = 16 - k
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        h = num / den  # int / int is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


def _split(v):
    t = _SPLIT * v
    hi = t - (t - v)
    return hi, v - hi


def _scaled(a, k, ph, pl):
    """``floor(a * 10**(16-k))`` as int64 with the fraction left over, and
    whether the product had reached 2**53 (below it the floor is not
    exact, and the cell needs a smaller k)."""
    hi, lo = ph[k - _KMIN], pl[k - _KMIN]
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    r = (al * bl - (((p - ah * bh) - al * bh) - ah * bl)) + a * lo
    fl = np.floor(r)
    return p.astype(np.int64) + fl.astype(np.int64), r - fl, p >= _TWO53


def render_block(block) -> bytes:
    """``%.17g`` ASCII text of every cell of a 2-D float64 block, cells
    separated by ``,`` and every row ended by a newline; a non-finite cell
    is empty."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    x = block.ravel()
    ph, pl = _tables()

    a = np.abs(x)
    fast = (a >= _LO) & (a <= _HI)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac, whole = _scaled(a, k, ph, pl)
    # log10 can be one off near a power of ten: retry those cells once
    low = ~whole | (n < 10**16)
    redo = np.flatnonzero(low | (n >= 10**17))
    if redo.size:
        k[redo] += np.where(low[redo], -1, 1)
        n[redo], frac[redo], whole = _scaled(a[redo], k[redo], ph, pl)
        bad = ~whole | (n[redo] < 10**16) | (n[redo] >= 10**17)
        frac[redo[bad]] = 0.5  # out of range twice: hand to the fallback
    n += frac > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    fast &= np.abs(frac - 0.5) >= _TIE
    # each temporary is dropped once used: a block's memory peak is what is
    # alive at one time
    del a, frac, low, carry

    # the 17 digits, last first, from the uint32 halves n // 10**8 and the rest
    digits = np.empty((17, x.size), dtype=np.uint8)
    hi = n // 10**8
    v = (n - hi * 10**8).astype(np.uint32)
    for row in range(16, 0, -1):
        if row == 8:
            v = hi.astype(np.uint32)
        q = v // np.uint32(10)
        digits[row] = v - q * np.uint32(10)
        v = q
    digits[0] = v
    del n, hi, v, q
    # digits left once trailing zeros are stripped
    nsig = (digits[1:] != 0) * np.arange(2, 18, dtype=np.uint8)[:, None]
    nsig = np.maximum(nsig.max(axis=0), np.uint8(1))
    digits += np.uint8(ord("0"))

    fixed = fast & (k >= -4) & (k < 17)
    # digits before the dot: X + 1 in fixed notation (none below 1), one in
    # exponent form; a fallback or empty cell shows no digit
    before = (np.where(fixed, np.maximum(k + 1, 0), 1) * fast).astype(np.uint8)
    shown = np.maximum(nsig, before) * fast
    dot = fast & (nsig > before) & (before > 0)

    cells = np.zeros((_SLOTS, x.size), dtype=np.uint8)
    cells[0] = (np.signbit(x) & fast) * np.uint8(ord("-"))
    cells[_PREFIX:_DIGITS] = (fixed & (k <= _ZEROS_UPTO)) * _ZEROS
    # digit i sits at slot i before the dot and at slot i + 1 after it; the
    # trailing zeros past the shown digits stay 0
    ahead = _DIGIT_NO < before
    np.multiply(digits, ahead, out=cells[_DIGITS:_DIGITS + 17])
    after = _DIGIT_NO < shown
    after ^= ahead
    digits *= after
    cells[_DIGITS + 1:_EXP] += digits
    np.equal(_DIGIT_NO, before, out=ahead)
    ahead &= dot
    cells[_DIGITS:_DIGITS + 17] += np.multiply(ahead, _DOT, out=digits)
    del digits, ahead, after
    sci = np.flatnonzero(fast & ~fixed)
    e = np.abs(k[sci])
    cells[_EXP, sci] = ord("e")
    cells[_EXP + 1, sci] = np.where(k[sci] < 0, ord("-"), ord("+"))
    cells[_EXP + 2, sci] = (e >= 100) * (e // 100 + ord("0"))
    cells[_EXP + 3, sci] = e // 10 % 10 + ord("0")
    cells[_EXP + 4, sci] = e % 10 + ord("0")
    cells[_SEP] = ord(",")
    cells[_SEP, block.shape[1] - 1::block.shape[1]] = ord("\n")
    # a fallback cell's slots are all 0 so far
    for i in np.flatnonzero(np.isfinite(x) & ~fast):
        text = b"%.17g" % x[i]
        cells[:len(text), i] = np.frombuffer(text, dtype=np.uint8)

    out = np.ascontiguousarray(cells.T)
    del cells
    return out.tobytes().translate(None, b"\0")
