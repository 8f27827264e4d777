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

Each cell's text is then gathered from its digits, its sign and its
separator through a template keyed by its decimal exponent class and its
count of significant digits, following the ``%g`` rules: fixed notation for
``-4 <= X < 17``, else ``d.ddde±XX``, trailing zeros and a bare ``.``
removed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_LO, _HI = 1e-250, 1e250
_KMIN = -252  # decimal exponents k of the fast cells, with a retry's step
_TIE = 1e-9
_TWO53 = 2.0**53
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant

# bytes of a cell, one row each over the block's cells: the digits d0..d16
# at rows 1..17 and the exponent digits at 18..20, or a fallback cell's own
# text at rows 0..23; then the sign and the separator, then the constants
_DIGIT, _EXPDIG, _TEXT = 1, 18, 24
_SIGN, _SEP = _TEXT, _TEXT + 1
_CONSTS = b"0.e+-\0"
_CONST = _SEP + 1
_ROWS = _CONST + len(_CONSTS)
_PAD = _ROWS - 1
_OUT = 25  # longest cell, '-1.2345678901234567e-100', plus its separator

# template of a cell by (mode, nsig): modes 0..20 are fixed notation for the
# decimal exponent X = -4..16, then e+XX, e+XXX, e-XX, e-XXX, the empty cell
# and the fallback cell's own text
_FIXED = 21
_EMPTY, _VERBATIM = _FIXED + 4, _FIXED + 5
_MODES = _FIXED + 6


def _template(mode, nsig):
    zero, dot, e, plus, minus = (_CONST + i for i in range(5))
    digits = list(range(_DIGIT, _DIGIT + 17))
    if mode == _VERBATIM:
        return list(range(_TEXT)) + [_SEP]
    if mode == _EMPTY:
        return [_SEP]
    if mode < _FIXED:
        x = mode - 4
        if x < 0:
            body = [zero, dot] + [zero] * (-x - 1) + digits[:nsig]
        else:
            body = digits[:x + 1]
            if nsig > x + 1:
                body += [dot] + digits[x + 1:nsig]
    else:
        body = digits[:1]
        if nsig > 1:
            body += [dot] + digits[1:nsig]
        cls = mode - _FIXED
        body += [e, minus if cls >= 2 else plus]
        body += [_EXPDIG + i for i in ((0, 1, 2) if cls % 2 else (1, 2))]
    return [_SIGN] + body + [_SEP]


@lru_cache(maxsize=None)
def _tables():
    """The double-double ``10**(16-k)`` for k from ``_KMIN`` to
    ``-_KMIN`` and the cell templates (one column per ``(mode, nsig)``),
    built on the first render."""
    hi, lo = [], []
    for k in range(_KMIN, 1 - _KMIN):
        j = 16 - k
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        h = num / den  # int / int is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    templates = np.full((_OUT, _MODES * 17), _PAD, dtype=np.intp)
    for mode in range(_MODES):
        for nsig in range(1, 18):
            cols = _template(mode, nsig)
            templates[:len(cols), mode * 17 + nsig - 1] = cols
    return np.array(hi), np.array(lo), templates


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


def render_block(block) -> str:
    """``%.17g`` text of every cell of a 2-D float64 block, cells separated
    by ``,`` and every row ended by a newline; a non-finite cell is empty."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    x = block.ravel()
    size = x.size
    ph, pl, templates = _tables()

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

    finite = np.isfinite(x)
    mode = np.where((k >= -4) & (k < 17), k + 4,
                    _FIXED + 2 * (k < 0) + (np.abs(k) >= 100))
    mode[~fast] = _VERBATIM
    mode[~finite] = _EMPTY

    buf = np.empty((_ROWS, size), dtype=np.uint8)
    buf[_CONST:] = np.frombuffer(_CONSTS, dtype=np.uint8)[:, None]
    buf[_SIGN] = np.where(np.signbit(x), ord("-"), 0)
    buf[_SEP] = ord(",")
    buf[_SEP, block.shape[1] - 1::block.shape[1]] = ord("\n")
    # the 17 digits, last first, from the uint32 halves n // 10**8 and the rest
    hi = n // 10**8
    v = (n - hi * 10**8).astype(np.uint32)
    for row in range(_DIGIT + 16, _DIGIT, -1):
        if row == _DIGIT + 8:
            v = hi.astype(np.uint32)
        q = v // 10
        buf[row] = v - q * 10
        v = q
    buf[_DIGIT] = v
    # digits left once trailing zeros are stripped
    nsig = (buf[_DIGIT + 1:_DIGIT + 17] != 0) * np.arange(
        2, 18, dtype=np.uint8)[:, None]
    nsig = np.maximum(nsig.max(axis=0), 1)
    buf[_DIGIT:_DIGIT + 17] += ord("0")
    sci = np.flatnonzero((mode >= _FIXED) & (mode < _EMPTY))
    e = np.abs(k[sci])
    for row, div in enumerate((100, 10, 1)):
        buf[_EXPDIG + row, sci] = e // div % 10 + ord("0")
    for i in np.flatnonzero(finite & ~fast):
        text = b"%.17g" % x[i]
        buf[:_TEXT, i] = 0
        buf[:len(text), i] = np.frombuffer(text, dtype=np.uint8)

    # one byte position of all cells at a time, so each index array holds
    # one entry per cell rather than one per output byte
    key = mode * 17 + nsig - 1
    offsets = templates * size
    cells = np.arange(size)
    flat = buf.ravel()
    out = np.empty((size, _OUT), dtype=np.uint8)
    for q in range(_OUT):
        idx = offsets[q][key]
        idx += cells
        out[:, q] = flat[idx]
    return out[out != 0].tobytes().decode("ascii")
