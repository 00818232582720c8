"""The ``.9e`` CSV writer of ``simulate`` and ``regions``.

:func:`write_csv` fills one reused buffer of :data:`BLOCK_ROWS` (8,192)
rows per block, without a Python string per row: separators are set once,
each block overwrites every cell column in full, so no byte of the previous
block survives, and pad bytes are dropped with ``bytearray.translate`` on the
buffer itself, whose cost, unlike a ``buf != 0`` mask's, does not grow with
the number of pad runs.  Float cells are five uint32 words from the word
tables of :func:`e9_cells`.  ``regions`` sweeps its grid in blocks of the
same size.
"""

from __future__ import annotations

import numpy as np


def byte_cells(strings: list[str]) -> np.ndarray:
    """ASCII strings as rows of a uint8 array, zero-padded to the longest."""
    a = np.array(strings, dtype=bytes)
    return a.view(np.uint8).reshape(a.size, a.itemsize)


# 10**k for k = 0..22, all exact in binary64 (5**22 < 2**53).
_POW10 = np.array([float(10**k) for k in range(23)])
# Row i holds the four ASCII digits of i, "0000" to "9999".
# Built in uint16: int64 temporaries would raise the peak RSS of every
# command that imports this module by about 1 MB.
_DIGITS4 = (np.arange(10_000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)

# Word tables "±D.D", "DDDD" and "e±EE" of a fast cell, one uint32 per entry,
# indexed by sign·100 + the top two significand digits, by each next four
# digits, and by k.  A positive cell's sign byte is a pad byte.
_LEAD_WORDS = np.insert(np.insert(np.tile(_DIGITS4[:100, 2:], (2, 1)), 1, ord("."), axis=1),
                        0, np.repeat([0, ord("-")], 100), axis=1).view(np.uint32).ravel()
_MID_WORDS = _DIGITS4.view(np.uint32).ravel()
_EXP_WORDS = np.insert(np.insert(_DIGITS4[np.abs(np.arange(9, -14, -1)), 2:], 0,
                                 np.where(np.arange(23) > 9, ord("-"), ord("+")), axis=1),
                       0, ord("e"), axis=1).view(np.uint32).ravel()


def e9_cells(v: np.ndarray) -> np.ndarray:
    """``format(x, ".9e")`` of every value as (n, 20) zero-padded uint8 rows.

    Fast path, for |x| in [1e-13, 1e10): with e = ⌊log10 |x|⌋ and k = 9 − e
    clipped to [0, 22], 10^k is exact, so s = |x|·10^k carries a single
    rounding error.  Rounding is monotone and 1e9, 1e10 are doubles, so s
    lands in [1e9, 1e10) exactly when |x|·10^k does; then 9 − k is the
    decimal exponent of x and the error is at most half an ulp of a number
    below 2^34, i.e. 2^-20.  Unless s is within 1e-5 of a half-integer,
    d = rint(s) is the correctly rounded ten-digit significand.  Every other
    value goes through ``format``: near-ties (about 2 in 10^5), roundings
    up to 10^10, s outside [1e9, 1e10), and values out of range, non-finite
    or zero.  This is Loitsch's split (Grisu, PLDI 2010): a fast path that
    is exact whenever it answers, and an exact printer for the rest.
    """
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    fast = (a >= 1e-13) & (a < 1e10)
    x = np.where(fast, a, 1.0)
    k = np.clip(9 - np.floor(np.log10(x)).astype(np.int64), 0, 22)
    s = x * _POW10[k]
    d = np.rint(s)
    fast &= (s >= 1e9) & (d < 1e10) & (np.abs(s - np.floor(s) - 0.5) > 1e-5)
    d = np.where(fast, d, 1e9).astype(np.int64)  # keeps the table indices in range
    high, low = np.divmod(d, 10**4)
    lead, mid = np.divmod(high, 10**4)
    # five words: the widest string, "-d.ddddddddde-ddd", has 17 bytes
    out = np.column_stack([_LEAD_WORDS[lead + 100 * np.signbit(v)], _MID_WORDS[mid],
                           _MID_WORDS[low], _EXP_WORDS[k],
                           np.zeros(v.size, np.uint32)]).view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = byte_cells([format(u, ".9e") for u in v[slow].tolist()])
        out[slow] = 0
        out[slow, :cells.shape[1]] = cells
    return out


#: Rows per block of the CSV writer and nodes per block of the ``regions``
#: sweep; bounds their temporaries to a few MB.  From 4,096 to 16,384 rows
#: the writer takes the same time; at 32,768 it is slower.
BLOCK_ROWS = 8_192


def write_csv(path, header: str, n: int, cells) -> None:
    """Write ``header`` and ``n`` rows; ``cells(rows)`` gives the rows of slice
    ``rows`` as zero-padded uint8 cell columns, each of one width in every block."""
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        raw = buf = starts = None
        for lo in range(0, n, BLOCK_ROWS):
            columns = cells(slice(lo, min(lo + BLOCK_ROWS, n)))
            if buf is None:
                starts = np.cumsum([0] + [c.shape[1] + 1 for c in columns])
                raw = bytearray(b",") * (min(n, BLOCK_ROWS) * int(starts[-1]))
                buf = np.frombuffer(raw, np.uint8).reshape(-1, starts[-1])
                buf[:, -1] = ord("\n")  # the cells overwrite every comma but the separators
            filled = len(columns[0])
            for start, c in zip(starts, columns):
                buf[:filled, start:start + c.shape[1]] = c  # pad bytes included
            # a full block is translated straight from the buffer, not from a copy
            fh.write((raw if filled == len(buf) else raw[:filled * buf.shape[1]])
                     .translate(None, b"\0"))
