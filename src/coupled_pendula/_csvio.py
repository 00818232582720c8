"""The ``.9e`` CSV writer of ``simulate`` and ``regions``.

:func:`write_csv` fills one reused buffer of at most :data:`BLOCK_ROWS`
(4,096) rows per block, without a Python string per row: separators are set
once, each block overwrites every cell column in full, so no byte of the
previous block survives, and pad bytes are dropped with ``bytearray.translate``
on the buffer itself, whose cost, unlike a ``buf != 0`` mask's, does not grow
with the number of pad runs.  A cell column is a 1-D array of whole cells,
numpy ``V<w>`` items, stored into a ``V<w>`` view of the buffer, so a table
of cells is gathered one cell, not one byte, at a time.  Float cells are five
uint32 words from the word tables of :func:`e9_cells`.  ``regions`` streams
its sweep into the writer a block at a time, so the block size alone sets the
memory of either.
"""

from __future__ import annotations

import numpy as np


def byte_cells(strings: list[str]) -> np.ndarray:
    """ASCII strings as a column of whole cells, zero-padded to the longest."""
    a = np.array(strings, dtype=bytes)
    return a.view(f"V{a.itemsize}")


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

    The digits of d are split in binary64: d < 1e10 is an integer, so d/1e4
    is an integer or lies at least 1e-4 from one, while its rounding error
    is below 1e-10; ⌊d/1e4⌋ is therefore exact, and so is the same step on
    that quotient.  Each row holds the five uint32 words of a cell, which
    :func:`e9_column` views as one whole cell.
    """
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    fast = (a >= 1e-13) & (a < 1e10)
    x = np.where(fast, a, 1.0)
    k = np.clip(9 - np.floor(np.log10(x)).astype(np.int64), 0, 22)
    s = x * _POW10[k]
    d = np.rint(s)
    fast &= (s >= 1e9) & (d < 1e10) & (np.abs(s - np.floor(s) - 0.5) > 1e-5)
    d = np.where(fast, d, 1e9)  # keeps the table indices in range
    high = np.floor(d / 1e4)
    lead = np.floor(high / 1e4)
    # five words: the widest string, "-d.ddddddddde-ddd", has 17 bytes
    words = np.zeros((v.size, 5), np.uint32)
    words[:, 0] = _LEAD_WORDS[lead.astype(np.intp) + 100 * np.signbit(v)]
    words[:, 1] = _MID_WORDS[(high - 1e4 * lead).astype(np.intp)]
    words[:, 2] = _MID_WORDS[(d - 1e4 * high).astype(np.intp)]
    words[:, 3] = _EXP_WORDS[k]

    slow = np.flatnonzero(~fast)
    if slow.size:
        words.view("V20")[slow, 0] = np.array([format(u, ".9e") for u in v[slow].tolist()],
                                              dtype="S20").view("V20")
    return words.view(np.uint8)


def e9_column(v: np.ndarray) -> np.ndarray:
    """The cells of :func:`e9_cells` as a 1-D column of whole 20-byte cells."""
    return e9_cells(v).view("V20").ravel()


#: Rows per block of the CSV writer and nodes per block of the ``regions``
#: sweep.  The sweep streams its blocks into the writer, so this alone sets
#: the memory either one holds, about 2 MB.  From 4,096 to 16,384 rows the
#: writer takes the same time; at 32,768 it is slower.
BLOCK_ROWS = 4_096


def write_csv(path, header: str, blocks) -> None:
    """Write ``header`` and the rows of ``blocks``, each a sequence of cell
    columns: 1-D arrays of whole zero-padded cells (numpy ``V<w>`` items), each
    column of one width in every block, and no block longer than the first."""
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        raw = views = None
        for columns in blocks:
            filled = len(columns[0])
            if raw is None:
                widths = [c.dtype.itemsize for c in columns]
                starts = np.cumsum([0] + [w + 1 for w in widths]).tolist()
                row = starts.pop()
                raw = bytearray(b",") * (filled * row)
                # the cells overwrite every comma but the separators
                raw[row - 1::row] = b"\n" * filled
                views = [np.ndarray(filled, f"V{w}", raw, start, (row,))
                         for w, start in zip(widths, starts)]
            for view, c in zip(views, columns):
                view[:filled] = c  # pad bytes included
            # a full block is translated straight from the buffer, not from a copy
            fh.write((raw if filled == len(views[0]) else raw[:filled * row])
                     .translate(None, b"\0"))
