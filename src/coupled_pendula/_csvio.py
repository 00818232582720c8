"""The ``.9e`` CSV writer of ``simulate`` and ``regions``.

:func:`write_csv` fills a reused buffer of at most :data:`BLOCK_ROWS`
(4,096) fixed-width rows per block, without a Python string per row:
separators are set once, and each block overwrites every cell column in
full, so no byte of the previous block survives.  A cell column is a 1-D
array of whole cells, numpy ``V<w>`` items, stored into a ``V<w>`` view of
the buffer, so a table of cells is gathered one cell, not one byte, at a
time.  Zero bytes in a cell are pad bytes, and two steps drop them:

* A column given with the text length of each cell (pads after the text, as
  :func:`byte_cells` leaves them) is squeezed out by copying each row in
  segments, one numpy copy per segment for the whole block: each segment
  ends with such a cell, and the next segment is copied over its pads.
* Any pad byte left is dropped with ``bytearray.translate``, whose cost,
  unlike a ``buf != 0`` mask's, does not grow with the number of pad runs,
  but which reads every byte of the block.

Float cells are five uint32 words from the word tables of :func:`e9_cells`;
:func:`e9_column` passes a column whose every cell is 15 bytes of text as
15-byte cells without a pad.  On a ``regions`` map every float cell is such
a cell and the middle cell comes with its length, so no byte goes through
``translate``, which had taken 32 of the 113 ms of a 500×500 η ≤ 1 sweep
(138 buffer bytes per row; 2-vCPU VM).  ``regions`` streams its sweep into
the writer a block at a time, so the block size alone sets the memory of
either.
"""

from __future__ import annotations

import numpy as np


def byte_cells(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """ASCII strings as a column of whole cells, zero-padded to the longest,
    and the length of each string."""
    a = np.array(strings, dtype=bytes)
    return a.view(f"V{a.itemsize}"), np.array([len(t) for t in strings], np.intp)


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
    return _e9_words(v)[0].view(np.uint8)


def _e9_words(v):
    """The (n, 5) uint32 words of :func:`e9_cells`, and whether every
    cell's text is its bytes 1-15: no sign and a two-digit exponent."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    fast = (a >= 1e-13) & (a < 1e10)
    x = np.where(fast, a, 1.0)
    # np.minimum/np.maximum, not np.clip, whose call costs more at 4,096 values
    k = np.minimum(np.maximum(9 - np.floor(np.log10(x)).astype(np.int64), 0), 22)
    s = x * _POW10[k]
    d = np.rint(s)
    # s - d is exact (Sterbenz): d = rint(s) lies within a factor 2 of s ≥ 1e9
    fast &= (s >= 1e9) & (d < 1e10) & (np.abs(s - d) < 0.5 - 1e-5)
    d[~fast] = 1e9  # keeps the table indices in range
    high = np.floor(d / 1e4)
    lead = np.floor(high / 1e4)
    negative = np.signbit(v)
    # five words: the widest string, "-d.ddddddddde-ddd", has 17 bytes
    words = np.empty((v.size, 5), np.uint32)
    words[:, 0] = _LEAD_WORDS[lead.astype(np.intp) + 100 * negative]
    words[:, 1] = _MID_WORDS[(high - 1e4 * lead).astype(np.intp)]
    words[:, 2] = _MID_WORDS[(d - 1e4 * high).astype(np.intp)]
    words[:, 3] = _EXP_WORDS[k]
    words[:, 4] = 0

    tight = not negative.any()
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [format(u, ".9e") for u in v[slow].tolist()]
        tight = tight and all(len(t) == 15 for t in text)
        # a cell without a sign starts at byte 1, as a fast one does
        words.view("V20")[slow, 0] = np.array([t if t[0] == "-" else "\0" + t for t in text],
                                              dtype="S20").view("V20")
    return words, tight


def e9_column(v: np.ndarray) -> np.ndarray:
    """The cells of :func:`e9_cells` as a 1-D column of whole cells.

    When no value has a sign and every one has a two-digit exponent, every
    cell's text is its bytes 1-15, and the column is those 15-byte cells, a
    view with no pad byte; otherwise it is the 20-byte cells.
    """
    words, tight = _e9_words(v)
    if tight and len(words):
        return np.ndarray(len(words), "V15", words, 1, (20,))
    return words.view("V20").ravel()


#: Rows per block of the CSV writer and nodes per block of the ``regions``
#: sweep.  The sweep streams its blocks into the writer, so this alone sets
#: the memory either one holds, about 2 MB.  From 4,096 to 16,384 rows the
#: writer takes the same time; at 32,768 it is slower.
BLOCK_ROWS = 4_096


def write_csv(path, header: str, blocks) -> None:
    """Write ``header`` and the rows of ``blocks``, no block longer than the first.

    A block is a sequence of columns, one per CSV column.  A column is a 1-D
    array of whole cells (numpy ``V<w>`` items) whose zero bytes are pad
    bytes, or a pair of such an array and the text length of each cell, for
    cells whose pad bytes all follow their text.
    """
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        rows = None
        for block in blocks:
            cells = [c[0] if isinstance(c, tuple) else c for c in block]
            widths = [c.dtype.itemsize for c in cells]
            if rows is None or rows.widths != widths:
                rows = _Rows(widths, len(cells[0]) if rows is None else rows.capacity)
            fh.write(rows.text(block, cells))


class _Rows:
    """The reused buffers of one block: ``raw`` holds fixed-width rows of
    cells and separators, ``out`` the rows squeezed of known pads."""

    def __init__(self, widths: list[int], capacity: int):
        starts = np.cumsum([0] + [w + 1 for w in widths]).tolist()
        self.widths, self.capacity, self.row = widths, capacity, starts.pop()
        self.ends = [s + w for s, w in zip(starts, widths)]
        self.raw = bytearray(b",") * (capacity * self.row)
        # the cells overwrite every comma but the separators
        self.raw[self.row - 1::self.row] = b"\n" * capacity
        self.out = None  # made by the first block that is squeezed
        self.views = [np.ndarray(capacity, f"V{w}", self.raw, start, (self.row,))
                      for w, start in zip(widths, starts)]

    def text(self, block, cells):
        """The bytes of the block's rows, without pad bytes."""
        filled = len(cells[0])
        for view, c in zip(self.views, cells):
            view[:filled] = c  # pad bytes included
        buf, size = self.raw, filled * self.row
        padded = [(self.ends[i], self.widths[i] - c[1]) for i, c in enumerate(block)
                  if isinstance(c, tuple)]
        if padded:
            buf, size = self._squeeze(filled, padded)
        if buf.find(b"\0", 0, size) < 0:
            return memoryview(buf)[:size]
        # a full block is translated straight from the buffer, not from a copy
        return (buf if size == len(buf) else buf[:size]).translate(None, b"\0")

    def _squeeze(self, filled: int, padded: list):
        """Copy the rows from ``raw`` to ``out`` without the pads of the
        columns in ``padded``, pairs of a cell's end in the row and each
        cell's pad count.  A row is cut after each such cell into segments,
        and segment k of every row is copied in one call, to where the row's
        text before it ends, so its pads land where the next segment, copied
        by a later call, overwrites them.  If a row's pads would reach the
        next row, the block is left in ``raw``, for ``translate``."""
        size = np.full(filled, self.row, np.intp)
        for _, pads in padded:
            size -= pads
        to = np.cumsum(size) - size
        row_end = to + size
        begin, parts = 0, []
        for end, pads in padded + [(self.row, 0)]:
            parts.append((begin, end - begin, to))
            to = to + (end - begin) - pads
            if np.any(to + pads > row_end):
                return self.raw, filled * self.row
            begin = end
        if self.out is None:
            self.out = bytearray(len(self.raw))
        for begin, width, at in parts:
            np.ndarray(len(self.out) - width + 1, f"V{width}", self.out, 0, (1,))[at] = \
                np.ndarray(filled, f"V{width}", self.raw, begin, (self.row,))
        return self.out, int(row_end[-1])
