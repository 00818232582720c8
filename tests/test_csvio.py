"""The CSV writer: its file contract (a truncating open, so a rewrite leaves
the bytes of a fresh write), its two ways of dropping pad bytes, and the
pad-free 15-byte cells of :func:`e9_column`."""

import math
import os

import numpy as np
import pytest

from coupled_pendula import Trajectory
from coupled_pendula._csvio import BLOCK_ROWS, _Rows, byte_cells, e9_column, write_csv

HEADER = "a,b"


def _blocks(n, rows=1000):
    """n blocks of two ``.9e`` columns, v and −v, for v = 0, 1, 2, …"""
    for b in range(n):
        v = np.arange(b * rows, (b + 1) * rows, dtype=float)
        yield e9_column(v), e9_column(-v)


def _reference(n, rows=1000):
    return "".join([HEADER + "\n"] + [f"{v:.9e},{-v:.9e}\n" for v in
                                      map(float, range(n * rows))]).encode()


def test_write_over_a_longer_file_keeps_its_inode_and_mode(tmp_path):
    fresh, path, link = tmp_path / "fresh.csv", tmp_path / "out.csv", tmp_path / "hard.csv"
    write_csv(fresh, HEADER, _blocks(3))
    assert fresh.read_bytes() == _reference(3)
    path.write_bytes(b"#" * (2 * fresh.stat().st_size))
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    write_csv(path, HEADER, _blocks(3))
    after = path.stat()
    assert path.read_bytes() == fresh.read_bytes() == link.read_bytes()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert after.st_size == fresh.stat().st_size < before.st_size


def test_write_through_a_symlink_rewrites_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"#" * 200_000)
    link.symlink_to(target)
    write_csv(link, HEADER, _blocks(2))
    assert link.is_symlink() and target.read_bytes() == _reference(2)


def test_write_to_devnull():
    write_csv(os.devnull, HEADER, _blocks(2))


def test_a_block_that_raises_leaves_no_old_tail(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"#" * len(_reference(5)))

    def failing():
        yield from _blocks(2)
        raise RuntimeError("third block")

    with pytest.raises(RuntimeError, match="third block"):
        write_csv(path, HEADER, failing())
    assert path.read_bytes() == _reference(2)


def test_trajectory_csv_over_a_stale_file(tmp_path):
    # a full 4,096-row block and a partial one
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5_000, 8))
    traj = Trajectory(times=v[:, 0], states=v[:, 1:7], energies=v[:, 7])
    fresh, path = tmp_path / "fresh.csv", tmp_path / "traj.csv"
    traj.write_csv(fresh)
    path.write_bytes(b"#" * (3 * fresh.stat().st_size))
    traj.write_csv(path)
    assert path.read_bytes() == fresh.read_bytes()


def _text_blocks(tables, rows, sizes):
    """Blocks of ``sizes`` rows whose column k takes table ``tables[k]`` at
    the row indices ``rows[:, k]``; a table given as strings becomes a
    (cells, lengths) column, one given as values an ``e9_column``."""
    lo = 0
    for size in sizes:
        block = []
        for table, idx in zip(tables, rows[lo:lo + size].T):
            if isinstance(table[0], str):
                cells, lengths = byte_cells(table)
                block.append((cells[idx], lengths[idx]))
            else:
                block.append(e9_column(np.asarray(table)[idx]))
        yield block
        lo += size


def _text_reference(tables, rows):
    cell = [(lambda i, t=t: t[i]) if isinstance(t[0], str) else
            (lambda i, t=t: format(t[i], ".9e")) for t in tables]
    return "".join(["h\n"] + [",".join(c(i) for c, i in zip(cell, r)) + "\n"
                              for r in rows.tolist()]).encode()


WORDS = ["a", "bb", "cccccccc", "ddd,ee", "true,false", "false,true,na"]
POSITIVE = [0.5, 3.25, 1e-9, 7e8, 2.0]  # 15-byte cells, no pad byte
MIXED = [-0.5, 3.25, 1e-200, 7e8]  # a sign and a 3-digit exponent: 20-byte cells


@pytest.mark.parametrize("tables", [
    [POSITIVE, WORDS, POSITIVE],  # one padded column, squeezed
    [WORDS, POSITIVE, WORDS, POSITIVE],  # two, one of them first
    [POSITIVE, WORDS, MIXED],  # squeezed, then the 20-byte cells translated
    [POSITIVE, WORDS],  # pads that would reach the next row: translated
    [WORDS],
])
def test_padded_columns_leave_no_pad_byte(tmp_path, tables):
    rng = np.random.default_rng(len(tables))
    sizes = [BLOCK_ROWS, 1_000, 1]
    rows = np.column_stack([rng.integers(0, len(t), sum(sizes)) for t in tables])
    path = tmp_path / "out.csv"
    write_csv(path, "h", _text_blocks(tables, rows, sizes))
    assert path.read_bytes() == _text_reference(tables, rows)


@pytest.mark.parametrize("tables, squeezed", [
    ([POSITIVE, WORDS, POSITIVE], True),
    ([WORDS, POSITIVE, WORDS, POSITIVE], True),
    ([POSITIVE, WORDS, MIXED], False),  # pads left for translate
    ([POSITIVE, WORDS], False),  # a row's pads would reach the next row
])
def test_squeezed_rows_skip_translate(tables, squeezed):
    # a squeezed block is written straight from the buffer; translate returns a copy
    rows = np.column_stack([np.arange(BLOCK_ROWS) % len(t) for t in tables])
    block = next(_text_blocks(tables, rows, [BLOCK_ROWS]))
    cells = [c[0] if isinstance(c, tuple) else c for c in block]
    text = _Rows([c.dtype.itemsize for c in cells], BLOCK_ROWS).text(block, cells)
    assert isinstance(text, memoryview) == squeezed
    assert bytes(text) == _text_reference(tables, rows)[2:]


def test_cell_widths_may_change_between_blocks(tmp_path):
    # a column of 15-byte cells in one block and 20-byte cells in the next
    values = [[1.5, 2.5], [-1.5, 2.5], [1e-300, 2.5], [1.5, 2.5]]
    path = tmp_path / "out.csv"
    write_csv(path, "h", ([e9_column(np.array(v))] for v in values))
    assert path.read_bytes() == "".join(
        ["h\n"] + [f"{x:.9e}\n" for v in values for x in v]).encode()


@pytest.mark.parametrize("values, width", [
    ([0.5, 3.25, 1e-9, 9.9999999999e9, 1e-99, 0.0, 1234567890.5], 15),
    ([0.5, -3.25], 20),
    ([0.5, 1e-100], 20),
    ([0.5, 1e100], 20),
    ([0.5, math.inf], 20),
    ([0.5, math.nan], 20),
])
def test_e9_column_is_pad_free_when_every_cell_has_15_bytes(values, width):
    col = e9_column(np.array(values))
    assert col.dtype.itemsize == width
    text = [bytes(c).replace(b"\0", b"") for c in col.tolist()]
    assert text == [format(v, ".9e").encode() for v in values]
    if width == 15:
        assert all(b"\0" not in bytes(c) for c in col.tolist())
