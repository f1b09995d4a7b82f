"""Bit-set conversions: ``pack``/``unpack`` and the readers of ``byte_rows``
(``nonzero``, ``column``, ``column_counts``) against a per-bit loop."""

import random
import tracemalloc

import numpy as np
import pytest

from multihit.bitset import (
    byte_rows,
    column,
    column_counts,
    nonzero,
    pack,
    unpack,
)


def unpack_by_loops(masks, width):
    return [[(m >> i) & 1 for i in range(width)] for m in masks]


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 300])
def test_pack_and_unpack_match_a_per_bit_loop(width):
    rng = random.Random(width)
    top = 1 << (width - 1) if width else 0
    for n in (0, 1, 5):
        masks = [rng.getrandbits(width) if width else 0 for _ in range(n)]
        if n:
            masks[0] = (1 << width) - 1  # every bit, the top one included
            masks[-1] |= top
        rows = unpack(masks, width)
        assert rows.shape == (n, width) and rows.dtype == np.uint8
        assert rows.tolist() == unpack_by_loops(masks, width)
        assert pack(rows) == masks
        r, i = nonzero(byte_rows(masks, width), width)
        want_r, want_i = np.nonzero(rows)
        assert np.array_equal(r, want_r) and np.array_equal(i, want_i)
        counts = column_counts(byte_rows(masks, width), width)
        assert counts.dtype == np.int64
        assert counts.tolist() == rows.sum(axis=0, dtype=np.int64).tolist()
        # Columns come out as ints too, read from a transposed view.
        columns = [
            sum(((m >> i) & 1) << r for r, m in enumerate(masks))
            for i in range(width)
        ]
        assert pack(rows.T) == columns
    assert pack(np.zeros((3, 0), dtype=np.uint8)) == [0, 0, 0]
    # Full columns over more rows than one counting step unpacks.
    full = byte_rows([(1 << width) - 1] * 300, width)
    assert column_counts(full, width).tolist() == [300] * width


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 300, 1023, 1024, 1025, 2100])
def test_transpose_matches_unpacked_columns_and_a_per_bit_loop(width):
    # Every column read off the byte rows is the transposed bit matrix.
    # Widths and row counts on both sides of the 8-bit byte edges.
    rng = random.Random(width)
    for n in (0, 1, 5, 8, 9):
        masks = [rng.getrandbits(width) if width else 0 for _ in range(n)]
        if n:
            masks[0] = (1 << width) - 1
            masks[-1] = (1 << width) - 1
        rows = byte_rows(masks, width)
        columns = [column(rows, i) for i in range(width)]
        assert columns == pack(unpack(masks, width).T)
        assert columns == [
            sum(((m >> i) & 1) << r for r, m in enumerate(masks))
            for i in range(width)
        ]


def test_bytes_peak_memory_stays_near_its_array():
    # A pool of 100,000 columns over 750 tumors: only one chunk of masks'
    # bytes objects and their join live next to the array at a time.
    rng = random.Random(0)
    masks = [rng.getrandbits(750) for _ in range(100_000)]
    tracemalloc.start()
    try:
        rows = byte_rows(masks, 750)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (100_000, 94)
    assert peak < 1.5 * rows.nbytes
