"""Bit-set conversions: ``pack``/``unpack``/``nonzero``/``transpose`` against
a per-bit loop."""

import random
import tracemalloc

import numpy as np
import pytest

from multihit.bitset import _bytes, nonzero, pack, transpose, unpack


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
        r, i = nonzero(masks, width)
        want_r, want_i = np.nonzero(rows)
        assert np.array_equal(r, want_r) and np.array_equal(i, want_i)
        # Columns come out as ints too, read from a transposed view.
        columns = [
            sum(((m >> i) & 1) << r for r, m in enumerate(masks))
            for i in range(width)
        ]
        assert pack(rows.T) == columns
    assert pack(np.zeros((3, 0), dtype=np.uint8)) == [0, 0, 0]


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 300, 1023, 1024, 1025, 2100])
def test_transpose_matches_unpacked_columns_and_a_per_bit_loop(width):
    # Widths and row counts on both sides of the 8-bit block edges.
    rng = random.Random(width)
    for n in (0, 1, 5, 8, 9):
        masks = [rng.getrandbits(width) if width else 0 for _ in range(n)]
        if n:
            masks[0] = (1 << width) - 1
            masks[-1] = (1 << width) - 1
        columns = transpose(masks, width)
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
        rows = _bytes(masks, 750)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (100_000, 94)
    assert peak < 1.5 * rows.nbytes
