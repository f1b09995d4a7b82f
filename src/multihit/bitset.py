"""The one place where Python-int bit sets meet numpy.

Sample and gene sets are stored as arbitrary-precision ints (bit i = member
i), so intersection is a single word-level ``&`` regardless of set size.
Code that needs such sets as indices or as a 0/1 array converts them here.
:func:`unpack` and :func:`pack` go between ints and 0/1 arrays.  A bit
matrix read many ways is converted once, by :func:`byte_rows`, to the
packed bytes of its rows, and read from those: :func:`nonzero` for the
index pairs of its set bits, :func:`column` for one column as an int and
:func:`column_counts` for the set bits of every column.  No samples x genes
0/1 array is made on the way.  These are the only conversions.
"""

import numpy as np

# Masks joined into bytes per step of byte_rows, so only that many bytes
# objects live at once next to the array they are copied into.
_CHUNK = 4096
# Rows unpacked per step of column_counts: the 0/1 array it sums takes
# this many times the width in bytes, and their per-column sum fits a
# uint8 (at most 255), which numpy adds ~4x faster than int64.
_COUNT_ROWS = 64


def byte_rows(masks, width):
    """``(len(masks), ceil(width / 8))`` uint8 array of little-endian bytes.

    Row r holds ``masks[r]``; every mask must be nonnegative and below
    ``2**(8 * ceil(width / 8))``.
    """
    nbytes = (width + 7) // 8
    flat = np.empty(len(masks) * nbytes, dtype=np.uint8)
    for start in range(0, len(masks), _CHUNK):
        chunk = masks[start : start + _CHUNK]
        joined = b"".join(m.to_bytes(nbytes, "little") for m in chunk)
        flat[start * nbytes : start * nbytes + len(joined)] = np.frombuffer(
            joined, dtype=np.uint8
        )
    return flat.reshape(len(masks), nbytes)


def unpack(masks, width):
    """``(len(masks), width)`` uint8 0/1 array: ``[r, i]`` is bit i of ``masks[r]``.

    Masks are bounded as in :func:`byte_rows`; bits at ``width`` and above
    within the last byte are dropped.
    """
    return np.unpackbits(
        byte_rows(masks, width), axis=1, count=width, bitorder="little"
    )


def pack(rows):
    """One int per row of the 2-D 0/1 array ``rows``: bit i of int r is ``rows[r, i]``.

    The inverse of :func:`unpack`.
    """
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def nonzero(rows, width):
    """The ``(r, i)`` of every set bit below ``width`` of the byte rows ``rows``.

    ``np.nonzero`` of the unpacked rows: the pairs come in row-major
    order.  Only the nonzero bytes are unpacked, so memory grows with the
    set bits, not with ``len(rows) * width``.
    """
    r, byte = np.nonzero(rows)
    bits = np.unpackbits(rows[r, byte][:, None], axis=1, bitorder="little")
    k, b = np.nonzero(bits)
    i = 8 * byte[k] + b
    keep = i < width
    return r[k][keep], i[keep]


def column(rows, i):
    """Column ``i`` of the byte rows ``rows`` as an int: bit r is bit i of row r.

    ``i`` must be a nonnegative index below the rows' width.
    """
    bits = (rows[:, i >> 3] >> (i & 7)) & 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def column_counts(rows, width):
    """Per column below ``width``, how many of the byte rows ``rows`` set it.

    An int64 array; ``_COUNT_ROWS`` rows are unpacked at a time.
    """
    counts = np.zeros(width, dtype=np.int64)
    for start in range(0, len(rows), _COUNT_ROWS):
        bits = np.unpackbits(
            rows[start : start + _COUNT_ROWS], axis=1, count=width, bitorder="little"
        )
        counts += bits.sum(axis=0, dtype=np.uint8)
    return counts
