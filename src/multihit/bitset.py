"""The one place where Python-int bit sets meet numpy.

Sample and gene sets are stored as arbitrary-precision ints (bit i = member
i), so intersection is a single word-level ``&`` regardless of set size.
Code that needs such sets as indices or as a 0/1 array converts them here,
with :func:`nonzero`, :func:`unpack` and :func:`pack`.
"""

import numpy as np


def _bytes(masks, width):
    """``(len(masks), ceil(width / 8))`` uint8 array of little-endian bytes."""
    nbytes = (width + 7) // 8
    return np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8
    ).reshape(len(masks), nbytes)


def unpack(masks, width):
    """``(len(masks), width)`` uint8 0/1 array: ``[r, i]`` is bit i of ``masks[r]``.

    Every mask must be nonnegative and below ``2**(8 * ceil(width / 8))``;
    bits at ``width`` and above within the last byte are dropped.
    """
    return np.unpackbits(_bytes(masks, width), axis=1, count=width, bitorder="little")


def nonzero(masks, width):
    """``np.nonzero(unpack(masks, width))``: the ``(r, i)`` of every set bit.

    The pairs come in row-major order.  Only the nonzero bytes are unpacked,
    so memory grows with the set bits, not with ``len(masks) * width``.
    """
    packed = _bytes(masks, width)
    r, byte = np.nonzero(packed)
    bits = np.unpackbits(packed[r, byte][:, None], axis=1, bitorder="little")
    k, b = np.nonzero(bits)
    i = 8 * byte[k] + b
    keep = i < width
    return r[k][keep], i[keep]


def pack(rows):
    """One int per row of the 2-D 0/1 array ``rows``: bit i of int r is ``rows[r, i]``.

    The inverse of :func:`unpack`.
    """
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
