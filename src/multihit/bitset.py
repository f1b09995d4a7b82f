"""The one place where Python-int bit sets meet numpy.

Sample and gene sets are stored as arbitrary-precision ints (bit i = member
i), so intersection is a single word-level ``&`` regardless of set size.
Code that needs such sets as indices or as a 0/1 array converts them here,
with :func:`nonzero`, :func:`unpack`, :func:`pack` and :func:`transpose`
(row bit sets to column bit sets, with no 0/1 array between); these are the
only conversions.
"""

import numpy as np

# Masks joined into bytes per step of _bytes, so only that many bytes
# objects live at once next to the array they are copied into.
_CHUNK = 4096
# (shift, mask) of the three swaps that transpose every 8 x 8 bit block.
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _bytes(masks, width):
    """``(len(masks), ceil(width / 8))`` uint8 array of little-endian bytes."""
    nbytes = (width + 7) // 8
    flat = np.empty(len(masks) * nbytes, dtype=np.uint8)
    for start in range(0, len(masks), _CHUNK):
        chunk = masks[start : start + _CHUNK]
        joined = b"".join(m.to_bytes(nbytes, "little") for m in chunk)
        flat[start * nbytes : start * nbytes + len(joined)] = np.frombuffer(
            joined, dtype=np.uint8
        )
    return flat.reshape(len(masks), nbytes)


def _ints(packed):
    """One int per row of the uint8 array ``packed``, bytes little-endian."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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
    return _ints(np.packbits(rows, axis=1, bitorder="little"))


def transpose(masks, width):
    """Column bit sets of a bit matrix: bit r of column i is bit i of ``masks[r]``.

    Equal to ``pack(unpack(masks, width).T)``, one int per bit below
    ``width``, without unpacking any bit.  The row bytes are cut into 8 x 8
    bit blocks (8 rows by one byte), each block is read as one 64-bit word,
    and all words are transposed at once by three masked swaps (Hacker's
    Delight, 7-3).  Memory stays a few copies of the packed bytes.
    """
    nbytes, groups = (width + 7) // 8, (len(masks) + 7) // 8
    # words[b, g]: byte k is byte b of row 8g + k (zero past the last row),
    # so bit 8k + j is column 8b + j of that row; the swaps move it to 8j + k.
    words = np.zeros((nbytes, 8 * groups), dtype=np.uint8)
    words[:, : len(masks)] = _bytes(masks, width).T
    words = words.view("<u8")
    for shift, mask in _SWAPS:
        t = words >> shift
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t
    # Byte j of words[b, g] is now column 8b + j over rows 8g to 8g + 7.
    columns = words.view(np.uint8).reshape(nbytes, groups, 8).transpose(0, 2, 1)
    return _ints(columns.reshape(8 * nbytes, groups)[:width])
