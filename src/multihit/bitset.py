"""Small helpers for Python-int bit sets.

Sample sets are stored as arbitrary-precision ints (bit i = member i), so
intersection is a single word-level ``&`` regardless of set size.
"""


def bits(mask):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m
