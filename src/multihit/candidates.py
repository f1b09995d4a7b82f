"""Randomized candidate combination generation over high-frequency genes.

Genes are ranked by tumor mutation frequency; combinations are drawn
uniformly (size first, then genes without replacement) from the top slice of
that ranking until enough distinct combinations exist.
"""

import math
import random
import time

from .data import GeneCombination, rank_genes_by_tumor_frequency
from .errors import ValidationError

# Duplicate draws burn attempts; give up after this many times the target so
# a near-exhausted combination space cannot loop forever.
ATTEMPT_FACTOR = 20


def generate_candidates(matrix, hit_range, gamma1, gamma2, seed, deadline=math.inf):
    """Distinct random combinations from the top-``gamma1`` frequency pool.

    Stops at ``gamma2`` distinct combinations, when every constructible
    combination has been seen, or after ``ATTEMPT_FACTOR * gamma2`` draws.
    The clock is read before every draw; at the first reading past
    ``deadline`` (``time.perf_counter`` scale, ``math.inf`` for no limit)
    generation stops with the combinations drawn so far, a prefix of the
    same draws.
    Returns combinations in first-draw order, including any that cover no
    tumor sample.  Sizes are drawn up to the pool's size, so a pool smaller
    than ``hit_range.k_min`` yields no combination.
    """
    if gamma1 < 1:
        raise ValidationError(f"gamma1 must be positive, got {gamma1}")
    if gamma2 < 1:
        raise ValidationError(f"gamma2 must be positive, got {gamma2}")
    pool = rank_genes_by_tumor_frequency(matrix)[:gamma1]
    k_max = min(hit_range.k_max, len(pool))
    total_possible = sum(math.comb(len(pool), k) for k in hit_range.sizes())
    target = min(gamma2, total_possible)
    rng = random.Random(seed)
    found = {}
    attempts = 0
    max_attempts = ATTEMPT_FACTOR * gamma2
    while len(found) < target and attempts < max_attempts:
        if time.perf_counter() > deadline:
            break
        attempts += 1
        k = rng.randint(hit_range.k_min, k_max)
        key = tuple(sorted(rng.sample(pool, k)))
        if key not in found:
            # Already sorted and distinct: its covers are its genes' columns ANDed.
            found[key] = GeneCombination(key, *matrix.coverage(key))
    return list(found.values())
