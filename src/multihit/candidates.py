"""Randomized candidate combination generation over high-frequency genes.

Genes are ranked by tumor mutation frequency; combinations are drawn
uniformly (size first, then genes without replacement) from the top slice of
that ranking until enough distinct combinations exist.
"""

import math
import random

from .errors import ValidationError

# Duplicate draws burn attempts; give up after this many times the target so
# a near-exhausted combination space cannot loop forever.
ATTEMPT_FACTOR = 20


def rank_genes_by_tumor_frequency(matrix):
    """Gene indices by descending tumor frequency, ties by ascending index."""
    return sorted(
        range(matrix.n_genes), key=lambda g: (-matrix.tumor_frequency(g), g)
    )


def generate_candidates(matrix, hit_range, gamma1, gamma2, seed):
    """Distinct random combinations from the top-``gamma1`` frequency pool.

    Stops at ``gamma2`` distinct combinations, when every constructible
    combination has been seen, or after ``ATTEMPT_FACTOR * gamma2`` draws.
    Returns combinations in first-draw order, including any that cover no
    tumor sample.
    """
    if gamma1 < 1:
        raise ValidationError(f"gamma1 must be positive, got {gamma1}")
    if gamma2 < 1:
        raise ValidationError(f"gamma2 must be positive, got {gamma2}")
    if matrix.tumor_count == 0:
        raise ValidationError("candidate generation needs at least one tumor sample")
    pool = rank_genes_by_tumor_frequency(matrix)[:gamma1]
    if len(pool) < hit_range.k_max:
        raise ValidationError(
            f"gene pool of size {len(pool)} cannot host combinations of size "
            f"{hit_range.k_max}"
        )
    total_possible = sum(math.comb(len(pool), k) for k in hit_range.sizes())
    target = min(gamma2, total_possible)
    rng = random.Random(seed)
    found = {}
    attempts = 0
    max_attempts = ATTEMPT_FACTOR * gamma2
    while len(found) < target and attempts < max_attempts:
        attempts += 1
        k = rng.randint(hit_range.k_min, hit_range.k_max)
        key = tuple(sorted(rng.sample(pool, k)))
        if key not in found:
            found[key] = matrix.combination(key)
    return list(found.values())
