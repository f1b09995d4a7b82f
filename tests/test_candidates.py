"""Candidate generation: ranking, dedup, determinism, caps."""

import itertools
import math
import random
import types

import pytest

from multihit import candidates
from multihit.candidates import (
    ATTEMPT_FACTOR,
    generate_candidates,
    rank_genes_by_tumor_frequency,
)
from multihit.data import HitRange, MutationMatrix, SampleLabel, SampleRecord
from multihit.errors import ValidationError

from util import random_matrix, toy_matrix


def test_ranking_on_toy():
    assert rank_genes_by_tumor_frequency(toy_matrix()) == [0, 1, 2, 3, 6, 4, 5]


def test_ranking_matches_counting_pass():
    rng = random.Random(42)
    for _ in range(20):
        m = random_matrix(rng, 12, 15, 5)
        counts = [0] * m.n_genes
        for pos in m.tumor_positions:
            row = m.samples[pos].mutations
            for g in range(m.n_genes):
                if (row >> g) & 1:
                    counts[g] += 1
        expected = sorted(range(m.n_genes), key=lambda g: (-counts[g], g))
        assert rank_genes_by_tumor_frequency(m) == expected


def test_ranking_keeps_index_order_among_tied_frequencies():
    # 6 tumors give 200 genes at most 7 distinct frequencies, so nearly
    # every gene ties with others; a matrix without tumors ties them all.
    # 130 tumors are counted in more than one chunk of rows.
    rng = random.Random(7)
    for n_genes, n_tumor in ((200, 6), (40, 0), (0, 3), (300, 130)):
        m = random_matrix(rng, n_genes, n_tumor, 4, density=0.2)
        freq = [bin(m.columns(g)[0]).count("1") for g in range(n_genes)]
        assert len(set(freq)) < n_genes or n_genes == 0
        expected = sorted(range(n_genes), key=lambda g: (-freq[g], g))
        ranked = rank_genes_by_tumor_frequency(m)
        assert ranked == expected
        assert all(type(g) is int for g in ranked)


def test_generation_basic_properties():
    rng = random.Random(1)
    m = random_matrix(rng, 20, 25, 10)
    pool = generate_candidates(m, HitRange(2, 3), gamma1=8, gamma2=50, seed=7)
    assert len(pool) == 50
    keys = [c.genes for c in pool]
    assert len(set(keys)) == len(keys)
    top = set(rank_genes_by_tumor_frequency(m)[:8])
    for c in pool:
        assert 2 <= len(c.genes) <= 3
        assert set(c.genes) <= top
        assert (c.tumor_cover, c.normal_cover) == m.coverage(c.genes)


def test_generation_exhausts_small_space():
    rng = random.Random(2)
    m = random_matrix(rng, 9, 10, 4)
    pool = generate_candidates(m, HitRange(2, 2), gamma1=5, gamma2=1000, seed=0)
    assert len(pool) == 10  # all pairs over a 5-gene pool
    assert {c.genes for c in pool} == {
        tuple(sorted(p))
        for p in itertools.combinations(rank_genes_by_tumor_frequency(m)[:5], 2)
    }


def test_generation_determinism():
    rng = random.Random(3)
    m = random_matrix(rng, 15, 20, 8)
    a = generate_candidates(m, HitRange(2, 3), gamma1=10, gamma2=40, seed=11)
    b = generate_candidates(m, HitRange(2, 3), gamma1=10, gamma2=40, seed=11)
    assert [c.genes for c in a] == [c.genes for c in b]
    c = generate_candidates(m, HitRange(2, 3), gamma1=10, gamma2=40, seed=12)
    assert [x.genes for x in a] != [x.genes for x in c]


def test_generation_refusals():
    # A matrix without tumor samples is no refusal: every gene ranks equal,
    # and the pool is drawn from them as from any other matrix.
    no_tumors = MutationMatrix(
        ["g0", "g1"], [SampleRecord("n0", SampleLabel.NORMAL, 0b11)]
    )
    pool = generate_candidates(no_tumors, HitRange(1, 1), gamma1=2, gamma2=5, seed=0)
    assert sorted(c.genes for c in pool) == [(0,), (1,)]
    # A pool smaller than the largest size is no refusal either: sizes run
    # up to the pool's, so 3 genes at hit 2-4 give their 3 pairs and one
    # triple, and a pool of 2 at hit 2-3 gives its one pair.
    rng = random.Random(4)
    m = random_matrix(rng, 3, 5, 2)
    pool = generate_candidates(m, HitRange(2, 4), gamma1=10, gamma2=5, seed=0)
    assert sorted(c.genes for c in pool) == [(0, 1), (0, 1, 2), (0, 2), (1, 2)]
    pool = generate_candidates(m, HitRange(2, 3), gamma1=2, gamma2=5, seed=0)
    assert len(pool) == 1 and len(pool[0].genes) == 2
    for gamma1, gamma2 in ((0, 5), (10, 0)):
        with pytest.raises(ValidationError, match="must be positive"):
            generate_candidates(m, HitRange(2, 2), gamma1, gamma2, seed=0)


def test_attempt_cap_stops_on_duplicate_draws(monkeypatch):
    # 10 pairs over a 5-gene pool: 10 uniform draws all but surely repeat
    # one, so with a cap of 1 x gamma2 draws the pool comes up short.
    rng = random.Random(5)
    m = random_matrix(rng, 8, 10, 4)
    full = generate_candidates(m, HitRange(2, 2), gamma1=5, gamma2=10, seed=0)
    assert len(full) == 10
    monkeypatch.setattr(candidates, "ATTEMPT_FACTOR", 1)
    capped = generate_candidates(m, HitRange(2, 2), gamma1=5, gamma2=10, seed=0)
    assert 0 < len(capped) < 10
    assert [c.genes for c in capped] == [c.genes for c in full[: len(capped)]]


def test_deadline_stops_generation_on_a_prefix_of_the_draws(monkeypatch):
    m = random_matrix(random.Random(6), 40, 30, 10, density=0.3)
    args = (m, HitRange(2, 3), 40, 5000, 3)
    full = generate_candidates(*args)
    assert generate_candidates(*args, deadline=math.inf) == full
    assert generate_candidates(*args, deadline=-math.inf) == []
    # A clock that passes the deadline at its third reading: the clock is
    # read before every draw, so exactly two draws, here two distinct pairs.
    readings = iter(range(100))
    clock = types.SimpleNamespace(perf_counter=lambda: next(readings))
    monkeypatch.setattr(candidates, "time", clock)
    cut = generate_candidates(*args, deadline=1.5)
    assert len(cut) == 2 < len(full)
    assert [c.genes for c in cut] == [c.genes for c in full[: len(cut)]]


def draws_by_combination(m, hit_range, gamma1, gamma2, seed):
    """The generation loop with every new key built by ``m.combination``."""
    pool = rank_genes_by_tumor_frequency(m)[:gamma1]
    k_max = min(hit_range.k_max, len(pool))
    total = sum(math.comb(len(pool), k) for k in hit_range.sizes())
    rng = random.Random(seed)
    found = {}
    attempts = 0
    while len(found) < min(gamma2, total) and attempts < ATTEMPT_FACTOR * gamma2:
        attempts += 1
        k = rng.randint(hit_range.k_min, k_max)
        key = tuple(sorted(rng.sample(pool, k)))
        if key not in found:
            found[key] = m.combination(key)
    return list(found.values())


def test_generation_equals_a_combination_reference():
    # Same draws, same order, same covers as building each new key through
    # matrix.combination; the pools include exhausted spaces and repeats.
    rng = random.Random(9)
    m = random_matrix(rng, 60, 70, 30, density=0.3)
    cases = [
        (HitRange(2, 3), 20, 300),
        (HitRange(1, 1), 10, 50),
        (HitRange(2, 5), 12, 500),
        (HitRange(3, 3), 6, 100),  # 20 triples: exhausted
        (HitRange(2, 5), 4, 100),  # sizes up to the pool's 4: exhausted
    ]
    for hit_range, gamma1, gamma2 in cases:
        for seed in (0, 1, 17):
            got = generate_candidates(m, hit_range, gamma1, gamma2, seed)
            assert got == draws_by_combination(m, hit_range, gamma1, gamma2, seed)
    assert len(generate_candidates(m, HitRange(3, 3), 6, 100, 0)) == 20


def test_uncovered_combos_kept_by_default():
    # One tumor with no mutations at all: every combination misses it, and
    # pairs over never-mutated genes cover nothing.
    samples = [
        SampleRecord("t0", SampleLabel.TUMOR, 0b0011),
        SampleRecord("t1", SampleLabel.TUMOR, 0b0000),
        SampleRecord("n0", SampleLabel.NORMAL, 0b1100),
    ]
    m = MutationMatrix(["a", "b", "c", "d"], samples)
    pool = generate_candidates(m, HitRange(2, 2), gamma1=4, gamma2=100, seed=1)
    assert len(pool) == 6
    assert any(c.tumor_cover == 0 for c in pool)
