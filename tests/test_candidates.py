"""Candidate generation: ranking, dedup, determinism, caps."""

import itertools
import random

import pytest

from multihit import candidates
from multihit.candidates import generate_candidates, rank_genes_by_tumor_frequency
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
    no_tumors = MutationMatrix(
        ["g0", "g1"], [SampleRecord("n0", SampleLabel.NORMAL, 0b11)]
    )
    with pytest.raises(ValidationError):
        generate_candidates(no_tumors, HitRange(1, 1), gamma1=2, gamma2=5, seed=0)
    rng = random.Random(4)
    m = random_matrix(rng, 3, 5, 2)
    with pytest.raises(ValidationError):
        generate_candidates(m, HitRange(2, 4), gamma1=10, gamma2=5, seed=0)
    with pytest.raises(ValidationError):
        generate_candidates(m, HitRange(2, 3), gamma1=2, gamma2=5, seed=0)
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
