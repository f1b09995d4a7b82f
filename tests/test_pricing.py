"""Pricing tests: exactness against enumeration, ties, limits."""

import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from multihit import pricing
from multihit.data import HitRange, MutationMatrix, SampleLabel, SampleRecord
from multihit.master import DualPrices
from multihit.pricing import RC_EPS, PricingProblem, solve_pricing

from oracles import reduced_cost_by_loops, sequential_pricing
from util import random_matrix


def random_duals(rng, matrix):
    pi = np.array([round(rng.uniform(0, 1), 6) for _ in range(matrix.tumor_count)])
    mu = np.array([round(rng.uniform(0, 1), 6) for _ in range(matrix.normal_count)])
    lam = round(rng.uniform(0, 0.5), 6)
    return DualPrices(pi, mu, lam)


def enumerate_max(matrix, duals, hit):
    best_rc, best_genes = -math.inf, None
    for k in hit.sizes():
        for combo in itertools.combinations(range(matrix.n_genes), k):
            rc = reduced_cost_by_loops(matrix, combo, duals.pi, duals.mu, duals.lam)
            if rc > best_rc:
                best_rc, best_genes = rc, combo
    return best_rc, best_genes


def test_solver_matches_enumeration():
    rng = random.Random(51)
    hits = [HitRange(2, 2), HitRange(2, 3), HitRange(1, 3)]
    for trial in range(60):
        m = random_matrix(rng, rng.randint(5, 10), rng.randint(4, 12), rng.randint(2, 8))
        duals = random_duals(rng, m)
        hit = hits[trial % len(hits)]
        want_rc, _ = enumerate_max(m, duals, hit)
        res = solve_pricing(PricingProblem(m, duals, hit))
        assert res.proven_optimal
        assert res.reduced_cost == pytest.approx(want_rc, abs=1e-9)
        if want_rc > 1e-6:
            assert res.best is not None
            got = reduced_cost_by_loops(
                m, res.best.genes, duals.pi, duals.mu, duals.lam
            )
            assert got == pytest.approx(want_rc, abs=1e-9)
        else:
            assert res.best is None


def cg_duals(rng, matrix):
    """The prices column generation meets: tumor prices in {0, 0.5, 1},
    every normal price 1 and ``lam`` in {0, 1}, so equal reduced costs are
    the rule."""
    pi = [rng.choice((0, 0.5, 1)) for _ in range(matrix.tumor_count)]
    return DualPrices(pi, [1] * matrix.normal_count, rng.choice((0, 1)))


def hard_instance(rng, hit, variant, cg_prices=False):
    """A random matrix with genes mutated nowhere, plus per ``variant``: 0
    nothing more, 1 no normal samples, 2 no tumor samples, 3 fewer genes
    than ``hit.k_max``.  Duals lie on a 1e-3 grid, so reduced costs tie
    often and no positive one is near ``RC_EPS``.  ``cg_prices`` draws
    :func:`cg_duals` instead."""
    n_genes = hit.k_max - 1 if variant == 3 else rng.randint(hit.k_max, 9)
    silent = set(rng.sample(range(n_genes), n_genes // 3))
    samples = [
        SampleRecord(
            f"{label.value}{i}",
            label,
            sum(
                1 << g
                for g in range(n_genes)
                if g not in silent and rng.random() < 0.5
            ),
        )
        for label, count in (
            (SampleLabel.TUMOR, 0 if variant == 2 else rng.randint(1, 10)),
            (SampleLabel.NORMAL, 0 if variant == 1 else rng.randint(1, 6)),
        )
        for i in range(count)
    ]
    m = MutationMatrix([f"g{j}" for j in range(n_genes)], samples)
    if cg_prices:
        return m, cg_duals(rng, m)
    duals = DualPrices(
        pi=[rng.randint(0, 1000) / 1000 for _ in range(m.tumor_count)],
        mu=[rng.randint(0, 1000) / 1000 for _ in range(m.normal_count)],
        lam=rng.randint(0, 500) / 1000,
    )
    return m, duals


def check_against_enumeration(m, d, hit, res):
    """``res`` proves the enumerated maximum, and ``best`` attains it."""
    want = max(
        (
            reduced_cost_by_loops(m, combo, d.pi, d.mu, d.lam)
            for k in hit.sizes()
            for combo in itertools.combinations(range(m.n_genes), k)
        ),
        default=-math.inf,
    )
    assert res.proven_optimal
    assert res.reduced_cost == pytest.approx(want, abs=1e-9)
    assert (res.best is None) == (want <= RC_EPS)
    if res.best is not None:
        c = res.best
        got = reduced_cost_by_loops(m, c.genes, d.pi, d.mu, d.lam)
        assert got == pytest.approx(want, abs=1e-9)
        assert hit.k_min <= len(c.genes) <= hit.k_max
        assert (c.tumor_cover, c.normal_cover) == m.coverage(c.genes)


def test_search_matches_enumeration_on_hard_inputs():
    rng = random.Random(61)
    hits = [HitRange(*bounds) for bounds in ((1, 1), (2, 2), (2, 3), (2, 4), (3, 3))]
    for hit, variant, cg_prices in itertools.product(hits, range(4), (False, True)):
        m, d = hard_instance(rng, hit, variant, cg_prices)
        check_against_enumeration(m, d, hit, solve_pricing(PricingProblem(m, d, hit)))


def test_children_rank_before_their_descendants_on_ties():
    # Gene 0 is the most frequent in tumors, then gene 1, then gene 2.  The
    # triple {0, 1, 2} grows from the pair {0, 1}, an earlier sibling of the
    # pair {0, 2}, and ties it at the maximum 2; the node of gene 0 scores
    # both pairs before it descends, so the pair wins the tie.
    tumors = [0b111, 0b111, 0b011, 0b011, 0b001]
    normals = [0b011, 0b011, 0b011]
    samples = [
        SampleRecord(f"t{i}", SampleLabel.TUMOR, row) for i, row in enumerate(tumors)
    ] + [
        SampleRecord(f"n{i}", SampleLabel.NORMAL, row)
        for i, row in enumerate(normals)
    ]
    m = MutationMatrix(["g0", "g1", "g2"], samples)
    d = DualPrices(np.ones(len(tumors)), np.ones(len(normals)), 0.0)
    for combo in ((0, 2), (0, 1, 2), (1, 2)):
        assert reduced_cost_by_loops(m, combo, d.pi, d.mu, d.lam) == 2
    assert reduced_cost_by_loops(m, (0, 1), d.pi, d.mu, d.lam) == 1
    problem = PricingProblem(m, d, HitRange(2, 3))
    res = solve_pricing(problem)
    assert res.reduced_cost == 2 and res.best.genes == (0, 2)
    # Siblings that tie: the first in gene order wins.
    d = DualPrices(np.ones(len(tumors)), np.array([1.0, 1.0, 0.0]), 0.0)
    for combo in ((0, 1), (0, 2)):
        assert reduced_cost_by_loops(m, combo, d.pi, d.mu, d.lam) == 2
    res = solve_pricing(PricingProblem(m, d, HitRange(2, 3)))
    assert res.reduced_cost == 2 and res.best.genes == (0, 1)


def test_negative_maximum_is_still_exact():
    # Prices that make every column pay: the exact (negative) max matters.
    rng = random.Random(52)
    m = random_matrix(rng, 8, 5, 6, density=0.6)
    duals = DualPrices(
        pi=np.zeros(m.tumor_count), mu=np.full(m.normal_count, 0.3), lam=0.7
    )
    hit = HitRange(2, 2)
    want_rc, _ = enumerate_max(m, duals, hit)
    res = solve_pricing(PricingProblem(m, duals, hit))
    assert want_rc < 0
    assert res.best is None
    assert res.reduced_cost == pytest.approx(want_rc, abs=1e-12)


def test_empty_admissible_set():
    # Two genes leave no combination of three.
    samples = [
        SampleRecord("t0", SampleLabel.TUMOR, 0b11),
        SampleRecord("t1", SampleLabel.TUMOR, 0b01),
        SampleRecord("n0", SampleLabel.NORMAL, 0b10),
    ]
    m = MutationMatrix(["g0", "g1"], samples)
    duals = DualPrices(pi=np.ones(2), mu=np.zeros(1), lam=0.0)
    res = solve_pricing(PricingProblem(m, duals, HitRange(3, 3)))
    assert res.best is None
    assert res.reduced_cost == -math.inf
    assert res.proven_optimal


def test_deadline_abort_is_not_proven():
    rng = random.Random(54)
    m = random_matrix(rng, 14, 10, 5)
    duals = random_duals(rng, m)
    res = solve_pricing(
        PricingProblem(m, duals, HitRange(2, 4)), deadline=-1.0
    )
    assert not res.proven_optimal


def test_determinism():
    rng = random.Random(60)
    m = random_matrix(rng, 10, 9, 5)
    duals = random_duals(rng, m)
    p = PricingProblem(m, duals, HitRange(2, 3))
    a = solve_pricing(p)
    b = solve_pricing(p)
    assert a.reduced_cost == b.reduced_cost
    assert (a.best is None) == (b.best is None)
    if a.best is not None:
        assert a.best.genes == b.best.genes
    assert a.nodes == b.nodes


def test_node_supports_match_enumeration_on_silent_genes_and_samples():
    # Each node carries the samples with a nonzero price that its genes
    # cover.  Supports go empty when every tumor price is 0, when a gene is
    # mutated nowhere (gene 0) and when a sample is mutated nowhere (the
    # first tumor and the first normal); sizes 3 and 4 take them two and
    # three levels down.
    rng = random.Random(62)
    hits = [HitRange(1, 2), HitRange(2, 3), HitRange(3, 3), HitRange(2, 4)]
    for trial in range(48):
        base = random_matrix(
            rng, rng.randint(4, 8), rng.randint(2, 9), rng.randint(2, 6), density=0.6
        )
        samples = [
            SampleRecord(
                s.sample_id,
                s.label,
                0 if s.sample_id in ("t0", "n0") else s.mutations & ~1,
            )
            for s in base.samples
        ]
        m = MutationMatrix(base.gene_ids, samples)
        d = random_duals(rng, m)
        if trial % 3 == 0:
            d = DualPrices(np.zeros(m.tumor_count), d.mu, d.lam)
        hit = hits[trial % len(hits)]
        res = solve_pricing(PricingProblem(m, d, hit))
        check_against_enumeration(m, d, hit, res)
        if trial % 3 == 0:
            assert res.best is None  # no column covers a priced tumor


def assert_same_search(got, want):
    """Two pricing results with the same best genes, reduced cost, proof
    and node count, bit for bit."""
    assert got.reduced_cost == want.reduced_cost
    assert (got.best is None) == (want.best is None)
    if got.best is not None:
        assert got.best.genes == want.best.genes
    assert got.nodes == want.nodes
    assert got.proven_optimal == want.proven_optimal


def dyadic_duals(rng, matrix, cg_prices):
    """Prices on a 1/64 grid, so every sum of them is exact; ``cg_prices``
    draws :func:`cg_duals` instead."""
    if cg_prices:
        return cg_duals(rng, matrix)
    return DualPrices(
        pi=[rng.randint(0, 64) / 64 for _ in range(matrix.tumor_count)],
        mu=[rng.randint(0, 64) / 64 for _ in range(matrix.normal_count)],
        lam=rng.randint(0, 32) / 64,
    )


def test_block_search_matches_the_node_at_a_time_search(monkeypatch):
    # Scoring a block of siblings at once changes neither the search nor
    # its counts: random matrices of every density, hard inputs with
    # column generation's tied prices, and matrices wide enough that a
    # block reaches BLOCK_CELLS scores.
    rng = random.Random(63)
    hits = [HitRange(*bounds) for bounds in ((1, 3), (2, 2), (2, 3), (2, 4), (3, 3))]
    cells = []
    block_scores = pricing._block_scores

    def recorded(*args):
        scores = block_scores(*args)
        cells.append(scores.size)
        return scores

    monkeypatch.setattr(pricing, "_block_scores", recorded)
    checked = 0
    for trial in range(250):
        hit = hits[trial % len(hits)]
        m = random_matrix(
            rng,
            rng.randint(hit.k_max, 40),
            rng.randint(0, 30),
            rng.randint(0, 12),
            density=rng.uniform(0.05, 0.7),
        )
        d = dyadic_duals(rng, m, trial % 2 == 0)
        problem = PricingProblem(m, d, hit)
        assert_same_search(solve_pricing(problem), sequential_pricing(problem))
        checked += 1
    for hit, variant, _ in itertools.product(hits, range(4), range(4)):
        m, d = hard_instance(rng, hit, variant, cg_prices=True)
        problem = PricingProblem(m, d, hit)
        assert_same_search(solve_pricing(problem), sequential_pricing(problem))
        checked += 1
    for trial in range(3):
        m = random_matrix(rng, 2000 + 500 * trial, 60, 20, density=0.04)
        d = dyadic_duals(rng, m, trial != 1)
        problem = PricingProblem(m, d, HitRange(2, 3))
        assert_same_search(solve_pricing(problem), sequential_pricing(problem))
        checked += 1
    assert checked >= 300
    assert max(cells) > pricing.BLOCK_CELLS // 2


def test_a_limit_inside_a_block_keeps_the_incumbent_exact(monkeypatch):
    # The clock passes the deadline at its k-th reading, for every k of a
    # full search: at the root, before a block, or at a child expanded
    # inside a block (every expansion below the root is one).  The result
    # is never proven, never above the exact maximum, its best column has
    # the reduced cost it reports, and it counts no more children than
    # the full search.  No block is scored after that reading.
    rng = random.Random(64)
    clock = SimpleNamespace(reads=0, past=math.inf, blocks=None)

    def perf_counter():
        clock.reads += 1
        if clock.reads < clock.past:
            return -1.0
        clock.blocks = len(blocks)
        return 1.0

    blocks = []
    block_scores = pricing._block_scores

    def recorded(*args):
        blocks.append(args[1])
        return block_scores(*args)

    monkeypatch.setattr(pricing, "time", SimpleNamespace(perf_counter=perf_counter))
    monkeypatch.setattr(pricing, "_block_scores", recorded)
    inside = 0
    for hit, cg_prices, n_genes in itertools.product(
        (HitRange(2, 3), HitRange(2, 4)), (True, False), (60, 80)
    ):
        m = random_matrix(rng, n_genes, 30, 10, density=0.35)
        d = dyadic_duals(rng, m, cg_prices)
        problem = PricingProblem(m, d, hit)
        clock.reads, clock.past = 0, math.inf
        blocks.clear()
        full = solve_pricing(problem, deadline=0.0)
        assert_same_search(full, sequential_pricing(problem))
        reads = clock.reads
        inside += reads - 1 - len(blocks)
        for k in range(1, reads + 1):
            clock.reads, clock.past = 0, k
            res = solve_pricing(problem, deadline=0.0)
            assert clock.reads == k and len(blocks) == clock.blocks
            assert not res.proven_optimal
            assert res.reduced_cost <= full.reduced_cost
            assert res.nodes <= full.nodes
            if res.best is not None:
                genes = res.best.genes
                assert hit.k_min <= len(genes) <= hit.k_max
                got = reduced_cost_by_loops(m, genes, d.pi, d.mu, d.lam)
                assert got == res.reduced_cost
    assert inside > 0
