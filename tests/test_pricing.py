"""Pricing tests: exactness against enumeration, restriction, top-q, limits."""

import itertools
import math
import random

import numpy as np
import pytest

from multihit.data import HitRange, MutationMatrix, SampleLabel, SampleRecord
from multihit.master import DualPrices
from multihit.pricing import RC_EPS, PricingProblem, solve_pricing

from oracles import reduced_cost_by_loops
from util import random_matrix, toy_matrix


def random_duals(rng, matrix):
    pi = np.array([round(rng.uniform(0, 1), 6) for _ in range(matrix.tumor_count)])
    mu = np.array([round(rng.uniform(0, 1), 6) for _ in range(matrix.normal_count)])
    lam = round(rng.uniform(0, 0.5), 6)
    return DualPrices(pi, mu, lam)


def enumerate_max(matrix, duals, hit, allowed=None):
    genes = list(range(matrix.n_genes)) if allowed is None else sorted(allowed)
    best_rc, best_genes = -math.inf, None
    for k in hit.sizes():
        for combo in itertools.combinations(genes, k):
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


def hard_instance(rng, hit, variant, cg_prices=False):
    """A random matrix with genes mutated nowhere, plus per ``variant``: 0
    nothing more, 1 no normal samples, 2 no tumor samples, 3 fewer genes
    than ``hit.k_max``.  Duals lie on a 1e-3 grid, so reduced costs tie
    often and no positive one is near ``RC_EPS``.  ``cg_prices`` draws the
    prices column generation meets instead: tumor prices in {0, 0.5, 1},
    every normal price 1 and ``lam`` in {0, 1}, so equal reduced costs are
    the rule."""
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
        pi = [rng.choice((0, 0.5, 1)) for _ in range(m.tumor_count)]
        return m, DualPrices(pi, [1] * m.normal_count, rng.choice((0, 1)))
    duals = DualPrices(
        pi=[rng.randint(0, 1000) / 1000 for _ in range(m.tumor_count)],
        mu=[rng.randint(0, 1000) / 1000 for _ in range(m.normal_count)],
        lam=rng.randint(0, 500) / 1000,
    )
    return m, duals


def test_top_q_search_matches_enumeration_on_hard_inputs():
    rng = random.Random(61)
    hits = [HitRange(*bounds) for bounds in ((1, 1), (2, 2), (2, 3), (2, 4), (3, 3))]
    for hit, top_q, variant, cg_prices in itertools.product(
        hits, (1, 2, 3), range(4), (False, True)
    ):
        m, d = hard_instance(rng, hit, variant, cg_prices)
        allowed = None
        if rng.random() < 0.5:
            allowed = set(rng.sample(range(m.n_genes), rng.randint(0, m.n_genes)))
        genes = range(m.n_genes) if allowed is None else sorted(allowed)
        all_rc = sorted(
            (
                reduced_cost_by_loops(m, combo, d.pi, d.mu, d.lam)
                for k in hit.sizes()
                for combo in itertools.combinations(genes, k)
            ),
            reverse=True,
        )
        res = solve_pricing(PricingProblem(m, d, hit, allowed), top_q=top_q)
        assert res.proven_optimal
        if all_rc:
            assert res.reduced_cost == pytest.approx(all_rc[0], abs=1e-9)
        else:
            assert res.reduced_cost == -math.inf
        want = [rc for rc in all_rc[:top_q] if rc > RC_EPS]
        got = [
            reduced_cost_by_loops(m, c.genes, d.pi, d.mu, d.lam) for c in res.candidates
        ]
        assert got == pytest.approx(want, abs=1e-9)
        assert res.best == (res.candidates[0] if want else None)
        assert len({c.genes for c in res.candidates}) == len(res.candidates)
        for c in res.candidates:
            assert hit.k_min <= len(c.genes) <= hit.k_max
            assert allowed is None or set(c.genes) <= allowed
            assert (c.tumor_cover, c.normal_cover) == m.coverage(c.genes)


def test_children_rank_before_their_descendants_on_ties():
    # Gene 0 is the most frequent in tumors, then gene 1, then gene 2.  The
    # triple {0, 1, 2} grows from the pair {0, 1}, an earlier sibling of the
    # pair {0, 2}, and ties it at the maximum 2; the node of gene 0 pools
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
    res = solve_pricing(problem, top_q=2)
    assert [c.genes for c in res.candidates] == [(0, 2), (0, 1, 2)]


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


def test_allowed_genes_restriction():
    rng = random.Random(53)
    m = random_matrix(rng, 10, 8, 5)
    duals = random_duals(rng, m)
    hit = HitRange(2, 3)
    allowed = {0, 2, 4, 5, 8}
    res = solve_pricing(PricingProblem(m, duals, hit, allowed_genes=allowed))
    want_rc, _ = enumerate_max(m, duals, hit, allowed=allowed)
    assert res.reduced_cost == pytest.approx(want_rc, abs=1e-9)
    if res.best is not None:
        assert set(res.best.genes) <= allowed


def test_empty_admissible_set():
    m = toy_matrix()
    duals = DualPrices(pi=np.ones(3), mu=np.zeros(2), lam=0.0)
    res = solve_pricing(PricingProblem(m, duals, HitRange(3, 3), allowed_genes={0, 1}))
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


def test_top_q_candidates_match_enumeration():
    rng = random.Random(59)
    m = random_matrix(rng, 8, 10, 3)
    duals = DualPrices(
        pi=np.full(m.tumor_count, 0.5), mu=np.full(m.normal_count, 0.1), lam=0.0
    )
    hit = HitRange(2, 2)
    res = solve_pricing(PricingProblem(m, duals, hit), top_q=4)
    all_rc = sorted(
        (
            reduced_cost_by_loops(m, combo, duals.pi, duals.mu, duals.lam)
            for combo in itertools.combinations(range(m.n_genes), 2)
        ),
        reverse=True,
    )
    want = [rc for rc in all_rc[:4] if rc > 1e-6]
    got = [
        reduced_cost_by_loops(m, c.genes, duals.pi, duals.mu, duals.lam)
        for c in res.candidates
    ]
    assert got == pytest.approx(want, abs=1e-9)
    assert all(got[i] >= got[i + 1] for i in range(len(got) - 1))


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
        allowed = None
        if trial % 2:
            allowed = set(rng.sample(range(m.n_genes), rng.randint(1, m.n_genes)))
        hit = hits[trial % len(hits)]
        genes = range(m.n_genes) if allowed is None else sorted(allowed)
        all_rc = sorted(
            (
                reduced_cost_by_loops(m, combo, d.pi, d.mu, d.lam)
                for k in hit.sizes()
                for combo in itertools.combinations(genes, k)
            ),
            reverse=True,
        )
        res = solve_pricing(PricingProblem(m, d, hit, allowed), top_q=2)
        assert res.proven_optimal
        assert res.reduced_cost == pytest.approx(
            all_rc[0] if all_rc else -math.inf, abs=1e-9
        )
        got = [
            reduced_cost_by_loops(m, c.genes, d.pi, d.mu, d.lam) for c in res.candidates
        ]
        assert got == pytest.approx([rc for rc in all_rc[:2] if rc > RC_EPS], abs=1e-9)
        for c in res.candidates:
            assert allowed is None or set(c.genes) <= allowed
        if trial % 3 == 0:
            assert res.best is None  # no column covers a priced tumor
