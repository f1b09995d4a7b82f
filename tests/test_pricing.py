"""Pricing tests: exactness against enumeration, restriction, top-q, limits."""

import itertools
import math
import random

import numpy as np
import pytest

from multihit.data import HitRange
from multihit.master import DualPrices
from multihit.pricing import PricingProblem, solve_pricing

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
