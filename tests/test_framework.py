"""Framework tests: rounding, exact search, heuristic and column generation."""

import random
import time
import types

import numpy as np
import pytest

from multihit import framework, master
from multihit.data import HitRange, MutationMatrix, SampleLabel, SampleRecord
from multihit.errors import ConsistencyError, ValidationError
from multihit.framework import (
    SolverConfig,
    exact_bruteforce,
    rounding_heuristic,
    solve_colgen,
    solve_exact,
    solve_mip_heuristic,
)
from multihit.master import MasterModel, solve_relaxation
from multihit.metrics import objective_value
from multihit.pricing import PricingResult
from multihit.synth import SyntheticSpec, generate_synthetic

from oracles import (
    all_combinations,
    best_selection_by_enumeration,
    reduced_cost_by_loops,
    selection_objective_by_loops,
    tableau_solve,
)
from util import random_matrix, toy_matrix


def full_pool(m, hit_range):
    return [m.combination(genes) for genes in all_combinations(m, hit_range)]


def pair_model(beta):
    m = toy_matrix()
    return m, MasterModel(m, full_pool(m, HitRange(2, 2)), beta)


def stub(z):
    return types.SimpleNamespace(z=np.asarray(z, dtype=float))


def test_rounding_keeps_ceil_of_mass():
    m, model = pair_model(beta=3)
    n = len(model.columns)
    z = np.zeros(n)
    z[0] = 0.5
    z[1] = 0.5
    indices, obj = rounding_heuristic(stub(z), model)
    assert indices == (0,)
    assert obj == selection_objective_by_loops(m, [model.columns[0].genes])
    z[2] = 0.7
    indices, _ = rounding_heuristic(stub(z), model)
    assert indices == (0, 2)  # two largest, tie to the lower index


def test_rounding_clamps_to_budget_and_guards_float_dust():
    m, model = pair_model(beta=1)
    n = len(model.columns)
    z = np.zeros(n)
    z[0] = 0.9
    z[1] = 0.9
    indices, _ = rounding_heuristic(stub(z), model)
    assert indices == (0,)
    m2, model2 = pair_model(beta=5)
    z = np.zeros(len(model2.columns))
    z[0] = 1.0000000004
    z[1] = 1.0
    indices, _ = rounding_heuristic(stub(z), model2)
    assert indices == (0, 1)
    indices, obj = rounding_heuristic(stub(np.zeros(len(model2.columns))), model2)
    assert indices == () and obj == 0


def test_rounding_real_relaxation_is_feasible_lower_bound():
    rng = random.Random(70)
    for _ in range(10):
        m = random_matrix(rng, 7, 6, 4)
        model = MasterModel(m, full_pool(m, HitRange(2, 2)), 2)
        rmp = solve_relaxation(model)
        indices, obj = rounding_heuristic(rmp, model)
        assert len(indices) <= 2
        chosen = [model.columns[j].genes for j in indices]
        assert obj == selection_objective_by_loops(m, chosen)
        opt, _ = best_selection_by_enumeration(m, HitRange(2, 2), 2)
        assert obj <= opt


def test_exact_toy_value():
    m = toy_matrix()
    sel, obj = exact_bruteforce(m, HitRange(2, 2), 2)
    assert obj == 1
    assert selection_objective_by_loops(m, [c.genes for c in sel]) == 1


def test_exact_matches_enumeration():
    rng = random.Random(71)
    for trial in range(15):
        m = random_matrix(rng, rng.randint(5, 8), rng.randint(4, 8), rng.randint(2, 5))
        hit = HitRange(2, 3) if trial % 2 else HitRange(2, 2)
        beta = rng.randint(1, 3)
        sel, obj = exact_bruteforce(m, hit, beta)
        want, _ = best_selection_by_enumeration(m, hit, beta)
        assert obj == want
        assert len(sel) <= beta
        assert selection_objective_by_loops(m, [c.genes for c in sel]) == obj


def test_exact_refuses_over_caps():
    rng = random.Random(72)
    big = random_matrix(rng, 16, 4, 2)
    with pytest.raises(ValidationError, match="genes"):
        exact_bruteforce(big, HitRange(2, 2), 2)
    small = random_matrix(rng, 6, 4, 2)
    with pytest.raises(ValidationError, match="budget"):
        exact_bruteforce(small, HitRange(2, 2), 4)
    wide = random_matrix(rng, 15, 4, 2)
    with pytest.raises(ValidationError, match="combinations"):
        exact_bruteforce(wide, HitRange(1, 15), 2)


def test_solve_exact_report_shape():
    m = toy_matrix()
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2)
    rep = solve_exact(m, cfg)
    assert rep.objective == 1
    assert rep.upper_bound == 1.0
    assert rep.gap_percent == 0.0
    assert rep.status == "converged"
    # Of the toy's 21 pairs, only the 6 inside t2's genes {g1..g4} cover a
    # tumor (t3 has one gene).  {g1, g2} covers t1, t2 and n1; the other 5
    # cover just t2 and no normal, one distinct cover.  Neither cover
    # dominates the other, so the search chooses from 2 columns.
    assert rep.pool_size == 2


def test_mip_heuristic_with_exhaustive_pool_is_exact():
    rng = random.Random(73)
    for trial in range(8):
        m = random_matrix(rng, rng.randint(6, 9), rng.randint(5, 10), rng.randint(2, 6))
        hit = HitRange(2, 3) if trial % 2 else HitRange(2, 2)
        beta = rng.randint(1, 3)
        cfg = SolverConfig(
            hit_range=hit, beta=beta, gamma1=20, gamma2=2000, seed=trial
        )
        rep = solve_mip_heuristic(m, cfg)
        want, _ = best_selection_by_enumeration(m, hit, beta)
        assert rep.status == "converged"
        assert rep.objective == want
        assert rep.upper_bound is None and rep.gap_percent is None
        assert rep.iterations == 0
        assert rep.pool_size == len(all_combinations(m, hit))
        assert objective_value(rep.selection, m) == rep.objective


def test_mip_heuristic_is_pipeline_without_pricing():
    rng = random.Random(74)
    m = random_matrix(rng, 8, 7, 4)
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2, gamma1=10, gamma2=500, seed=9)
    via_entry = solve_mip_heuristic(m, cfg)
    from multihit.candidates import generate_candidates

    pool = generate_candidates(m, cfg.hit_range, gamma1=10, gamma2=500, seed=9)
    via_pipeline = framework._pipeline(m, cfg, pool, False, time.perf_counter(), 0.0)
    assert [c.genes for c in via_entry.selection] == [
        c.genes for c in via_pipeline.selection
    ]
    assert via_entry.objective == via_pipeline.objective
    assert via_entry.pool_size == via_pipeline.pool_size


def test_colgen_toy_converges_with_certificate():
    m = toy_matrix()
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2)
    rep = solve_colgen(m, cfg)
    assert rep.status == "converged"
    assert rep.upper_bound == pytest.approx(1.0, abs=1e-6)
    assert rep.objective == 1
    assert rep.gap_percent == 0.0
    assert rep.iterations >= 1
    assert objective_value(rep.selection, m) == 1


def test_colgen_bound_matches_full_lp_oracle():
    rng = random.Random(75)
    for _ in range(8):
        m = random_matrix(rng, 8, 6, 4)
        hit = HitRange(2, 2)
        cfg = SolverConfig(hit_range=hit, beta=2)
        rep = solve_colgen(m, cfg)
        assert rep.status == "converged"
        model = MasterModel(m, full_pool(m, hit), 2)
        lp = model.build_lp()
        status, lp_obj, _ = tableau_solve(
            lp.objective, lp.a_matrix.toarray(), lp.rhs, lp.lower, lp.upper
        )
        assert status == "optimal"
        assert rep.upper_bound == pytest.approx(lp_obj, abs=1e-6)
        opt, _ = best_selection_by_enumeration(m, hit, 2)
        assert rep.objective <= opt
        assert rep.upper_bound >= opt - 1e-9
        if rep.gap_percent == 0.0 and rep.objective > 0:
            assert rep.objective == opt


def test_colgen_timeout_withholds_bound():
    m = toy_matrix()
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2, total_time_limit=1e-9)
    rep = solve_colgen(m, cfg)
    assert rep.status == "time_limit"
    assert rep.upper_bound is None and rep.gap_percent is None
    assert rep.objective == 0 and rep.selection == []


def test_colgen_deadline_inside_master_lp_withholds_bound(monkeypatch):
    # Expire the deadline inside the third master LP: column generation stops
    # there without a bound and keeps the selections found before it.
    m = random_matrix(random.Random(76), 9, 8, 5)
    cfg = SolverConfig(hit_range=HitRange(2, 3), beta=3)
    assert solve_colgen(m, cfg).iterations > 3
    real = master.solve_lp
    calls = []

    def expiring(p, warm_start=None, deadline=None):
        calls.append(p)
        if len(calls) == 3:
            deadline = time.perf_counter() - 1.0
        return real(p, warm_start, deadline=deadline)

    monkeypatch.setattr(master, "solve_lp", expiring)
    rep = solve_colgen(m, cfg)
    assert rep.status == "time_limit"
    assert rep.upper_bound is None and rep.gap_percent is None
    assert rep.iterations == 2
    assert objective_value(rep.selection, m) == rep.objective


def test_stagnation_guard_raises(monkeypatch):
    m = toy_matrix()
    col = m.combination((0, 1))

    def fake_pricing(problem, deadline=None, top_q=1):
        return PricingResult(col, 0.5, True, 1, [col])

    monkeypatch.setattr(framework, "solve_pricing_with_speedup", fake_pricing)
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2)
    with pytest.raises(ConsistencyError, match="in-pool"):
        framework._pipeline(m, cfg, [col], True, time.perf_counter(), 0.0)
    # An in-pool column among the extras breaks the same invariant.
    new = m.combination((2, 3))

    def fake_top_q(problem, deadline=None, top_q=1):
        return PricingResult(new, 0.5, True, 1, [new, col])

    monkeypatch.setattr(framework, "solve_pricing_with_speedup", fake_top_q)
    with pytest.raises(ConsistencyError, match=r"in-pool column \(0, 1\)"):
        framework._pipeline(m, cfg, [col], True, time.perf_counter(), 0.0)


def test_colgen_prices_the_best_column_every_round(monkeypatch):
    # Every round must price exactly: the returned reduced cost is the
    # maximum over all combinations, not the first positive one found.
    m = generate_synthetic(
        SyntheticSpec(12, 16, 8, ((0, 1), (2, 3)), 0.4, 0.15, 0.15), 6
    )
    hit = HitRange(2, 3)
    real = framework.solve_pricing_with_speedup
    rounds = []

    def checked(problem, *args, **kwargs):
        res = real(problem, *args, **kwargs)
        d = problem.duals
        want = max(
            reduced_cost_by_loops(m, genes, d.pi, d.mu, d.lam)
            for genes in all_combinations(m, hit)
        )
        rounds.append((res.reduced_cost, want))
        return res

    monkeypatch.setattr(framework, "solve_pricing_with_speedup", checked)
    rep = solve_colgen(m, SolverConfig(hit_range=hit, beta=3))
    assert rep.status == "converged"
    assert len(rounds) == rep.iterations > 1
    for got, want in rounds:
        assert got == pytest.approx(want, abs=1e-9)


def test_colgen_determinism():
    rng = random.Random(76)
    m = random_matrix(rng, 9, 8, 5)
    cfg = SolverConfig(hit_range=HitRange(2, 3), beta=3)
    a = solve_colgen(m, cfg)
    b = solve_colgen(m, cfg)
    assert [c.genes for c in a.selection] == [c.genes for c in b.selection]
    assert a.objective == b.objective
    assert a.upper_bound == b.upper_bound
    assert a.iterations == b.iterations
    assert a.pool_size == b.pool_size


def test_timings_cover_phases():
    m = toy_matrix()
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2)
    rep = solve_colgen(m, cfg)
    assert set(rep.timings) == {"generation", "master", "pricing", "binary", "total"}
    assert all(v >= 0.0 for v in rep.timings.values())
    assert rep.timings["total"] >= rep.timings["master"]


def zero_coverage_matrix():
    """No gene is mutated in any tumor, so no combination can score."""
    samples = [
        SampleRecord("t1", SampleLabel.TUMOR, 0),
        SampleRecord("t2", SampleLabel.TUMOR, 0),
        SampleRecord("n1", SampleLabel.NORMAL, 0b011),
        SampleRecord("n2", SampleLabel.NORMAL, 0b110),
    ]
    return MutationMatrix(["g1", "g2", "g3"], samples)


def test_mip_on_uncoverable_tumors_keeps_empty_selection():
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2, gamma1=3, gamma2=50, seed=5)
    rep = solve_mip_heuristic(zero_coverage_matrix(), cfg)
    assert rep.objective == 0
    assert rep.selection == []
    assert rep.upper_bound is None
    assert rep.gap_percent is None


def test_colgen_on_uncoverable_tumors_converges_at_zero():
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2, seed=5)
    rep = solve_colgen(zero_coverage_matrix(), cfg)
    assert rep.status == "converged"
    assert rep.objective == 0
    assert rep.upper_bound == 0.0
    assert rep.gap_percent is None
    assert rep.selection == []
    assert rep.pool_size == 0


def test_exact_zero_budget_returns_empty_selection():
    sel, obj = exact_bruteforce(toy_matrix(), HitRange(2, 2), 0)
    assert sel == []
    assert obj == 0
