"""Framework tests: rounding, exact pool, heuristic and column generation."""

import math
import random
import time
import types

import numpy as np
import pytest

from multihit import candidates, framework, master, pricing
from multihit.data import HitRange, MutationMatrix, SampleLabel, SampleRecord
from multihit.errors import ConsistencyError, ValidationError
from multihit.framework import (
    SolverConfig,
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
    exact_bruteforce,
    reduced_cost_by_loops,
    selection_objective_by_loops,
    tableau_solve,
)
from util import no_incumbent, random_matrix, toy_matrix


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


def test_rounding_ranks_ties_toward_the_lower_index():
    # The stable sort of -z ranks as the rule (-z[j], j) does.
    m, model = pair_model(beta=5)
    rng = random.Random(69)
    for _ in range(20):
        z = np.array([rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in model.columns])
        order = sorted(range(len(z)), key=lambda j: (-z[j], j))
        k = max(0, min(math.ceil(z.sum() - master.ROUND_TOL), 5))
        indices, _ = rounding_heuristic(stub(z), model)
        assert indices == tuple(sorted(order[:k]))


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
        rep = solve_exact(m, SolverConfig(hit_range=hit, beta=beta))
        assert rep.status == "converged"
        assert rep.objective == rep.upper_bound == want
        assert len(rep.selection) <= beta
        assert objective_value(rep.selection, m) == want


def test_exact_refuses_over_caps():
    # The only cap is the pool's: 2^15 - 1 combinations is refused, while
    # 16 genes at budget 4 solve.  Hit 15-16 keeps the oracle's
    # enumeration to the 17 combinations of 15 or 16 genes.
    rng = random.Random(72)
    wide = random_matrix(rng, 15, 4, 2)
    cfg = SolverConfig(hit_range=HitRange(1, 15), beta=2)
    with pytest.raises(ValidationError, match="combinations, got 32767"):
        solve_exact(wide, cfg)
    big = random_matrix(rng, 16, 8, 3, density=0.9)
    hit = HitRange(15, 16)
    rep = solve_exact(big, SolverConfig(hit_range=hit, beta=4))
    want, _ = best_selection_by_enumeration(big, hit, 4)
    assert want > 0
    assert rep.status == "converged"
    assert rep.objective == rep.upper_bound == want
    assert objective_value(rep.selection, big) == want


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
    # cover just t2 and no normal, one distinct cover.  So the pool MIP
    # chooses from 2 columns.
    assert rep.pool_size == 2


def test_solve_exact_keeps_its_time_limit():
    # The full solve takes ~3.7 s here on a 2-vCPU VM and proves 46.  A stop
    # in the pool MIP keeps the rounded root relaxation, or HiGHS's
    # incumbent when it is better; a stop in the enumeration has found none.
    m = random_matrix(random.Random(1), 15, 60, 10, density=0.7)
    for limit in (1.0, 1e-9):
        cfg = SolverConfig(hit_range=HitRange(2, 5), beta=3, total_time_limit=limit)
        t0 = time.perf_counter()
        rep = solve_exact(m, cfg)
        assert time.perf_counter() - t0 <= limit + 1.0
        assert rep.status == "time_limit"
        assert rep.upper_bound is None and rep.gap_percent is None
        assert len(rep.selection) <= 3
        assert objective_value(rep.selection, m) == rep.objective <= 46
    assert rep.selection == [] and rep.pool_size == 0


def test_solve_exact_stops_inside_the_enumeration(monkeypatch):
    # A clock that passes the deadline at the enumeration's 31st reading,
    # after the start and 30 combinations, and then either advances or
    # stays frozen: the pool is the distinct covers of those 30, and no LP
    # is built after the deadline, also when the pool MIP's limit is read
    # off a clock that no longer moves.
    m = random_matrix(random.Random(1), 10, 30, 10, density=0.6)
    hit = HitRange(2, 3)
    read = full_pool(m, hit)[:30]
    covers = {(c.tumor_cover, c.normal_cover) for c in read if c.tumor_cover}
    monkeypatch.setattr(MasterModel, "build_lp", lambda self: pytest.fail("LP built"))
    for step in (1.0, 0.0):
        reads = []

        def clock(step=step):
            reads.append(None)
            return 0.0 if len(reads) <= 1 + 30 else 10.0 + step * len(reads)

        fake = types.SimpleNamespace(perf_counter=clock)
        monkeypatch.setattr(framework, "time", fake)
        monkeypatch.setattr(master, "time", fake)
        cfg = SolverConfig(hit_range=hit, beta=3, total_time_limit=1.0)
        rep = solve_exact(m, cfg)
        assert rep.status == "time_limit"
        assert rep.upper_bound is None and rep.gap_percent is None
        assert rep.pool_size == len(covers) > 0
        assert rep.selection == [] and rep.objective == 0
        assert rep.lp_iterations == 0 and rep.binary_nodes == 0


def test_mip_heuristic_keeps_its_time_limit_while_drawing_its_pool():
    # Drawing the default 100,000 candidates here takes ~2.3 s on a 2-vCPU VM.
    spec = SyntheticSpec(300, 200, 80, ((0, 1), (2, 3), (4, 5, 6)), 0.3, 0.05, 0.05)
    m = generate_synthetic(spec, 1)
    cfg = SolverConfig(hit_range=HitRange(2, 3), beta=10, total_time_limit=0.1)
    t0 = time.perf_counter()
    rep = solve_mip_heuristic(m, cfg)
    assert time.perf_counter() - t0 <= cfg.total_time_limit + 1.0
    assert rep.status == "time_limit"
    assert 0 < rep.pool_size < cfg.gamma2


def test_mip_heuristic_builds_no_model_once_generation_passes_the_deadline(
    monkeypatch,
):
    # A clock that passes the deadline as generation returns: no column
    # joins the master, no LP is built, and the report still counts the
    # whole drawn pool.
    m = random_matrix(random.Random(2), 12, 20, 8, density=0.4)
    cfg = SolverConfig(
        hit_range=HitRange(2, 3), beta=3, gamma2=50, total_time_limit=1.0
    )
    late = []
    fake = types.SimpleNamespace(perf_counter=lambda: 10.0 if late else 0.0)
    for module in (framework, master, candidates):
        monkeypatch.setattr(module, "time", fake)
    drawn = []

    def generate(*args, **kwargs):
        drawn.extend(candidates.generate_candidates(*args, **kwargs))
        late.append(True)
        return drawn

    monkeypatch.setattr(framework, "generate_candidates", generate)
    monkeypatch.setattr(MasterModel, "add_column", lambda *a: pytest.fail("built"))
    monkeypatch.setattr(MasterModel, "build_lp", lambda self: pytest.fail("LP built"))
    rep = solve_mip_heuristic(m, cfg)
    assert len(drawn) == cfg.gamma2
    assert rep.status == "time_limit"
    assert rep.upper_bound is None and rep.gap_percent is None
    assert rep.pool_size == cfg.gamma2
    assert rep.selection == [] and rep.objective == 0
    assert rep.lp_iterations == 0 and rep.binary_nodes == 0


def test_mip_heuristic_reports_its_rounded_root_without_an_incumbent(monkeypatch):
    # The pool's rounded relaxation falls short of its integer floor and
    # HiGHS stops before it finds a selection: the report keeps the rounded
    # root relaxation.
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "milp", no_incumbent)
    m = random_matrix(random.Random(4), 9, 16, 8, density=0.45)
    cfg = SolverConfig(hit_range=HitRange(2, 3), beta=3, gamma1=20, gamma2=2000)
    rep = solve_mip_heuristic(m, cfg)
    assert rep.pool_size == len(all_combinations(m, cfg.hit_range))
    assert rep.binary_nodes == 1  # the rounded root, then HiGHS
    assert rep.status == "time_limit"
    assert rep.upper_bound is None and rep.gap_percent is None
    assert rep.objective > 0
    assert objective_value(rep.selection, m) == rep.objective


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


def test_colgen_deadline_inside_pricing_withholds_bound(monkeypatch):
    # The pricing clock passes the deadline after the first expanded node:
    # that search stops unproven, and column generation stops there without
    # a bound.
    m = random_matrix(random.Random(76), 9, 8, 5)
    reads = []

    def clock():
        reads.append(None)
        return -math.inf if len(reads) == 1 else math.inf

    monkeypatch.setattr(pricing, "time", types.SimpleNamespace(perf_counter=clock))
    real = framework.solve_pricing_with_speedup
    results = []

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(framework, "solve_pricing_with_speedup", recorded)
    rep = solve_colgen(m, SolverConfig(hit_range=HitRange(2, 3), beta=3))
    assert len(results) == 1 and not results[0].proven_optimal
    # Only the root was expanded: its children are every gene but the last,
    # which cannot start a pair.
    assert len(reads) == 2 and results[0].nodes == m.n_genes - 1
    assert rep.status == "time_limit"
    assert rep.upper_bound is None and rep.gap_percent is None
    assert objective_value(rep.selection, m) == rep.objective


def test_stagnation_guard_raises(monkeypatch):
    m = toy_matrix()
    col = m.combination((0, 1))

    def fake_pricing(problem, deadline=None):
        return PricingResult(col, 0.5, True, 1)

    monkeypatch.setattr(framework, "solve_pricing_with_speedup", fake_pricing)
    cfg = SolverConfig(hit_range=HitRange(2, 2), beta=2)
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


def test_lp_iterations_count_every_simplex_pivot(monkeypatch):
    # Each pool's LP is solved once: the pool MIP starts from the last
    # relaxation, so column generation solves one LP per pricing round and
    # the other modes one in all.
    pivots = []
    solve_lp = master.solve_lp

    def counted(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(master, "solve_lp", counted)
    m = random_matrix(random.Random(78), 10, 12, 6)
    cfg = SolverConfig(hit_range=HitRange(2, 3), beta=3, gamma1=10, gamma2=40)
    for solve in (solve_colgen, solve_mip_heuristic, solve_exact):
        pivots.clear()
        rep = solve(m, cfg)
        assert rep.lp_iterations == sum(pivots) > 0
        assert len(pivots) == (rep.iterations if solve is solve_colgen else 1)
        assert rep.binary_nodes >= 1


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


def test_every_mode_answers_a_matrix_without_tumor_samples():
    # No combination covers a tumor, so selecting nothing is optimal: the
    # proving modes bound it at 0, and the pool heuristic draws its pool
    # from genes that all rank equal.
    rng = random.Random(7)
    samples = [
        SampleRecord(f"n{i}", SampleLabel.NORMAL, rng.getrandbits(12))
        for i in range(6)
    ]
    m = MutationMatrix([f"g{j}" for j in range(12)], samples)
    cfg = SolverConfig(hit_range=HitRange(2, 3), beta=3)
    for solve in (solve_colgen, solve_exact, solve_mip_heuristic):
        rep = solve(m, cfg)
        assert rep.status == "converged"
        assert rep.objective == 0 and rep.selection == []
        if solve is solve_mip_heuristic:
            assert rep.upper_bound is None and rep.pool_size == 66 + 220
        else:
            assert rep.upper_bound == 0.0


def test_exact_zero_budget_returns_empty_selection():
    sel, obj = exact_bruteforce(toy_matrix(), HitRange(2, 2), 0)
    assert sel == []
    assert obj == 0
