"""Master problem tests: construction, relaxation, duals, binary solve."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

from multihit import master
from multihit.candidates import generate_candidates
from multihit.data import HitRange
from multihit.errors import ConsistencyError, DuplicateColumnError, ValidationError
from multihit.lp import CHECK_TOL, STATUS_TIME_LIMIT, LinearProgram, LpSolution
from multihit.master import (
    MasterModel,
    RmpSolution,
    rounding_heuristic,
    solve_binary,
    solve_relaxation,
)
from multihit.metrics import objective_value
from multihit.synth import SyntheticSpec, generate_synthetic

from oracles import (
    all_combinations,
    best_selection_by_enumeration,
    reduced_cost_by_loops,
    selection_objective_by_loops,
    tableau_solve,
)
from util import csc, no_incumbent, random_matrix, toy_matrix


def toy_model(beta=10):
    m = toy_matrix()
    cols = [m.combination((0, 1)), m.combination((2, 3))]
    return m, MasterModel(m, cols, beta)


def full_pool(m, hit_range):
    return [m.combination(genes) for genes in all_combinations(m, hit_range)]


def pool_slice(seed):
    """A random matrix and a shuffled 40-column slice of its 2-3 gene pool."""
    rng = random.Random(seed)
    m = random_matrix(rng, 9, 16, 8, density=0.45)
    pool = full_pool(m, HitRange(2, 3))
    rng.shuffle(pool)
    return m, pool[:40]


def rounding_falls_short(model, root):
    """Whether the rounded root is worth less than the LP's integer floor."""
    _, value = rounding_heuristic(root, model)
    tol = CHECK_TOL * (1 + abs(root.objective))
    return value < math.floor(root.objective + tol)


def counting_milp(monkeypatch):
    """Count the calls ``solve_binary`` makes to HiGHS."""
    import scipy.optimize

    calls, real = [], scipy.optimize.milp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counting)
    return calls


def penalty_lp_by_loops(model):
    """The master LP with a penalty variable and a row per normal, by loops.

    Maximize covered tumors minus penalties over cover flags, penalties and
    selections: ``flag_t <= selections covering t``, ``selections covering
    n <= penalty_n`` and ``selections <= beta``.  Returns dense
    ``(objective, a, rhs, lower, upper)``; the package's LP substitutes the
    penalties out.
    """
    m = model.matrix
    nt, nn = m.tumor_count, m.normal_count
    off = nt + nn
    n_vars = off + len(model.columns)
    a = np.zeros((off + 1, n_vars))
    objective = np.zeros(n_vars)
    lower, upper = np.zeros(n_vars), np.full(n_vars, np.inf)
    for t in range(nt):
        a[t, t] = objective[t] = upper[t] = 1.0
    for n in range(nn):
        a[nt + n, nt + n] = objective[nt + n] = -1.0
    for k, comb in enumerate(model.columns):
        var = off + k
        for t in range(nt):
            if (comb.tumor_cover >> t) & 1:
                a[t, var] = -1.0
        for n in range(nn):
            if (comb.normal_cover >> n) & 1:
                a[nt + n, var] = 1.0
        a[off, var] = 1.0
    rhs = np.zeros(off + 1)
    rhs[off] = model.beta
    return objective, a, rhs, lower, upper


def test_constraint_matrix_matches_a_bit_loop_build():
    # The LP is the penalty LP with each penalty replaced by its normal row:
    # a column costs one per normal it covers.
    rng = random.Random(41)
    shapes = [(7, 6, 5)] * 8 + [(6, 0, 4), (6, 5, 0)]
    for n_genes, n_tumor, n_normal in shapes:
        m = random_matrix(rng, n_genes, n_tumor, n_normal, density=0.5)
        pool = full_pool(m, HitRange(1, 3))
        rng.shuffle(pool)
        for size in (0, rng.randint(1, len(pool))):
            model = MasterModel(m, pool[:size], 3)
            lp = model.build_lp()
            c, a, rhs, lower, upper = penalty_lp_by_loops(model)
            penalties = range(n_tumor, n_tumor + n_normal)
            normal_rows = a[n_tumor : n_tumor + n_normal, n_tumor + n_normal :]
            a = np.delete(np.delete(a, penalties, axis=0), penalties, axis=1)
            cost = -normal_rows.sum(axis=0)
            assert np.array_equal(lp.a_matrix.toarray(), a)
            assert lp.a_matrix.nnz == np.count_nonzero(a)
            assert lp.a_matrix.has_sorted_indices
            assert np.array_equal(lp.objective, np.concatenate([c[:n_tumor], cost]))
            assert np.array_equal(lp.rhs, np.delete(rhs, penalties))
            assert np.array_equal(lp.lower, np.delete(lower, penalties))
            assert np.array_equal(lp.upper, np.delete(upper, penalties))


def test_build_lp_allocates_less_than_a_dense_pool_by_tumor_array():
    # About two tumors per column: finding them by unpacking every tumor
    # cover to one byte per (column, tumor) pair would take 14.9 MB here.
    m = generate_synthetic(SyntheticSpec(200, 750, 10, background_rate=0.05), 3)
    pool = [m.combination(g) for g in itertools.combinations(range(200), 2)]
    model = MasterModel(m, pool, 10)
    tracemalloc.start()
    try:
        model.build_lp()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(pool) * m.tumor_count


def test_empty_pool_relaxation_is_zero():
    m = toy_matrix()
    model = MasterModel(m, [], 10)
    sol = solve_relaxation(model)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.z.shape == (0,)
    # Every cover flag is alone in its row, so the cold start is optimal.
    assert sol.iterations == 0
    assert np.array_equal(sol.duals.pi, np.ones(m.tumor_count))
    assert sol.duals.lam == 0.0


def test_toy_relaxation_value():
    _, model = toy_model(beta=10)
    sol = solve_relaxation(model)
    assert sol.objective == pytest.approx(1.0, abs=1e-8)


def test_duplicate_column_rejected_without_state_change():
    m, model = toy_model()
    before = len(model.columns)
    with pytest.raises(DuplicateColumnError):
        model.add_column(m.combination((0, 1)))
    assert len(model.columns) == before
    assert solve_relaxation(model).objective == pytest.approx(1.0, abs=1e-8)


def test_column_validation():
    m = toy_matrix()
    other = random_matrix(random.Random(0), 7, 9, 9, density=0.9)
    alien = other.combination((0, 1))
    if alien.tumor_cover >> m.tumor_count:
        with pytest.raises(ValidationError):
            MasterModel(m, [alien], 10)
    with pytest.raises(ValidationError):
        MasterModel(m, [], -1)
    with pytest.raises(ValidationError):
        MasterModel(m, [], 1.5)
    with pytest.raises(ValidationError):
        MasterModel(m, [], True)


def test_adding_columns_never_decreases_relaxation():
    rng = random.Random(31)
    m = random_matrix(rng, 8, 6, 4)
    pool = full_pool(m, HitRange(2, 2))
    model = MasterModel(m, [], 3)
    last = solve_relaxation(model).objective
    for comb in pool[:10]:
        model.add_column(comb)
        now = solve_relaxation(model).objective
        assert now >= last - 1e-8
        last = now


def test_relaxation_matches_tableau_oracle_on_full_pool():
    rng = random.Random(32)
    for _ in range(8):
        m = random_matrix(rng, 7, 6, 4)
        model = MasterModel(m, full_pool(m, HitRange(2, 2)), 3)
        sol = solve_relaxation(model)
        lp = model.build_lp()
        status, obj, _ = tableau_solve(
            lp.objective, lp.a_matrix.toarray(), lp.rhs, lp.lower, lp.upper
        )
        assert status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-6)


def test_dual_prices_sign_and_in_pool_reduced_costs():
    rng = random.Random(33)
    for _ in range(10):
        m = random_matrix(rng, 8, 7, 5)
        model = MasterModel(m, full_pool(m, HitRange(2, 2))[:15], 3)
        sol = solve_relaxation(model)
        d = sol.duals
        assert np.all(d.pi >= 0.0) and np.all(d.mu >= 0.0) and d.lam >= 0.0
        # No in-pool column may price positively at optimality.
        for comb in model.columns:
            rc = reduced_cost_by_loops(m, comb.genes, d.pi, d.mu, d.lam)
            assert rc <= 1e-6


def test_warm_start_after_column_add():
    rng = random.Random(34)
    m = random_matrix(rng, 8, 6, 4)
    pool = full_pool(m, HitRange(2, 2))
    model = MasterModel(m, pool[:5], 3)
    first = solve_relaxation(model)
    model.add_column(pool[7])
    warm = solve_relaxation(model, warm_start=first.basis)
    cold = solve_relaxation(model)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)


def test_binary_toy_budget_one():
    _, model = toy_model(beta=1)
    res = solve_binary(model)
    assert res.status == "optimal"
    assert res.objective == 1
    assert len(res.selection) == 1


def test_binary_matches_subset_enumeration():
    rng = random.Random(35)
    for _ in range(12):
        m = random_matrix(rng, 7, 6, 4)
        pool = full_pool(m, HitRange(2, 2))
        rng.shuffle(pool)
        pool = pool[:10]
        beta = rng.randint(1, 3)
        model = MasterModel(m, pool, beta)
        res = solve_binary(model, deadline=time.perf_counter() + 30.0)
        assert res.status == "optimal"
        best = 0
        for size in range(1, beta + 1):
            for pick in itertools.combinations(range(len(pool)), size):
                obj = selection_objective_by_loops(
                    m, [pool[k].genes for k in pick]
                )
                best = max(best, obj)
        assert res.objective == best
        assert len(res.selection) <= beta
        chosen = [model.columns[k] for k in res.selection]
        assert objective_value(chosen, m) == res.objective
        assert res.bound == pytest.approx(res.objective)


def test_binary_warm_started_from_a_relaxation_keeps_the_optimum(monkeypatch):
    # Column generation hands the binary solve the last relaxation as its
    # root: the pool's optimum is the same as from a root solved inside,
    # and no LP is solved again.  A root of another pool is refused.
    cases = []
    for seed in range(8):
        m, pool = pool_slice(seed)
        model = MasterModel(m, pool[:30], 3)
        earlier = solve_relaxation(model)
        for c in pool[30:]:
            model.add_column(c)
        root = solve_relaxation(model, warm_start=earlier.basis)
        cases.append((model, earlier, root, solve_binary(model)))
    monkeypatch.setattr(master, "solve_lp", lambda *a, **k: pytest.fail("LP"))
    for model, earlier, root, cold in cases:
        res = solve_binary(model, root=root)
        assert res.status == cold.status == "optimal"
        assert (res.selection, res.objective) == (cold.selection, cold.objective)
        assert res.bound == pytest.approx(cold.bound)
        assert res.lp_iterations == 0
        with pytest.raises(ConsistencyError, match="30 selection values"):
            solve_binary(model, root=earlier)


def test_binary_time_limit_returns_empty():
    _, model = toy_model(beta=2)
    res = solve_binary(model, deadline=time.perf_counter() - 1.0)
    assert res.status == "time_limit"
    assert res.selection == []
    assert res.objective == 0


def test_binary_zero_budget():
    _, model = toy_model(beta=0)
    res = solve_binary(model)
    assert res.status == "optimal"
    assert res.selection == []
    assert res.objective == 0


def test_binary_empty_pool():
    m = toy_matrix()
    model = MasterModel(m, [], 5)
    res = solve_binary(model)
    assert res.status == "optimal"
    assert res.selection == [] and res.objective == 0


def test_slow_degenerate_root_lp_reaches_its_optimum():
    # In the penalty form these root LPs creep along in steps of 1e-10 to
    # 1e-7.  Counted as progress, such steps keep resetting the degenerate
    # streak, so the simplex never stays in Bland's rule and cycles to its
    # iteration cap; the second still does when only steps up to 1e-10
    # count as degenerate.  The package's form needs fewer pivots.  Each
    # form must reach the optimum, and so must the binary solve.  The
    # penalty columns store one -1 each, so the simplex factors them as
    # core columns, not unit columns.
    cases = (  # tumors, normals, seed, optimum, rates
        (55, 21, 140, 52, (0.9372949718998201, 0.3798616480545074, 0.3952104907566846)),
        (38, 22, 1295, 25, (0.36724343180090974, 0.40755039019885053, 0.4780177141561597)),
    )

    def value(selection):  # covered tumors minus normal coverings
        tumors = 0
        for c in selection:
            tumors |= c.tumor_cover
        return tumors.bit_count() - sum(c.normal_cover.bit_count() for c in selection)

    for n_tumor, n_normal, seed, optimum, rates in cases:
        spec = SyntheticSpec(25, n_tumor, n_normal, ((0, 1), (2, 3)), *rates)
        m = generate_synthetic(spec, seed)
        pool = generate_candidates(m, HitRange(2, 3), 100, 159, seed)
        model = MasterModel(m, pool, 2)
        best = max(
            value(sel) for k in (0, 1, 2) for sel in itertools.combinations(pool, k)
        )
        assert best == optimum
        c, a, rhs, lower, upper = penalty_lp_by_loops(model)
        for p in (model.build_lp(), LinearProgram(c, csc(a), rhs, lower, upper)):
            root = master.solve_lp(p)
            assert root.status == "optimal"
            assert root.objective == pytest.approx(best, abs=1e-6)
        res = solve_binary(model)
        assert res.status == "optimal" and res.objective == best


def test_fractional_pools_reach_highs_and_match_enumeration(monkeypatch):
    # Few full pools have a fractional relaxation, so draw slices and keep
    # those that do.  The objective is an integer, so a rounding worth the
    # LP's integer floor is the pool's optimum: that solve ends in one node
    # without HiGHS.  Every other one goes to HiGHS, and a second solve must
    # repeat it.  Each selection must reach the enumerated optimum.
    calls = counting_milp(monkeypatch)
    solved = closed = 0
    for seed in range(320):
        m, pool = pool_slice(seed)
        model = MasterModel(m, pool, 3)
        root = solve_relaxation(model)
        if np.allclose(root.z, np.round(root.z), atol=1e-6):
            continue
        res = solve_binary(model, root=root)
        want, _ = best_selection_by_enumeration(
            m, HitRange(2, 3), 3, [c.genes for c in pool]
        )
        assert res.status == "optimal"
        assert res.objective == want == res.bound
        chosen = [pool[k].genes for k in res.selection]
        assert len(chosen) <= 3
        assert selection_objective_by_loops(m, chosen) == want
        if not rounding_falls_short(model, root):
            assert res.nodes == 1 and want == math.floor(root.objective + 1e-6)
            closed += 1
            continue
        assert res.nodes > 1
        again = solve_binary(model)
        assert (again.selection, again.nodes) == (res.selection, res.nodes)
        solved += 1
    assert solved >= 15 and closed >= 10
    assert len(calls) == 2 * solved


def test_a_root_just_under_an_integer_still_reaches_highs(monkeypatch):
    # A root LP value computed 1e-7 under an integer may be that integer:
    # a rounding one below it proves nothing, and HiGHS finds the selection
    # worth the integer.
    calls = counting_milp(monkeypatch)
    model = MasterModel(*pool_slice(17), 3)
    root = solve_relaxation(model)
    assert root.objective == pytest.approx(7.0, abs=1e-9)
    low = RmpSolution(7.0 - 1e-7, root.z, root.duals, root.basis, 0)
    assert rounding_heuristic(low, model)[1] == 6
    res = solve_binary(model, root=low)
    assert len(calls) == 1
    assert res.status == "optimal" and res.objective == 7 == res.bound


def test_highs_is_imported_only_for_a_fractional_root():
    # An integral relaxation, and a fractional one whose rounding meets the
    # LP's integer floor, end the solve without importing scipy.optimize
    # (~26 MB of resident memory); a rounding below the floor loads it.
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(master.__file__))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    cases = ((0, False, False), (9, True, False), (13, True, True))
    for seed, fractional, branched in cases:
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from multihit.master import MasterModel, solve_binary, solve_relaxation\n"
            "from test_master import pool_slice\n"
            f"model = MasterModel(*pool_slice({seed}), 3)\n"
            "z = solve_relaxation(model).z\n"
            "res = solve_binary(model)\n"
            "print(not np.allclose(z, np.round(z), atol=1e-6), res.nodes > 1,\n"
            "      'scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(fractional)] + [str(branched)] * 2


def test_binary_deadline_inside_the_root_lp(monkeypatch):
    # The root LP runs out of time: nothing is known, so the selection is
    # empty, the bound open and HiGHS is not called.
    calls = counting_milp(monkeypatch)
    real = master.solve_lp

    def expiring(p, warm_start=None, deadline=None):
        return real(p, warm_start, deadline=time.perf_counter() - 1.0)

    monkeypatch.setattr(master, "solve_lp", expiring)
    res = solve_binary(MasterModel(*pool_slice(13), 3))
    assert res.status == "time_limit" and res.nodes == 0
    assert res.selection == [] and res.objective == 0
    assert res.bound == float("inf")
    assert calls == []


def test_relaxation_after_the_deadline_builds_no_lp(monkeypatch):
    # The clock is read before the LP is built: a passed deadline returns
    # None at once, so an expired solve spends nothing on an LP it cannot use.
    model = MasterModel(*pool_slice(13), 3)
    built = []
    monkeypatch.setattr(MasterModel, "build_lp", lambda self: built.append(self))
    assert solve_relaxation(model, deadline=time.perf_counter() - 1.0) is None
    assert built == []


def test_binary_time_limit_before_any_highs_incumbent(monkeypatch):
    # HiGHS stops at its time limit before it finds a selection: the result
    # is the rounded root and keeps the root LP's finite bound.
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "milp", no_incumbent)
    model = MasterModel(*pool_slice(13), 3)
    root = solve_relaxation(model)
    indices, rounded = rounding_heuristic(root, model)
    assert rounding_falls_short(model, root)
    res = solve_binary(model)
    assert res.status == "time_limit" and res.nodes == 1
    assert res.selection == list(indices) and res.objective == rounded > 0
    assert math.isfinite(res.bound) and res.bound == root.objective


def test_binary_deadline_between_a_fractional_root_and_highs(monkeypatch):
    # The root LP finishes with a rounding below its integer floor, then the
    # clock is past the deadline: the rounded root, its pivots and bound are
    # kept, and HiGHS is not called.
    calls = counting_milp(monkeypatch)
    model = MasterModel(*pool_slice(13), 3)
    root = solve_relaxation(model)
    indices, rounded = rounding_heuristic(root, model)
    assert rounding_falls_short(model, root)
    finished = []
    real = master.solve_lp

    def then_late(p, warm_start=None, deadline=None):
        sol = real(p, warm_start, deadline=deadline)
        finished.append(sol)
        return sol

    late = types.SimpleNamespace(
        perf_counter=lambda: math.inf if finished else time.perf_counter()
    )
    monkeypatch.setattr(master, "solve_lp", then_late)
    monkeypatch.setattr(master, "time", late)
    res = solve_binary(model, deadline=time.perf_counter() + 30.0)
    assert len(finished) == 1
    assert res.status == "time_limit" and res.nodes == 1
    assert res.lp_iterations == root.iterations > 0
    assert res.selection == list(indices) and res.objective == rounded > 0
    assert res.bound == root.objective
    assert calls == []


def test_binary_root_cut_off_counts_no_pivots(monkeypatch):
    # A relaxation stopped by the time limit adds no pivots to the count.
    def cut_off(p, warm_start=None, deadline=None):
        return LpSolution(STATUS_TIME_LIMIT, float("nan"), None, None, None, 7)

    monkeypatch.setattr(master, "solve_lp", cut_off)
    res = solve_binary(MasterModel(*pool_slice(13), 3))
    assert res.status == "time_limit" and res.nodes == 0
    assert res.lp_iterations == 0


def test_binary_time_limit_inside_highs_keeps_a_valid_bound(monkeypatch):
    # HiGHS proves 178 on this hub pool in ~4.5 s on a 2-vCPU VM, far
    # beyond the limit.  The root LP (~1,400 pivots) is solved before the
    # timed call and handed in, so the timed call solves no LP and the
    # limit goes to HiGHS.  A stop inside HiGHS keeps the time limit, and
    # its selection and bound bracket the optimum.
    calls = counting_milp(monkeypatch)
    planted = ((0, 1), (2, 3), (4, 5, 6)) + tuple((7 + i,) for i in range(25))
    m = generate_synthetic(SyntheticSpec(300, 200, 60, planted, 0.3, 0.01, 0.01), 1)
    pool = generate_candidates(m, HitRange(2, 3), 30, 400, 1)
    model = MasterModel(m, pool, 10)
    root = solve_relaxation(model)
    limit = 1.0
    t0 = time.perf_counter()
    res = solve_binary(model, deadline=t0 + limit, root=root)
    assert time.perf_counter() - t0 <= limit + 1.0
    assert res.status == "time_limit" and len(calls) == 1
    assert res.objective <= 178 <= res.bound
    assert objective_value([pool[k] for k in res.selection], m) == res.objective
