"""LP kernel tests: fixed cases, duality checks, a random sweep against the
independent dense tableau oracle, and the basis factorization against dense
linear algebra.  Every LP here starts feasibly from its slack basis, the
only kind the kernel accepts."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from multihit import lp
from multihit.errors import ConsistencyError, ValidationError
from multihit.lp import (
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
    Basis,
    LinearProgram,
    solve_lp,
)
from multihit.master import MasterModel
from multihit.synth import SyntheticSpec, generate_synthetic

from oracles import tableau_solve
from util import random_matrix

RNG_SEED = 20240817


def make_lp(c, rows, b, lower, upper):
    a = sp.csc_matrix(np.asarray(rows, dtype=float).reshape(len(b), len(c)))
    return LinearProgram(c, a, b, lower, upper)


def test_single_row_max():
    p = make_lp([1.0], [[1.0]], [1.0], [0.0], [np.inf])
    sol = solve_lp(p)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_no_rows_optimum_at_bounds():
    p = LinearProgram(
        [3.0, 2.0, -1.0],
        sp.csc_matrix((0, 3)),
        np.zeros(0),
        [0.0, 0.0, -2.0],
        [2.0, 5.0, 7.0],
    )
    sol = solve_lp(p)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(3 * 2 + 2 * 5 - 1 * (-2), abs=1e-9)
    assert np.allclose(sol.x, [2.0, 5.0, -2.0], atol=1e-9)
    status, obj, _ = tableau_solve(p.objective, np.zeros((0, 3)), [], p.lower, p.upper)
    assert status == STATUS_OPTIMAL and obj == pytest.approx(sol.objective)
    empty = LinearProgram([], sp.csc_matrix((0, 0)), [], [], [])
    assert solve_lp(empty).status == STATUS_OPTIMAL


def test_inconsistent_bounds_report_infeasible():
    # Crossed bounds leave no feasible point; LinearProgram refuses them.
    with pytest.raises(ValidationError, match="lower bound lies above"):
        LinearProgram([1.0], sp.csc_matrix((0, 1)), np.zeros(0), [2.0], [1.0])


def test_infeasible_slack_basis_is_refused():
    # x + y >= 2 written as -x - y <= -2: the slack basis starts at -2.
    with pytest.raises(ValidationError, match="slack basis"):
        make_lp([-1.0, -1.0], [[-1.0, -1.0]], [-2.0], [0.0, 0.0], [np.inf] * 2)
    # Lower bounds count: x >= 3 with x <= 2 is refused, x >= 1 is not.
    with pytest.raises(ValidationError, match="slack basis"):
        make_lp([1.0], [[1.0]], [2.0], [3.0], [np.inf])
    ok = solve_lp(make_lp([1.0], [[1.0]], [2.0], [1.0], [np.inf]))
    assert ok.objective == pytest.approx(2.0, abs=1e-9)


def test_unbounded():
    p = LinearProgram([1.0], sp.csc_matrix((0, 1)), np.zeros(0), [0.0], [np.inf])
    assert solve_lp(p).status == STATUS_UNBOUNDED


def test_beale_degenerate_instance_terminates():
    # A classic cycling-prone instance; anti-cycling must reach 0.05.
    c = [0.75, -150.0, 0.02, -6.0]
    rows = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    p = make_lp(c, rows, [0.0, 0.0, 1.0], [0.0] * 4, [np.inf] * 4)
    sol = solve_lp(p)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(0.05, abs=1e-9)


def test_iteration_limit_status(monkeypatch):
    c = [1.0, 1.0]
    rows = [[1.0, 2.0], [2.0, 1.0]]
    p = make_lp(c, rows, [4.0, 4.0], [0.0, 0.0], [np.inf, np.inf])
    assert solve_lp(p).iterations > 1
    monkeypatch.setattr(lp, "ITERATION_BASE", 1)
    monkeypatch.setattr(lp, "ITERATION_PER_DIM", 0)
    sol = solve_lp(p)
    assert sol.status == STATUS_ITERATION_LIMIT
    assert sol.iterations == 1
    # A stop short of optimal carries no solution, as for time limits.
    assert sol.basis is None and np.isnan(sol.x).all()


def test_passed_deadline_stops_an_lp_that_needs_pivots():
    rows = [[1.0, 2.0], [2.0, 1.0]]
    p = make_lp([1.0, 1.0], rows, [4.0, 4.0], [0.0, 0.0], [np.inf] * 2)
    assert solve_lp(p).iterations > 0
    sol = solve_lp(p, deadline=time.perf_counter() - 1.0)
    assert sol.status == STATUS_TIME_LIMIT
    assert sol.iterations == 0 and sol.basis is None
    later = solve_lp(p, deadline=time.perf_counter() + 60.0)
    assert later.status == STATUS_OPTIMAL


def test_duals_sign_and_complementary_slackness():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        p = random_lp(rng)
        sol = solve_lp(p)
        if sol.status != STATUS_OPTIMAL:
            continue
        assert np.all(sol.duals >= -1e-7)
        slack = p.rhs - p.a_matrix @ sol.x
        assert np.all(slack >= -1e-6)
        assert np.all(np.abs(sol.duals * slack) <= 1e-6 * (1 + abs(sol.objective)))


def random_lp(rng, n=10, m=10):
    """A random LP whose slack basis is feasible: ``b >= A @ lower``."""
    mask = rng.random((m, n)) < 0.65
    a = np.round(rng.uniform(-3, 3, size=(m, n)), 3) * mask
    b = np.round(rng.uniform(-2, 5, size=m), 3)
    c = np.round(rng.uniform(-2, 3, size=n), 3)
    lower = np.where(rng.random(n) < 0.25, -1.0, 0.0)
    b = np.maximum(b, a @ lower)
    upper = np.where(
        rng.random(n) < 0.7, np.round(rng.uniform(0.5, 4.0, size=n), 3), np.inf
    )
    return LinearProgram(c, sp.csc_matrix(a), b, lower, upper)


def test_random_lps_match_tableau_oracle():
    rng = np.random.default_rng(RNG_SEED + 1)
    outcomes = {"optimal": 0, "unbounded": 0}
    # In the unit LPs, a unit column alone in its row starts basic or at
    # its upper bound.
    for make in [random_lp] * 80 + [random_unit_lp] * 60:
        p = make(rng)
        sol = solve_lp(p)
        status, obj, _ = tableau_solve(
            p.objective, p.a_matrix.toarray(), p.rhs, p.lower, p.upper
        )
        assert sol.status == status
        outcomes[status] += 1
        if status == "optimal":
            assert sol.objective == pytest.approx(obj, abs=1e-6 * (1 + abs(obj)))
    # The sweep must exercise both outcomes to mean anything.
    assert min(outcomes.values()) > 0


def test_warm_start_matches_cold_after_adding_column():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(20):
        p = random_lp(rng, n=8, m=6)
        first = solve_lp(p)
        if first.status != STATUS_OPTIMAL:
            continue
        extra = np.round(rng.uniform(-2, 2, size=(6, 1)), 3)
        wide = LinearProgram(
            np.append(p.objective, rng.uniform(-1, 2)),
            sp.hstack([p.a_matrix, sp.csc_matrix(extra)]).tocsc(),
            p.rhs,
            np.append(p.lower, 0.0),
            np.append(p.upper, np.inf),
        )
        warm = solve_lp(wide, warm_start=first.basis)
        cold = solve_lp(wide)
        assert warm.status == cold.status
        if warm.status == STATUS_OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


def test_garbage_warm_start_falls_back_to_cold():
    p = make_lp([1.0, 1.0], [[1.0, 1.0]], [2.0], [0.0, 0.0], [np.inf, np.inf])
    ref = solve_lp(p)
    mangled = solve_lp(p, warm_start=Basis([0, 1], [2, 2], [0]))  # 2 basics, 1 row
    unknown = solve_lp(p, warm_start=Basis([-1], [7, -1], [2]))  # no such status
    bad = ref.basis
    bad.basic = np.array([99])
    again = solve_lp(p, warm_start=bad)
    for sol in (mangled, unknown, again):
        assert sol.objective == pytest.approx(2.0, abs=1e-9)


def random_master_lp(rng, n_tumor, n_normal, n_columns, beta=3):
    """Root LP of a master over ``n_columns`` random gene pairs."""
    m = random_matrix(rng, 12, n_tumor, n_normal, density=0.3)
    pairs = rng.sample(list(itertools.combinations(range(12), 2)), n_columns)
    return MasterModel(m, [m.combination(p) for p in pairs], beta).build_lp()


def random_unit_lp(rng, n=6, m=8):
    """``random_lp`` plus one unit column of random value and cost per row;
    about a third of the rows hold nothing else."""
    p = random_lp(rng, n, m)
    a = p.a_matrix.toarray()
    a[rng.random(m) < 0.35] = 0.0
    d = np.round(rng.uniform(0.5, 3.0, m) * rng.choice([-1.0, 1.0], m), 3)
    # Finite bounds on the base columns and on negative unit columns keep
    # most of these LPs bounded.
    upper = np.where(
        (d > 0) & (rng.random(m) < 0.4), np.inf, np.round(rng.uniform(0.2, 2, m), 3)
    )
    return LinearProgram(
        np.append(p.objective, np.round(rng.uniform(-1, 3, m), 3)),
        sp.hstack([sp.csc_matrix(a), sp.diags(d)]).tocsc(),
        np.maximum(p.rhs, a @ p.lower),
        np.append(p.lower, np.zeros(m)),
        np.append(np.minimum(p.upper, 4.0), upper),
    )


def test_factorization_solves_the_same_systems_as_dense_algebra(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 3)
    cores = []
    swaps = []
    step = lp._Simplex.step
    refactor = lp._Simplex.refactor

    def check(s):
        b = np.hstack([s.p.a_matrix.toarray(), np.eye(s.m)])[:, s.basic]
        for v in (rng.uniform(-1, 1, s.m), s.column(int(rng.integers(s.nf)))):
            assert np.allclose(s.ftran(v), np.linalg.solve(b, v), rtol=0, atol=1e-9)
        c_b = s.c_hat[s.basic]
        assert np.allclose(s.duals(), np.linalg.solve(b.T, c_b), rtol=0, atol=1e-9)
        cores.append((s.m, len(s.pos_k)))

    def checked_refactor(s):
        refactor(s)
        check(s)

    def checked_step(s):
        # After every pivot, also those that swap one unit column for
        # another on its row and so only rescale that row.
        before = s.basic.copy()
        outcome = step(s)
        changed = np.nonzero(s.basic != before)[0]
        if changed.size:
            j, out = s.basic[changed[0]], before[changed[0]]
            row = s.unit_row[j]
            swaps.append(
                row >= 0
                and row == s.unit_row[out]
                and s.unit_val[j] != s.unit_val[out]
                and s.since_refactor > 0
            )
            check(s)
        return outcome

    monkeypatch.setattr(lp._Simplex, "refactor", checked_refactor)
    monkeypatch.setattr(lp._Simplex, "step", checked_step)
    for _ in range(30):
        solve_lp(random_lp(rng))
        solve_lp(random_lp(rng, n=12, m=4))
    assert (4, 4) in cores  # a basis of structural columns only: k = m
    assert max(k for m, k in cores if m == 10) >= 5
    # Every cold start has unit columns only: slacks, or a unit column
    # alone in its row.
    assert min(k for _, k in cores) == 0
    swaps.clear()
    for _ in range(30):
        solve_lp(random_unit_lp(rng))
    # Swaps between a slack and a unit column of another value, made
    # without refactoring, were checked.
    assert sum(swaps) >= 10
    pools = random.Random(RNG_SEED)
    for n_columns in (0, 5, 20):
        cores.clear()
        sol = solve_lp(random_master_lp(pools, 30, 10, n_columns))
        assert sol.status == STATUS_OPTIMAL and {m for m, _ in cores} == {31}
        # Cover flags are unit columns; selections form the core.
        assert max(k for _, k in cores) <= n_columns


def test_unit_column_alone_in_its_row_starts_at_its_optimum():
    # Row 0 holds only variable 0 (d = 2, b = 3): b/d = 1.5 exceeds its
    # upper bound 1, so it starts at that bound with the slack basic.  Row 1
    # holds only variable 1 (b/d = 2 fits under 5), which starts basic.
    # Variable 2 shares row 2 with variable 3, so the slack keeps that row.
    rows = [
        [2.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
    upper = [1.0, 5.0, 9.0, 3.0]
    p = make_lp([1.0, 1.0, 1.0, 2.0], rows, [3.0, 1.0, 4.0], [0.0] * 4, upper)
    s = lp._Simplex(p, None)
    s.cold_start()
    at = [lp.AT_UPPER, lp.IN_BASIS, lp.AT_LOWER, lp.AT_LOWER]
    assert list(s.status[:4]) == at
    assert list(s.basic) == [4, 1, 6]
    assert np.allclose(s.beta, [1.0, 2.0, 4.0])
    sol = solve_lp(p)
    status, obj, _ = tableau_solve(p.objective, rows, p.rhs, p.lower, upper)
    assert status == sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(obj) == pytest.approx(1.0 + 2.0 + 1.0 + 6.0)
    # Only row 2 pivots: variable 3 flips to its bound, then 2 enters.
    assert sol.iterations == 2
    assert sol.x[:2] == pytest.approx([1.0, 2.0])


def test_singular_warm_basis_falls_back_to_cold_start():
    # Tumor row 0's slack and its cover flag (variable 0) both basic: two
    # unit columns on one row.
    p = random_master_lp(random.Random(RNG_SEED), 6, 3, 8)
    basic = -1 - np.arange(p.n_rows)
    basic[1] = 0  # the cover flag replaces row 1's slack
    struct = np.zeros(p.n_vars, dtype=np.int8)
    struct[0] = lp.IN_BASIS
    slack = np.full(p.n_rows, lp.IN_BASIS, dtype=np.int8)
    slack[1] = lp.AT_LOWER
    two_units = Basis(basic, struct, slack)
    # Two identical structural columns, both basic: a singular core.
    rows = [[1.0, 1.0, 2.0], [2.0, 2.0, 1.0]]
    q = make_lp([1.0, 1.0, 1.0], rows, [4.0, 4.0], [0.0] * 3, [np.inf] * 3)
    twins = Basis([0, 1], [lp.IN_BASIS, lp.IN_BASIS, lp.AT_LOWER], [0, 0])
    for prog, warm, reason in ((p, two_units, "share a row"), (q, twins, "singular")):
        s = lp._Simplex(prog, None)
        s.basic = np.where(warm.basic >= 0, warm.basic, prog.n_vars - 1 - warm.basic)
        with pytest.raises(ConsistencyError, match=reason):
            s.factor()
        cold = solve_lp(prog)
        again = solve_lp(prog, warm_start=warm)
        assert again.iterations == cold.iterations
        assert np.array_equal(again.x, cold.x) and again.objective == cold.objective


def test_large_master_root_lp_needs_no_dense_basis():
    # 1,502 rows: a dense basis inverse alone would take 18 MB.
    spec = SyntheticSpec(12, 1501, 400, ((0, 1), (2, 3)), 0.4, 0.2, 0.02)
    m = generate_synthetic(spec, 1)
    pool = [m.combination(p) for p in itertools.combinations(range(12), 2)][:20]
    p = MasterModel(m, pool, 5).build_lp()
    assert p.n_rows == 1502
    tracemalloc.start()
    try:
        sol = solve_lp(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == STATUS_OPTIMAL and sol.objective == pytest.approx(2506 / 3)
    assert peak < 2e6
    # The slack basis takes 1,970 pivots; a start with every cover flag
    # basic stalls when they reach their upper bounds together and takes
    # over 10,000.
    assert sol.iterations <= 1970
