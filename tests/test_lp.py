"""LP kernel tests: fixed cases, duality checks and a random sweep against
the independent dense tableau oracle.  Every LP here starts feasibly from
its slack basis, the only kind the kernel accepts."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from multihit.errors import ValidationError
from multihit.lp import (
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
    Basis,
    LinearProgram,
    solve_lp,
)

from oracles import tableau_solve

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


def test_inconsistent_bounds_report_infeasible():
    p = LinearProgram([1.0], sp.csc_matrix((0, 1)), np.zeros(0), [2.0], [1.0])
    assert solve_lp(p).status == STATUS_INFEASIBLE


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


def test_iteration_limit_status():
    c = [1.0, 1.0]
    rows = [[1.0, 2.0], [2.0, 1.0]]
    p = make_lp(c, rows, [4.0, 4.0], [0.0, 0.0], [np.inf, np.inf])
    sol = solve_lp(p, max_iterations=1)
    assert sol.status == STATUS_ITERATION_LIMIT


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
    for _ in range(80):
        p = random_lp(rng)
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
    bad = ref.basis
    bad.basic = np.array([99])
    again = solve_lp(p, warm_start=bad)
    assert mangled.objective == pytest.approx(2.0, abs=1e-9)
    assert again.objective == pytest.approx(2.0, abs=1e-9)

