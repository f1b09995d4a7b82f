"""LP kernel tests: fixed cases, duality checks, a random sweep against the
independent dense tableau oracle, and the basis factorization against dense
linear algebra.  Every LP here starts feasibly from its slack basis, the
only kind the kernel accepts."""

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from multihit import lp
from multihit.data import MutationMatrix, SampleLabel, SampleRecord
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
from util import csc, random_matrix

RNG_SEED = 20240817


def make_lp(c, rows, b, lower, upper):
    a = np.asarray(rows, dtype=float).reshape(len(b), len(c))
    return LinearProgram(c, csc(a), b, lower, upper)


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
        csc(np.zeros((0, 3))),
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
    empty = LinearProgram([], csc(np.zeros((0, 0))), [], [], [])
    assert solve_lp(empty).status == STATUS_OPTIMAL


def test_inconsistent_bounds_report_infeasible():
    # Crossed bounds leave no feasible point; LinearProgram refuses them.
    with pytest.raises(ValidationError, match="lower bound lies above"):
        LinearProgram([1.0], csc(np.zeros((0, 1))), np.zeros(0), [2.0], [1.0])


@pytest.mark.parametrize(
    "c, b, lower, upper, message",
    [
        ([1.0, 1.0], [1.0], [0.0], [1.0, 1.0], "one entry per variable"),
        ([1.0, 1.0], [1.0], [0.0, 0.0], [1.0], "one entry per variable"),
        ([np.inf, 1.0], [1.0], [0.0, 0.0], [1.0, 1.0], "objective must be finite"),
        ([1.0, 1.0], [np.nan], [0.0, 0.0], [1.0, 1.0], "rhs must be finite"),
        ([1.0, 1.0], [1.0], [np.nan, 0.0], [1.0, 1.0], "must not be NaN"),
        ([1.0, 1.0], [1.0], [0.0, 0.0], [1.0, np.nan], "must not be NaN"),
        ([1.0, 1.0], [1.0], [-np.inf, 0.0], [1.0, 1.0], "lower bounds must be finite"),
    ],
)
def test_malformed_lp_data_is_refused(c, b, lower, upper, message):
    with pytest.raises(ValidationError, match=message):
        make_lp(c, [[1.0, 1.0]], b, lower, upper)


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
    p = LinearProgram([1.0], csc(np.zeros((0, 1))), np.zeros(0), [0.0], [np.inf])
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


@pytest.mark.parametrize("failures", [1, 2])
def test_drifted_basis_retries_once_from_a_cold_start(monkeypatch, failures):
    # The final feasibility check fails ``failures`` times: one failure is
    # cured by one cold retry, a second is a consistency failure.
    checks = []
    real = lp._Simplex.feasible

    def drifting(self, tol):
        checks.append(tol)
        return len(checks) > failures and real(self, tol)

    monkeypatch.setattr(lp._Simplex, "feasible", drifting)
    p = make_lp([3.0, 2.0], [[1.0, 1.0], [1.0, 3.0]], [4.0, 6.0], [0, 0], [np.inf] * 2)
    if failures == 2:
        with pytest.raises(ConsistencyError, match="drifted"):
            solve_lp(p)
    else:
        sol = solve_lp(p)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective == pytest.approx(12.0, abs=1e-9)
    assert checks == [lp.CHECK_TOL] * 2


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
    return LinearProgram(c, csc(a), b, lower, upper)


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
            csc(sp.hstack([p.a_matrix, sp.csc_matrix(extra)])),
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
    two_rows = Basis(np.array([0, 1]), np.array([2, 2, 0], dtype=np.int8), 2)
    # A basis of a wider LP: it holds more structurals than p has.
    wide = make_lp([1.0] * 3, [[1.0, 1.0, 1.0]], [2.0], [0.0] * 3, [np.inf] * 3)
    other = solve_lp(wide).basis
    assert other.n == 3
    for warm in (two_rows, other):
        assert solve_lp(p, warm_start=warm).objective == pytest.approx(2.0, abs=1e-9)


def random_master_lp(rng, n_tumor, n_normal, n_columns, beta=3):
    """Root LP of a master over ``n_columns`` random gene pairs."""
    m = random_matrix(rng, 12, n_tumor, n_normal, density=0.3)
    pairs = rng.sample(list(itertools.combinations(range(12), 2)), n_columns)
    return MasterModel(m, [m.combination(p) for p in pairs], beta).build_lp()


def random_unit_lp(rng, n=6, m=8):
    """``random_lp`` plus one single-entry column of random cost per row,
    of value 1 (a unit column) on about half the rows and of random value
    on the rest; about a third of the rows hold nothing else."""
    p = random_lp(rng, n, m)
    a = p.a_matrix.toarray()
    a[rng.random(m) < 0.35] = 0.0
    d = np.round(rng.uniform(0.5, 3.0, m) * rng.choice([-1.0, 1.0], m), 3)
    d[rng.random(m) < 0.5] = 1.0
    # Finite bounds on the base columns and on negative single-entry
    # columns keep most of these LPs bounded.
    upper = np.where(
        (d > 0) & (rng.random(m) < 0.4), np.inf, np.round(rng.uniform(0.2, 2, m), 3)
    )
    return LinearProgram(
        np.append(p.objective, np.round(rng.uniform(-1, 3, m), 3)),
        csc(sp.hstack([sp.csc_matrix(a), sp.diags(d)])),
        np.maximum(p.rhs, a @ p.lower),
        np.append(p.lower, np.zeros(m)),
        np.append(np.minimum(p.upper, 4.0), upper),
    )


def test_factorization_solves_the_same_systems_as_dense_algebra(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 3)
    cores, released = [], []
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
        # After every pivot that changes the basis, releases included.
        before = s.basic.copy()
        outcome = step(s)
        changed = int(np.sum(s.basic != before))
        if changed:
            check(s)
            released.append(changed > 1)
        return outcome

    monkeypatch.setattr(lp._Simplex, "refactor", checked_refactor)
    monkeypatch.setattr(lp._Simplex, "step", checked_step)
    for _ in range(30):
        solve_lp(random_lp(rng))
        solve_lp(random_lp(rng, n=12, m=4))
    assert (4, 4) in cores  # a basis of structural columns only: k = m
    assert max(k for m, k in cores if m == 10) >= 5
    # Every cold start has unit columns only: slacks, or a unit column of
    # positive cost.
    assert min(k for _, k in cores) == 0
    for _ in range(60):
        solve_lp(random_unit_lp(rng))
    pools = random.Random(RNG_SEED)
    for n_columns in (0, 5, 20):
        cores.clear()
        sol = solve_lp(random_master_lp(pools, 30, 10, n_columns))
        assert sol.status == STATUS_OPTIMAL and {m for m, _ in cores} == {31}
        # Cover flags are unit columns; selections form the core.
        assert max(k for _, k in cores) <= n_columns
    # Some of the checked pivots released rows to their slacks.
    assert any(released)


def test_unit_column_alone_in_its_row_starts_at_its_optimum():
    # Row 0 holds only variable 0 (b = 3): b exceeds its upper bound 1, so
    # it starts at that bound with the slack basic.  Row 1 holds only
    # variable 1 (b = 2 fits under 5), which starts basic.  Variables 2 and
    # 3 share row 2: the lower index, 2, takes it at b = 4.
    rows = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
    upper = [1.0, 5.0, 9.0, 3.0]
    p = make_lp([1.0, 1.0, 1.0, 2.0], rows, [3.0, 2.0, 4.0], [0.0] * 4, upper)
    s = lp._Simplex(p, math.inf)
    s.cold_start()
    at = [lp.AT_UPPER, lp.IN_BASIS, lp.IN_BASIS, lp.AT_LOWER]
    assert list(s.status[:4]) == at
    assert list(s.basic) == [4, 1, 2]
    assert np.allclose(s.beta, [2.0, 2.0, 4.0])
    sol = solve_lp(p)
    status, obj, _ = tableau_solve(p.objective, rows, p.rhs, p.lower, upper)
    assert status == sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(obj) == pytest.approx(1.0 + 2.0 + 1.0 + 6.0)
    # Only row 2 pivots: variable 3 flips to its bound, pushing 2 down to 1.
    assert sol.iterations == 1
    assert sol.x[:2] == pytest.approx([1.0, 2.0])


def test_single_entry_of_value_two_is_a_core_column():
    # Variable 0 stores only a 2 on row 0, so it is no unit column: the
    # cold start leaves row 0's slack basic and variable 0 at 0.  Variable
    # 1, a unit column, takes row 1.  One pivot brings variable 0 in at
    # b / 2 = 1.5.
    rows = [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    p = make_lp([1.0, 1.0, 1.0], rows, [3.0, 2.0], [0.0] * 3, [np.inf] * 3)
    s = lp._Simplex(p, math.inf)
    assert list(s.unit_row) == [-1, 1, -1, 0, 1]
    s.cold_start()
    assert list(s.basic) == [3, 1]
    assert s.status[0] == lp.AT_LOWER
    assert np.allclose(s.beta, [3.0, 2.0])
    sol = solve_lp(p)
    status, obj, _ = tableau_solve(p.objective, rows, p.rhs, p.lower, p.upper)
    assert status == sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(obj) == pytest.approx(3.5)
    assert sol.iterations == 1
    assert sol.x == pytest.approx([1.5, 2.0, 0.0])


def test_master_lp_single_entry_columns_are_unit_columns():
    # Cover flags and selections that cover no tumor store one entry, on
    # their tumor row and on the budget row, and it is 1.0: the simplex
    # factors them as unit columns, and the cold start makes every cover
    # flag basic.
    rng = random.Random(RNG_SEED + 6)
    pairs = list(itertools.combinations(range(10), 2))
    met = 0
    for _ in range(20):
        m = random_matrix(rng, 10, 15, 6, density=0.3)
        pool = [m.combination(c) for c in rng.sample(pairs, rng.randint(0, 20))]
        empty = [c for c in map(m.combination, pairs) if not c.tumor_cover]
        if empty and empty[0] not in pool:
            pool.append(empty[0])
        p = MasterModel(m, pool, rng.randint(1, 4)).build_lp()
        single = np.nonzero(np.diff(p.indptr) == 1)[0]
        assert np.all(p.data[p.indptr[single]] == 1.0)
        nt = m.tumor_count
        s = lp._Simplex(p, math.inf)
        no_tumor = [nt + k for k, c in enumerate(pool) if not c.tumor_cover]
        assert list(s.unit_row[:nt]) == list(range(nt))
        assert all(s.unit_row[j] == nt for j in no_tumor)
        s.cold_start()
        assert list(s.basic) == list(range(nt)) + [p.n_vars + nt]
        met += bool(no_tumor)
    assert met >= 10


def test_master_lps_from_the_crash_start_match_tableau_oracle():
    # Every cover flag starts basic at 0 on its tumor row, so the solve
    # begins at a degenerate vertex.  Pools of up to 40 of the 66 gene
    # pairs cover most tumors, leaving few flags without a pool column.
    pools = random.Random(RNG_SEED + 5)
    most = 0.0
    for n_columns in (0, 2, 6, 12, 20, 30, 40) * 4:
        p = random_master_lp(pools, 20, 8, n_columns, beta=pools.randint(1, 4))
        s = lp._Simplex(p, math.inf)
        s.cold_start()
        assert list(s.basic) == list(range(20)) + [p.n_vars + 20]
        assert np.all(s.beta[:20] == 0.0) and s.beta[-1] == p.rhs[-1]
        covered = np.bincount(p.indices, minlength=p.n_rows)[:20] > 1
        most = max(most, covered.mean())
        sol = solve_lp(p)
        status, obj, _ = tableau_solve(
            p.objective, p.a_matrix.toarray(), p.rhs, p.lower, p.upper
        )
        assert sol.status == status == STATUS_OPTIMAL
        assert sol.objective == pytest.approx(obj, abs=1e-6 * (1 + abs(obj)))
    assert most >= 0.9


def one_pair_pool_lp(k):
    """The master LP of a pool of one pair, budget 1: the pair covers
    tumors 0 to k - 1, misses tumors k and k + 1, and covers no normal."""
    samples = [
        SampleRecord(f"t{i}", SampleLabel.TUMOR, 0b11 if i < k else 0b01)
        for i in range(k + 2)
    ]
    samples.append(SampleRecord("n0", SampleLabel.NORMAL, 0b10))
    m = MutationMatrix(["g0", "g1"], samples)
    return MasterModel(m, [m.combination((0, 1))], 1).build_lp()


class NoRelease(lp._Simplex):
    """The simplex with flags tied at their upper bound left basic."""

    def release_at_upper(self, rows):
        pass


class AlwaysBland(lp._Simplex):
    """The simplex under Bland's rule from its first pivot on."""

    def __init__(self, p, deadline):
        super().__init__(p, deadline)
        self.bland = True

    def note_basis(self, degenerate):
        super().note_basis(degenerate)
        self.bland = True


def test_flags_tied_at_their_upper_bound_leave_the_basis_together():
    # The pair enters at 1 and takes its k cover flags to their upper
    # bound 1 in one step.  One flag leaves the basis and the other k - 1
    # are released to their rows' slacks, so the root is optimal after
    # that one pivot, with every covered tumor priced at 0.  Left basic,
    # the flags leave one degenerate pivot at a time, as they do under
    # Bland's rule, which releases nothing.
    k = 6
    p = one_pair_pool_lp(k)
    sol = solve_lp(p)
    assert sol.status == STATUS_OPTIMAL and sol.iterations == 1
    assert sol.objective == k
    assert list(sol.basis.status[:k]) == [lp.AT_UPPER] * k
    assert np.array_equal(sol.x, [1.0] * k + [0.0, 0.0, 1.0])
    assert np.array_equal(sol.duals, [0.0] * k + [1.0, 1.0, 0.0])
    for slow in (NoRelease, AlwaysBland):
        s = slow(p, math.inf)
        s.cold_start()
        assert s.run() == STATUS_OPTIMAL and s.iterations == k
        assert np.array_equal(s.primal_values()[: p.n_vars], sol.x)


def test_a_degenerate_pivot_releases_nothing():
    # Unit columns 0 and 1 start basic at their upper bound 1.  Column 2
    # would push both above it, and row 2 holds it at 0, so each pivot is
    # degenerate: column 1 ties column 0 in the first ratio test, at its
    # upper bound, and must stay basic until it leaves on its own.
    rows = [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]]
    p = make_lp([1.0, 1.0, 0.5], rows, [1.0, 1.0, 0.0], [0.0] * 3, [1.0, 1.0, np.inf])
    s = lp._Simplex(p, math.inf)
    s.cold_start()
    assert list(s.basic) == [0, 1, 5] and np.array_equal(s.beta, [1.0, 1.0, 0.0])
    bases = []
    while s.step() is None:
        bases.append(s.basic.tolist())
    assert bases == [[2, 1, 5], [2, 3, 5], [2, 3, 4]]
    assert np.array_equal(s.primal_values()[:3], [1.0, 1.0, 0.0])


def hash_offset(s):
    """The simplex's basis hash XOR the keys of its basic set: constant
    over a solve while the hash follows every change of the basic set."""
    offset = s.basis_hash
    for j in s.basic.tolist():
        offset ^= lp._key(j)
    return offset


def test_basis_keys_of_an_array_are_those_of_its_ints():
    # One formula hashes one variable per pivot and a release's many at
    # once: the uint64 array wraps where the ints are masked, bit for bit
    # and with no overflow warning.
    rng = np.random.default_rng(7)
    js = np.concatenate([[0, 1, 2**32 - 1, 2**40], rng.integers(0, 2**40, 500)])
    want = [lp._key(j) for j in js.tolist()]
    got = lp._key(js.astype(np.uint64))
    assert got.dtype == np.uint64 and got.tolist() == want
    for size in (1, 2, 7, len(js)):
        folded = 0
        for key in want[:size]:
            folded ^= key
        assert int(np.bitwise_xor.reduce(got[:size])) == folded


def test_releases_follow_only_nondegenerate_dantzig_pivots(monkeypatch):
    # A pivot that moved no point, or one chosen under Bland's rule,
    # changes one basis position, even where unit columns at their upper
    # bound tie its leaving row; only the other pivots may release.  The
    # basis hash follows every change, releases included.
    ratio_test, step = lp._Simplex.ratio_test, lp._Simplex.step
    last, counts = [], {"held": 0, "released": 0}

    def recorded(s, delta, t_flip):
        leave, t, ties = ratio_test(s, delta, t_flip)
        last.append((leave, t, ties, delta, s.bland))
        return leave, t, ties

    def checked(s):
        last.clear()
        before, offset = s.basic.copy(), hash_offset(s)
        outcome = step(s)
        assert hash_offset(s) == offset
        if outcome is None:
            leave, t, ties, delta, bland = last[0]
            changed = int(np.sum(s.basic != before))
            if t <= lp.PIVOT_TOL or bland:
                assert changed <= 1
                if ties is not None:
                    tied = before[ties[(ties != leave) & (delta[ties] < 0.0)]]
                    counts["held"] += int(np.any(s.unit_row[tied[tied < s.n]] >= 0))
            else:
                counts["released"] += changed > 1
        return outcome

    monkeypatch.setattr(lp._Simplex, "ratio_test", recorded)
    monkeypatch.setattr(lp._Simplex, "step", checked)
    rng = np.random.default_rng(RNG_SEED + 9)
    pools = random.Random(RNG_SEED + 9)
    for _ in range(40):
        solve_lp(random_unit_lp(rng))
        solve_lp(random_master_lp(pools, 20, 8, pools.randint(1, 40)))
    for slow in (NoRelease, AlwaysBland):
        s = slow(one_pair_pool_lp(6), math.inf)
        s.cold_start()
        assert s.run() == STATUS_OPTIMAL
    assert counts["held"] > 0 and counts["released"] > 0


def test_released_bases_reach_the_tableau_optimum(monkeypatch):
    # A release relabels a vertex and moves no point, so each family still
    # reaches the dense tableau's optimum; the master LPs must release.
    release = lp._Simplex.release_at_upper
    released = {}
    family = None

    def counted(s, rows):
        before = s.basic.copy()
        release(s, rows)
        released[family] = released.get(family, 0) + int(np.sum(s.basic != before))

    monkeypatch.setattr(lp._Simplex, "release_at_upper", counted)
    rng = np.random.default_rng(RNG_SEED + 8)
    pools = random.Random(RNG_SEED + 8)
    for family, make in (
        ("random_lp", lambda: random_lp(rng)),
        ("random_unit_lp", lambda: random_unit_lp(rng)),
        (
            "random_master_lp",
            lambda: random_master_lp(
                pools, 20, 8, pools.randint(1, 40), beta=pools.randint(1, 4)
            ),
        ),
    ):
        for _ in range(40):
            p = make()
            sol = solve_lp(p)
            status, obj, _ = tableau_solve(
                p.objective, p.a_matrix.toarray(), p.rhs, p.lower, p.upper
            )
            assert sol.status == status
            if status == STATUS_OPTIMAL:
                assert sol.objective == pytest.approx(obj, abs=1e-6 * (1 + abs(obj)))
    assert released.get("random_master_lp", 0) > 0


CHVATAL_C = [10.0, -57.0, -9.0, -24.0]
CHVATAL_ROWS = [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]]


def chvatal_lp():
    """Chvatal's cycling example; its optimum is 1."""
    return make_lp(CHVATAL_C, CHVATAL_ROWS, [0.0, 0.0, 1.0], [0.0] * 4, [np.inf] * 4)


class LowestIndexTies(lp._Simplex):
    """The simplex with ratio-test ties always left to the lowest basic
    index, as under Bland's rule, so Dantzig's rule can cycle."""

    def ratio_test(self, delta, t_flip):
        bland, self.bland = self.bland, True
        try:
            return super().ratio_test(delta, t_flip)
        finally:
            self.bland = bland


def test_revisited_basis_switches_to_blands_rule():
    # Chvatal's cycling example.  Dantzig's rule, with ratio-test ties left
    # to the lowest basic index, returns to the slack basis after 6
    # degenerate pivots.  Bland's rule must engage at that first repeat,
    # and the solve must still reach the optimum 1.
    bases, blands = [], []

    class Recorded(LowestIndexTies):
        def step(self):
            outcome = super().step()
            if outcome is None:
                bases.append(frozenset(self.basic.tolist()))
                blands.append(self.bland)
            return outcome

    p = chvatal_lp()
    s = Recorded(p, math.inf)
    s.cold_start()
    start = frozenset(s.basic.tolist())
    outcome = s.run()
    assert outcome == STATUS_OPTIMAL
    assert len({start, *bases[:5]}) == 6 and bases[5] == start
    assert blands[:6] == [False] * 5 + [True]
    assert not blands[-1]  # the last pivot is nondegenerate and ends it
    assert float(p.objective @ s.primal_values()[:4]) == pytest.approx(1.0)
    status, obj, _ = tableau_solve(CHVATAL_C, CHVATAL_ROWS, p.rhs, p.lower, p.upper)
    assert status == STATUS_OPTIMAL and obj == pytest.approx(1.0)
    assert solve_lp(p).objective == pytest.approx(1.0)


FACTORS = (
    "pos_u",
    "pos_k",
    "rows_u",
    "free",
    "z_rows",
    "z_vals",
    "z_cols",
    "core",
    "core_inv",
)


def test_unit_swap_update_builds_the_factors_of_a_fresh_factor(monkeypatch):
    # After every pivot that takes the in-place update, a fresh factor()
    # must build bit-identical factors, so no pivot path can move.
    swap_units = lp._Simplex.swap_units
    updates = {}
    family = None

    def checked(s, leave, r_out, r_in):
        if not swap_units(s, leave, r_out, r_in):
            return False
        updated = [getattr(s, name).copy() for name in FACTORS]
        s.factor()
        for name, mine in zip(FACTORS, updated):
            fresh = getattr(s, name)
            assert mine.dtype == fresh.dtype and np.array_equal(mine, fresh), name
        updates[family] = updates.get(family, 0) + 1
        return True

    monkeypatch.setattr(lp._Simplex, "swap_units", checked)
    rng = np.random.default_rng(RNG_SEED + 7)
    pools = random.Random(RNG_SEED + 7)
    for family, make in (
        ("random_lp", lambda: random_lp(rng)),
        ("random_unit_lp", lambda: random_unit_lp(rng)),
        ("random_master_lp", lambda: random_master_lp(pools, 30, 10, 20)),
    ):
        for _ in range(20):
            solve_lp(make())
        assert updates.get(family, 0) > 0, family
    # A warm start: the basis of a 20-column pool, extended by 20 columns.
    family = "warm"
    m = random_matrix(pools, 12, 30, 10, density=0.3)
    pairs = list(itertools.combinations(range(12), 2))
    model = MasterModel(m, [m.combination(q) for q in pairs[:20]], 3)
    basis = solve_lp(model.build_lp()).basis
    for q in pairs[20:40]:
        model.add_column(m.combination(q))
    s = lp._Simplex(model.build_lp(), math.inf)
    assert s.try_warm_start(basis) and s.run() == STATUS_OPTIMAL
    assert updates.get(family, 0) > 0
    # The Bland-mode LP: none of its pivots swaps two unit columns, so the
    # update must decline each, and the solve still reaches the optimum 1.
    family = "bland"
    p = chvatal_lp()
    s = LowestIndexTies(p, math.inf)
    s.cold_start()
    assert s.run() == STATUS_OPTIMAL and "bland" not in updates
    assert float(p.objective @ s.primal_values()[:4]) == pytest.approx(1.0)


def test_singular_warm_basis_falls_back_to_cold_start():
    # Tumor row 0's slack and its cover flag (variable 0) both basic: two
    # unit columns on one row.
    p = random_master_lp(random.Random(RNG_SEED), 6, 3, 8)
    n = p.n_vars
    basic = n + np.arange(p.n_rows)
    basic[1] = 0  # the cover flag replaces row 1's slack
    status = np.zeros(n + p.n_rows, dtype=np.int8)
    status[0] = lp.IN_BASIS
    status[n:] = lp.IN_BASIS
    status[n + 1] = lp.AT_LOWER
    two_units = Basis(basic, status, n)
    # Two identical structural columns, both basic: a singular core.
    rows = [[1.0, 1.0, 2.0], [2.0, 2.0, 1.0]]
    q = make_lp([1.0, 1.0, 1.0], rows, [4.0, 4.0], [0.0] * 3, [np.inf] * 3)
    twin_status = [lp.IN_BASIS, lp.IN_BASIS, lp.AT_LOWER, lp.AT_LOWER, lp.AT_LOWER]
    twins = Basis(np.array([0, 1]), np.array(twin_status, dtype=np.int8), 3)
    for prog, warm, reason in ((p, two_units, "share a row"), (q, twins, "singular")):
        s = lp._Simplex(prog, math.inf)
        s.basic = warm.basic
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
    # The slack basis took 1,970 pivots.  With every cover flag basic, a
    # switch to Bland's rule after a fixed degenerate streak took over
    # 10,000; switching only on a repeated basis avoids that.
    assert sol.iterations <= 1970


def check_kernel(p, dense):
    """``p``'s CSC arrays hold ``dense``: canonical, and ``A x``, ``A^T y``
    and ``a_matrix`` agree with dense algebra."""
    rng = np.random.default_rng(RNG_SEED + 4)
    m, n = dense.shape
    assert (p.n_rows, p.n_vars) == (m, n)
    assert p.indptr[0] == 0 and p.indptr[-1] == len(p.indices) == len(p.data)
    for j in range(n):
        rows = p.indices[p.indptr[j] : p.indptr[j + 1]]
        assert np.all(np.diff(rows) > 0)  # sorted, no duplicates
        assert np.all(p.col[p.indptr[j] : p.indptr[j + 1]] == j)
    x, y = rng.uniform(-2, 2, n), rng.uniform(-2, 2, m)
    assert p.dot(x).shape == (m,) and p.tdot(y).shape == (n,)
    assert np.allclose(p.dot(x), dense @ x, rtol=0, atol=1e-12)
    assert np.allclose(p.tdot(y), dense.T @ y, rtol=0, atol=1e-12)
    assert p.a_matrix.shape == (m, n)
    assert np.array_equal(p.a_matrix.toarray(), dense)


def kernel_lp(a, shape):
    m, n = shape
    return LinearProgram(np.ones(n), a, np.ones(m), np.zeros(n), np.ones(n))


def test_csc_kernel_matches_dense_algebra():
    dense = np.array(
        [
            [0.0, 2.0, 0.0, 0.0, -1.5],
            [0.0, 0.0, 0.0, 0.0, 0.0],  # an empty row
            [3.0, 0.0, 0.0, 4.0, 0.5],
        ]
    )  # column 2 is empty
    # The CSC triple must already be canonical.
    triple = ([3.0, 2.0, 4.0, -1.5, 0.5], [2, 0, 2, 0, 2], [0, 1, 2, 2, 3, 5])
    check_kernel(kernel_lp(triple, dense.shape), dense)
    for rows in ([2, 0, 2, 2, 0], [2, 0, 2, 0, 0]):  # unsorted, duplicate
        with pytest.raises(ValidationError, match="increase"):
            kernel_lp((triple[0], rows, triple[2]), dense.shape)
    for m, n in ((0, 4), (3, 0), (0, 0)):
        empty = np.zeros((m, n))
        check_kernel(kernel_lp(([], [], [0] * (n + 1)), (m, n)), empty)
    with pytest.raises(ValidationError, match="shape"):
        kernel_lp(triple, (3, 4))
    # Only the triple is taken: a dense or scipy matrix is refused.
    for other in (dense, sp.csc_matrix(dense)):
        with pytest.raises(ValidationError, match="indptr"):
            kernel_lp(other, dense.shape)
    for bad in (([1.0], [3], [0, 1, 1, 1, 1, 1]), ([1.0], [0], [1, 1, 1, 1, 1, 1])):
        with pytest.raises(ValidationError, match="out of range"):
            kernel_lp(bad, dense.shape)
    with pytest.raises(ValidationError, match="length"):
        kernel_lp(([1.0, 2.0], [0], [0, 1, 1, 1, 1, 1]), dense.shape)


def test_stored_zeros_are_kept_but_never_unit_columns():
    # Column 0 stores only a zero, column 1 a zero and one entry, column 2
    # two entries that sum to zero on one row, column 3 one entry of 1.
    data = [0.0, 0.0, 2.0, 1.0, -1.0, 1.0]
    indices = [1, 0, 1, 0, 0, 1]
    indptr = [0, 1, 3, 5, 6]
    stored = sp.csc_matrix((data, indices, indptr), shape=(2, 4))
    p = kernel_lp(csc(stored), (2, 4))
    dense = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 1.0]])
    check_kernel(p, dense)
    assert len(p.data) == 5 and p.a_matrix.nnz == 5
    assert stored.nnz == 6  # the caller's matrix is left as it was
    s = lp._Simplex(p, math.inf)
    assert list(s.unit_row[:4]) == [-1, -1, -1, 1]
    s.cold_start()
    # Column 3 takes row 1 though columns 0 and 1 store entries there; a
    # column of zeros must not claim row 0.
    assert list(s.basic) == [4, 3]
    sol = solve_lp(p)
    status, obj, _ = tableau_solve(p.objective, dense, p.rhs, p.lower, p.upper)
    assert sol.status == status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(obj)
