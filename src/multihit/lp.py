"""Self-contained LP kernel: bounded-variable revised simplex with duals.

Solves ``max c.x  s.t.  A x <= b,  l <= x <= u`` where ``A`` is sparse,
lower bounds are finite and upper bounds may be infinite.  The solver keeps
an explicit basis inverse (eta updates, periodic refactorization), prices
with Dantzig's rule and falls back to Bland's rule after a degenerate
streak, so it cannot cycle.  Infeasible starts go through a phase-one run
with artificial variables.  Every optimal result is verified against strong
duality and complementary slackness before being returned.

Row duals are reported with the usual sign convention for a maximization
with ``<=`` rows: nonnegative at optimality (up to tolerance).
"""

import time

import numpy as np
import scipy.sparse as sp

from .errors import ConsistencyError, ValidationError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
CHECK_TOL = 1e-6
DEGEN_STREAK = 40
REFACTOR_EVERY = 64
_CLOCK_CHECK_MASK = 0xFF  # read the clock every 256 pivots

AT_LOWER, AT_UPPER, IN_BASIS = 0, 1, 2

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_TIME_LIMIT = "time_limit"


class LinearProgram:
    """Data for one LP.  All rows are ``<=`` rows; the sense is maximize."""

    def __init__(self, objective, a_matrix, rhs, lower, upper):
        self.objective = np.asarray(objective, dtype=float)
        self.a_matrix = sp.csc_matrix(a_matrix)
        self.rhs = np.asarray(rhs, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        n = self.objective.shape[0]
        m = self.rhs.shape[0]
        if self.a_matrix.shape != (m, n):
            raise ValidationError(
                f"constraint matrix shape {self.a_matrix.shape} does not match "
                f"{m} rows x {n} variables"
            )
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValidationError("bound vectors must have one entry per variable")
        for name, arr in (("objective", self.objective), ("rhs", self.rhs)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValidationError("bounds must not be NaN")
        if not np.all(np.isfinite(self.lower)):
            raise ValidationError("lower bounds must be finite")

    @property
    def n_vars(self):
        return self.objective.shape[0]

    @property
    def n_rows(self):
        return self.rhs.shape[0]


class Basis:
    """Exportable basis: per-row basic variable plus nonbasic statuses.

    ``basic`` encodes structural j as ``j`` and the slack of row i as
    ``-(i + 1)`` so the encoding survives adding structural columns.
    """

    def __init__(self, basic, struct_status, slack_status):
        self.basic = np.asarray(basic, dtype=int)
        self.struct_status = np.asarray(struct_status, dtype=np.int8)
        self.slack_status = np.asarray(slack_status, dtype=np.int8)


class LpSolution:
    def __init__(self, status, objective, x, duals, basis, iterations):
        self.status = status
        self.objective = objective
        self.x = x
        self.duals = duals
        self.basis = basis
        self.iterations = iterations


def _failed(status, n, m, iterations=0):
    return LpSolution(
        status, float("nan"), np.full(n, np.nan), np.full(m, np.nan), None, iterations
    )


class _Simplex:
    def __init__(self, p, max_iterations, deadline):
        self.p = p
        self.n = p.n_vars
        self.m = p.n_rows
        self.nf = self.n + self.m  # structural + slack
        self.at = p.a_matrix.T.tocsr()
        self.shift = p.lower
        self.b_hat = p.rhs - p.a_matrix @ p.lower
        self.ub_hat = np.concatenate([p.upper - p.lower, np.full(self.m, np.inf)])
        self.c_hat = np.concatenate([p.objective, np.zeros(self.m)])
        self.max_iterations = max_iterations
        self.deadline = deadline
        self.iterations = 0
        self.art_rows = []  # row index per artificial
        self.art_banned = []
        self.basic = None
        self.status = None
        self.beta = None
        self.b_inv = None
        self.bland = False
        self.degen_run = 0
        self.since_refactor = 0

    # -- columns ----------------------------------------------------------

    def column(self, j):
        if j < self.n:
            a = self.p.a_matrix
            lo, hi = a.indptr[j], a.indptr[j + 1]
            return a.indices[lo:hi], a.data[lo:hi]
        if j < self.nf:
            return np.array([j - self.n]), np.array([1.0])
        return np.array([self.art_rows[j - self.nf]]), np.array([-1.0])

    def nonbasic_value(self, j):
        if self.status[j] == AT_UPPER:
            return self.ub_hat[j]
        return 0.0

    # -- factorization ----------------------------------------------------

    def refactor(self):
        b = np.zeros((self.m, self.m))
        for r, j in enumerate(self.basic):
            rows, vals = self.column(j)
            b[rows, r] = vals
        try:
            self.b_inv = np.linalg.inv(b)
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError("singular basis matrix") from exc
        rhs = self.b_hat.copy()
        for j in np.nonzero(self.status[: self.nf] == AT_UPPER)[0]:
            rows, vals = self.column(int(j))
            rhs[rows] -= vals * self.ub_hat[j]
        self.beta = self.b_inv @ rhs
        self.since_refactor = 0

    def basic_bounds(self):
        lo = np.zeros(self.m)
        hi = np.array([self.ub_hat[j] if j < self.nf else np.inf for j in self.basic])
        return lo, hi

    def feasible(self, tol):
        lo, hi = self.basic_bounds()
        return bool(np.all(self.beta >= lo - tol) and np.all(self.beta <= hi + tol))

    # -- pricing ----------------------------------------------------------

    def duals(self, costs):
        return costs[self.basic] @ self.b_inv

    def reduced_costs(self, costs, y):
        total = self.nf + len(self.art_rows)
        d = np.empty(total)
        d[: self.n] = costs[: self.n] - self.at @ y
        d[self.n : self.nf] = costs[self.n : self.nf] - y
        for t, row in enumerate(self.art_rows):
            d[self.nf + t] = costs[self.nf + t] + y[row]
        return d

    def pick_entering(self, d, allowed):
        gain = np.where(
            (self.status == AT_LOWER) & (d > OPT_TOL),
            d,
            np.where((self.status == AT_UPPER) & (d < -OPT_TOL), -d, 0.0),
        )
        gain[~allowed] = 0.0
        if not np.any(gain > 0.0):
            return None
        if self.bland:
            return int(np.nonzero(gain > 0.0)[0][0])
        return int(np.argmax(gain))

    # -- pivoting ---------------------------------------------------------

    def step(self, costs, allowed):
        """One simplex iteration.  Returns None to continue, or a status."""
        y = self.duals(costs)
        d = self.reduced_costs(costs, y)
        j = self.pick_entering(d, allowed)
        if j is None:
            return STATUS_OPTIMAL
        sigma = 1.0 if self.status[j] == AT_LOWER else -1.0
        rows, vals = self.column(j)
        alpha = self.b_inv[:, rows] @ vals
        lo, hi = self.basic_bounds()
        delta = sigma * alpha
        t_best = self.ub_hat[j] if j < self.nf else np.inf
        leave = -1
        leave_to = AT_LOWER
        for i in range(self.m):
            di = delta[i]
            if di > PIVOT_TOL:
                t = max((self.beta[i] - lo[i]) / di, 0.0)
                to = AT_LOWER
            elif di < -PIVOT_TOL and np.isfinite(hi[i]):
                t = max((self.beta[i] - hi[i]) / di, 0.0)
                to = AT_UPPER
            else:
                continue
            better = t < t_best - PIVOT_TOL
            tie = abs(t - t_best) <= PIVOT_TOL
            if self.bland:
                take = better or (
                    tie and (leave < 0 or self.basic[i] < self.basic[leave])
                )
            else:
                take = better or (
                    tie and (leave < 0 or abs(di) > abs(delta[leave]))
                )
            if take:
                t_best, leave, leave_to = t, i, to
        if not np.isfinite(t_best):
            return STATUS_UNBOUNDED
        self.iterations += 1
        self.degen_run = self.degen_run + 1 if t_best <= 1e-10 else 0
        if self.degen_run > DEGEN_STREAK:
            self.bland = True
        elif self.degen_run == 0:
            self.bland = False
        self.beta -= t_best * delta
        entering_value = self.nonbasic_value(j) + sigma * t_best
        if leave < 0:
            # Bound flip: the entering variable runs to its other bound.
            self.status[j] = AT_UPPER if self.status[j] == AT_LOWER else AT_LOWER
            return None
        out = self.basic[leave]
        if out < self.nf:
            self.status[out] = leave_to
        else:
            self.art_banned[out - self.nf] = True
            self.status[out] = AT_LOWER
        self.basic[leave] = j
        self.status[j] = IN_BASIS
        self.beta[leave] = entering_value
        pivot = alpha[leave]
        if abs(pivot) < PIVOT_TOL:
            raise ConsistencyError("numerically singular pivot")
        row_new = self.b_inv[leave] / pivot
        alpha_rest = alpha.copy()
        alpha_rest[leave] = 0.0
        self.b_inv -= np.outer(alpha_rest, row_new)
        self.b_inv[leave] = row_new
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self.refactor()
        return None

    def run_phase(self, costs, allowed):
        """Pivot until optimal, unbounded or out of iterations or time.

        Artificials that left the basis in phase one may not re-enter.
        """
        while True:
            if self.iterations >= self.max_iterations:
                return STATUS_ITERATION_LIMIT
            if (
                self.deadline is not None
                and self.iterations & _CLOCK_CHECK_MASK == 0
                and time.perf_counter() > self.deadline
            ):
                return STATUS_TIME_LIMIT
            for t, banned in enumerate(self.art_banned):
                if banned:
                    allowed[self.nf + t] = False
            outcome = self.step(costs, allowed)
            if outcome is not None:
                return outcome

    # -- phase one --------------------------------------------------------

    def install_artificials(self):
        bad = np.nonzero(self.beta < -FEAS_TOL)[0]
        self.art_rows = [int(r) for r in bad]
        self.art_banned = [False] * len(bad)
        for t, r in enumerate(self.art_rows):
            self.status[self.basic[r]] = AT_LOWER
            self.basic[r] = self.nf + t
        self.status = np.concatenate(
            [self.status[: self.nf], np.full(len(bad), IN_BASIS, dtype=np.int8)]
        )
        self.refactor()

    def drive_out_artificials(self):
        for r in range(self.m):
            if self.basic[r] < self.nf:
                continue
            # A nonbasic slack with weight in this row always exists because
            # the identity block spans every row direction.
            row = self.b_inv[r]
            entering = -1
            for i in range(self.m):
                j = self.n + i
                if self.status[j] != IN_BASIS and abs(row[i]) > PIVOT_TOL:
                    entering = j
                    break
            if entering < 0:
                raise ConsistencyError("cannot remove artificial from basis")
            rows, vals = self.column(entering)
            alpha = self.b_inv[:, rows] @ vals
            out = self.basic[r]
            self.art_banned[out - self.nf] = True
            self.basic[r] = entering
            self.status[entering] = IN_BASIS
            self.beta[r] = self.nonbasic_value(entering)
            pivot = alpha[r]
            row_new = self.b_inv[r] / pivot
            alpha_rest = alpha.copy()
            alpha_rest[r] = 0.0
            self.b_inv -= np.outer(alpha_rest, row_new)
            self.b_inv[r] = row_new
        self.art_rows = []
        self.art_banned = []
        self.status = self.status[: self.nf]
        self.refactor()

    def phase_one(self):
        self.install_artificials()
        costs = np.zeros(self.nf + len(self.art_rows))
        costs[self.nf :] = -1.0
        allowed = np.ones(self.nf + len(self.art_rows), dtype=bool)
        allowed[: self.nf] = self.ub_hat > 0.0
        outcome = self.run_phase(costs, allowed)
        if outcome in (STATUS_ITERATION_LIMIT, STATUS_TIME_LIMIT):
            return outcome
        if outcome == STATUS_UNBOUNDED:
            raise ConsistencyError("phase one cannot be unbounded")
        infeas = sum(
            self.beta[r] for r in range(self.m) if self.basic[r] >= self.nf
        )
        if infeas > CHECK_TOL * (1.0 + float(np.abs(self.b_hat).max(initial=0.0))):
            return STATUS_INFEASIBLE
        self.drive_out_artificials()
        return STATUS_OPTIMAL

    # -- setup ------------------------------------------------------------

    def cold_start(self):
        self.basic = np.arange(self.n, self.n + self.m)
        self.status = np.full(self.nf, AT_LOWER, dtype=np.int8)
        self.status[self.basic] = IN_BASIS
        self.refactor()

    def try_warm_start(self, warm):
        if warm is None:
            return False
        if len(warm.slack_status) != self.m or len(warm.basic) != self.m:
            return False
        struct = np.full(self.n, AT_LOWER, dtype=np.int8)
        k = min(self.n, len(warm.struct_status))
        struct[:k] = warm.struct_status[:k]
        status = np.concatenate([struct, warm.slack_status])
        if np.any(warm.basic >= self.n):
            return False
        basic = np.where(warm.basic >= 0, warm.basic, self.n + (-1 - warm.basic))
        if np.any(basic < 0) or np.any(basic >= self.nf):
            return False
        if len(np.unique(basic)) != self.m:
            return False
        status[basic] = IN_BASIS
        if np.count_nonzero(status == IN_BASIS) != self.m:
            return False
        if np.any((status == AT_UPPER) & ~np.isfinite(self.ub_hat)):
            return False
        self.basic = basic.astype(int)
        self.status = status
        try:
            self.refactor()
        except ConsistencyError:
            return False
        return self.feasible(CHECK_TOL)

    # -- extraction -------------------------------------------------------

    def primal_values(self):
        x_hat = np.zeros(self.nf)
        for j in np.nonzero(self.status == AT_UPPER)[0]:
            x_hat[j] = self.ub_hat[j]
        for r, j in enumerate(self.basic):
            if j < self.nf:
                x_hat[j] = self.beta[r]
        return x_hat

    def export_basis(self):
        basic = np.where(
            self.basic < self.n, self.basic, -1 - (self.basic - self.n)
        )
        return Basis(basic, self.status[: self.n], self.status[self.n : self.nf])

    def verify_optimal(self, x_hat, y, d):
        """Strong duality and complementary slackness, or ConsistencyError."""
        primal = float(self.c_hat @ x_hat)
        up = d > OPT_TOL
        if np.any(up & ~np.isfinite(self.ub_hat)):
            raise ConsistencyError("positive reduced cost on an unbounded variable")
        dual = float(y @ self.b_hat) + float(self.ub_hat[up] @ d[up])
        scale = 1.0 + abs(primal)
        if abs(primal - dual) > CHECK_TOL * scale:
            raise ConsistencyError(
                f"strong duality violated: primal {primal}, dual {dual}"
            )
        slack = self.b_hat - self.p.a_matrix @ (x_hat[: self.n]) - x_hat[self.n :]
        if np.any(np.abs(y * slack) > CHECK_TOL * scale):
            raise ConsistencyError("complementary slackness violated")


def solve_lp(p, warm_start=None, max_iterations=None, deadline=None, _retry=True):
    """Solve ``p``, optionally warm starting from a previous :class:`Basis`.

    A structurally or numerically unusable warm basis falls back to a cold
    start, so warm starting can change work done but never the answer.
    When ``deadline`` (``time.perf_counter`` scale) has passed at a clock
    check, the solve stops with status ``time_limit`` and no solution.
    """
    n, m = p.n_vars, p.n_rows
    if np.any(p.lower > p.upper):
        return _failed(STATUS_INFEASIBLE, n, m)
    if max_iterations is None:
        max_iterations = 2000 + 50 * (n + m)
    s = _Simplex(p, max_iterations, deadline)
    if not s.try_warm_start(warm_start):
        s.cold_start()
        if not s.feasible(FEAS_TOL):
            outcome = s.phase_one()
            if outcome != STATUS_OPTIMAL:
                return _failed(outcome, n, m, s.iterations)
    outcome = s.run_phase(s.c_hat, s.ub_hat > 0.0)
    if outcome in (STATUS_UNBOUNDED, STATUS_TIME_LIMIT):
        return _failed(outcome, n, m, s.iterations)
    s.refactor()
    if outcome == STATUS_OPTIMAL and not s.feasible(CHECK_TOL):
        # Accumulated drift; one clean retry from a cold start.
        if _retry:
            return solve_lp(p, None, max_iterations, deadline, _retry=False)
        raise ConsistencyError("basis drifted out of feasibility")
    x_hat = s.primal_values()
    y = s.duals(s.c_hat)
    x = s.shift + x_hat[: s.n]
    objective = float(p.objective @ x)
    basis = s.export_basis()
    if outcome == STATUS_ITERATION_LIMIT:
        return LpSolution(
            STATUS_ITERATION_LIMIT, objective, x, y, basis, s.iterations
        )
    d = s.reduced_costs(s.c_hat, y)
    s.verify_optimal(x_hat, y, d)
    return LpSolution(STATUS_OPTIMAL, objective, x, y, basis, s.iterations)
