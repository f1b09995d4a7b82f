"""Self-contained LP kernel: bounded-variable revised simplex with duals.

Solves ``max c.x  s.t.  A x <= b,  l <= x <= u`` where ``A`` is sparse,
lower bounds are finite and upper bounds may be infinite.  ``A`` is held as
plain numpy CSC arrays; ``A x`` and ``A^T y`` are one ``np.bincount`` over
its stored entries each, so no solve imports ``scipy.sparse``.  A cold solve
starts from the slack basis (all slacks basic, every structural variable at
its lower bound), except that a unit column with positive cost and value
that is the only entry of its row takes that row at once: basic at ``b/d``,
or nonbasic at its upper bound when ``b/d`` exceeds it.  In a master LP
that is the cover flag of a tumor no pool column covers.  A warm solve
starts from a given basis.  The slack basis must be feasible:
``b - A l >= 0``.  :class:`LinearProgram` refuses any other LP; there is no
phase one.  The master LPs of this package all satisfy this.  The basis is
factored by its unit columns (one nonzero: slacks and cover flags), at
most one per row, plus the inverse of the k x k core that the other k
basic columns leave on the remaining rows.  A pivot that swaps one unit
column for another on the same row only rescales that row, at O(1); any
other pivot refactors, at O(nnz + m + k^3).  Pricing and the ratio test
add O(nnz + m) per pivot.  The solver prices with Dantzig's rule and falls
back to Bland's rule after a degenerate streak, so it cannot cycle.  Every
optimal result is verified against strong duality and complementary
slackness before being returned.

Row duals are reported with the usual sign convention for a maximization
with ``<=`` rows: nonnegative at optimality (up to tolerance).
"""

import time

import numpy as np

from .errors import ConsistencyError, ValidationError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
CHECK_TOL = 1e-6
DEGEN_STREAK = 40
REFACTOR_EVERY = 64
# A solve stops with iteration_limit after BASE + PER_DIM * (vars + rows) pivots.
ITERATION_BASE = 2000
ITERATION_PER_DIM = 50
_CLOCK_CHECK_MASK = 0xFF  # read the clock every 256 pivots

AT_LOWER, AT_UPPER, IN_BASIS = 0, 1, 2
# Direction in which a nonbasic variable with each status may move.
_SIGN = np.array([1.0, -1.0, 0.0])

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_TIME_LIMIT = "time_limit"


class LinearProgram:
    """Data for one LP.  All rows are ``<=`` rows; the sense is maximize.

    ``a_matrix`` is a dense 2-D array, a scipy sparse matrix (anything with
    ``tocsc()`` and ``sum_duplicates()``), or the canonical CSC triple
    ``(data, indices, indptr)`` with one column per variable and one row
    per ``rhs`` entry.  It is kept as canonical CSC arrays ``indptr``,
    ``indices`` and ``data``: row indices strictly increasing within each
    column, duplicate entries of a scipy matrix summed, stored zeros kept.
    ``col`` holds the column of each stored entry, so :meth:`dot` and
    :meth:`tdot` are one ``np.bincount`` each.
    No lower bound may exceed its upper bound, and the slack basis must be
    feasible: ``rhs - A @ lower >= 0`` on every row.
    """

    def __init__(self, objective, a_matrix, rhs, lower, upper):
        self.objective = np.asarray(objective, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        n = self.objective.shape[0]
        m = self.rhs.shape[0]
        self.indptr, self.indices, self.data, self.col = _csc(a_matrix, (m, n))
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValidationError("bound vectors must have one entry per variable")
        for name, arr in (("objective", self.objective), ("rhs", self.rhs)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValidationError("bounds must not be NaN")
        if not np.all(np.isfinite(self.lower)):
            raise ValidationError("lower bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValidationError("a lower bound lies above its upper bound")
        short = np.nonzero(self.rhs - self.dot(self.lower) < -FEAS_TOL)[0]
        if short.size:
            raise ValidationError(
                f"slack basis infeasible: row {short[0]} has rhs - A @ lower < 0"
            )

    @property
    def n_vars(self):
        return self.objective.shape[0]

    @property
    def n_rows(self):
        return self.rhs.shape[0]

    def dot(self, x):
        """``A x`` for a finite dense ``x``."""
        return np.bincount(self.indices, self.data * x[self.col], self.n_rows)

    def tdot(self, y):
        """``A^T y`` for a finite dense ``y``."""
        return np.bincount(self.col, self.data * y[self.indices], self.n_vars)

    @property
    def a_matrix(self):
        """``A`` as a scipy CSC matrix over the same arrays, for HiGHS.

        Imports ``scipy.sparse``; the simplex never reads it.
        """
        import scipy.sparse as sp

        shape = (self.n_rows, self.n_vars)
        return sp.csc_matrix((self.data, self.indices, self.indptr), shape=shape)


def _csc(a, shape):
    """Canonical CSC arrays ``(indptr, indices, data)`` of ``a``, which must
    have ``shape``, plus the column of each entry; see
    :class:`LinearProgram` for the accepted forms."""
    m, n = shape
    if isinstance(a, tuple):
        data, indices, indptr = a
        found = (m, len(indptr) - 1)
    elif hasattr(a, "tocsc"):
        a = a.tocsc(copy=True)
        a.sum_duplicates()  # and sorts the row indices
        data, indices, indptr, found = a.data, a.indices, a.indptr, a.shape
    else:
        dense = np.asarray(a, dtype=float)
        if dense.ndim != 2:
            raise ValidationError("a dense constraint matrix must be 2-D")
        col, indices = np.nonzero(dense.T)
        data, found = dense[indices, col], dense.shape
        indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n))])
    if found != (m, n):
        raise ValidationError(
            f"constraint matrix shape {found} does not match "
            f"{m} rows x {n} variables"
        )
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    if len(data) != len(indices) or len(indices) != indptr[-1]:
        raise ValidationError("constraint matrix arrays do not match in length")
    if np.any(np.diff(indptr) < 0) or np.any(indices < 0) or np.any(indices >= m):
        raise ValidationError("constraint matrix index out of range")
    col = np.repeat(np.arange(n), np.diff(indptr))
    if np.any(np.diff(col * m + indices) <= 0):
        raise ValidationError("row indices must increase within each column")
    return indptr, indices, np.asarray(data, dtype=float), col


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


def _failed(status, n, m, iterations):
    return LpSolution(
        status, float("nan"), np.full(n, np.nan), np.full(m, np.nan), None, iterations
    )


class _Simplex:
    def __init__(self, p, deadline):
        self.n = p.n_vars
        self.m = p.n_rows
        self.nf = self.n + self.m  # structural + slack
        self.p = p
        self.b_hat = p.rhs - p.dot(p.lower)
        self.ub_hat = np.concatenate([p.upper - p.lower, np.full(self.m, np.inf)])
        self.c_hat = np.concatenate([p.objective, np.zeros(self.m)])
        self.movable = self.ub_hat > 0.0  # fixed variables never enter
        # Row and value of each unit column; -1 marks any other column.
        one = np.nonzero(np.diff(p.indptr) == 1)[0]
        one = one[p.data[p.indptr[one]] != 0.0]  # a stored zero is no unit
        self.unit_row = np.concatenate([np.full(self.n, -1), np.arange(self.m)])
        self.unit_row[one] = p.indices[p.indptr[one]]
        self.unit_val = np.ones(self.nf)
        self.unit_val[one] = p.data[p.indptr[one]]
        self.max_iterations = ITERATION_BASE + ITERATION_PER_DIM * self.nf
        self.deadline = deadline
        self.iterations = 0
        self.basic = None
        self.status = None
        self.sign = None  # movable * _SIGN[status], kept in step with status
        self.beta = None
        self.bland = False
        self.degen_run = 0
        self.since_refactor = 0

    def column(self, j):
        """Column ``j`` of ``[A | I]`` as a dense vector."""
        v = np.zeros(self.m)
        if j < self.n:
            p = self.p
            lo, hi = p.indptr[j], p.indptr[j + 1]
            v[p.indices[lo:hi]] = p.data[lo:hi]
        else:
            v[j - self.n] = 1.0
        return v

    # -- factorization ----------------------------------------------------

    def factor(self):
        """Split the basis into unit columns and a k x k core; invert the core."""
        rows = self.unit_row[self.basic]
        unit = rows >= 0
        self.pos_u, self.pos_k = np.nonzero(unit)[0], np.nonzero(~unit)[0]
        self.rows_u = rows[unit]
        self.d_u = self.unit_val[self.basic[unit]]
        slot = np.zeros(self.m, dtype=int)
        slot[self.rows_u] = -1
        self.free = np.nonzero(slot == 0)[0]
        k = len(self.pos_k)
        if len(self.free) != k:
            raise ConsistencyError("two basic unit columns share a row")
        slot[self.free] = np.arange(k)
        # The k other columns are structural: gather them from the CSC arrays.
        p = self.p
        lo = p.indptr[self.basic[self.pos_k]]
        size = p.indptr[self.basic[self.pos_k] + 1] - lo
        at = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
        self.z_rows, self.z_vals = p.indices[at], p.data[at]
        self.z_cols = np.repeat(np.arange(k), size)
        core = np.zeros((k, k))
        in_core = slot[self.z_rows] >= 0
        core[slot[self.z_rows[in_core]], self.z_cols[in_core]] = self.z_vals[in_core]
        try:
            self.core_inv = np.linalg.inv(core)
        except np.linalg.LinAlgError as exc:
            raise ConsistencyError("singular basis matrix") from exc

    def ftran(self, v):
        """``x`` with ``B x = v``, for a dense ``v``."""
        x_k = self.core_inv @ v[self.free]
        rest = v - np.bincount(self.z_rows, self.z_vals * x_k[self.z_cols], self.m)
        x = np.empty(self.m)
        x[self.pos_k] = x_k
        x[self.pos_u] = rest[self.rows_u] / self.d_u
        return x

    def refactor(self):
        self.factor()
        # Slacks have no upper bound, so only structural variables sit there.
        x_up = np.where(self.status[: self.n] == AT_UPPER, self.ub_hat[: self.n], 0.0)
        self.beta = self.ftran(self.b_hat - self.p.dot(x_up))
        self.since_refactor = 0

    def feasible(self, tol):
        return bool(
            np.all(self.beta >= -tol)
            and np.all(self.beta <= self.ub_hat[self.basic] + tol)
        )

    # -- pricing ----------------------------------------------------------

    def duals(self):
        """``y`` with ``B^T y = c_B``."""
        c = self.c_hat[self.basic]
        y = np.zeros(self.m)
        y[self.rows_u] = c[self.pos_u] / self.d_u
        y_z = np.bincount(self.z_cols, self.z_vals * y[self.z_rows], len(self.pos_k))
        y[self.free] = (c[self.pos_k] - y_z) @ self.core_inv
        return y

    def reduced_costs(self, y):
        return self.c_hat - np.concatenate([self.p.tdot(y), y])

    def pick_entering(self, d):
        """Dantzig's largest improving reduced cost, or Bland's lowest index."""
        gain = d * self.sign
        if not gain.size:
            return None
        j = int(np.argmax(gain > OPT_TOL) if self.bland else np.argmax(gain))
        return j if gain[j] > OPT_TOL else None

    # -- pivoting ---------------------------------------------------------

    def ratio_test(self, delta, t_flip):
        """Leaving row (-1 for a bound flip) and step length.

        The smallest step wins.  Rows within ``PIVOT_TOL`` of it go to the
        largest ``|delta|``, or to the lowest basic index under Bland's
        rule; a row that ties the bound flip ``t_flip`` beats it.
        """
        hi = self.ub_hat[self.basic]
        down = delta > PIVOT_TOL
        up = (delta < -PIVOT_TOL) & np.isfinite(hi)
        t = np.full(self.m, np.inf)
        t[down] = self.beta[down] / delta[down]
        t[up] = (self.beta[up] - hi[up]) / delta[up]
        np.maximum(t, 0.0, out=t)
        t_min = t.min(initial=np.inf)
        if not np.isfinite(t_min) or t_min > t_flip + PIVOT_TOL:
            return -1, t_flip
        ties = np.nonzero(t <= t_min + PIVOT_TOL)[0]
        if self.bland:
            leave = ties[np.argmin(self.basic[ties])]
        else:
            leave = ties[np.argmax(np.abs(delta[ties]))]
        return int(leave), t[leave]

    def step(self):
        """One simplex iteration.  Returns None to continue, or a status."""
        d = self.reduced_costs(self.duals())
        j = self.pick_entering(d)
        if j is None:
            return STATUS_OPTIMAL
        at_lower = self.status[j] == AT_LOWER
        sigma = 1.0 if at_lower else -1.0
        alpha = self.ftran(self.column(j))
        delta = sigma * alpha
        leave, t_best = self.ratio_test(delta, self.ub_hat[j])
        if not np.isfinite(t_best):
            return STATUS_UNBOUNDED
        self.iterations += 1
        self.degen_run = self.degen_run + 1 if t_best <= PIVOT_TOL else 0
        self.bland = self.degen_run > DEGEN_STREAK
        self.beta -= t_best * delta
        entering_value = (0.0 if at_lower else self.ub_hat[j]) + sigma * t_best
        if leave < 0:
            # Bound flip: the entering variable runs to its other bound.
            self.set_status(j, AT_UPPER if at_lower else AT_LOWER)
            return None
        out = self.basic[leave]
        self.set_status(out, AT_UPPER if delta[leave] < 0 else AT_LOWER)
        self.basic[leave] = j
        self.set_status(j, IN_BASIS)
        self.beta[leave] = entering_value
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self.refactor()
        elif self.unit_row[j] >= 0 and self.unit_row[j] == self.unit_row[out]:
            # One unit column for another on its row: only its d_u changes.
            self.d_u[np.searchsorted(self.pos_u, leave)] = self.unit_val[j]
        else:
            self.factor()
        return None

    def run(self):
        """Pivot until optimal, unbounded or out of iterations or time."""
        while True:
            if self.iterations >= self.max_iterations:
                return STATUS_ITERATION_LIMIT
            if (
                self.deadline is not None
                and self.iterations & _CLOCK_CHECK_MASK == 0
                and time.perf_counter() > self.deadline
            ):
                return STATUS_TIME_LIMIT
            outcome = self.step()
            if outcome is not None:
                return outcome

    # -- setup ------------------------------------------------------------

    def set_status(self, j, status):
        self.status[j] = status
        self.sign[j] = _SIGN[status] if self.movable[j] else 0.0

    def set_basis(self, basic, status):
        self.basic = basic
        self.status = status
        self.sign = self.movable * _SIGN[status]
        self.refactor()

    def cold_start(self):
        """The slack basis, except on a row whose only entry is a unit column
        with positive cost and value: that column takes the row at ``b/d``,
        or stays out at its upper bound when ``b/d`` exceeds it.  Such a row
        and column touch nothing else, so this is their optimum."""
        n = self.n
        basic = np.arange(n, self.nf)
        status = np.full(self.nf, AT_LOWER, dtype=np.int8)
        status[basic] = IN_BASIS
        p = self.p
        alone = np.bincount(p.indices[p.data != 0], minlength=self.m) == 1
        rows = self.unit_row[:n]
        j = np.nonzero(
            (rows >= 0)
            & (self.c_hat[:n] > 0.0)
            & (self.unit_val[:n] > 0.0)
            & self.movable[:n]
        )[0]
        j = j[alone[rows[j]]]
        i = rows[j]
        fits = self.b_hat[i] / self.unit_val[j] <= self.ub_hat[j]
        basic[i[fits]] = j[fits]
        status[j[fits]] = IN_BASIS
        status[n + i[fits]] = AT_LOWER
        status[j[~fits]] = AT_UPPER
        self.set_basis(basic, status)

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
        if np.any((status < AT_LOWER) | (status > IN_BASIS)):
            return False
        try:
            self.set_basis(basic.astype(int), status)
        except ConsistencyError:
            return False
        return self.feasible(CHECK_TOL)

    # -- extraction -------------------------------------------------------

    def primal_values(self):
        x_hat = np.where(self.status == AT_UPPER, self.ub_hat, 0.0)
        x_hat[self.basic] = self.beta
        return x_hat

    def export_basis(self):
        basic = np.where(
            self.basic < self.n, self.basic, -1 - (self.basic - self.n)
        )
        return Basis(basic, self.status[: self.n], self.status[self.n :])

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
        slack = self.b_hat - self.p.dot(x_hat[: self.n]) - x_hat[self.n :]
        if np.any(np.abs(y * slack) > CHECK_TOL * scale):
            raise ConsistencyError("complementary slackness violated")


def solve_lp(p, warm_start=None, deadline=None, _retry=True):
    """Solve ``p``, optionally warm starting from a previous :class:`Basis`.

    A structurally or numerically unusable warm basis falls back to the
    slack basis, so warm starting can change work done but never the answer.
    When ``deadline`` (``time.perf_counter`` scale) has passed at a clock
    check, the solve stops with status ``time_limit``.  Only an optimal
    solution is returned, refactored, drift-checked and verified; every
    other stop gives NaN values and no basis.
    """
    n, m = p.n_vars, p.n_rows
    s = _Simplex(p, deadline)
    if not s.try_warm_start(warm_start):
        s.cold_start()  # feasible, as LinearProgram checked
    outcome = s.run()
    if outcome != STATUS_OPTIMAL:
        return _failed(outcome, n, m, s.iterations)
    s.refactor()
    if not s.feasible(CHECK_TOL):
        # Accumulated drift; one clean retry from a cold start.
        if _retry:
            return solve_lp(p, None, deadline, _retry=False)
        raise ConsistencyError("basis drifted out of feasibility")
    x_hat = s.primal_values()
    y = s.duals()
    s.verify_optimal(x_hat, y, s.reduced_costs(y))
    x = p.lower + x_hat[:n]
    objective = float(p.objective @ x)
    return LpSolution(outcome, objective, x, y, s.export_basis(), s.iterations)
