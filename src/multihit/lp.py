"""Self-contained LP kernel: bounded-variable revised simplex with duals.

Solves ``max c.x  s.t.  A x <= b,  l <= x <= u`` where ``A`` is sparse,
lower bounds are finite and upper bounds may be infinite.  ``A`` is given
and held as plain numpy CSC arrays; ``A x`` and ``A^T y`` are one
``np.bincount`` over its stored entries each, so no solve imports
``scipy.sparse``.  A *unit column* has one entry, equal to 1.0: slacks,
cover flags, and a selection that covers no tumor.  A cold solve starts
from a crash basis: the slack basis (all slacks basic, every structural
variable at its lower bound), except that each row holding a unit column
with positive cost gives that row to the lowest such column, basic at
``b`` or nonbasic at its upper bound when ``b`` exceeds it.  In a master
LP every cover flag starts basic.  A warm solve starts from an exported
basis, extended by the columns appended since.  The slack basis must be
feasible: ``b - A l >= 0``, and then so is the crash basis.
:class:`LinearProgram` refuses any other LP; there is no phase one.  The
master LPs of this package all satisfy this.  The basis is factored by its
unit columns, at most one per row, plus the inverse of the k x k core that
the other k basic columns leave on the remaining rows.  Every pivot that
changes the basis refactors, at O(nnz + m + k^3); every
``REFACTOR_EVERY``-th also recomputes the basic values, which the other
pivots update.  Pricing and the ratio test add O(nnz + m) per pivot.

A selection that enters a master LP takes the cover flags of every tumor
it covers to their upper bound 1 in the same step.  One of them leaves the
basis; each other row tied with the leaving one in the ratio test, whose
basic variable is a structural unit column now at its finite upper bound,
is handed to that row's slack (a *release*).  The column and the slack are
the same ``e_r``, so the basis matrix and its factors stay as they are:
the slack turns basic at the column's value minus its bound (about 0) and
the column nonbasic at that bound; in a master LP the row's tumor is then
priced at 0 instead of 1.  Left basic, each such flag would leave
in a degenerate pivot of its own: the benchmark's paper-scale root LP took
386 pivots, 369 of them degenerate swaps of a slack in for a cover flag,
and takes 34 with releases, to the same point.

The solver prices with Dantzig's rule.  Within a run of degenerate pivots
it keeps an order-independent 64-bit hash of each basic set, updated in
O(1) per pivot; when one repeats, it switches to Bland's rule until the
next nondegenerate step.  A cycle must revisit a basic set, so the solver
cannot cycle; a hash collision only switches early.  Releases cannot make
it cycle: only a pivot chosen by Dantzig's rule whose step is above
``PIVOT_TOL`` releases, so each release follows a strict rise of the
objective and moves no point: no basis from before that rise can return,
and the run of hashes seen restarts from the relabelled basis.  Every
optimal result is verified against strong duality and complementary
slackness before being returned.

Row duals are reported with the usual sign convention for a maximization
with ``<=`` rows: nonnegative at optimality (up to tolerance).
"""

import math
import time

import numpy as np

from .errors import ConsistencyError, ValidationError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
CHECK_TOL = 1e-6
REFACTOR_EVERY = 64
# A solve stops with iteration_limit after BASE + PER_DIM * (vars + rows) pivots.
ITERATION_BASE = 2000
ITERATION_PER_DIM = 50

AT_LOWER, AT_UPPER, IN_BASIS = 0, 1, 2
# Direction in which a nonbasic variable with each status may move.
_SIGN = np.array([1.0, -1.0, 0.0])

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_TIME_LIMIT = "time_limit"

_MASK64 = (1 << 64) - 1


def _key(j):
    """A 64-bit key for variable ``j``: splitmix64 of its index.

    ``j`` is an int, or a 1-d uint64 array for one key per entry: uint64
    arithmetic wraps modulo 2**64 where int arithmetic is masked.
    """
    z = (j + 1) * 0x9E3779B97F4A7C15 & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


class LinearProgram:
    """Data for one LP.  All rows are ``<=`` rows; the sense is maximize.

    ``a_matrix`` is the CSC triple ``(data, indices, indptr)`` with one
    column per variable and row indices below the number of ``rhs``
    entries, strictly increasing within each column; stored zeros are
    kept.  It is held as the arrays ``indptr``, ``indices`` and ``data``.
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
    """The arrays ``(indptr, indices, data)`` of the CSC triple ``a``, which
    must have ``shape``, plus the column of each entry."""
    m, n = shape
    if not isinstance(a, tuple) or len(a) != 3:
        raise ValidationError("the constraint matrix must be (data, indices, indptr)")
    data, indices, indptr = a
    if len(indptr) - 1 != n:
        raise ValidationError(
            f"constraint matrix shape {(m, len(indptr) - 1)} does not match "
            f"{m} rows x {n} variables"
        )
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    if len(data) != len(indices) or len(indices) != indptr[-1]:
        raise ValidationError("constraint matrix arrays do not match in length")
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise ValidationError("constraint matrix index out of range")
    if np.any(indices < 0) or np.any(indices >= m):
        raise ValidationError("constraint matrix index out of range")
    col = np.repeat(np.arange(n), np.diff(indptr))
    if np.any(np.diff(col * m + indices) <= 0):
        raise ValidationError("row indices must increase within each column")
    return indptr, indices, np.asarray(data, dtype=float), col


class Basis:
    """An optimal basis as the simplex holds it, exported for a warm start.

    ``basic`` lists each row's basic variable: structural j is ``j`` and
    row i's slack is ``n + i``.  ``status`` holds every variable's status,
    structurals then slacks.  ``n`` is the number of structurals at export;
    a later LP that appends columns shifts the slacks past them.
    """

    def __init__(self, basic, status, n):
        self.basic = basic
        self.status = status
        self.n = n


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
        # Row of each unit column; -1 marks any other column.
        one = np.nonzero(np.diff(p.indptr) == 1)[0]
        one = one[p.data[p.indptr[one]] == 1.0]
        self.unit_row = np.concatenate([np.full(self.n, -1), np.arange(self.m)])
        self.unit_row[one] = p.indices[p.indptr[one]]
        self.max_iterations = ITERATION_BASE + ITERATION_PER_DIM * self.nf
        self.deadline = deadline
        self.iterations = 0
        self.basic = None
        self.status = None
        self.sign = None  # _SIGN[status]; a fixed variable may enter, degenerately
        self.beta = None
        self.bland = False
        # XOR of the keys swapped in and out since the start basis: the
        # basic set's hash up to a constant.  ``seen`` holds the hashes
        # since the last nondegenerate step.
        self.basis_hash = 0
        self.seen = {0}
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
        x[self.pos_u] = rest[self.rows_u]
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
        y[self.rows_u] = c[self.pos_u]
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
        """Leaving row (-1 for a bound flip), step length, and the rows
        tied for the step, the leaving row among them (none for a flip).

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
            return -1, t_flip, None
        ties = np.nonzero(t <= t_min + PIVOT_TOL)[0]
        if self.bland:
            leave = ties[np.argmin(self.basic[ties])]
        else:
            leave = ties[np.argmax(np.abs(delta[ties]))]
        return int(leave), t[leave], ties

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
        leave, t_best, ties = self.ratio_test(delta, self.ub_hat[j])
        if not np.isfinite(t_best):
            return STATUS_UNBOUNDED
        self.iterations += 1
        if leave >= 0:
            self.basis_hash ^= _key(int(self.basic[leave])) ^ _key(int(j))
        degenerate = t_best <= PIVOT_TOL
        # Read before note_basis, which ends Bland's rule on this step.
        release = not (degenerate or self.bland)
        self.note_basis(degenerate)
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
        if release:
            self.release_at_upper(ties[(ties != leave) & (delta[ties] < 0.0)])
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self.refactor()
        else:
            self.factor()
        return None

    def release_at_upper(self, rows):
        """Release each of basis positions ``rows`` that holds a structural
        unit column, at its upper bound after this step, to its row's slack
        (see the module docstring).  The slack is nonbasic, as no two basic
        unit columns share a row, and ``B`` keeps its columns, so the
        factors stay as they are."""
        cols = self.basic[rows]
        unit = (cols < self.n) & (self.unit_row[cols] >= 0)
        rows, cols = rows[unit], cols[unit]
        if not rows.size:
            return
        slacks = self.n + self.unit_row[cols]
        self.beta[rows] -= self.ub_hat[cols]
        self.basic[rows] = slacks
        self.status[cols], self.sign[cols] = AT_UPPER, _SIGN[AT_UPPER]
        self.status[slacks], self.sign[slacks] = IN_BASIS, _SIGN[IN_BASIS]
        keys = _key(np.concatenate([cols, slacks]).astype(np.uint64))
        self.basis_hash ^= int(np.bitwise_xor.reduce(keys))
        self.seen = {self.basis_hash}

    def note_basis(self, degenerate):
        """Bland's rule from the first basic set that repeats within a run
        of degenerate pivots until the next nondegenerate one."""
        if not degenerate:
            self.bland = False
            self.seen = {self.basis_hash}
        elif self.basis_hash in self.seen:
            self.bland = True
        else:
            self.seen.add(self.basis_hash)

    def run(self):
        """Pivot until optimal, unbounded or out of iterations or time."""
        while True:
            if self.iterations >= self.max_iterations:
                return STATUS_ITERATION_LIMIT
            if time.perf_counter() > self.deadline:
                return STATUS_TIME_LIMIT
            outcome = self.step()
            if outcome is not None:
                return outcome

    # -- setup ------------------------------------------------------------

    def set_status(self, j, status):
        self.status[j] = status
        self.sign[j] = _SIGN[status]

    def set_basis(self, basic, status):
        self.basic = basic
        self.status = status
        self.sign = _SIGN[status]
        self.refactor()

    def cold_start(self):
        """The crash basis: the slack basis, except that each row holding a
        unit column with positive cost gives it to the lowest such column,
        basic at ``b``, or nonbasic at its upper bound (the slack staying
        basic) when ``b`` exceeds it.  The row's other columns sit at their
        lower bounds and ``b >= 0``, so this start is feasible."""
        n = self.n
        basic = np.arange(n, self.nf)
        status = np.full(self.nf, AT_LOWER, dtype=np.int8)
        status[basic] = IN_BASIS
        rows = self.unit_row[:n]
        j = np.nonzero((rows >= 0) & (self.c_hat[:n] > 0.0))[0]
        j = j[np.unique(rows[j], return_index=True)[1]]  # lowest per row
        i = rows[j]
        fits = self.b_hat[i] <= self.ub_hat[j]
        basic[i[fits]] = j[fits]
        status[j[fits]] = IN_BASIS
        status[n + i[fits]] = AT_LOWER
        status[j[~fits]] = AT_UPPER
        self.set_basis(basic, status)

    def try_warm_start(self, warm):
        """Start from ``warm`` plus this LP's appended columns, at their lower
        bounds.  False, leaving the start to the caller, for no basis, another
        LP's basis, a singular one, or an infeasible start."""
        if warm is None or len(warm.basic) != self.m or warm.n > self.n:
            return False
        extra = self.n - warm.n
        basic = np.where(warm.basic < warm.n, warm.basic, warm.basic + extra)
        status = np.insert(warm.status, warm.n, np.full(extra, AT_LOWER, np.int8))
        try:
            self.set_basis(basic, status)
        except ConsistencyError:
            return False
        return self.feasible(CHECK_TOL)

    # -- extraction -------------------------------------------------------

    def primal_values(self):
        x_hat = np.where(self.status == AT_UPPER, self.ub_hat, 0.0)
        x_hat[self.basic] = self.beta
        return x_hat

    def export_basis(self):
        return Basis(self.basic.copy(), self.status.copy(), self.n)

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


def solve_lp(p, warm_start=None, deadline=math.inf, _retry=True):
    """Solve ``p``, optionally warm starting from a previous :class:`Basis`.

    A warm start is the exported basis with the columns ``p`` appended since
    at their lower bounds.  Another LP's basis, a singular one or an
    infeasible start falls back to the crash basis, so warm starting can
    change work done but never the answer.
    The clock is read before every pivot; at the first reading past
    ``deadline`` (``time.perf_counter`` scale, ``math.inf`` for no limit)
    the solve stops with status ``time_limit``.  Only an optimal
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
