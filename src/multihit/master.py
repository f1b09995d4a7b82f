"""Restricted master problem over a pool of candidate combinations.

The LP maximizes covered tumors minus multiplicity-counted normal coverings.
A combination's normal coverings are linear in its selection variable, so
they are its objective cost: ``-normal_cover.bit_count()``.  One row per
tumor links its cover flag to the selection variables, and a final budget
row caps how many combinations may be picked.  ``solve_binary`` rounds the
relaxation and stops when the rounding meets the LP's integer floor;
otherwise it hands the same LP, with binary selection variables, to HiGHS.
Cover flags are integral at an optimum once the selection is binary.
"""

import math
import time

import numpy as np

from . import metrics
from .bitset import byte_rows, nonzero
from .errors import ConsistencyError, DuplicateColumnError, ValidationError
from .lp import CHECK_TOL, STATUS_OPTIMAL, STATUS_TIME_LIMIT, LinearProgram, solve_lp

ROUND_TOL = 1e-6


class DualPrices:
    """Prices for pricing: per-tumor ``pi``, per-normal ``mu``, budget ``lam``.

    ``solve_relaxation`` gives ``mu = 1``, the objective cost of a covering.
    """

    def __init__(self, pi, mu, lam):
        self.pi = np.asarray(pi, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.lam = float(lam)


class RmpSolution:
    def __init__(self, objective, z, duals, basis, iterations):
        self.objective = objective
        self.z = z
        self.duals = duals
        self.basis = basis
        self.iterations = iterations


class BinarySolveResult:
    def __init__(self, selection, objective, bound, status, nodes, lp_iterations):
        self.selection = selection
        self.objective = objective
        self.bound = bound
        self.status = status
        self.nodes = nodes
        self.lp_iterations = lp_iterations


class MasterModel:
    """Matrix + duplicate-free column pool + budget."""

    def __init__(self, matrix, columns, beta):
        if isinstance(beta, bool) or not isinstance(beta, int) or beta < 0:
            raise ValidationError(f"budget must be a nonnegative int, got {beta!r}")
        self.matrix = matrix
        self.beta = beta
        self.columns = []
        self._keys = set()
        for c in columns:
            self.add_column(c)

    def add_column(self, comb):
        """Append a combination; a repeat of an in-pool column is rejected."""
        if comb.genes in self._keys:
            raise DuplicateColumnError(f"column {comb.genes} already in pool")
        self.matrix.check(comb)
        self.columns.append(comb)
        self._keys.add(comb.genes)
        return len(self.columns) - 1

    def build_lp(self):
        """The relaxation LP of the current pool."""
        nt, n_z = self.matrix.tumor_count, len(self.columns)
        # CSC arrays: unit columns for the cover flags, then per selection
        # variable -1 on each tumor it covers and +1 on the budget row.
        # ``nonzero`` gives each column's tumors in order, column by column.
        z, t = nonzero(byte_rows([c.tumor_cover for c in self.columns], nt), nt)
        indptr = np.concatenate(
            [np.arange(nt + 1), nt + np.cumsum(np.bincount(z, minlength=n_z) + 1)]
        )
        indices = np.full(indptr[-1], nt)
        indices[:nt] = np.arange(nt)
        data = np.ones(indptr[-1])
        # Tumor entry k follows the nt flags, k tumor entries and the budget
        # entries of the z[k] columns before its own.
        at = nt + z + np.arange(len(t))
        indices[at], data[at] = t, -1.0
        cost = [-c.normal_cover.bit_count() for c in self.columns]
        objective = np.concatenate([np.ones(nt), cost])
        rhs = np.concatenate([np.zeros(nt), [float(self.beta)]])
        lower = np.zeros(nt + n_z)
        upper = np.concatenate([np.ones(nt), np.full(n_z, np.inf)])
        return LinearProgram(objective, (data, indices, indptr), rhs, lower, upper)


def solve_relaxation(model, warm_start=None, deadline=math.inf):
    """LP-relax the master and hand back selection values plus clamped duals.

    Returns ``None`` when ``deadline`` (``time.perf_counter`` scale,
    ``math.inf`` for none) has passed before the LP is built or solved.
    """
    if time.perf_counter() > deadline:
        return None
    sol = solve_lp(model.build_lp(), warm_start=warm_start, deadline=deadline)
    if sol.status == STATUS_TIME_LIMIT:
        return None
    if sol.status != STATUS_OPTIMAL:
        raise ConsistencyError(
            f"master relaxation ended with status {sol.status}; "
            "this LP is always feasible and bounded"
        )
    nt = model.matrix.tumor_count
    duals = DualPrices(
        pi=np.maximum(sol.duals[:nt], 0.0),
        mu=np.ones(model.matrix.normal_count),
        lam=max(float(sol.duals[nt]), 0.0),
    )
    return RmpSolution(
        objective=sol.objective,
        z=sol.x[nt:].copy(),
        duals=duals,
        basis=sol.basis,
        iterations=sol.iterations,
    )


def rounding_heuristic(relaxation, model):
    """Integer selection from a relaxation: keep the largest z values.

    Keeps ``ceil(sum z)`` columns (clamped to the budget and pool size),
    ties broken toward the lower column index, and recomputes the objective
    exactly on the rounded selection, so the returned value is always a
    valid lower bound.  Returns ``(indices, objective)``.
    """
    z = relaxation.z
    k = math.ceil(float(z.sum()) - ROUND_TOL)
    k = max(0, min(k, model.beta, len(z)))
    order = np.argsort(-z, kind="stable")
    indices = tuple(sorted(order[:k].tolist()))
    chosen = [model.columns[j] for j in indices]
    return indices, metrics.objective_value(chosen, model.matrix)


def solve_binary(model, deadline=math.inf, root=None):
    """Best integral selection over the pool.

    ``root`` is the :class:`RmpSolution` of the pool as it stands; without
    one, the own simplex solves the relaxation here.  The root is rounded
    (:func:`rounding_heuristic`).  The objective is an integer, so a
    rounding worth ``floor(root.objective + tol)``, with ``tol`` the
    simplex's own check tolerance, is optimal (one node).  Otherwise HiGHS
    (``scipy.optimize.milp``, imported only then) solves the same LP with
    binary selection variables in the time left before ``deadline``
    (``time.perf_counter`` scale, ``math.inf`` for no limit); the cover
    flags stay continuous, as a binary selection makes them integral at an
    optimum.  The result is the better of HiGHS's incumbent and the
    rounding, the rounding on a tie.  ``nodes`` is 1 plus HiGHS's nodes,
    and ``lp_iterations`` counts the pivots of a root solved here.
    Selections are accepted only after exact integer re-evaluation.  When
    the deadline passes, the status is ``time_limit`` and the bound the
    smaller of the root LP's and HiGHS's dual bound; when it passes before
    the root is solved, the selection is empty and the bound infinite.
    HiGHS's ``time_limit`` is not a hard stop, so a HiGHS solve can end
    somewhat past ``deadline``.
    """
    iterations = 0
    if root is None:
        root = solve_relaxation(model, deadline=deadline)
        if root is None:
            return _checked(model, [], 0.0, math.inf, "time_limit", 0, 0)
        iterations = root.iterations
    if len(root.z) != len(model.columns):
        raise ConsistencyError(
            f"root relaxation has {len(root.z)} selection values for a pool "
            f"of {len(model.columns)} columns"
        )
    selection, value = rounding_heuristic(root, model)
    tol = CHECK_TOL * (1.0 + abs(root.objective))
    closed = value >= math.floor(root.objective + tol)
    if closed or time.perf_counter() > deadline:
        status = "optimal" if closed else "time_limit"
        return _checked(model, selection, value, root.objective, status, 1, iterations)
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp, nt = model.build_lp(), model.matrix.tumor_count
    res = milp(
        -lp.objective,
        integrality=np.concatenate([np.zeros(nt), np.ones(len(root.z))]),
        bounds=Bounds(0.0, 1.0),
        constraints=LinearConstraint(lp.a_matrix, -np.inf, lp.rhs),
        options={
            "mip_rel_gap": 0.0,
            "time_limit": max(0.0, deadline - time.perf_counter()),
        },
    )
    if res.status not in (0, 1):  # 1: the time limit passed
        raise ConsistencyError(f"HiGHS ended with status {res.status}: {res.message}")
    # The objective is an integer, so HiGHS beats the rounding by at least 1.
    if res.x is not None and -res.fun > value + 0.5:
        selection, value = np.flatnonzero(res.x[nt:] > 0.5).tolist(), -res.fun
    bound = root.objective
    if res.mip_dual_bound is not None and math.isfinite(res.mip_dual_bound):
        bound = min(bound, -res.mip_dual_bound)
    status = "optimal" if res.status == 0 else "time_limit"
    nodes = 1 + (res.mip_node_count or 0)
    return _checked(model, selection, value, bound, status, nodes, iterations)


def _checked(model, selection, value, bound, status, nodes, lp_iterations):
    """The result for the columns ``selection``.

    Their exact objective must lie between the solver's ``value`` for them
    and ``bound``, to a relative 1e-4; an optimal result's bound is that
    exact objective.
    """
    selection = list(selection)
    exact = metrics.objective_value([model.columns[k] for k in selection], model.matrix)
    tol = 1e-4 * (1.0 + abs(value))
    if not value - tol <= exact <= bound + tol:
        raise ConsistencyError(
            f"selection's exact objective {exact} is not between its solver "
            f"value {value} and the bound {bound}"
        )
    if status == "optimal":
        bound = float(exact)
    return BinarySolveResult(selection, exact, bound, status, nodes, lp_iterations)
