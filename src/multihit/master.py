"""Restricted master problem over a pool of candidate combinations.

The LP maximizes covered tumors minus multiplicity-counted normal coverings.
A combination's normal coverings are linear in its selection variable, so
they are its objective cost: ``-normal_cover.bit_count()``.  One row per
tumor links its cover flag to the selection variables, and a final budget
row caps how many combinations may be picked.  ``solve_binary`` returns
the relaxation's selection when it is integral and otherwise hands the
same LP, with binary selection variables, to HiGHS; cover flags are
integral at an optimum once the selection is binary.
"""

import math
import time

import numpy as np

from . import metrics
from .bitset import byte_rows, nonzero
from .errors import ConsistencyError, DuplicateColumnError, ValidationError
from .lp import STATUS_OPTIMAL, STATUS_TIME_LIMIT, LinearProgram, solve_lp

INT_TOL = 1e-6


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
    """Matrix + duplicate-free column pool + budget, with a cached LP."""

    def __init__(self, matrix, columns, beta):
        if isinstance(beta, bool) or not isinstance(beta, int) or beta < 0:
            raise ValidationError(f"budget must be a nonnegative int, got {beta!r}")
        self.matrix = matrix
        self.beta = beta
        self.columns = []
        self._keys = set()
        self._cached_lp = None
        for c in columns:
            self.add_column(c)

    def add_column(self, comb):
        """Append a combination; a repeat of an in-pool column is rejected."""
        if comb.genes in self._keys:
            raise DuplicateColumnError(f"column {comb.genes} already in pool")
        self.matrix.check(comb)
        self.columns.append(comb)
        self._keys.add(comb.genes)
        self._cached_lp = None
        return len(self.columns) - 1

    def build_lp(self):
        """The relaxation LP; cached until the pool changes."""
        if self._cached_lp is not None:
            return self._cached_lp
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
        self._cached_lp = LinearProgram(
            objective, (data, indices, indptr), rhs, lower, upper
        )
        return self._cached_lp


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


def solve_binary(model, deadline=math.inf, warm_start=None):
    """Best integral selection over the pool.

    The own simplex solves the pool's relaxation first, warm started from
    the :class:`~multihit.lp.Basis` ``warm_start`` when one is given.  When
    its selection values are integral to ``INT_TOL``, that selection is
    optimal (one node).  Otherwise HiGHS (``scipy.optimize.milp``, imported
    only then) solves the same LP with binary selection variables in the
    time left before ``deadline`` (``time.perf_counter`` scale, ``math.inf``
    for no limit); the cover flags stay continuous, as a binary selection
    makes them integral at an optimum.  ``nodes`` is 1 plus HiGHS's nodes,
    and ``lp_iterations`` counts the own simplex's pivots only.  Selections
    are accepted only after exact integer re-evaluation.  When the deadline
    passes, the status is ``time_limit``: the selection is HiGHS's
    incumbent, or empty when there is none, and the bound is the smaller of
    the root LP's and HiGHS's dual bound (infinite when the root LP itself
    was cut off, or not built because the deadline had passed).
    """
    root = solve_relaxation(model, warm_start=warm_start, deadline=deadline)
    if root is None:
        return _checked(model, None, 0.0, math.inf, "time_limit", 0, 0)
    z = root.z
    if np.all(np.abs(z - np.round(z)) <= INT_TOL):
        return _checked(
            model, z, root.objective, root.objective, "optimal", 1, root.iterations
        )
    if time.perf_counter() > deadline:
        return _checked(
            model, None, 0.0, root.objective, "time_limit", 1, root.iterations
        )
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp, nt = model.build_lp(), model.matrix.tumor_count
    res = milp(
        -lp.objective,
        integrality=np.concatenate([np.zeros(nt), np.ones(len(z))]),
        bounds=Bounds(0.0, 1.0),
        constraints=LinearConstraint(lp.a_matrix, -np.inf, lp.rhs),
        options={
            "mip_rel_gap": 0.0,
            "time_limit": max(0.0, deadline - time.perf_counter()),
        },
    )
    if res.status not in (0, 1):  # 1: the time limit passed
        raise ConsistencyError(f"HiGHS ended with status {res.status}: {res.message}")
    if res.x is None:  # stopped before HiGHS found a selection
        z, value = None, 0.0
    else:
        z, value = res.x[nt:], -res.fun
    bound = root.objective
    if res.mip_dual_bound is not None and math.isfinite(res.mip_dual_bound):
        bound = min(bound, -res.mip_dual_bound)
    status = "optimal" if res.status == 0 else "time_limit"
    nodes = 1 + (res.mip_node_count or 0)
    return _checked(model, z, value, bound, status, nodes, root.iterations)


def _checked(model, z, value, bound, status, nodes, lp_iterations):
    """The result for the columns with ``z`` above 1/2 (none for ``None``).

    Their exact objective must lie between the solver's ``value`` for the
    point and ``bound``, to a relative 1e-4; an optimal result's bound is
    that exact objective.
    """
    selection = [] if z is None else np.flatnonzero(z > 0.5).tolist()
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
