"""Restricted master problem over a pool of candidate combinations.

The LP maximizes covered tumors minus multiplicity-counted normal coverings.
A combination's normal coverings are linear in its selection variable, so
they are its objective cost: ``-normal_cover.bit_count()``.  One row per
tumor links its cover flag to the selection variables, and a final budget
row caps how many combinations may be picked.  ``solve_binary`` runs a
branch-and-bound over the selection variables only; cover flags are forced
integral automatically once the selection is binary.
"""

import math
import time

import numpy as np
import scipy.sparse as sp

from . import metrics
from .bitset import nonzero
from .errors import ConsistencyError, DuplicateColumnError, ValidationError
from .lp import (
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    LinearProgram,
    solve_lp,
)

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
        # Unit columns for the cover flags, then per selection variable -1 on
        # each tumor it covers and +1 on the budget row.
        z, t = nonzero([c.tumor_cover for c in self.columns], nt)
        rows = np.concatenate([np.arange(nt), t, np.full(n_z, nt)])
        cols = np.concatenate([np.arange(nt), nt + z, nt + np.arange(n_z)])
        vals = np.concatenate([np.ones(nt), -np.ones(len(t)), np.ones(n_z)])
        a = sp.csc_matrix((vals, (rows, cols)), shape=(nt + 1, nt + n_z))
        cost = [-c.normal_cover.bit_count() for c in self.columns]
        objective = np.concatenate([np.ones(nt), cost])
        rhs = np.concatenate([np.zeros(nt), [float(self.beta)]])
        lower = np.zeros(nt + n_z)
        upper = np.concatenate([np.ones(nt), np.full(n_z, np.inf)])
        self._cached_lp = LinearProgram(objective, a, rhs, lower, upper)
        return self._cached_lp

    def node_lp(self, fixed):
        """Relaxation with some selection variables pinned to 0 or 1.

        At most ``beta`` columns may be pinned to 1, so the slack basis
        stays feasible and the LP can start cold.
        """
        base = self.build_lp()
        lower = base.lower.copy()
        upper = base.upper.copy()
        nt = self.matrix.tumor_count
        for k, v in fixed.items():
            lower[nt + k] = upper[nt + k] = float(v)
        return LinearProgram(base.objective, base.a_matrix, base.rhs, lower, upper)


def solve_relaxation(model, warm_start=None, deadline=None):
    """LP-relax the master and hand back selection values plus clamped duals.

    Returns ``None`` when ``deadline`` (``time.perf_counter`` scale) passes
    before the LP is solved.
    """
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


def solve_binary(model, time_limit=30.0):
    """Best integral selection over the pool by branch-and-bound.

    Node selection is best-bound-first after an initial depth-first dive
    finds the first incumbent; branching picks the most fractional selection
    variable, ties to the lowest column index.  Node LPs start cold, from
    the slack basis with the cover flag of every tumor no pool column
    covers already basic: the parent's basis holds the branched variable
    at a fractional value, so it is infeasible for both children.
    Incumbents are accepted only after exact integer re-evaluation of
    their objective.  The search ends when no node is open (status
    ``optimal``, bound = objective) or when the wall-clock limit passes,
    between nodes or inside a node's LP (status ``time_limit``): then the
    best incumbent so far is returned, the empty selection if there is
    none, with the best bound still open.
    """
    deadline = time.perf_counter() + time_limit
    incumbent = incumbent_obj = None
    nodes_solved = lp_iterations = 0
    # Open nodes as (columns pinned to 0 or 1, parent's bound), oldest first;
    # every one has a bound above the incumbent's objective.
    open_nodes = [({}, math.inf)]
    while open_nodes and time.perf_counter() <= deadline:
        if incumbent is None:
            node = open_nodes.pop()  # the dive takes the include-child first
        else:  # the best bound, the oldest of equal ones
            node = open_nodes.pop(
                max(range(len(open_nodes)), key=lambda i: open_nodes[i][1])
            )
        fixed = node[0]
        sol = solve_lp(model.node_lp(fixed), deadline=deadline)
        lp_iterations += sol.iterations
        if sol.status == STATUS_TIME_LIMIT:
            open_nodes.append(node)  # unsolved, so its bound stays open
            break
        nodes_solved += 1
        if sol.status != STATUS_OPTIMAL:
            raise ConsistencyError(f"node relaxation status {sol.status}")
        bound = sol.objective
        if incumbent is not None and math.floor(bound + INT_TOL) <= incumbent_obj:
            continue
        z = sol.x[model.matrix.tumor_count :]
        up = z - np.floor(z)
        fract = np.minimum(up, 1.0 - up)
        if fract.max(initial=0.0) > INT_TOL:
            branch = int(np.argmax(fract))  # the first of the most fractional
            open_nodes += [({**fixed, branch: v}, bound) for v in (0, 1)]
            continue
        selection = np.flatnonzero(z > 0.5).tolist()
        chosen = [model.columns[k] for k in selection]
        exact = metrics.objective_value(chosen, model.matrix)
        if abs(exact - bound) > 1e-4 * (1.0 + abs(bound)):
            raise ConsistencyError(
                f"integral node value {bound} does not match exact objective {exact}"
            )
        if incumbent is None or exact > incumbent_obj:
            incumbent, incumbent_obj = selection, exact
            open_nodes = [
                n for n in open_nodes if math.floor(n[1] + INT_TOL) > incumbent_obj
            ]

    bounds = [b for _, b in open_nodes]
    if incumbent is None:
        # The all-zero selection is always feasible, so a closed tree
        # without an incumbent means it was mispruned.
        if not open_nodes:
            raise ConsistencyError("branch-and-bound finished without an incumbent")
        incumbent, incumbent_obj = [], 0
    else:
        bounds.append(float(incumbent_obj))
    return BinarySolveResult(
        incumbent,
        incumbent_obj,
        max(bounds),
        "time_limit" if open_nodes else "optimal",
        nodes_solved,
        lp_iterations,
    )
