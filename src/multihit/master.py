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
from .bitset import unpack
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
        m = self.matrix
        for g in comb.genes:
            if not 0 <= g < m.n_genes:
                raise ValidationError(f"column gene index {g} out of range")
        if comb.tumor_cover >> m.tumor_count or comb.normal_cover >> m.normal_count:
            raise ValidationError("column cover does not fit the matrix")
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
        z, t = np.nonzero(unpack([c.tumor_cover for c in self.columns], nt))
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
        stays feasible.
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


class _Node:
    __slots__ = ("node_id", "fixed", "bound")

    def __init__(self, node_id, fixed, bound):
        self.node_id = node_id
        self.fixed = fixed
        self.bound = bound


def _fractionality(value):
    f = value - math.floor(value)
    return min(f, 1.0 - f)


def solve_binary(model, time_limit=30.0):
    """Best integral selection over the pool by branch-and-bound.

    Node selection is best-bound-first after an initial depth-first dive
    finds the first incumbent; branching picks the most fractional selection
    variable, ties to the lowest column index.  Node LPs start cold: the
    parent's basis holds the branched variable at a fractional value, so it
    is infeasible for both children.  Incumbents are accepted only after
    exact integer re-evaluation of their objective.  When the wall-clock
    limit passes, between nodes or inside a node's LP, the best
    incumbent so far is returned (the empty selection if there is none) with
    the best bound still open.
    """
    deadline = time.perf_counter() + time_limit
    incumbent = None
    incumbent_obj = None
    nodes_solved = 0
    lp_iterations = 0
    next_id = 0
    open_nodes = [_Node(next_id, {}, math.inf)]
    next_id += 1

    while open_nodes and time.perf_counter() <= deadline:
        if incumbent_obj is None:
            node = open_nodes.pop()
        else:
            pick = max(
                range(len(open_nodes)),
                key=lambda i: (open_nodes[i].bound, -open_nodes[i].node_id),
            )
            node = open_nodes.pop(pick)
        if incumbent_obj is not None and math.floor(node.bound + INT_TOL) <= incumbent_obj:
            continue
        if sum(node.fixed.values()) > model.beta:
            continue
        sol = solve_lp(model.node_lp(node.fixed), deadline=deadline)
        lp_iterations += sol.iterations
        if sol.status == STATUS_TIME_LIMIT:
            open_nodes.append(node)  # unsolved, so its bound stays open
            break
        nodes_solved += 1
        if sol.status != STATUS_OPTIMAL:
            raise ConsistencyError(f"node relaxation status {sol.status}")
        bound = sol.objective
        if incumbent_obj is not None and math.floor(bound + INT_TOL) <= incumbent_obj:
            continue
        z = sol.x[model.matrix.tumor_count :]
        fract = [_fractionality(v) for v in z]
        if all(f <= INT_TOL for f in fract):
            selection = [k for k, v in enumerate(z) if v > 0.5]
            chosen = [model.columns[k] for k in selection]
            exact = metrics.objective_value(chosen, model.matrix)
            if abs(exact - bound) > 1e-4 * (1.0 + abs(bound)):
                raise ConsistencyError(
                    f"integral node value {bound} does not match exact "
                    f"objective {exact}"
                )
            if incumbent_obj is None or exact > incumbent_obj:
                incumbent = selection
                incumbent_obj = exact
                open_nodes = [
                    n
                    for n in open_nodes
                    if math.floor(n.bound + INT_TOL) > incumbent_obj
                ]
            continue
        branch = max(range(len(z)), key=lambda k: (fract[k], -k))
        for value in (0, 1):
            child_fixed = dict(node.fixed)
            child_fixed[branch] = value
            open_nodes.append(_Node(next_id, child_fixed, bound))
            next_id += 1
        # The stack pops the include-child first during the initial dive.

    if open_nodes:  # stopped by the time limit
        bound = max(n.bound for n in open_nodes)
        if incumbent_obj is None:
            incumbent, incumbent_obj = [], 0
        else:
            bound = max(bound, float(incumbent_obj))
        return BinarySolveResult(
            sorted(incumbent),
            incumbent_obj,
            bound,
            "time_limit",
            nodes_solved,
            lp_iterations,
        )
    if incumbent_obj is None:
        # Every node infeasible cannot happen: the all-zero selection is
        # always feasible, so reaching here means the tree was mispruned.
        raise ConsistencyError("branch-and-bound finished without an incumbent")
    return BinarySolveResult(
        sorted(incumbent),
        incumbent_obj,
        float(incumbent_obj),
        "optimal",
        nodes_solved,
        lp_iterations,
    )
