"""Pricing: search for the combination with maximum reduced cost.

The reduced cost of a combination is the dual-weighted tumor coverage minus
the dual-weighted normal coverage minus the budget price.  Because coverage
only shrinks as genes are added, ``covered-tumor price sum - budget price``
is an admissible bound for every descendant of a partial combination, which
drives an exact depth-first branch-and-bound over genes in tumor-frequency
order.  The search always returns the exact maximum, even when it is not
positive, so convergence certificates are meaningful.

Each expanded node takes one step: it scores all of its children at once,
keeps the best of them, then descends.  A node carries its *support*: the
samples with a nonzero price that its genes cover (at the root, every
priced sample).  Gathering the sample-major segments of the support from
:attr:`MutationMatrix.gene_major` and summing their prices with one
``np.bincount`` gives every child's covered price sum, at a cost that
grows with the support rather than the matrix.  A child's support is its
parent's intersected with the samples of the child's gene.  When the
children are combinations (at least ``k_min`` genes), the batch's best
replaces the incumbent when it beats it; the node then stops at ``k_max``
or expands the children whose bound still beats the incumbent.
``PricingResult.nodes`` counts the children scored.
"""

import math
import time

import numpy as np

RC_EPS = 1e-6


class PricingProblem:
    """One pricing instance over all genes: matrix, row prices, size range."""

    allowed_genes = None  # read by the benchmark tracer on every call

    def __init__(self, matrix, duals, hit_range):
        self.matrix = matrix
        self.duals = duals
        self.hit_range = hit_range


class PricingResult:
    """Outcome of one pricing solve.

    ``reduced_cost`` is the exact maximum over the admissible set (``-inf``
    when that set is empty); ``best`` is its maximizer when the maximum
    exceeds ``RC_EPS``, else ``None``.  ``proven_optimal`` is claimed only
    by a search that ran the full admissible set to completion.  ``nodes``
    is the number of children scored.
    """

    def __init__(self, best, reduced_cost, proven_optimal, nodes):
        self.best = best
        self.reduced_cost = reduced_cost
        self.proven_optimal = proven_optimal
        self.nodes = nodes


def _scores(rows, support, weights, pos, stop):
    """Per row ``pos..stop-1``: the sum of ``weights`` over its ``support`` samples.

    Gathers the sample-major segments of the support and adds them up in
    one ``np.bincount``, so the work grows with the support, not the matrix.
    """
    lo = rows.sample_ptr[support]
    size = rows.sample_ptr[support + 1] - lo
    end = size.cumsum()
    at = np.arange(end[-1] if end.size else 0) + (lo - end + size).repeat(size)
    weights = weights[support].repeat(size)
    return np.bincount(rows.sample_rows[at], weights, stop)[pos:stop]


def _within(rows, r, held):
    """The samples of row ``r`` for which the boolean ``held`` is set, in order."""
    samples = rows.row_samples[rows.row_ptr[r] : rows.row_ptr[r + 1]]
    return samples[held[samples]]


def _held(support, size):
    """A boolean mask of ``size`` entries, set on the ``support`` samples."""
    held = np.zeros(size, dtype=bool)
    held[support] = True
    return held


def solve_pricing(problem, deadline=math.inf):
    """Exact best-reduced-cost search over all genes.

    The clock is read once per expanded node; at the first reading past
    ``deadline`` (``time.perf_counter`` scale, ``math.inf`` for no limit)
    the search stops, and the result carries the best found so far and
    ``proven_optimal=False``.  Each expanded node scores its children,
    keeps their best, then descends; only a strictly larger reduced cost
    replaces the incumbent, so among equal reduced costs the earlier record
    wins and a node's children win over their descendants.  ``nodes``
    counts the children scored.
    """
    m = problem.matrix
    hit = problem.hit_range
    order, rows_t, rows_n = m.gene_major
    duals = problem.duals
    pi, mu, lam = duals.pi, duals.mu, duals.lam
    n_rows = len(order)
    cut, best_genes = -math.inf, None  # the incumbent's reduced cost and genes
    nodes = 0
    aborted = False

    def expand(pos, depth, s_t, s_n, path):
        # Children are rows pos..stop-1; later rows leave too few genes to
        # reach k_min.  Duals are nonnegative, so a child's reduced cost and
        # that of every descendant is at most its covered tumor price minus
        # lam; the caller expands a node only while that bound beats the cut.
        # ``s_t``/``s_n`` are the samples with a nonzero price it covers.
        nonlocal cut, best_genes, nodes, aborted
        stop = min(n_rows, n_rows - hit.k_min + depth + 1)
        if pos >= stop:
            return
        if time.perf_counter() > deadline:
            aborted = True
            return
        nodes += stop - pos
        p2 = _scores(rows_t, s_t, pi, pos, stop)
        # Only the children whose bound beats the cut can replace the
        # incumbent or be expanded; a reduced cost is at most its bound.
        live = np.flatnonzero(p2 - lam > cut)
        if depth + 1 >= hit.k_min and live.size:
            rc = p2[live] - _scores(rows_n, s_n, mu, pos, stop)[live] - lam
            i = int(np.argmax(rc))  # the first of equal maxima
            if rc[i] > cut:
                cut, best_genes = float(rc[i]), path + (order[pos + live[i]],)
        if depth + 1 == hit.k_max or not live.size:
            return
        held_t, held_n = _held(s_t, len(pi)), _held(s_n, len(mu))
        for i in live.tolist():
            r = pos + i
            if not aborted and p2[i] - lam > cut:
                c_t, c_n = _within(rows_t, r, held_t), _within(rows_n, r, held_n)
                expand(r + 1, depth + 1, c_t, c_n, path + (order[r],))

    expand(0, 0, np.flatnonzero(pi), np.flatnonzero(mu), ())

    best = m.combination(best_genes) if cut > RC_EPS else None
    return PricingResult(best, cut, not aborted, nodes)


def solve_pricing_with_speedup(problem, deadline=math.inf):
    """Column generation's pricing call: the exact search, nothing more.

    A pass-through to :func:`solve_pricing`, kept under this name because the
    benchmark tracer (``perfbench/tracing.py``) patches
    ``framework.solve_pricing_with_speedup`` for its ``pricing.*`` spans and
    times ``pricing.solve_pricing`` inside it.
    """
    return solve_pricing(problem, deadline=deadline)
