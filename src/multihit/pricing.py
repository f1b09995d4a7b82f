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
or descends into the children whose bound still beats the incumbent.

A node scores its live children's children a block of siblings at a time
(the way vertical itemset miners intersect a node's children together):
one gather and one ``np.bincount``, keyed by (child, row), give every
child in the block its children's covered price sums, each added in the
same order as a one-child scoring, so bit for bit the same.  The block is
then walked in order with the cut of the moment: a child the cut has
passed is skipped, a child none of whose children beats the cut only has
them counted, and the others are expanded with their scores.  So the
search, its incumbent and ``PricingResult.nodes``, the children that the
depth-first search scores, are the same as scoring one node at a time.
"""

import math
import time

import numpy as np

RC_EPS = 1e-6
# A block of siblings holds at most this many scores (a run of n_rows per
# child) and gathers at most this many (sample, row) entries, unless it is
# one child.  Blocks start at one child and double.
BLOCK_CELLS = 1 << 16


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


def _gather(ptr, values, ids):
    """The segments ``values[ptr[i]:ptr[i + 1]]`` of the ``ids``, joined,
    and their sizes."""
    lo = ptr[ids]
    size = ptr[ids + 1] - lo
    end = size.cumsum()
    at = np.arange(end[-1] if end.size else 0) + (lo - end + size).repeat(size)
    return values[at], size


def _scores(rows, support, weights, pos, stop):
    """Per row ``pos..stop-1``: the sum of ``weights`` over its ``support`` samples.

    Gathers the sample-major segments of the support and adds them up in
    one ``np.bincount``, so the work grows with the support, not the matrix.
    """
    hit, size = _gather(rows.sample_ptr, rows.sample_rows, support)
    return np.bincount(hit, weights[support].repeat(size), stop)[pos:stop]


def _block_scores(rows, block, held, weights):
    """The :func:`_scores` of the children of each row of ``block``, in one pass.

    The result is one run of ``n_rows`` sums per row of ``block``, then a
    spare 0 that gives the last run an end index.  Run ``j`` sums ``weights`` per row over the support of
    ``block[j]``, its samples for which ``held`` is set; only its rows
    after ``block[j]`` are children.  Each sum adds the same weights in the
    same order as :func:`_scores` does, so it is bit-identical.
    """
    samples, size = _gather(rows.row_ptr, rows.row_samples, block)
    child = np.arange(len(block)).repeat(size)
    keep = held[samples]
    samples, child = samples[keep], child[keep]
    hit, size = _gather(rows.sample_ptr, rows.sample_rows, samples)
    n_rows = len(rows.row_ptr) - 1
    hit += (child * n_rows).repeat(size)
    weights = weights[samples].repeat(size)
    return np.bincount(hit, weights, len(block) * n_rows + 1)


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

    Each expanded node scores its children, keeps their best, then
    descends; only a strictly larger reduced cost replaces the incumbent,
    so among equal reduced costs the earlier record wins and a node's
    children win over their descendants.  A node's live children are
    scored a block at a time (see the module docstring); ``nodes`` still
    counts the children that the depth-first search scores, so it does not
    depend on the blocks.  The clock is read before each block and each
    expansion; at the first reading past ``deadline``
    (``time.perf_counter`` scale, ``math.inf`` for no limit) the search
    stops, and the result carries the best found so far and
    ``proven_optimal=False``.
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
    # The most rows in which one tumor is mutated.
    most_rows = int(np.diff(rows_t.sample_ptr).max(initial=0))

    def expand(pos, depth, s_t, s_n, path, p2=None):
        # Children are rows pos..stop-1; later rows leave too few genes to
        # reach k_min.  Duals are nonnegative, so a child's reduced cost and
        # that of every descendant is at most its covered tumor price minus
        # lam; a node is expanded only while that bound beats the cut.
        # ``s_t``/``s_n`` are the samples with a nonzero price it covers;
        # ``p2``, when given, is the children's covered tumor price sums,
        # scored by the parent's block.
        nonlocal cut, best_genes, nodes, aborted
        stop = min(n_rows, n_rows - hit.k_min + depth + 1)
        if pos >= stop:
            return
        if time.perf_counter() > deadline:
            aborted = True
            return
        nodes += stop - pos
        if p2 is None:
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
        # Descend into the live children that have children of their own,
        # a block at a time.  Each child is walked in order, with the cut
        # of the moment, as the one-node-at-a-time search would reach it.
        sub_stop = min(n_rows, stop + 1)  # a child's ``stop``
        live = live[pos + live + 1 < sub_stop]
        rows, bounds = pos + live, p2[live] - lam
        held_t, held_n = _held(s_t, len(pi)), _held(s_n, len(mu))
        grow, seen = 1, None
        while rows.size:
            if cut != seen:  # drop the children the cut has passed
                keep = bounds > cut
                rows, bounds, seen = rows[keep], bounds[keep], cut
                if not rows.size:
                    return
            if time.perf_counter() > deadline:
                aborted = True
                return
            # The next children, as many as fit: each scores a run of n_rows
            # and gathers at most one entry per row of each of its tumors.
            # Rows come in descending tumor frequency, so the first child
            # has the most tumors.
            first = int(rows[0])
            tumors = int(rows_t.row_ptr[first + 1] - rows_t.row_ptr[first])
            size = min(grow, max(1, BLOCK_CELLS // max(n_rows, tumors * most_rows)))
            grow *= 2
            block, block_bounds = rows[:size], bounds[:size].tolist()
            rows, bounds = rows[size:], bounds[size:]
            scores = _block_scores(rows_t, block, held_t, pi)
            # Child j's children are rows r + 1 .. sub_stop - 1 of its run,
            # scores[lo[j]:hi[j]]; the best of their bounds decides whether
            # it is expanded.
            run = np.arange(len(block)) * n_rows
            lo, hi = run + block + 1, run + sub_stop
            tops = np.maximum.reduceat(scores, np.column_stack((lo, hi)).ravel())
            tops = (tops[::2] - lam).tolist()
            lo, hi = lo.tolist(), hi.tolist()
            for j, r in enumerate(block.tolist()):
                if block_bounds[j] <= cut:
                    continue
                if tops[j] <= cut:
                    # No grandchild beats the cut, so expanding the child
                    # would only count its children.
                    nodes += sub_stop - r - 1
                    continue
                c_t, c_n = _within(rows_t, r, held_t), _within(rows_n, r, held_n)
                p3 = scores[lo[j] : hi[j]]
                expand(r + 1, depth + 1, c_t, c_n, path + (order[r],), p3)
                if aborted:
                    return

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
