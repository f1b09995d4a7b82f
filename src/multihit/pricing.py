"""Pricing: search for the combination with maximum reduced cost.

The reduced cost of a combination is the dual-weighted tumor coverage minus
the dual-weighted normal coverage minus the budget price.  Because coverage
only shrinks as genes are added, ``covered-tumor price sum - budget price``
is an admissible bound for every descendant of a partial combination, which
drives an exact depth-first branch-and-bound over genes in tumor-frequency
order.  The search always returns the exact maximum, even when it is not
positive, so convergence certificates are meaningful.
"""

import math
import time

from .bitset import weighted_sum
from .candidates import rank_genes_by_tumor_frequency
from .data import GeneCombination

RC_EPS = 1e-6
_CLOCK_CHECK_MASK = 0xFF


class PricingProblem:
    """One pricing instance: matrix, row prices, size range, gene restriction.

    ``allowed_genes`` of ``None`` means all genes; otherwise only the given
    gene indices may appear in a combination.  Column generation always
    prices all genes; the benchmark tracer reads this attribute on every
    :func:`solve_pricing` call.
    """

    def __init__(self, matrix, duals, hit_range, allowed_genes=None):
        self.matrix = matrix
        self.duals = duals
        self.hit_range = hit_range
        self.allowed_genes = (
            None if allowed_genes is None else frozenset(allowed_genes)
        )


class PricingResult:
    """Outcome of one pricing solve.

    ``reduced_cost`` is the exact maximum over the admissible set (``-inf``
    when that set is empty); ``best`` is its maximizer when the maximum
    exceeds ``RC_EPS``, else ``None``.  ``proven_optimal`` is claimed only
    by a search that ran the full admissible set to completion.
    ``candidates`` holds the top distinct positive columns found, best
    first, so it starts with ``best`` when there is one.
    """

    def __init__(self, best, reduced_cost, proven_optimal, nodes, candidates):
        self.best = best
        self.reduced_cost = reduced_cost
        self.proven_optimal = proven_optimal
        self.nodes = nodes
        self.candidates = candidates


def solve_pricing(problem, deadline=None, top_q=1):
    """Exact best-reduced-cost search over the allowed genes.

    ``deadline`` (``time.perf_counter`` scale) aborts the search early; the
    result then carries the best found so far and ``proven_optimal=False``.
    ``top_q`` additionally collects that many distinct positive columns.
    """
    m = problem.matrix
    duals = problem.duals
    hit = problem.hit_range
    order = rank_genes_by_tumor_frequency(m)
    if problem.allowed_genes is not None:
        order = [g for g in order if g in problem.allowed_genes]
    pi, mu, lam = duals.pi, duals.mu, duals.lam
    # pool entries: (rc, seq, genes, tumor mask, normal mask), sorted best
    # first with first-found winning ties.
    pool = []
    seq = 0
    nodes = 0
    aborted = False
    path = []

    def cut():
        return pool[top_q - 1][0] if len(pool) >= top_q else -math.inf

    def record(rc, tmask, nmask):
        nonlocal seq
        entry = (rc, seq, tuple(sorted(path)), tmask, nmask)
        seq += 1
        pool.append(entry)
        pool.sort(key=lambda e: (-e[0], e[1]))
        del pool[top_q:]

    def walk(pos, count, tmask, nmask, psum):
        nonlocal nodes, aborted
        for i in range(pos, len(order)):
            if aborted:
                return
            if count + 1 + (len(order) - i - 1) < hit.k_min:
                break  # later starts have even fewer genes left
            if psum - lam <= cut():
                return
            g = order[i]
            nodes += 1
            if deadline is not None and nodes & _CLOCK_CHECK_MASK == 0:
                if time.perf_counter() > deadline:
                    aborted = True
                    return
            t2 = tmask & m.tumor_columns[g]
            n2 = nmask & m.normal_columns[g]
            p2 = psum - weighted_sum(pi, tmask & ~m.tumor_columns[g])
            path.append(g)
            if hit.k_min <= count + 1 <= hit.k_max:
                rc = p2 - weighted_sum(mu, n2) - lam
                if rc > cut():
                    record(rc, t2, n2)
            if count + 1 < hit.k_max and p2 - lam > cut():
                walk(i + 1, count + 1, t2, n2, p2)
            path.pop()

    total_psum = weighted_sum(pi, m.all_tumor_mask)
    if deadline is not None and time.perf_counter() > deadline:
        aborted = True
    else:
        walk(0, 0, m.all_tumor_mask, m.all_normal_mask, total_psum)

    best_rc = pool[0][0] if pool else -math.inf
    best = None
    if pool and best_rc > RC_EPS:
        _, _, genes, tmask, nmask = pool[0]
        best = GeneCombination(genes, tmask, nmask)
    candidates = [
        GeneCombination(genes, tmask, nmask)
        for rc, _, genes, tmask, nmask in pool
        if rc > RC_EPS
    ]
    return PricingResult(best, best_rc, not aborted, nodes, candidates)


def solve_pricing_with_speedup(problem, deadline=None, top_q=1):
    """Column generation's pricing call: the exact search, nothing more.

    A pass-through to :func:`solve_pricing`, kept under this name because the
    benchmark tracer (``perfbench/tracing.py``) patches
    ``framework.solve_pricing_with_speedup`` for its ``pricing.*`` spans and
    times ``pricing.solve_pricing`` inside it.
    """
    return solve_pricing(problem, deadline=deadline, top_q=top_q)
