"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against the *definitions*, not
against the package internals: dense full-tableau simplex with Bland's rule,
loop-based coverage and reduced costs, Fraction-based metric formulas.  Keep
these free of imports from the solver modules they are checking.  The one
copy of solver code is the pricing search that scores one node at a time,
which the block search must match count for count.
"""

import itertools
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# Dense two-phase tableau simplex (Bland's rule throughout).


def _pivot(t, basis, row, col):
    t[row] = t[row] / t[row, col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= np.outer(factors, t[row])
    basis[row] = col


def _tableau_run(t, basis, costs, banned, tol=TOL):
    n_cols = t.shape[1] - 1
    while True:
        red = costs[:n_cols] - costs[basis] @ t[:, :n_cols]
        entering = None
        for j in range(n_cols):
            if j in banned or j in basis:
                continue
            if red[j] > tol:
                entering = j
                break
        if entering is None:
            return "optimal"
        col = t[:, entering]
        best_row, best_ratio = -1, math.inf
        for i in range(t.shape[0]):
            if col[i] > tol:
                ratio = t[i, n_cols] / col[i]
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (best_row < 0 or basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        if best_row < 0:
            return "unbounded"
        _pivot(t, basis, best_row, entering)


def tableau_solve(c, a, b, lower, upper):
    """Reference LP solve: max c.x, A x <= b, lower <= x <= upper.

    Returns ``(status, objective, x)`` with x in the original variable
    space.  Finite upper bounds become explicit rows; lower bounds are
    shifted away; rows with negative rhs get surplus and artificial columns
    and a phase-one run.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float).reshape(len(b), len(c)) if len(b) else np.zeros((0, len(c)))
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        return "infeasible", None, None
    n = len(c)
    rows = [a[i].copy() for i in range(len(b))]
    rhs = list(b - a @ lower)
    for j in range(n):
        span = upper[j] - lower[j]
        if np.isfinite(span):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(span)
    m = len(rows)
    # One slack or surplus per row, artificials for negated rows.
    art_rows = [i for i in range(m) if rhs[i] < 0.0]
    n_cols = n + m + len(art_rows)
    t = np.zeros((m, n_cols + 1))
    basis = [0] * m
    art_of = {}
    for k, i in enumerate(art_rows):
        art_of[i] = n + m + k
    for i in range(m):
        row = rows[i].copy()
        val = rhs[i]
        if i in art_of:
            row, val = -row, -val
            t[i, n + i] = -1.0
            t[i, art_of[i]] = 1.0
            basis[i] = art_of[i]
        else:
            t[i, n + i] = 1.0
            basis[i] = n + i
        t[i, :n] = row
        t[i, n_cols] = val
    basis = np.array(basis)
    banned = set()
    if art_rows:
        costs1 = np.zeros(n_cols)
        for i in art_rows:
            costs1[art_of[i]] = -1.0
        if _tableau_run(t, basis, costs1, banned) != "optimal":
            raise AssertionError("phase one cannot fail to terminate")
        infeas = -float(costs1[basis] @ t[:, n_cols])
        if infeas > 1e-7:
            return "infeasible", None, None
        # Remove leftover basic artificials (or redundant rows).
        drop = []
        for i in range(m):
            if basis[i] in art_of.values():
                piv = next(
                    (
                        j
                        for j in range(n + m)
                        if j not in basis and abs(t[i, j]) > 1e-9
                    ),
                    None,
                )
                if piv is None:
                    drop.append(i)
                else:
                    _pivot(t, basis, i, piv)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            t = t[keep]
            basis = basis[keep]
        banned = set(art_of.values())
    costs2 = np.zeros(n_cols)
    costs2[:n] = c
    status = _tableau_run(t, basis, costs2, banned)
    if status != "optimal":
        return status, None, None
    x_shift = np.zeros(n_cols)
    for i, j in enumerate(basis):
        x_shift[j] = t[i, -1]
    x = lower + x_shift[:n]
    return "optimal", float(c @ x), x


# ---------------------------------------------------------------------------
# Coverage, reduced costs and selection objectives, all loop-based.


def covers(row, genes):
    return all((row >> g) & 1 for g in genes)


def coverage_by_loops(matrix, genes):
    """(tumor ids, normal ids) covered, via per-sample gene checks."""
    t_hit, n_hit = [], []
    for pos in matrix.tumor_positions:
        if covers(matrix.samples[pos].mutations, genes):
            t_hit.append(pos)
    for pos in matrix.normal_positions:
        if covers(matrix.samples[pos].mutations, genes):
            n_hit.append(pos)
    return t_hit, n_hit


def all_combinations(matrix, hit_range):
    """Every gene combination in the size range, as sorted index tuples."""
    out = []
    for k in range(hit_range.k_min, hit_range.k_max + 1):
        out.extend(itertools.combinations(range(matrix.n_genes), k))
    return out


def reduced_cost_by_loops(matrix, genes, pi, mu, lam):
    t_hit, n_hit = coverage_by_loops(matrix, genes)
    val = -lam
    tumor_rank = {pos: i for i, pos in enumerate(matrix.tumor_positions)}
    normal_rank = {pos: i for i, pos in enumerate(matrix.normal_positions)}
    for pos in t_hit:
        val += pi[tumor_rank[pos]]
    for pos in n_hit:
        val -= mu[normal_rank[pos]]
    return val


def selection_objective_by_loops(matrix, selections):
    """Integer objective of a list of gene tuples: union tp minus covering count."""
    covered = set()
    penalty = 0
    for genes in selections:
        t_hit, n_hit = coverage_by_loops(matrix, genes)
        covered.update(t_hit)
        penalty += len(n_hit)
    return len(covered) - penalty


def best_selection_by_enumeration(matrix, hit_range, beta, combos=None):
    """True optimum over all selections of at most beta combinations.

    ``combos`` (gene tuples) defaults to every combination in ``hit_range``.
    Each combination's coverage is found by loops once, then every
    selection is scored by set unions.
    """
    if combos is None:
        combos = all_combinations(matrix, hit_range)
    hits = {genes: coverage_by_loops(matrix, genes) for genes in combos}
    best_obj, best_sel = 0, ()
    for size in range(1, beta + 1):
        for pick in itertools.combinations(combos, size):
            covered = set().union(*(hits[genes][0] for genes in pick))
            obj = len(covered) - sum(len(hits[genes][1]) for genes in pick)
            if obj > best_obj:
                best_obj, best_sel = obj, pick
    return best_obj, best_sel


def exact_bruteforce(matrix, hit_range, beta):
    """Optimal selection by a depth-first subset search over combinations.

    Unlike ``best_selection_by_enumeration`` it scales to the hundreds of
    combinations of criterion 1's instances: combinations that cover no
    tumor, repeat another's cover or are coverage-dominated by another
    combination are dropped first (these reductions keep the optimal
    value), and the dive prunes on the tumors still coverable.  Returns
    ``(selection, objective)``, the selection as combination objects.
    """
    by_cover = {}
    for k in hit_range.sizes():
        for genes in itertools.combinations(range(matrix.n_genes), k):
            comb = matrix.combination(genes)
            if comb.tumor_cover == 0:
                continue
            key = (comb.tumor_cover, comb.normal_cover)
            if key not in by_cover:
                by_cover[key] = comb
    pool = list(by_cover.values())
    kept = []
    for c in pool:
        for d in pool:
            if c is d:
                continue
            if (c.tumor_cover & ~d.tumor_cover) == 0 and (
                d.normal_cover & ~c.normal_cover
            ) == 0:
                break
        else:
            kept.append(c)
    kept.sort(key=lambda c: (-c.tumor_cover.bit_count(), c.genes))
    suffix_cover = [0] * (len(kept) + 1)
    for i in range(len(kept) - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | kept[i].tumor_cover
    best_obj = 0
    best_sel = []

    def dive(start, chosen, covered, penalty):
        nonlocal best_obj, best_sel
        obj = covered.bit_count() - penalty
        if obj > best_obj:
            best_obj = obj
            best_sel = list(chosen)
        if len(chosen) == beta:
            return
        for i in range(start, len(kept)):
            gain = (~covered & suffix_cover[i]).bit_count()
            if obj + gain <= best_obj:
                break  # later starts can only cover fewer new tumors
            c = kept[i]
            chosen.append(c)
            dive(
                i + 1,
                chosen,
                covered | c.tumor_cover,
                penalty + c.normal_cover.bit_count(),
            )
            chosen.pop()

    dive(0, [], 0, 0)
    return best_sel, best_obj


# ---------------------------------------------------------------------------
# Metrics from first principles (Fractions where exactness matters).


def metrics_by_fractions(tp, fp, tn, fn):
    def ratio(num, den):
        return None if den == 0 else float(Fraction(num, den))

    sens = ratio(tp, tp + fn)
    spec = ratio(tn, tn + fp)
    prec = ratio(tp, tp + fp)
    if sens is None or prec is None or prec + sens == 0:
        f1 = None
    else:
        f1 = float(
            2 * Fraction(tp, tp + fp) * Fraction(tp, tp + fn)
            / (Fraction(tp, tp + fp) + Fraction(tp, tp + fn))
        )
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = None if den == 0 else (tp * tn - fp * fn) / math.sqrt(den)
    return {"sensitivity": sens, "specificity": spec, "precision": prec, "f1": f1, "mcc": mcc}


# ---------------------------------------------------------------------------
# Pricing one node at a time.

PRICING_RC_EPS = 1e-6


def _seq_scores(rows, support, weights, pos, stop):
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


def _seq_within(rows, r, held):
    """The samples of row ``r`` for which the boolean ``held`` is set, in order."""
    samples = rows.row_samples[rows.row_ptr[r] : rows.row_ptr[r + 1]]
    return samples[held[samples]]


def _seq_held(support, size):
    """A boolean mask of ``size`` entries, set on the ``support`` samples."""
    held = np.zeros(size, dtype=bool)
    held[support] = True
    return held


def sequential_pricing(problem, deadline=math.inf):
    """The exact best-reduced-cost search that scores one node's children
    at a time: ``pricing.solve_pricing`` as it was before it scored a block
    of siblings at once, kept to check that the block search returns the
    same best genes, reduced cost, ``proven_optimal`` and ``nodes``.

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
        p2 = _seq_scores(rows_t, s_t, pi, pos, stop)
        # Only the children whose bound beats the cut can replace the
        # incumbent or be expanded; a reduced cost is at most its bound.
        live = np.flatnonzero(p2 - lam > cut)
        if depth + 1 >= hit.k_min and live.size:
            rc = p2[live] - _seq_scores(rows_n, s_n, mu, pos, stop)[live] - lam
            i = int(np.argmax(rc))  # the first of equal maxima
            if rc[i] > cut:
                cut, best_genes = float(rc[i]), path + (order[pos + live[i]],)
        if depth + 1 == hit.k_max or not live.size:
            return
        held_t, held_n = _seq_held(s_t, len(pi)), _seq_held(s_n, len(mu))
        for i in live.tolist():
            r = pos + i
            if not aborted and p2[i] - lam > cut:
                c_t = _seq_within(rows_t, r, held_t)
                c_n = _seq_within(rows_n, r, held_n)
                expand(r + 1, depth + 1, c_t, c_n, path + (order[r],))

    expand(0, 0, np.flatnonzero(pi), np.flatnonzero(mu), ())

    best = m.combination(best_genes) if cut > PRICING_RC_EPS else None
    return SimpleNamespace(
        best=best, reduced_cost=cut, proven_optimal=not aborted, nodes=nodes
    )
