"""End-to-end solvers: column generation, pool heuristic and brute force.

``solve_colgen`` starts from an empty pool and lets pricing build it; the
bound it reports is trusted only when pricing proves that no combination
with positive reduced cost remains, so a timed-out run carries no bound.
``solve_mip_heuristic`` skips pricing and optimizes over a randomly
generated pool.  Both finish with an integer solve over the final pool
(``master.solve_binary``) and report the best integral selection seen
anywhere along the way.
``solve_exact`` enumerates selections outright and is capped to small
instances; it exists to certify the other two, not to compete with them.
"""

import itertools
import math
import time
from dataclasses import dataclass, field, fields

from . import metrics
from .candidates import generate_candidates
from .errors import ConsistencyError, DuplicateColumnError, ValidationError
from .master import MasterModel, solve_binary, solve_relaxation
from .pricing import RC_EPS, PricingProblem, solve_pricing_with_speedup

ROUND_TOL = 1e-6

EXACT_MAX_GENES = 15
EXACT_MAX_POOL = 5000
EXACT_MAX_BETA = 3


@dataclass(frozen=True, kw_only=True)
class SolverSettings:
    """Solver settings shared by one solve and a whole sweep.

    ``gamma1``/``gamma2`` only matter to the pool heuristic; the budget and
    time limits apply everywhere.  ``top_q`` lets column generation pull
    several columns per pricing round.  :class:`SolverConfig` adds the hit
    range and seed of one solve; ``harness.ExperimentSpec`` adds a sweep's
    grid.  These two classes hold the only declarations of the defaults.  A
    field's type and ``help`` metadata also make its command-line flag, and
    values are checked by type: ints at least 1 (the budget at least 0) and
    floats above 0.
    """

    beta: int = field(default=10, metadata={"help": "max combinations to select"})
    gamma1: int = field(default=100, metadata={"help": "gene pool size for generation"})
    gamma2: int = field(
        default=100_000, metadata={"help": "target number of candidates"}
    )
    top_q: int = field(default=1, metadata={"help": "columns per pricing round"})
    master_time_limit: float = field(
        default=30.0, metadata={"help": "seconds for each binary solve"}
    )
    total_time_limit: float = field(
        default=300.0, metadata={"help": "seconds for a whole solve"}
    )

    def __post_init__(self):
        # Settings also come from config files and the environment, so the
        # types are checked too; a bool is not an int here, and NaN is not
        # above 0.
        for f in fields(SolverSettings):
            name, value = f.name, getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type is float and not (number and value > 0):
                raise ValidationError(f"{name} must be a number above 0, got {value!r}")
            if f.type is int and not (number and isinstance(value, int)):
                raise ValidationError(f"{name} must be an int, got {value!r}")
            if name == "beta" and value < 0:
                raise ValidationError(f"budget must be nonnegative, got {value}")
            if f.type is int and name != "beta" and value < 1:
                raise ValidationError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True, kw_only=True)
class SolverConfig(SolverSettings):
    """Settings of one solve: the shared settings, hit range and seed."""

    hit_range: object
    seed: int = 0


@dataclass
class SolveReport:
    """What a solve produced: selection, bounds, status and phase timings.

    ``objective`` is the exact integer value of ``selection`` and always a
    valid lower bound.  ``upper_bound`` is ``None`` unless it was proven.
    ``gap_percent`` is derived from them: ``None`` without a bound, else
    :func:`metrics.optimality_gap` clamped at 0 (a bound met to LP tolerance).
    ``status`` is ``"converged"`` when every proving step finished inside
    its limit, else ``"time_limit"``.  ``pool_size`` is the number of
    columns the final selection search chose from, in every mode.
    ``iterations`` counts pricing rounds, ``pricing_nodes`` the children
    they scored, ``binary_nodes`` the final pool's relaxation (1, or 0 when
    it was cut off) plus HiGHS's branch-and-bound nodes, and
    ``lp_iterations`` the own simplex's pivots over every master relaxation
    that finished, the final pool's included; HiGHS's are not counted.
    """

    selection: list
    objective: int
    upper_bound: float | None
    gap_percent: float | None = field(init=False)
    status: str
    iterations: int
    pool_size: int
    timings: dict
    pricing_nodes: int
    binary_nodes: int
    lp_iterations: int

    def __post_init__(self):
        ub = self.upper_bound
        gap = None if ub is None else metrics.optimality_gap(self.objective, ub)
        self.gap_percent = None if gap is None else max(gap, 0.0)


def rounding_heuristic(relaxation, model):
    """Integer selection from a relaxation: keep the largest z values.

    Keeps ``ceil(sum z)`` columns (clamped to the budget and pool size),
    ties broken toward the lower column index, and recomputes the objective
    exactly on the rounded selection, so the returned value is always a
    valid lower bound.  Returns ``(indices, objective)``.
    """
    z = relaxation.z
    k = math.ceil(float(sum(z)) - ROUND_TOL)
    k = max(0, min(k, model.beta, len(z)))
    order = sorted(range(len(z)), key=lambda j: (-z[j], j))
    indices = tuple(sorted(order[:k]))
    chosen = [model.columns[j] for j in indices]
    return indices, metrics.objective_value(chosen, model.matrix)


def _pipeline(matrix, config, initial_columns, use_pricing, started, generation_time):
    deadline = started + config.total_time_limit
    model = MasterModel(matrix, initial_columns, config.beta)
    best_selection = []
    lb_star = 0
    ub_star = None
    pricing_converged = False
    master_time = 0.0
    pricing_time = 0.0
    pricing_nodes = 0
    iterations = 0
    lp_iterations = 0
    warm = None
    if use_pricing:
        while True:
            t0 = time.perf_counter()
            rmp = solve_relaxation(model, warm_start=warm, deadline=deadline)
            master_time += time.perf_counter() - t0
            if rmp is None:
                break  # the deadline passed before or inside the LP; no bound
            warm = rmp.basis
            lp_iterations += rmp.iterations
            indices, rounded = rounding_heuristic(rmp, model)
            if rounded > lb_star:
                lb_star = rounded
                best_selection = [model.columns[j] for j in indices]
            problem = PricingProblem(matrix, rmp.duals, config.hit_range)
            t0 = time.perf_counter()
            priced = solve_pricing_with_speedup(
                problem, deadline=deadline, top_q=config.top_q
            )
            pricing_time += time.perf_counter() - t0
            pricing_nodes += priced.nodes
            iterations += 1
            if priced.best is None:
                pricing_converged = priced.proven_optimal
                if pricing_converged:
                    ub_star = rmp.objective
                break
            for comb in priced.candidates:  # led by priced.best
                try:
                    model.add_column(comb)
                except DuplicateColumnError as exc:
                    raise ConsistencyError(
                        f"pricing returned in-pool column {comb.genes} with "
                        f"reduced cost above {RC_EPS} at iteration "
                        f"{iterations}; at a relaxation optimum every pool "
                        "column must price nonpositive"
                    ) from exc
    t0 = time.perf_counter()
    remaining = max(0.0, deadline - t0)
    # The last relaxation's basis: when pricing converged, it is already
    # optimal for the final pool.
    binary = solve_binary(
        model, time_limit=min(config.master_time_limit, remaining), warm_start=warm
    )
    binary_time = time.perf_counter() - t0
    if binary.objective > lb_star:
        lb_star = binary.objective
        best_selection = [model.columns[k] for k in binary.selection]
    proved = (not use_pricing or pricing_converged) and binary.status == "optimal"
    return SolveReport(
        selection=best_selection,
        objective=lb_star,
        upper_bound=ub_star,
        status="converged" if proved else "time_limit",
        iterations=iterations,
        pool_size=len(model.columns),
        timings={
            "generation": generation_time,
            "master": master_time,
            "pricing": pricing_time,
            "binary": binary_time,
            "total": time.perf_counter() - started,
        },
        pricing_nodes=pricing_nodes,
        binary_nodes=binary.nodes,
        lp_iterations=lp_iterations + binary.lp_iterations,
    )


def solve_mip_heuristic(matrix, config):
    """Random pool generation followed by one binary solve; no bound.

    Generation stops early, with the pool drawn so far, when the total time
    limit passes.
    """
    started = time.perf_counter()
    pool = generate_candidates(
        matrix,
        config.hit_range,
        config.gamma1,
        config.gamma2,
        config.seed,
        deadline=started + config.total_time_limit,
    )
    generation_time = time.perf_counter() - started
    return _pipeline(matrix, config, pool, False, started, generation_time)


def solve_colgen(matrix, config):
    """Column generation from an empty pool; bound certified on convergence."""
    started = time.perf_counter()
    return _pipeline(matrix, config, [], True, started, 0.0)


def exact_bruteforce(matrix, hit_range, beta):
    """Provably optimal selection by capped subset search.

    Refuses instances beyond hard caps on genes, combination count and
    budget, naming the violated cap.  Combinations that cover no tumor,
    repeat another's cover or are coverage-dominated by another combination
    are dropped first; these reductions preserve the optimal value.
    Returns ``(selection, objective)``.
    """
    selection, objective, _, _ = _exact_search(matrix, hit_range, beta)
    return selection, objective


def _exact_search(matrix, hit_range, beta, deadline=math.inf):
    """``exact_bruteforce`` plus the number of combinations searched over
    and whether the search finished.

    The clock is read once per column of the dominance filter and once per
    node whose children the dive loops over.  At the first reading past
    ``deadline`` (``time.perf_counter`` scale, ``math.inf`` for no limit)
    the search stops with the best selection found so far: none, with 0
    combinations searched, when it stops in the filter.
    """
    if matrix.n_genes > EXACT_MAX_GENES:
        raise ValidationError(
            f"exact search capped at {EXACT_MAX_GENES} genes, got {matrix.n_genes}"
        )
    if beta > EXACT_MAX_BETA:
        raise ValidationError(
            f"exact search capped at budget {EXACT_MAX_BETA}, got {beta}"
        )
    total = sum(math.comb(matrix.n_genes, k) for k in hit_range.sizes())
    if total > EXACT_MAX_POOL:
        raise ValidationError(
            f"exact search capped at {EXACT_MAX_POOL} combinations, got {total}"
        )
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
        if time.perf_counter() > deadline:
            return [], 0, 0, False
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
    aborted = False

    def dive(start, chosen, covered, penalty):
        nonlocal best_obj, best_sel, aborted
        obj = covered.bit_count() - penalty
        if obj > best_obj:
            best_obj = obj
            best_sel = list(chosen)
        if len(chosen) == beta:
            return
        if time.perf_counter() > deadline:
            aborted = True
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
            if aborted:
                return

    dive(0, [], 0, 0)
    return best_sel, best_obj, len(kept), not aborted


def solve_exact(matrix, config):
    """Wrap the capped exact search in a report.

    A finished search proves its objective, so that is the bound.  When
    ``total_time_limit`` passes first, in the dominance filter or in the
    dive, the report carries the best selection found, no bound and status
    ``time_limit``.
    """
    started = time.perf_counter()
    selection, objective, pool_size, finished = _exact_search(
        matrix, config.hit_range, config.beta, started + config.total_time_limit
    )
    elapsed = time.perf_counter() - started
    return SolveReport(
        selection=selection,
        objective=objective,
        upper_bound=float(objective) if finished else None,
        status="converged" if finished else "time_limit",
        iterations=0,
        pool_size=pool_size,
        timings={
            "generation": 0.0,
            "master": 0.0,
            "pricing": 0.0,
            "binary": elapsed,
            "total": elapsed,
        },
        pricing_nodes=0,
        binary_nodes=0,
        lp_iterations=0,
    )
