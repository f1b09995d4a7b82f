"""End-to-end solvers: column generation, pool heuristic and exact pool.

All three modes run one pipeline (``_pipeline``): build a pool and relax
it; in column generation price, round the relaxation into the incumbent
when pricing adds a column, and repeat.  The pool MIP
(``master.solve_binary``) starts from the last relaxation: it rounds it
and calls HiGHS only when the rounding falls short of the LP's integer
floor.  The report carries the best integral selection seen anywhere
along the way.
``solve_colgen`` starts from an empty pool and lets pricing build it; the
bound it reports is trusted only when pricing proves that no combination
with positive reduced cost remains, so a timed-out run carries no bound.
``solve_mip_heuristic`` optimizes over a randomly generated pool and
reports no bound.  ``solve_exact`` starts from a pool of every distinct
cover in the hit range, so its pool MIP's optimum is the optimum; it is
capped to small hit ranges.
"""

import itertools
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import metrics
from .candidates import generate_candidates
from .errors import ConsistencyError, DuplicateColumnError, ValidationError
from .master import MasterModel, rounding_heuristic, solve_binary, solve_relaxation
from .pricing import RC_EPS, PricingProblem, solve_pricing_with_speedup

EXACT_MAX_POOL = 5000


@dataclass(frozen=True, kw_only=True)
class SolverSettings:
    """Solver settings shared by one solve and a whole sweep.

    ``gamma1``/``gamma2`` only matter to the pool heuristic; the budget and
    time limits apply everywhere.  :class:`SolverConfig` adds the hit range
    and seed of one solve; ``harness.ExperimentSpec`` adds a sweep's
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
    master_time_limit: float = field(
        default=30.0,
        metadata={"help": "seconds for the pool MIP after the last relaxation"},
    )
    total_time_limit: float = field(
        default=300.0, metadata={"help": "seconds for a whole solve"}
    )

    def __post_init__(self):
        # Settings also come from config files, so the types are checked
        # too; a bool is not an int here, and NaN is not above 0.
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
    columns of the final pool MIP: in exact mode, the distinct covers; a
    pool whose build the time limit cut off counts every column drawn.
    ``iterations`` counts pricing rounds, ``pricing_nodes`` the children
    they scored, ``binary_nodes`` the final pool's relaxation, which the
    pool MIP rounds (1, or 0 when it was cut off), plus HiGHS's
    branch-and-bound nodes, and
    ``lp_iterations`` the own simplex's pivots over every master relaxation
    that finished, the final pool's included; HiGHS's are not counted.
    These counters mean the same in every mode, exact mode included.
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


def _pipeline(matrix, config, initial_columns, use_pricing, started, generation_time):
    deadline = started + config.total_time_limit
    # The clock is read before each pool column, as generation reads it
    # before each draw.  A build cut off by the deadline is never relaxed
    # (the deadline has passed, so no LP is built) and carries no bound.
    model = MasterModel(matrix, [], config.beta)
    for comb in initial_columns:
        if time.perf_counter() > deadline:
            break
        model.add_column(comb)
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
    while True:
        t0 = time.perf_counter()
        rmp = solve_relaxation(model, warm_start=warm, deadline=deadline)
        master_time += time.perf_counter() - t0
        if rmp is None:
            break  # the deadline passed before or inside the LP; no bound
        warm = rmp.basis
        lp_iterations += rmp.iterations
        if not use_pricing:
            break
        problem = PricingProblem(matrix, rmp.duals, config.hit_range)
        t0 = time.perf_counter()
        priced = solve_pricing_with_speedup(problem, deadline=deadline)
        pricing_time += time.perf_counter() - t0
        pricing_nodes += priced.nodes
        iterations += 1
        if priced.best is None:
            pricing_converged = priced.proven_optimal
            if pricing_converged:
                ub_star = rmp.objective
            break
        indices, rounded = rounding_heuristic(rmp, model)
        if rounded > lb_star:
            lb_star = rounded
            best_selection = [model.columns[j] for j in indices]
        try:
            model.add_column(priced.best)
        except DuplicateColumnError as exc:
            raise ConsistencyError(
                f"pricing returned in-pool column {priced.best.genes} with "
                f"reduced cost above {RC_EPS} at iteration {iterations}; at a "
                "relaxation optimum every pool column must price nonpositive"
            ) from exc
    t0 = time.perf_counter()
    # ``rmp`` is the final pool's relaxation, or None when the deadline cut
    # it off; pricing added no column after it.
    binary = solve_binary(
        model, deadline=min(deadline, t0 + config.master_time_limit), root=rmp
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
        # A cut-off build holds a prefix of the pool; the report counts it all.
        pool_size=max(len(model.columns), len(initial_columns)),
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
    """The pool pipeline over a randomly generated pool; no bound.

    Generation stops early, with the pool drawn so far, when the total time
    limit passes; a pool whose master build the limit cuts off is not
    solved, and the report has an empty selection.
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


def solve_exact(matrix, config):
    """The pool pipeline over every combination of the hit range.

    The pool holds the first combination, in enumeration order, of each
    distinct ``(tumor_cover, normal_cover)`` that covers a tumor; the
    others add nothing to a selection that one of these does not.  So the
    pool MIP's optimum is the optimum over all selections, and a
    ``converged`` report carries it as its bound.  A hit range of more than
    ``EXACT_MAX_POOL`` combinations is refused.  The clock is read before
    each combination; once ``total_time_limit`` passes, the pool is the
    combinations read so far, no LP is built, and the report keeps status
    ``time_limit`` and no bound.
    """
    started = time.perf_counter()
    deadline = started + config.total_time_limit
    sizes = config.hit_range.sizes()
    total = sum(math.comb(matrix.n_genes, k) for k in sizes)
    if total > EXACT_MAX_POOL:
        raise ValidationError(
            f"exact mode capped at {EXACT_MAX_POOL} combinations, got {total}"
        )
    by_cover = {}
    combos = itertools.chain.from_iterable(
        itertools.combinations(range(matrix.n_genes), k) for k in sizes
    )
    for genes in combos:
        if time.perf_counter() > deadline:
            break
        comb = matrix.combination(genes)
        if comb.tumor_cover:
            by_cover.setdefault((comb.tumor_cover, comb.normal_cover), comb)
    generation_time = time.perf_counter() - started
    report = _pipeline(
        matrix, config, by_cover.values(), False, started, generation_time
    )
    if report.status == "converged":
        return replace(report, upper_bound=float(report.objective))
    return report
