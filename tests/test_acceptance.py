"""Acceptance suite: one test per shipping criterion, run with ``pytest -v``.

Each test name carries its criterion number, so the verbose pytest output
reads as one pass/fail line per criterion.  Criterion 9 needs an external
reference dataset and skips cleanly when it is not supplied.
"""

import os
import random
import time

import numpy as np
import pytest

from multihit.data import HitRange, load_dense
from multihit.framework import (
    SolverConfig,
    exact_bruteforce,
    rounding_heuristic,
    solve_colgen,
)
from multihit.harness import ExperimentSpec, run_cell
from multihit.master import DualPrices, MasterModel, solve_binary, solve_relaxation
from multihit.metrics import (
    ConfusionCounts,
    compute_metrics,
    optimality_gap,
)
from multihit.pricing import PricingProblem, solve_pricing, solve_pricing_with_speedup
from multihit.synth import SyntheticSpec, generate_synthetic

from oracles import (
    all_combinations,
    metrics_by_fractions,
    reduced_cost_by_loops,
    selection_objective_by_loops,
    tableau_solve,
)
from util import random_matrix

HIT23 = HitRange(2, 3)


@pytest.fixture(scope="module")
def bank():
    """Fifty brute-forceable instances solved four ways, built once."""
    rng = random.Random(2026)
    entries = []
    crit1_seconds = 0.0
    for _ in range(50):
        n_genes = rng.randint(6, 12)
        n_tumor = rng.randint(4, 13)
        n_normal = rng.randint(2, min(7, 20 - n_tumor))
        m = random_matrix(
            rng, n_genes, n_tumor, n_normal, density=rng.choice([0.25, 0.35, 0.5])
        )
        beta = rng.randint(1, 3)
        t0 = time.perf_counter()
        _, opt = exact_bruteforce(m, HIT23, beta)
        cols = [m.combination(g) for g in all_combinations(m, HIT23)]
        model = MasterModel(m, cols, beta)
        binary = solve_binary(model, time_limit=30.0)
        report = solve_colgen(
            m,
            SolverConfig(
                hit_range=HIT23, beta=beta, master_time_limit=10.0, total_time_limit=30.0
            ),
        )
        crit1_seconds += time.perf_counter() - t0
        entries.append(
            {
                "matrix": m,
                "beta": beta,
                "opt": opt,
                "model": model,
                "binary": binary,
                "colgen": report,
            }
        )
    return {"entries": entries, "crit1_seconds": crit1_seconds}


def test_criterion_01_integer_optimality_against_bruteforce(bank):
    for e in bank["entries"]:
        opt = e["opt"]
        assert e["binary"].objective <= opt
        if e["binary"].status == "optimal":
            assert e["binary"].objective == opt
        report = e["colgen"]
        assert report.objective <= opt
        if report.upper_bound is not None:
            assert report.upper_bound >= opt - 1e-6
            if abs(report.upper_bound - report.objective) <= 1e-6:
                assert report.objective == opt
    assert bank["crit1_seconds"] <= 60.0


def test_criterion_02_converged_bound_equals_enumeration_lp(bank):
    for e in bank["entries"]:
        report = e["colgen"]
        assert report.upper_bound is not None  # these instances must converge
        lp = e["model"].build_lp()
        status, lp_obj, _ = tableau_solve(
            lp.objective, lp.a_matrix.toarray(), lp.rhs, lp.lower, lp.upper
        )
        assert status == "optimal"
        assert abs(report.upper_bound - lp_obj) <= 1e-6


def test_criterion_03_pricing_matches_exhaustive_enumeration():
    rng = random.Random(77)
    for trial in range(200):
        m = random_matrix(
            rng, rng.randint(4, 10), rng.randint(3, 10), rng.randint(2, 6)
        )
        duals = DualPrices(
            pi=np.array([rng.uniform(0, 1) for _ in range(m.tumor_count)]),
            mu=np.array([rng.uniform(0, 1) for _ in range(m.normal_count)]),
            lam=rng.uniform(0, 0.6),
        )
        hit = HitRange(2, 3) if trial % 3 else HitRange(2, 2)
        want = max(
            reduced_cost_by_loops(m, genes, duals.pi, duals.mu, duals.lam)
            for genes in all_combinations(m, hit)
        )
        problem = PricingProblem(m, duals, hit)
        res = solve_pricing(problem)
        assert res.proven_optimal
        assert abs(res.reduced_cost - want) <= 1e-9
        priced = solve_pricing_with_speedup(problem)
        assert abs(priced.reduced_cost - want) <= 1e-9


def test_criterion_04_convergence_certificate(bank):
    proven = 0
    for e in bank["entries"][:25]:
        m = e["matrix"]
        rmp = solve_relaxation(e["model"])
        res = solve_pricing(PricingProblem(m, rmp.duals, HIT23))
        if res.best is None and res.proven_optimal:
            proven += 1
            for genes in all_combinations(m, HIT23):
                rc = reduced_cost_by_loops(
                    m, genes, rmp.duals.pi, rmp.duals.mu, rmp.duals.lam
                )
                assert rc <= 1e-6
    assert proven >= 15


def test_criterion_05_rounding_feasible_exact_and_zero_gap_when_integral(bank):
    integral_cases = 0
    for e in bank["entries"]:
        model = e["model"]
        rmp = solve_relaxation(model)
        indices, obj = rounding_heuristic(rmp, model)
        assert len(indices) <= e["beta"]
        recomputed = selection_objective_by_loops(
            e["matrix"], [model.columns[j].genes for j in indices]
        )
        assert obj == recomputed
        integral = all(abs(v - round(v)) <= 1e-6 for v in rmp.z)
        if integral and obj > 0:
            integral_cases += 1
            gap = optimality_gap(obj, rmp.objective)
            assert gap is not None and round(gap, 2) == 0.0
    assert integral_cases >= 5


def test_criterion_06_metrics_match_independent_reimplementation():
    rng = random.Random(6)
    keys = ("sensitivity", "specificity", "precision", "f1", "mcc")
    for _ in range(1000):
        counts = ConfusionCounts(
            tp=rng.randint(0, 150),
            fp=rng.randint(0, 150),
            tn=rng.randint(0, 150),
            fn=rng.randint(0, 150),
        )
        got = compute_metrics(counts)
        want = metrics_by_fractions(counts.tp, counts.fp, counts.tn, counts.fn)
        for key in keys:
            g, w = getattr(got, key), want[key]
            assert (g is None) == (w is None)
            if g is not None:
                assert abs(g - w) <= 1e-12
        swapped = compute_metrics(
            ConfusionCounts(tp=counts.tn, fp=counts.fn, tn=counts.tp, fn=counts.fp)
        )
        if got.mcc is not None:
            assert swapped.mcc == pytest.approx(got.mcc, abs=1e-12)
    perfect = compute_metrics(ConfusionCounts(tp=17, fp=0, tn=9, fn=0))
    for key in keys:
        value = getattr(perfect, key)
        assert value == 1.0
        assert format(value, ".3f") == "1.000"


def test_criterion_07_gap_formula_reference_values():
    low = optimality_gap(362, 364)
    assert round(low, 2) == 0.55
    assert format(low, ".2f") == "0.55"
    flat = optimality_gap(91, 91)
    assert round(flat, 2) == 0.0
    assert format(flat, ".2f") == "0.00"


def test_criterion_08_planted_recovery_within_time():
    spec = SyntheticSpec(
        n_genes=200,
        n_tumor=100,
        n_normal=40,
        planted=((0, 1), (2, 3), (4, 5)),
        planted_rate=1.0,
        background_rate=0.05,
        normal_rate=0.0,
    )
    matrix = generate_synthetic(spec, 424242)
    exp = ExperimentSpec(
        instances=(("planted", matrix),),
        hit_ranges=(HIT23,),
        modes=("mip_heuristic",),
        seeds=(0,),
        beta=10,
        gamma1=100,
        gamma2=100_000,
        train_fraction=0.75,
        master_time_limit=30.0,
        total_time_limit=300.0,
    )
    t0 = time.perf_counter()
    cell = run_cell("planted", matrix, HIT23, "mip_heuristic", 0, exp)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    assert cell["objective"] == 75  # every training tumor covered, no normal
    assert len(cell["selected"]) <= 10
    assert cell["metrics_test"]["mcc"] is not None
    assert cell["metrics_test"]["mcc"] >= 0.95


def _reference_dataset():
    env = os.environ.get("MULTIHIT_DATASET_A")
    if env:
        return env
    default = os.path.join(os.path.dirname(__file__), "..", "data", "brca.tsv")
    return default if os.path.exists(default) else None


def test_criterion_09_reference_dataset_reproduction():
    path = _reference_dataset()
    if path is None or not os.path.exists(path):
        pytest.skip(
            "reference dataset not supplied; set MULTIHIT_DATASET_A or add data/brca.tsv"
        )
    matrix = load_dense(path)
    exp = ExperimentSpec(
        instances=(("brca", matrix),),
        hit_ranges=(HIT23,),
        modes=("mip_heuristic",),
        seeds=(0,),
        beta=10,
        gamma1=100,
        gamma2=100_000,
        train_fraction=0.75,
        master_time_limit=30.0,
        total_time_limit=600.0,
    )
    cell = run_cell("brca", matrix, HIT23, "mip_heuristic", 0, exp)
    assert len(cell["selected"]) <= 10
    assert cell["metrics_test"]["mcc"] is not None
    assert abs(cell["metrics_test"]["mcc"] - 0.878) <= 0.08
    for fraction in (0.1, 0.3):
        low = ExperimentSpec(
            instances=(("brca", matrix),),
            hit_ranges=(HIT23,),
            modes=("colgen",),
            seeds=(0,),
            beta=10,
            train_fraction=fraction,
            master_time_limit=30.0,
            total_time_limit=600.0,
        )
        cell = run_cell("brca", matrix, HIT23, "colgen", 0, low)
        assert cell["status"] == "converged"
        assert cell["gap_percent"] == 0.0


def test_criterion_10_determinism_of_repeated_runs():
    spec = SyntheticSpec(
        n_genes=30,
        n_tumor=14,
        n_normal=8,
        planted=((0, 1), (2, 3)),
        planted_rate=0.7,
        background_rate=0.15,
        normal_rate=0.05,
    )
    matrix = generate_synthetic(spec, 99)
    exp = ExperimentSpec(
        instances=(("d", matrix),),
        hit_ranges=(HitRange(2, 2),),
        modes=("colgen", "mip_heuristic"),
        seeds=(5,),
        beta=3,
        gamma1=20,
        gamma2=500,
        train_fraction=0.75,
    )
    for mode in ("colgen", "mip_heuristic"):
        a = run_cell("d", matrix, HitRange(2, 2), mode, 5, exp)
        b = run_cell("d", matrix, HitRange(2, 2), mode, 5, exp)
        a["time_seconds"] = None
        b["time_seconds"] = None
        assert a == b
