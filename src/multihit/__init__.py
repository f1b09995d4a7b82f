"""Combination selection solvers for tumor/normal mutation matrices.

The commonly used entry points are re-exported here; submodules remain
importable directly for the finer-grained pieces.
"""

from .data import (
    HitRange,
    MutationMatrix,
    load_dense,
    load_sparse,
    split_train_test,
)
from .framework import (
    SolveReport,
    SolverConfig,
    solve_colgen,
    solve_exact,
    solve_mip_heuristic,
)
from .harness import ExperimentSpec, run_cell, run_experiment
from .synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "HitRange",
    "MutationMatrix",
    "SolveReport",
    "SolverConfig",
    "SyntheticSpec",
    "generate_synthetic",
    "load_dense",
    "load_sparse",
    "run_cell",
    "run_experiment",
    "solve_colgen",
    "solve_exact",
    "solve_mip_heuristic",
    "split_train_test",
]
