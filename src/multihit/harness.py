"""Experiment harness: sweep cells, per-cell JSON reports, TSV summary.

One cell is (instance, hit range, mode, seed).  Each cell splits its matrix,
prunes never-mutated genes from the training half, solves in the requested
mode and evaluates the selection on both halves.  Reports are validated
against the bundled JSON schema before they reach disk, serialized with
sorted keys so reruns are byte-identical apart from the timing block, and
rolled up into one tab-separated summary.  A crashing cell is captured and
reported instead of killing the sweep.
"""

import concurrent.futures
import hashlib
import json
import os
from dataclasses import dataclass, fields
from importlib import resources

import jsonschema

from . import metrics
from .data import prune_genes, split_train_test
from .errors import ValidationError
from .framework import (
    SolverConfig,
    SolverSettings,
    solve_colgen,
    solve_exact,
    solve_mip_heuristic,
)

MODES = ("colgen", "mip_heuristic", "exact")

_SOLVERS = {
    "colgen": solve_colgen,
    "mip_heuristic": solve_mip_heuristic,
    "exact": solve_exact,
}

_METRIC_KEYS = ("mcc", "spec", "sens", "f1", "precision")

_schema = None


def report_schema():
    global _schema
    if _schema is None:
        text = (
            resources.files("multihit")
            .joinpath("report_schema.json")
            .read_text(encoding="utf-8")
        )
        _schema = json.loads(text)
    return _schema


def validate_report(report):
    """Schema-check one cell report; jsonschema raises on violation."""
    jsonschema.validate(report, report_schema())


def derive_seed(base, purpose):
    """Stable 64-bit child seed for one purpose string."""
    digest = hashlib.sha256(f"{base}:{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(SolverSettings):
    """Cross product of instances, hit ranges, modes and seeds to run.

    The solver settings are inherited; each cell's seed is derived from its
    entry in ``seeds``.
    """

    instances: tuple
    hit_ranges: tuple
    modes: tuple = ("colgen",)
    seeds: tuple = (0,)
    train_fraction: float = 0.75

    def __post_init__(self):
        super().__post_init__()
        if not (self.instances and self.hit_ranges and self.modes and self.seeds):
            raise ValidationError(
                "an experiment needs instances, hit ranges, modes and seeds"
            )
        for mode in self.modes:
            if mode not in MODES:
                raise ValidationError(f"unknown mode {mode!r}; pick from {MODES}")


def _test_view(selection, train, test):
    """Re-anchor selected combinations onto the test half via gene ids."""
    out = []
    for comb in selection:
        ids = [train.gene_ids[g] for g in comb.genes]
        out.append(test.combination(tuple(test.gene_index[i] for i in ids)))
    return out


def run_cell(name, matrix, hit_range, mode, seed, spec):
    """Solve one cell and return its schema-valid report dict."""
    train, test = split_train_test(
        matrix, spec.train_fraction, derive_seed(seed, f"split:{name}")
    )
    train = prune_genes(train)
    config = SolverConfig(
        **{f.name: getattr(spec, f.name) for f in fields(SolverSettings)},
        hit_range=hit_range,
        seed=derive_seed(seed, f"gen:{name}:{hit_range}:{mode}"),
    )
    report = _SOLVERS[mode](train, config)
    m_train = metrics.compute_metrics(
        metrics.confusion(report.selection, train)
    ).to_json_dict()
    m_test = metrics.compute_metrics(
        metrics.confusion(_test_view(report.selection, train, test), test)
    ).to_json_dict()
    gap = report.gap_percent
    cell = {
        "instance": name,
        "hit_range": str(hit_range),
        "mode": mode,
        "seed": seed,
        "train_fraction": spec.train_fraction,
        "status": report.status,
        "n_comb": report.pool_size,
        "objective": report.objective,
        "lb": report.objective,
        "ub": report.upper_bound,
        "gap_percent": None if gap is None else round(gap, 2),
        "time_seconds": {k: float(v) for k, v in report.timings.items()},
        "metrics_train": m_train,
        "metrics_test": m_test,
        "selected": [[train.gene_ids[g] for g in c.genes] for c in report.selection],
    }
    validate_report(cell)
    return cell


def cell_id(name, hit_range, mode, seed):
    return f"{name}__{hit_range}__{mode}__s{seed}"


def emit_report(report, path):
    """Validate and write one report with sorted keys and a trailing newline."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _fmt(value, digits):
    return "NA" if value is None else f"{value:.{digits}f}"


def write_summary(reports, path):
    """One TSV row per report: 3-decimal metrics, 2-decimal gap and time."""
    header = [
        "instance",
        "hit_range",
        "mode",
        "seed",
        "status",
        "n_comb",
        "objective",
        "ub",
        "gap_percent",
    ]
    header += [f"{k}_train" for k in _METRIC_KEYS]
    header += [f"{k}_test" for k in _METRIC_KEYS]
    header.append("time_total")
    rows = [header]
    ordered = sorted(
        reports, key=lambda r: (r["instance"], r["hit_range"], r["mode"], r["seed"])
    )
    for r in ordered:
        row = [
            r["instance"],
            r["hit_range"],
            r["mode"],
            str(r["seed"]),
            r["status"],
            str(r["n_comb"]),
            str(r["objective"]),
            _fmt(r["ub"], 3),
            _fmt(r["gap_percent"], 2),
        ]
        row += [_fmt(r["metrics_train"][k], 3) for k in _METRIC_KEYS]
        row += [_fmt(r["metrics_test"][k], 3) for k in _METRIC_KEYS]
        row.append(_fmt(r["time_seconds"]["total"], 2))
        rows.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def run_experiment(spec, out_dir, workers=1):
    """Run every cell of ``spec``, write reports under ``out_dir``.

    ``workers`` above 1 fans cells out to a process pool of at most one
    worker per cell; ``None`` uses the machine's core count.  Returns
    ``(reports, failures)`` where failures carry the cell id, exception type
    and message of each crashed cell.
    """
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    os.makedirs(out_dir, exist_ok=True)
    tasks = [
        (name, matrix, hit, mode, seed, spec)
        for name, matrix in spec.instances
        for hit in spec.hit_ranges
        for mode in spec.modes
        for seed in spec.seeds
    ]
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(tasks))
    outcomes = []
    if workers <= 1:
        for task in tasks:
            try:
                outcomes.append((task, run_cell(*task), None))
            except Exception as exc:  # noqa: BLE001 - cells must not kill the sweep
                outcomes.append((task, None, exc))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_cell, *task) for task in tasks]
            for task, fut in zip(tasks, futures):
                try:
                    outcomes.append((task, fut.result(), None))
                except Exception as exc:  # noqa: BLE001
                    outcomes.append((task, None, exc))
    reports, failures = [], []
    for task, cell, exc in outcomes:
        cid = cell_id(task[0], task[2], task[3], task[4])
        if exc is None:
            emit_report(cell, os.path.join(out_dir, cid + ".json"))
            reports.append(cell)
        else:
            failures.append(
                {"cell": cid, "error_type": type(exc).__name__, "message": str(exc)}
            )
    write_summary(reports, os.path.join(out_dir, "summary.tsv"))
    if failures:
        with open(os.path.join(out_dir, "failures.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(failures, sort_keys=True, indent=2) + "\n")
    return reports, failures
