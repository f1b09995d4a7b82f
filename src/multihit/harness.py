"""Experiment harness: sweep cells, per-cell JSON reports, TSV summary.

One cell is (instance, hit range, mode, seed).  Each cell splits its matrix
(:func:`cell_halves`, seeded by the instance name and the cell's seed),
prunes never-mutated genes from the training half, solves in the requested
mode and evaluates the selection on both halves.  ``run_cell`` checks each
report against the bundled JSON schema once, before returning it, so every
report written is valid.  Reports are serialized with sorted keys so reruns
are byte-identical apart from the timing block, and rolled up into one
tab-separated summary.  A crashing cell, or a dead worker process, is
captured and reported instead of killing the sweep.
"""

import concurrent.futures
import contextlib
import functools
import hashlib
import json
import os
from dataclasses import dataclass, fields, replace
from importlib import resources

from . import metrics
from .data import HitRange, prune_genes, split_train_test
from .errors import ValidationError
from .framework import (
    SolverConfig,
    SolverSettings,
    solve_colgen,
    solve_exact,
    solve_mip_heuristic,
)

_SOLVERS = {
    "colgen": solve_colgen,
    "mip_heuristic": solve_mip_heuristic,
    "exact": solve_exact,
}

MODES = tuple(_SOLVERS)


@functools.cache
def _report_validator():
    """The bundled schema's validator, built and schema-checked once.

    ``jsonschema`` is imported here and in ``validate_report`` only.
    """
    from jsonschema.validators import validator_for

    text = resources.files("multihit").joinpath("report_schema.json").read_text(
        encoding="utf-8"
    )
    schema = json.loads(text)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(report):
    """Schema-check one cell report.

    A bad report raises ``ValidationError("invalid report: <message>")``
    from the error ``jsonschema.validate`` would raise, its best match.
    """
    from jsonschema.exceptions import best_match

    error = best_match(_report_validator().iter_errors(report))
    if error is not None:
        raise ValidationError(f"invalid report: {error.message}") from error


def derive_seed(base, purpose):
    """Stable 64-bit child seed for one purpose string."""
    digest = hashlib.sha256(f"{base}:{purpose}".encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(SolverSettings):
    """Cross product of instances, hit ranges, modes and seeds to run.

    The solver settings are inherited; each cell's seed is derived from its
    entry in ``seeds``.  The grid's defaults are declared here only.  A
    cell's report file is named by :func:`cell_id`, so instance names must
    be nonempty strings without a path separator, and no instance name or
    grid entry may repeat.  Names must also be printable: a tab or newline
    would break the summary's rows.
    """

    instances: tuple
    hit_ranges: tuple = (HitRange(2, 3),)
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
        for seed in self.seeds:
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ValidationError(f"seeds must be ints, got {seed!r}")
        names = [name for name, _ in self.instances]
        for name in names:
            printable = isinstance(name, str) and name and name.isprintable()
            if not printable or "/" in name or "\\" in name:
                raise ValidationError(
                    f"instance name {name!r} must be a nonempty printable string "
                    "without '/' or '\\'"
                )
        grid = {
            "instance names": names,
            "hit_ranges": self.hit_ranges,
            "modes": self.modes,
            "seeds": self.seeds,
        }
        for key, entries in grid.items():
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ValidationError(f"{repeated[0]} appears twice in {key}")
        fraction = self.train_fraction
        number = isinstance(fraction, (int, float)) and not isinstance(fraction, bool)
        if not (number and 0.0 <= fraction <= 1.0):
            raise ValidationError(
                f"train_fraction must be a number in [0, 1], got {fraction!r}"
            )


def _test_view(selection, train, test):
    """Re-anchor selected combinations onto the test half via gene ids."""
    out = []
    for comb in selection:
        ids = [train.gene_ids[g] for g in comb.genes]
        out.append(test.combination(tuple(test.gene_index[i] for i in ids)))
    return out


def cell_halves(name, matrix, train_fraction, seed):
    """The unpruned train and test halves of instance ``name`` in a cell
    with base ``seed``; ``multihit split`` writes these same halves."""
    return split_train_test(matrix, train_fraction, derive_seed(seed, f"split:{name}"))


def run_cell(name, matrix, hit_range, mode, seed, spec):
    """Solve one cell and return its schema-valid report dict."""
    train, test = cell_halves(name, matrix, spec.train_fraction, seed)
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
        "iterations": report.iterations,
        "pricing_nodes": report.pricing_nodes,
        "binary_nodes": report.binary_nodes,
        "lp_iterations": report.lp_iterations,
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
    """Write one report, which ``run_cell`` has validated, with sorted keys
    and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _fmt(value, digits):
    return "NA" if value is None else f"{value:.{digits}f}"


# Each summary column: its header and its cell for one report.
_SUMMARY_COLUMNS = (
    *(
        (key, lambda r, key=key: str(r[key]))
        for key in (
            "instance", "hit_range", "mode", "seed", "status", "n_comb", "objective"
        )
    ),
    ("ub", lambda r: _fmt(r["ub"], 3)),
    ("gap_percent", lambda r: _fmt(r["gap_percent"], 2)),
    *(
        (f"{k}_{half}", lambda r, k=k, half=half: _fmt(r[f"metrics_{half}"][k], 3))
        for half in ("train", "test")
        for k in metrics.METRIC_KEYS
    ),
    ("time_total", lambda r: _fmt(r["time_seconds"]["total"], 2)),
)


def write_summary(reports, path):
    """One TSV row per report: 3-decimal metrics, 2-decimal gap and time."""
    ordered = sorted(
        reports, key=lambda r: (r["instance"], r["hit_range"], r["mode"], r["seed"])
    )
    lines = ["\t".join(name for name, _ in _SUMMARY_COLUMNS)]
    lines += ["\t".join(cell(r) for _, cell in _SUMMARY_COLUMNS) for r in ordered]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def run_experiment(spec, out_dir, workers=1):
    """Run every cell of ``spec``, write reports under ``out_dir``.

    ``workers`` above 1 fans cells out to a process pool of at most one
    worker per cell.  Returns ``(reports, failures)`` where failures carry
    the cell id, exception type and message of each crashed cell.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    os.makedirs(out_dir, exist_ok=True)
    # Each task's spec holds only its own instance, so a pool task pickles
    # one matrix rather than all of them.
    tasks = [
        (name, matrix, hit, mode, seed, replace(spec, instances=((name, matrix),)))
        for name, matrix in spec.instances
        for hit in spec.hit_ranges
        for mode in spec.modes
        for seed in spec.seeds
    ]
    workers = min(workers, len(tasks))
    reports, failures = [], []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            )
            results = [pool.submit(run_cell, *task).result for task in tasks]
        else:
            results = [functools.partial(run_cell, *task) for task in tasks]
        for task, result in zip(tasks, results):
            cid = cell_id(task[0], task[2], task[3], task[4])
            try:
                report = result()
            except Exception as exc:  # noqa: BLE001 - cells must not kill the sweep
                failures.append(
                    {"cell": cid, "error_type": type(exc).__name__, "message": str(exc)}
                )
            else:
                emit_report(report, os.path.join(out_dir, cid + ".json"))
                reports.append(report)
    write_summary(reports, os.path.join(out_dir, "summary.tsv"))
    if failures:
        with open(os.path.join(out_dir, "failures.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(failures, sort_keys=True, indent=2) + "\n")
    return reports, failures
