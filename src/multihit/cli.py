"""Command line interface.

Subcommands: ``ingest`` (sparse CSV pair to dense TSV), ``synth`` (synthetic
matrix), ``split`` (train/test TSVs), ``solve`` (one instance, one mode),
``sweep`` (config-driven grid of cells) and ``report`` (re-summarize a
results directory).

Option values resolve as: explicit flag, then the environment variables
``MULTIHIT_MASTER_TIME_LIMIT`` / ``MULTIHIT_TOTAL_TIME_LIMIT`` for the two
time limits, then the ``--config`` JSON file, then built-in defaults.

Exit codes: 0 success, 1 invalid input or usage, 2 internal consistency
failure, 3 sweep finished with some failed cells.
"""

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields

import jsonschema

from .data import (
    HitRange,
    load_dense,
    load_sparse,
    prune_genes,
    split_train_test,
    write_dense,
)
from .errors import ConsistencyError, ValidationError
from .framework import SolverConfig
from .harness import (
    MODES,
    ExperimentSpec,
    emit_report,
    run_cell,
    run_experiment,
    validate_report,
    write_summary,
)
from .synth import SyntheticSpec, generate_synthetic

ENV_MASTER_TIME = "MULTIHIT_MASTER_TIME_LIMIT"
ENV_TOTAL_TIME = "MULTIHIT_TOTAL_TIME_LIMIT"

_ENV_VARS = {"master_time_limit": ENV_MASTER_TIME, "total_time_limit": ENV_TOTAL_TIME}

# Built-in defaults come from the solver's own declarations.
_DEFAULTS = {
    f.name: f.default for f in fields(SolverConfig) if f.default is not MISSING
}

# The sweep grid's defaults (modes, train fraction) come from the spec.
_SPEC_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentSpec) if f.default is not MISSING
}

_CONFIG_KEYS = set(_DEFAULTS) | {f.name for f in fields(ExperimentSpec)}

# The synthetic generator's rate defaults come from its spec.
_SYNTH_RATES = {
    f.name: f.default for f in fields(SyntheticSpec) if f.name.endswith("_rate")
}

# ExperimentSpec requires its hit ranges, so their default lives here.
DEFAULT_HIT_RANGE = "2-3"


class _Parser(argparse.ArgumentParser):
    """Argparse that exits with the documented validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_float(name):
    raw = None if name is None else os.environ.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{name} must be a number, got {raw!r}") from None


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(
            f"config {path} has unknown keys: {', '.join(sorted(unknown))}"
        )
    for key in ("instances", "hit_ranges", "modes", "seeds"):
        if key in config and not isinstance(config[key], list):
            raise ValidationError(
                f"config {path}: {key!r} must be a list, got {config[key]!r}"
            )
    return config


def _pick(*values):
    for v in values:
        if v is not None:
            return v
    return None


def _experiment_spec(args, config, seeds, train_fraction, **grid):
    """The spec over a command's grid, with every setting resolved.

    Each solver setting resolves as flag, environment (time limits only),
    config file, then default; so does the seed, which is the spec's one
    seed unless ``seeds`` lists them.  ``train_fraction`` is the command's
    default for that key.
    """
    settings = {
        key: _pick(
            getattr(args, key), _env_float(_ENV_VARS.get(key)), config.get(key), default
        )
        for key, default in _DEFAULTS.items()
    }
    seed = settings.pop("seed")
    return ExperimentSpec(
        **grid,
        **settings,
        seeds=(seed,) if seeds is None else tuple(seeds),
        train_fraction=_pick(
            args.train_fraction, config.get("train_fraction"), train_fraction
        ),
    )


def _metric_line(label, block):
    parts = [
        f"{k} {'NA' if block[k] is None else format(block[k], '.3f')}"
        for k in ("mcc", "spec", "sens", "f1", "precision")
    ]
    return f"{label}: " + " ".join(parts)


def cmd_ingest(args):
    matrix = load_sparse(args.normal, args.tumor)
    if args.prune:
        matrix = prune_genes(matrix)
    write_dense(matrix, args.out)
    print(
        f"wrote {args.out}: {matrix.n_genes} genes, "
        f"{matrix.tumor_count} tumor / {matrix.normal_count} normal samples"
    )
    return 0


def _parse_planted(items):
    planted = []
    for item in items or ():
        try:
            planted.append(tuple(int(tok) for tok in item.split(",")))
        except ValueError:
            raise ValidationError(
                f"planted combination {item!r} must be comma-separated gene indices"
            ) from None
    return tuple(planted)


def cmd_synth(args):
    spec = SyntheticSpec(
        n_genes=args.genes,
        n_tumor=args.tumors,
        n_normal=args.normals,
        planted=_parse_planted(args.planted),
        planted_rate=args.planted_rate,
        background_rate=args.background_rate,
        normal_rate=args.normal_rate,
    )
    matrix = generate_synthetic(spec, args.seed)
    write_dense(matrix, args.out)
    print(
        f"wrote {args.out}: {matrix.n_genes} genes, "
        f"{matrix.tumor_count} tumor / {matrix.normal_count} normal samples, "
        f"{len(spec.planted)} planted combinations"
    )
    return 0


def cmd_split(args):
    matrix = load_dense(args.data)
    train, test = split_train_test(
        matrix, args.train_fraction, args.seed, stratified=not args.no_stratify
    )
    write_dense(train, args.train_out)
    write_dense(test, args.test_out)
    print(
        f"wrote {args.train_out} ({train.n_samples} samples) and "
        f"{args.test_out} ({test.n_samples} samples)"
    )
    return 0


def cmd_solve(args):
    config = _load_config(args.config)
    # solve runs one cell: one matrix, seed, hit range and mode.
    for key, most in (("instances", 0), ("seeds", 0), ("hit_ranges", 1), ("modes", 1)):
        if len(config.get(key, ())) > most:
            raise ValidationError(
                f"solve runs one cell; use sweep for the config's {key!r}"
            )
    hit_text = _pick(
        args.hit,
        config["hit_ranges"][0] if config.get("hit_ranges") else None,
        DEFAULT_HIT_RANGE,
    )
    hit = HitRange.parse(str(hit_text))
    mode = _pick(
        args.mode,
        config["modes"][0] if config.get("modes") else None,
        _SPEC_DEFAULTS["modes"][0],
    )
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; pick from {MODES}")
    matrix = load_dense(args.data)
    name = os.path.splitext(os.path.basename(args.data))[0]
    spec = _experiment_spec(
        args,
        config,
        seeds=None,
        train_fraction=1.0,
        instances=((name, matrix),),
        hit_ranges=(hit,),
        modes=(mode,),
    )
    cell = run_cell(name, matrix, hit, mode, spec.seeds[0], spec)
    if args.out:
        emit_report(cell, args.out)
    ub = "none" if cell["ub"] is None else format(cell["ub"], ".6f")
    gap = "NA" if cell["gap_percent"] is None else format(cell["gap_percent"], ".2f")
    print(
        f"{mode} on {name} (hit sizes {hit}, budget {spec.beta}): "
        f"status {cell['status']}"
    )
    print(
        f"objective {cell['objective']}, bound {ub}, gap {gap}%, "
        f"{cell['n_comb']} columns, {cell['time_seconds']['total']:.2f}s"
    )
    print(_metric_line("train", cell["metrics_train"]))
    print(_metric_line("test", cell["metrics_test"]))
    for ids in cell["selected"]:
        print("selected: " + ",".join(ids))
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _sweep_instances(config, config_dir):
    entries = config.get("instances")
    if not entries:
        raise ValidationError("sweep config needs a nonempty 'instances' list")
    instances = []
    for entry in entries:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValidationError("each instance needs at least a 'name'")
        name = entry["name"]
        if "data" in entry:
            path = entry["data"]
            if not os.path.isabs(path):
                path = os.path.join(config_dir, path)
            instances.append((name, load_dense(path)))
        elif "synth" in entry:
            if not isinstance(entry["synth"], dict):
                raise ValidationError(f"instance {name}: 'synth' must be an object")
            params = dict(entry["synth"])
            missing = [k for k in ("genes", "tumors", "normals") if k not in params]
            if missing:
                raise ValidationError(
                    f"instance {name}: synth is missing {', '.join(missing)}"
                )
            seed = params.pop("seed", 0)
            spec = SyntheticSpec(
                n_genes=params.pop("genes"),
                n_tumor=params.pop("tumors"),
                n_normal=params.pop("normals"),
                planted=tuple(tuple(c) for c in params.pop("planted", [])),
                **{key: params.pop(key, rate) for key, rate in _SYNTH_RATES.items()},
            )
            if params:
                raise ValidationError(
                    f"instance {name}: unknown synth keys {sorted(params)}"
                )
            instances.append((name, generate_synthetic(spec, seed)))
        else:
            raise ValidationError(f"instance {name} needs 'data' or 'synth'")
    return tuple(instances)


def cmd_sweep(args):
    config = _load_config(args.config)
    config_dir = os.path.dirname(os.path.abspath(args.config))
    instances = _sweep_instances(config, config_dir)
    hit_ranges = tuple(
        HitRange.parse(str(h))
        for h in config.get("hit_ranges", [DEFAULT_HIT_RANGE])
    )
    spec = _experiment_spec(
        args,
        config,
        seeds=config.get("seeds") if args.seed is None else None,
        train_fraction=_SPEC_DEFAULTS["train_fraction"],
        instances=instances,
        hit_ranges=hit_ranges,
        modes=tuple(config.get("modes", _SPEC_DEFAULTS["modes"])),
    )
    reports, failures = run_experiment(spec, args.out_dir, workers=args.workers)
    print(
        f"{len(reports)} cells finished, {len(failures)} failed; "
        f"summary at {os.path.join(args.out_dir, 'summary.tsv')}"
    )
    for failure in failures:
        print(
            f"failed {failure['cell']}: {failure['error_type']}: "
            f"{failure['message']}",
            file=sys.stderr,
        )
    return 3 if failures else 0


def cmd_report(args):
    names = sorted(
        f
        for f in os.listdir(args.dir)
        if f.endswith(".json") and f != "failures.json"
    )
    if not names:
        raise ValidationError(f"no report files found under {args.dir}")
    reports = []
    for fname in names:
        with open(os.path.join(args.dir, fname), encoding="utf-8") as fh:
            report = json.load(fh)
        validate_report(report)
        reports.append(report)
    out = args.out or os.path.join(args.dir, "summary.tsv")
    write_summary(reports, out)
    print(f"wrote {out} from {len(reports)} reports")
    return 0


def _add_solver_flags(p, seed_help="base random seed"):
    p.add_argument("--beta", type=int, help="max combinations to select")
    p.add_argument("--gamma1", type=int, help="gene pool size for generation")
    p.add_argument("--gamma2", type=int, help="target number of candidates")
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--top-q", type=int, dest="top_q", help="columns per pricing round")
    p.add_argument(
        "--master-time-limit",
        type=float,
        dest="master_time_limit",
        help="seconds for each binary solve",
    )
    p.add_argument(
        "--total-time-limit",
        type=float,
        dest="total_time_limit",
        help="seconds for a whole solve",
    )
    p.add_argument(
        "--train-fraction",
        type=float,
        dest="train_fraction",
        help="fraction of each class used for training",
    )


def build_parser():
    parser = _Parser(prog="multihit", description="Multi-hit combination solver")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="convert sparse CSV pair to dense TSV")
    p.add_argument("--normal", required=True, help="normal CSV (gene,sample)")
    p.add_argument("--tumor", required=True, help="tumor CSV (gene,sample,count)")
    p.add_argument("--out", required=True, help="dense TSV to write")
    p.add_argument("--prune", action="store_true", help="drop never-mutated genes")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic dense TSV")
    p.add_argument("--genes", type=int, required=True)
    p.add_argument("--tumors", type=int, required=True)
    p.add_argument("--normals", type=int, required=True)
    p.add_argument(
        "--planted",
        action="append",
        help="comma-separated gene indices; repeat per combination",
    )
    for key, rate in _SYNTH_RATES.items():
        p.add_argument("--" + key.replace("_", "-"), type=float, default=rate, dest=key)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="stratified train/test split of a dense TSV")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--train-fraction",
        type=float,
        default=_SPEC_DEFAULTS["train_fraction"],
        dest="train_fraction",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True, dest="train_out")
    p.add_argument("--test-out", required=True, dest="test_out")
    p.add_argument(
        "--no-stratify",
        action="store_true",
        dest="no_stratify",
        help="shuffle globally instead of per class",
    )
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("solve", help="solve one instance in one mode")
    p.add_argument("--data", required=True, help="dense TSV instance")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--hit", help="combination sizes, e.g. 2-3 or 2")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--config", help="JSON file with defaults for these flags")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run a grid of cells from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes, at most one per cell (default 1)",
    )
    _add_solver_flags(p, "run only this seed, ignoring the config's list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="rebuild the TSV summary of a results dir")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", help="summary path (default <dir>/summary.tsv)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except jsonschema.ValidationError as exc:
        print(f"error: invalid report: {exc.message}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
