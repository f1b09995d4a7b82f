"""Command line interface.

Subcommands: ``ingest`` (sparse CSV pair to dense TSV), ``synth`` (synthetic
matrix), ``split`` (train/test TSVs), ``solve`` (one instance, one mode),
``sweep`` (config-driven grid of cells) and ``report`` (re-summarize a
results directory).

``solve`` names its instance by the data file's stem, and ``split`` writes
that instance's halves as :func:`harness.cell_halves` draws them: the train
file is what a ``solve`` with the same ``--data``, ``--seed`` and
``--train-fraction`` trains on, before pruning.

Settings resolve, lowest first, from the command's own defaults, the
``--config`` JSON file, then the flags; anything left unset takes
``harness.ExperimentSpec``'s default.  A config's keys are exactly
``ExperimentSpec``'s fields.

The ``synth`` size and rate flags are generated from ``SyntheticSpec``'s
fields, under the names a sweep config's ``synth`` entries use too.

Exit codes: 0 success, 1 invalid input or usage (an invalid report
included), 2 internal consistency failure, 3 sweep finished with some
failed cells.
"""

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields

from .data import (
    HitRange,
    load_dense,
    load_sparse,
    open_utf8,
    write_dense,
)
from .errors import ConsistencyError, ValidationError
from .framework import SolverSettings
from .harness import (
    MODES,
    ExperimentSpec,
    cell_halves,
    emit_report,
    run_cell,
    run_experiment,
    validate_report,
    write_summary,
)
from .metrics import METRIC_KEYS
from .synth import SyntheticSpec, generate_synthetic

# The keys a config file may set: the spec's fields.
_CONFIG_KEYS = {f.name for f in fields(ExperimentSpec)}

# The grid keys, ExperimentSpec's tuple fields: a config gives each as a list.
_GRID = tuple(f.name for f in fields(ExperimentSpec) if f.type is tuple)

# A --hit, --mode or --seed flag replaces its config list with one entry.
_LISTED = {"hit": "hit_ranges", "mode": "modes", "seed": "seeds"}

# SyntheticSpec's fields by the names synth flags and sweep configs use.
_SYNTH_FIELDS = {f.metadata.get("name", f.name): f for f in fields(SyntheticSpec)}


class _Parser(argparse.ArgumentParser):
    """Argparse that exits with the documented validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path, kind):
    """The JSON value in the UTF-8 file ``path``, a ``kind`` file."""
    try:
        with open_utf8(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{kind} {path} is not valid JSON: {exc}") from None


def _load_config(path):
    if path is None:
        return {}
    config = _load_json(path, "config")
    if not isinstance(config, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(
            f"config {path} has unknown keys: {', '.join(sorted(unknown))}"
        )
    # A null value leaves its setting unset.
    config = {key: value for key, value in config.items() if value is not None}
    for key in _GRID:
        if key in config and not isinstance(config[key], list):
            raise ValidationError(
                f"config {path}: {key!r} must be a list, got {config[key]!r}"
            )
    return config


def _resolve_spec(args, config, instances, **defaults):
    """The command's spec over ``instances``, every setting resolved.

    Values layer, lowest first: the command's ``defaults``, the config
    file, then the flags.  Anything left unset takes ``ExperimentSpec``'s
    default.
    """
    values = dict(defaults)
    values.update(config)
    for key, value in vars(args).items():
        if value is not None and key in _LISTED:
            values[_LISTED[key]] = [value]
        elif value is not None and key in _CONFIG_KEYS:
            values[key] = value
    values["instances"] = instances
    if "hit_ranges" in values:
        values["hit_ranges"] = [HitRange.parse(str(h)) for h in values["hit_ranges"]]
    return ExperimentSpec(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
    )


def _metric_line(label, block):
    parts = [
        f"{k} {'NA' if block[k] is None else format(block[k], '.3f')}"
        for k in METRIC_KEYS
    ]
    return f"{label}: " + " ".join(parts)


def cmd_ingest(args):
    matrix = load_sparse(args.normal, args.tumor)
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


def _synthetic(params, where=""):
    """``(SyntheticSpec, seed)`` from ``params``, keyed by the fields' outside
    names plus ``seed`` (default 0).  ``where`` prefixes error messages."""
    params = dict(params)
    missing = [
        key
        for key, f in _SYNTH_FIELDS.items()
        if f.default is MISSING and key not in params
    ]
    if missing:
        raise ValidationError(f"{where}synth is missing {', '.join(missing)}")
    seed = params.pop("seed", 0)
    if type(seed) is not int:
        raise ValidationError(f"{where}synth seed must be an int")
    unknown = sorted(set(params) - set(_SYNTH_FIELDS))
    if unknown:
        raise ValidationError(f"{where}unknown synth keys {unknown}")
    spec = SyntheticSpec(**{_SYNTH_FIELDS[key].name: v for key, v in params.items()})
    return spec, seed


def cmd_synth(args):
    params = {key: getattr(args, key) for key in _SYNTH_FIELDS}
    params.update(planted=_parse_planted(args.planted), seed=args.seed)
    spec, seed = _synthetic(params)
    matrix = generate_synthetic(spec, seed)
    write_dense(matrix, args.out)
    print(
        f"wrote {args.out}: {matrix.n_genes} genes, "
        f"{matrix.tumor_count} tumor / {matrix.normal_count} normal samples, "
        f"{len(spec.planted)} planted combinations"
    )
    return 0


def _instance_name(path):
    """The instance name of the data file ``path``: its stem."""
    return os.path.splitext(os.path.basename(path))[0]


def cmd_split(args):
    matrix = load_dense(args.data)
    name = _instance_name(args.data)
    train, test = cell_halves(name, matrix, args.train_fraction, args.seed)
    write_dense(train, args.train_out)
    write_dense(test, args.test_out)
    print(
        f"wrote {args.train_out} ({train.n_samples} samples) and "
        f"{args.test_out} ({test.n_samples} samples)"
    )
    return 0


def cmd_solve(args):
    config = _load_config(args.config)
    # solve runs one cell: its own matrix and at most one entry of each
    # other grid list.
    for key in _GRID:
        most = 0 if key == "instances" else 1
        if len(config.get(key, ())) > most:
            raise ValidationError(
                f"solve runs one cell; use sweep for the config's {key!r}"
            )
    matrix = load_dense(args.data)
    name = _instance_name(args.data)
    spec = _resolve_spec(args, config, ((name, matrix),), train_fraction=1.0)
    [hit], [mode], [seed] = spec.hit_ranges, spec.modes, spec.seeds
    cell = run_cell(name, matrix, hit, mode, seed, spec)
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
            spec, seed = _synthetic(entry["synth"], f"instance {name}: ")
            instances.append((name, generate_synthetic(spec, seed)))
        else:
            raise ValidationError(f"instance {name} needs 'data' or 'synth'")
    return tuple(instances)


def cmd_sweep(args):
    config = _load_config(args.config)
    config_dir = os.path.dirname(os.path.abspath(args.config))
    spec = _resolve_spec(args, config, _sweep_instances(config, config_dir))
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
        report = _load_json(os.path.join(args.dir, fname), "report")
        validate_report(report)
        reports.append(report)
    out = args.out or os.path.join(args.dir, "summary.tsv")
    write_summary(reports, out)
    print(f"wrote {out} from {len(reports)} reports")
    return 0


def _add_solver_flags(p, seed_help="base random seed"):
    for f in fields(SolverSettings):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=f.type, dest=f.name, help=f.metadata["help"])
    p.add_argument("--seed", type=int, help=seed_help)
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
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic dense TSV")
    for key, f in _SYNTH_FIELDS.items():
        flag = "--" + key.replace("_", "-")
        if key == "planted":
            p.add_argument(
                flag,
                action="append",
                help="comma-separated gene indices; repeat per combination",
            )
        elif f.default is MISSING:
            p.add_argument(flag, type=f.type, required=True)
        else:
            p.add_argument(flag, type=f.type, default=f.default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write the train/test halves a solve uses")
    p.add_argument("--data", required=True, help="dense TSV instance")
    p.add_argument(
        "--train-fraction",
        type=float,
        required=True,
        dest="train_fraction",
        help="fraction of each class in the train file; give solve the same",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True, dest="train_out")
    p.add_argument("--test-out", required=True, dest="test_out")
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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
