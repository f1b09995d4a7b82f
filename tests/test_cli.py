"""Command line tests driven through main(); one subprocess smoke check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multihit
from multihit import cli, harness
from multihit.cli import main
from multihit.data import load_dense, prune_genes, write_dense
from multihit.errors import ConsistencyError
from multihit.harness import validate_report
from multihit.synth import SyntheticSpec, generate_synthetic

TINY = (
    "sample_id\tlabel\tg1\tg2\tg3\tg4\n"
    "t1\ttumor\t1\t1\t0\t0\n"
    "t2\ttumor\t0\t0\t1\t1\n"
    "n1\tnormal\t0\t0\t0\t0\n"
)


def write_tiny(tmp_path):
    path = tmp_path / "tiny.tsv"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


def test_synth_then_solve_exact(tmp_path):
    data = str(tmp_path / "synth.tsv")
    rc = main(
        [
            "synth",
            "--genes", "12",
            "--tumors", "10",
            "--normals", "5",
            "--planted", "0,1",
            "--planted", "2,3",
            "--background-rate", "0.1",
            "--seed", "4",
            "--out", data,
        ]
    )
    assert rc == 0
    matrix = load_dense(data)
    assert matrix.n_genes == 12 and matrix.tumor_count == 10
    report = str(tmp_path / "report.json")
    rc = main(
        [
            "solve",
            "--data", data,
            "--mode", "exact",
            "--hit", "2",
            "--beta", "2",
            "--out", report,
        ]
    )
    assert rc == 0
    with open(report, encoding="utf-8") as fh:
        cell = json.load(fh)
    validate_report(cell)
    assert cell["mode"] == "exact"
    assert cell["gap_percent"] == 0.0
    assert cell["metrics_test"]["mcc"] is None  # train fraction defaults to 1.0


def test_synth_rates_default_to_the_spec(tmp_path):
    want = generate_synthetic(SyntheticSpec(8, 6, 4, ((0, 1),)), 3).samples
    data = str(tmp_path / "synth.tsv")
    flags = ["--genes", "8", "--tumors", "6", "--normals", "4", "--planted", "0,1"]
    assert main(["synth", *flags, "--seed", "3", "--out", data]) == 0
    assert load_dense(data).samples == want
    entry = {"genes": 8, "tumors": 6, "normals": 4, "planted": [[0, 1]], "seed": 3}
    config = {"instances": [{"name": "a", "synth": entry}]}
    [(_, matrix)] = cli._sweep_instances(config, str(tmp_path))
    assert matrix.samples == want


def test_split_command(tmp_path):
    data = str(tmp_path / "synth.tsv")
    main(
        [
            "synth",
            "--genes", "8",
            "--tumors", "12",
            "--normals", "8",
            "--background-rate", "0.4",
            "--normal-rate", "0.2",
            "--out", data,
        ]
    )
    train_p = str(tmp_path / "train.tsv")
    test_p = str(tmp_path / "test.tsv")
    rc = main(
        [
            "split",
            "--data", data,
            "--train-fraction", "0.75",
            "--seed", "1",
            "--train-out", train_p,
            "--test-out", test_p,
        ]
    )
    assert rc == 0
    train = load_dense(train_p)
    test = load_dense(test_p)
    assert train.tumor_count == 9 and test.tumor_count == 3
    assert train.normal_count == 6 and test.normal_count == 2


def test_split_requires_the_train_fraction(tmp_path, capsys):
    # solve trains on every sample unless told otherwise, so split has no
    # default fraction that could name a different cell.
    outs = [tmp_path / "train.tsv", tmp_path / "test.tsv"]
    argv = ["split", "--data", write_tiny(tmp_path), "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--train-out", str(outs[0]), "--test-out", str(outs[1])])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "the following arguments are required: --train-fraction" in err
    assert not any(p.exists() for p in outs)


def _same_answer(a, b):
    """Whether two reports hold the same answer and counters."""
    keys = (
        "status", "objective", "ub", "n_comb", "selected", "metrics_train",
        "iterations", "pricing_nodes", "binary_nodes", "lp_iterations",
    )
    return all(a[key] == b[key] for key in keys)


def test_split_writes_the_halves_of_the_solve_cell(tmp_path, monkeypatch, capsys):
    # split names the instance by the file stem, as solve does, so it writes
    # the halves the solve cell draws, and its train file solves to the
    # cell's answer.
    spec = SyntheticSpec(
        30, 40, 15, ((0, 1), (2, 3, 4)),
        planted_rate=0.5, background_rate=0.05, normal_rate=0.05,
    )
    matrix = generate_synthetic(spec, 1)
    data = tmp_path / "noisy.tsv"
    write_dense(matrix, data)
    outs = [str(tmp_path / "train.tsv"), str(tmp_path / "test.tsv")]
    flags = ["--seed", "3", "--train-fraction", "0.75"]
    argv = ["split", "--data", str(data), *flags]
    assert main([*argv, "--train-out", outs[0], "--test-out", outs[1]]) == 0
    written = [load_dense(p) for p in outs]
    assert all(m.gene_ids == matrix.gene_ids for m in written)

    drawn = []

    def recorded(*args):
        drawn.append(split(*args))
        return drawn[-1]

    split = harness.split_train_test
    monkeypatch.setattr(harness, "split_train_test", recorded)
    reports = [str(tmp_path / "cell.json"), str(tmp_path / "train.json")]
    assert main(["solve", "--data", str(data), *flags, "--out", reports[0]]) == 0
    assert main(["solve", "--data", outs[0], "--seed", "3", "--out", reports[1]]) == 0
    cell, train = (json.loads(Path(p).read_text(encoding="utf-8")) for p in reports)
    assert cell["objective"] > 0 and _same_answer(cell, train)

    def ids(m):
        return [s.sample_id for s in m.samples]

    assert [ids(m) for m in written] == [ids(m) for m in drawn[0]]
    want = harness.cell_halves("noisy", matrix, 0.75, 3)
    assert [ids(m) for m in written] == [ids(m) for m in want]

    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--train-out", outs[0], "--test-out", outs[1], "--no-stratify"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --no-stratify" in capsys.readouterr().err


def test_ingest_command(tmp_path, capsys):
    (tmp_path / "tumor.csv").write_text(
        "gene,sample,count\nbraf,s1,2\nkras,s1,1\nbraf,s2,1\ndead,s1,0\n",
        encoding="utf-8",
    )
    (tmp_path / "normal.csv").write_text(
        "gene,sample\nkras,h1\n", encoding="utf-8"
    )
    out = str(tmp_path / "dense.tsv")
    argv = [
        "ingest",
        "--normal", str(tmp_path / "normal.csv"),
        "--tumor", str(tmp_path / "tumor.csv"),
        "--out", out,
    ]
    assert main(argv) == 0
    matrix = load_dense(out)
    assert matrix.gene_ids == ("braf", "dead", "kras")  # every declared gene
    assert matrix.tumor_count == 2 and matrix.normal_count == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--prune"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --prune" in capsys.readouterr().err

    # A cell prunes its own training half, so the never-mutated gene
    # changes no answer.
    pruned = tmp_path / "pruned.tsv"
    write_dense(prune_genes(matrix), pruned)
    assert load_dense(pruned).gene_ids == ("braf", "kras")
    reports = [str(tmp_path / "dense.json"), str(tmp_path / "pruned.json")]
    for data, report in zip((out, str(pruned)), reports):
        assert main(["solve", "--data", data, "--beta", "1", "--out", report]) == 0
    full, small = (json.loads(Path(p).read_text(encoding="utf-8")) for p in reports)
    assert full["objective"] == 1 and _same_answer(full, small)
    assert full["metrics_test"] == small["metrics_test"]


def test_config_with_a_byte_order_mark(tmp_path):
    data = write_tiny(tmp_path)
    reports = []
    for prefix in ("", "\ufeff"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(prefix + json.dumps({"beta": 1}), encoding="utf-8")
        out = tmp_path / f"r{len(reports)}.json"
        argv = ["solve", "--data", data, "--mode", "exact", "--hit", "2"]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    assert len(reports[1]["selected"]) == 1 and _same_answer(*reports)


def test_config_defaults_and_flag_override(tmp_path):
    data = write_tiny(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 1}), encoding="utf-8")
    out = str(tmp_path / "r1.json")
    rc = main(
        ["solve", "--data", data, "--mode", "exact", "--hit", "2",
         "--config", str(cfg), "--out", out]
    )
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["objective"] == 1  # config beta=1 caps the pick
    rc = main(
        ["solve", "--data", data, "--mode", "exact", "--hit", "2",
         "--config", str(cfg), "--beta", "2", "--out", out]
    )
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["objective"] == 2  # flag beats config


def test_time_limits_are_not_read_from_the_environment(tmp_path, monkeypatch, capsys):
    # A time limit comes from the config file or a flag, like every other
    # setting; these variables name no setting.
    data = write_tiny(tmp_path)
    out = str(tmp_path / "r.json")
    monkeypatch.setenv("MULTIHIT_TOTAL_TIME_LIMIT", "1e-9")
    monkeypatch.setenv("MULTIHIT_MASTER_TIME_LIMIT", "not-a-number")
    argv = ["solve", "--data", data, "--mode", "colgen", "--hit", "2", "--beta", "2"]
    assert main(argv + ["--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["status"] == "converged"
    assert main(argv + ["--total-time-limit", "1e-9", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        cell = json.load(fh)
    assert cell["status"] == "time_limit" and cell["ub"] is None
    # NaN parses as a float but is no time limit; it must not "solve" nothing.
    capsys.readouterr()
    assert main(argv + ["--total-time-limit", "nan"]) == 1
    assert "total_time_limit must be a number above 0" in capsys.readouterr().err


def test_validation_exit_codes(tmp_path, capsys):
    assert main(["solve", "--data", str(tmp_path / "missing.tsv")]) == 1
    bad = tmp_path / "bad.tsv"
    bad.write_text("sample_id\tlabel\tg1\ns1\tweird\t1\n", encoding="utf-8")
    assert main(["solve", "--data", str(bad)]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required --data
    assert exc.value.code == 1
    capsys.readouterr()
    data = tmp_path / "synth.tsv"
    flags = ["--genes", "8", "--tumors", "6", "--normals", "4", "--planted", "0,x"]
    assert main(["synth", *flags, "--out", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'0,x' must be comma-separated" in err
    assert not data.exists()
    # Sweep configs whose grid keys are not lists, whose synth entries lack a
    # size or carry a wrong type, or whose train fraction or seeds are not
    # numbers, are refused with an error line instead of a traceback or a
    # failure in every cell.
    synth = {"genes": 6, "tumors": 4, "normals": 2}
    instance = {"name": "tiny", "synth": synth}
    for cfg, words in (
        ({"instances": [instance], "seeds": 5}, "'seeds' must be a list"),
        ({"instances": [instance], "modes": "exact"}, "'modes' must be a list"),
        ({"instances": instance}, "'instances' must be a list"),
        (
            {"instances": [{"name": "tiny", "synth": {"tumors": 4, "normals": 2}}]},
            "synth is missing genes",
        ),
        ({"instances": [{"name": "tiny", "synth": 6}]}, "'synth' must be an object"),
        (
            {"instances": [{"name": "tiny", "synth": {**synth, "genes": "6"}}]},
            "n_genes must be an int",
        ),
        (
            {"instances": [{"name": "tiny", "synth": {**synth, "normal_rate": "0.1"}}]},
            "normal_rate must be a number",
        ),
        ({"instances": [instance], "train_fraction": "0.5"}, "train_fraction must be"),
        ({"instances": [instance], "seeds": ["x"]}, "seeds must be ints"),
        ({"instances": [instance], "gamma1": 0}, "gamma1 must be at least 1"),
        ({"instances": [instance], "gamma2": -5}, "gamma2 must be at least 1"),
        (
            {"instances": [{"name": "tiny", "synth": {**synth, "seed": "x"}}]},
            "synth seed must be an int",
        ),
        *(
            ({"instances": [{"name": "tiny", "synth": {**synth, "planted": p}}]}, "planted")
            for p in ([[0, 1.5]], [["a", 1]], [5], [[0, True]])
        ),
        (
            {"instances": [{"name": "tiny", "synth": {**synth, "size": 3}}]},
            "instance tiny: unknown synth keys ['size']",
        ),
        ({"instances": [{"synth": synth}]}, "each instance needs at least a 'name'"),
        ({"instances": [{"name": "tiny"}]}, "instance tiny needs 'data' or 'synth'"),
    ):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp_path / "results"
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err
        assert not out_dir.exists()
    # solve runs one cell, so it refuses the grid keys it would ignore or
    # cut to their first entry; one hit range and one mode are fine.
    out = tmp_path / "solve.json"
    argv = ["solve", "--data", write_tiny(tmp_path), "--config", str(cfg_path)]
    argv += ["--out", str(out)]
    for cfg, key in (
        ({"seeds": [5, 6]}, "'seeds'"),
        ({"instances": [instance]}, "'instances'"),
        ({"hit_ranges": ["2", "2-3"]}, "'hit_ranges'"),
        ({"modes": ["exact", "colgen"]}, "'modes'"),
    ):
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()
    cfg = {"hit_ranges": ["2"], "modes": ["exact"], "beta": 2}
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(argv + ["--mode", "colgen", "--gamma1", "0"]) == 1
    assert "gamma1 must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["hit_range"] == "2" and report["mode"] == "exact"
    # One seed is fine as well.
    cfg_path.write_text(json.dumps({"seeds": [5]}), encoding="utf-8")
    assert main(argv) == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 5


def test_unset_settings_take_the_spec_defaults(tmp_path, capsys):
    # solve and sweep resolve through one path: a missing or null setting
    # falls back to ExperimentSpec's default (hit range 2-3, budget 10), and
    # a config's one-entry seed list is the seed run.
    data = write_tiny(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    for cfg, want, printed in (
        ({}, {"hit_range": "2-3", "seed": 0}, "budget 10"),
        ({"beta": None}, {"hit_range": "2-3", "objective": 2}, "budget 10"),
        ({"seeds": [9]}, {"seed": 9}, "budget 10"),
        ({"seeds": [9], "beta": 1}, {"seed": 9, "objective": 1}, "budget 1"),
    ):
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["solve", "--data", data, "--mode", "colgen", "--config", str(cfg_path)]
        assert main(argv + ["--out", str(out)]) == 0
        assert printed in capsys.readouterr().out
        report = json.loads(out.read_text(encoding="utf-8"))
        assert {key: report[key] for key in want} == want
    # An empty grid list is a setting, not a missing one: the spec refuses it.
    for key in ("hit_ranges", "modes", "seeds"):
        cfg_path.write_text(json.dumps({key: []}), encoding="utf-8")
        assert main(["solve", "--data", data, "--config", str(cfg_path)]) == 1
        assert "an experiment needs" in capsys.readouterr().err
    synth = {"genes": 6, "tumors": 4, "normals": 2, "planted": [[0, 1]]}
    cfg = {"instances": [{"name": "tiny", "synth": synth}], "modes": ["exact"]}
    cfg["beta"] = 2  # the exact search caps the budget at 3
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    [name] = [p.name for p in out_dir.iterdir() if p.name.endswith(".json")]
    report = json.loads((out_dir / name).read_text(encoding="utf-8"))
    assert report["hit_range"] == "2-3" and report["seed"] == 0
    assert report["train_fraction"] == 0.75


def test_null_grid_keys_are_unset(tmp_path, capsys):
    # A null grid list means "not set", like any other null setting: solve
    # and sweep then run the default seed 0.
    data = write_tiny(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    cfg = {"seeds": None, "hit_ranges": None, "modes": None, "beta": 1}
    cfg_path.write_text(json.dumps({**cfg, "instances": None}), encoding="utf-8")
    argv = ["solve", "--data", data, "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["seed"] == 0 and report["hit_range"] == "2-3"
    assert report["mode"] == "colgen" and report["objective"] == 1
    synth = {"genes": 6, "tumors": 4, "normals": 2, "planted": [[0, 1]]}
    cfg = {"instances": [{"name": "tiny", "synth": synth}], "seeds": None}
    cfg.update(modes=["exact"], beta=2)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    [name] = [p.name for p in out_dir.iterdir() if p.name.endswith(".json")]
    report = json.loads((out_dir / name).read_text(encoding="utf-8"))
    assert report["seed"] == 0 and report["hit_range"] == "2-3"
    # A sweep still needs instances; null leaves them missing.
    cfg_path.write_text(json.dumps({"instances": None}), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
    assert "nonempty 'instances' list" in capsys.readouterr().err


def test_sweep_and_report_commands(tmp_path):
    cfg = {
        "instances": [
            {
                "name": "planted",
                "synth": {
                    "genes": 10,
                    "tumors": 12,
                    "normals": 6,
                    "planted": [[0, 1]],
                    "background_rate": 0.1,
                    "seed": 3,
                },
            }
        ],
        "hit_ranges": ["2"],
        "modes": ["mip_heuristic", "exact"],
        "seeds": [0, 1],
        "beta": 2,
        "gamma1": 10,
        "gamma2": 200,
        "train_fraction": 0.75,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "results"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "summary.tsv" in files
    assert sum(f.endswith(".json") for f in files) == 4
    rc = main(["report", "--dir", str(out_dir), "--out", str(tmp_path / "again.tsv")])
    assert rc == 0
    assert (tmp_path / "again.tsv").read_text(encoding="utf-8").startswith("instance\t")
    victim = next(p for p in out_dir.iterdir() if p.name.endswith(".json"))
    broken = json.loads(victim.read_text(encoding="utf-8"))
    broken["mode"] = "bogus"
    victim.write_text(json.dumps(broken), encoding="utf-8")
    assert main(["report", "--dir", str(out_dir)]) == 1
    # A --seed flag collapses the config's seed list to that one seed.
    solo_dir = tmp_path / "solo"
    rc = main(
        ["sweep", "--config", str(cfg_path), "--out-dir", str(solo_dir), "--seed", "7"]
    )
    assert rc == 0
    solo = [p for p in solo_dir.iterdir() if p.name.endswith(".json")]
    assert len(solo) == 2
    for p in solo:
        assert json.loads(p.read_text(encoding="utf-8"))["seed"] == 7
    # "seed" is no config key: seeds come as a list, or as the --seed flag.
    del cfg["seeds"]
    cfg["seed"] = 5
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    single_dir = tmp_path / "single"
    argv = ["sweep", "--config", str(cfg_path), "--out-dir", str(single_dir)]
    assert main(argv) == 1
    assert not single_dir.exists()
    del cfg["seed"]
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(argv + ["--seed", "5"]) == 0
    single = [p for p in single_dir.iterdir() if p.name.endswith(".json")]
    assert len(single) == 2
    for p in single:
        assert json.loads(p.read_text(encoding="utf-8"))["seed"] == 5


def test_sweep_refuses_report_names_that_collide_or_escape(tmp_path, capsys):
    # Two instances named "a" would write one report file, "../escape" one
    # outside --out-dir and "a\tb" a summary row with one field too many;
    # the sweep refuses them all before writing anything.
    synth = {"genes": 10, "tumors": 12, "normals": 6, "planted": [[0, 1]]}
    base = {"hit_ranges": ["2"], "modes": ["mip_heuristic"], "beta": 2, "gamma2": 50}
    a = {"name": "a", "synth": synth}
    config_dir = tmp_path / "config"
    config_dir.mkdir()
    cfg_path = config_dir / "sweep.json"
    out_dir = config_dir / "res"
    for cfg, words in (
        (
            {**base, "instances": [a, {"name": "../escape", "synth": synth}]},
            "instance name '../escape'",
        ),
        ({**base, "instances": [a, {**a, "synth": {**synth, "seed": 1}}]}, "a appears"),
        ({**base, "instances": [a], "seeds": [0, 0]}, "0 appears twice in seeds"),
        # A tab would split the name over two summary.tsv fields.
        (
            {**base, "instances": [{"name": "a\tb", "synth": synth}]},
            "instance name 'a\\tb'",
        ),
    ):
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config", "sweep.json"]


def test_consistency_failure_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise ConsistencyError("upper bound 3 below objective 4")

    monkeypatch.setattr(cli, "run_cell", broken)
    assert main(["solve", "--data", write_tiny(tmp_path)]) == 2
    assert capsys.readouterr().err == "consistency failure: upper bound 3 below objective 4\n"


def test_sweep_partial_failure_exit_code(tmp_path):
    cfg = {
        "instances": [
            {
                # 11,175 pairs: above exact mode's pool cap of 5,000.
                "name": "toobig",
                "synth": {"genes": 150, "tumors": 6, "normals": 3,
                          "background_rate": 0.5, "seed": 1},
            },
            {
                "name": "ok",
                "synth": {"genes": 8, "tumors": 8, "normals": 4,
                          "planted": [[0, 1]], "background_rate": 0.1, "seed": 2},
            },
        ],
        "hit_ranges": ["2"],
        "modes": ["exact"],
        "beta": 2,
        "train_fraction": 0.75,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_dir = tmp_path / "results"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 3
    assert (out_dir / "failures.json").exists()
    failures = json.loads((out_dir / "failures.json").read_text(encoding="utf-8"))
    assert failures[0]["cell"].startswith("toobig__")
    assert "combinations" in failures[0]["message"]


def test_sweep_refuses_workers_below_one(tmp_path, capsys):
    cfg = {
        "instances": [
            {"name": "tiny", "synth": {"genes": 6, "tumors": 4, "normals": 2}}
        ],
        "modes": ["exact"],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for bad in ("0", "-2"):
        out_dir = tmp_path / f"results{bad}"
        argv = ["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]
        assert main(argv + ["--workers", bad]) == 1
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    data = write_tiny(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"betta": 3}), encoding="utf-8")
    assert main(["solve", "--data", data, "--config", str(cfg)]) == 1
    # Known keys holding the wrong type are refused too: a string hit range
    # is not read as its first character, a float gamma1 does not crash.
    # ``top_q`` is no setting, whatever its value, and ``seed`` is none
    # either: a config gives its seeds as the ``seeds`` list.
    for bad, words in (
        ({"top_q": 1}, "unknown keys: top_q"),
        ({"seed": 1}, "unknown keys: seed"),
        ({"hit_ranges": "3-4"}, "'hit_ranges' must be a list"),
        ({"gamma1": 1.5}, "gamma1 must be an int"),
        ({"beta": True}, "beta must be an int"),
        ({"master_time_limit": "30"}, "master_time_limit must be a number"),
    ):
        cfg.write_text(json.dumps(bad), encoding="utf-8")
        argv = ["solve", "--data", data, "--mode", "colgen", "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--data", data, "--top-q", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --top-q 2" in capsys.readouterr().err


def test_solve_without_tumor_samples_in_every_mode(tmp_path):
    # Selecting nothing is optimal; every mode says so with exit 0.
    data = tmp_path / "normals.tsv"
    header = "sample_id\tlabel\t" + "\t".join(f"g{j}" for j in range(6))
    rows = [
        f"n{i}\tnormal\t" + "\t".join("1" if (i + j) % 3 else "0" for j in range(6))
        for i in range(4)
    ]
    data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "r.json"
    for mode, ub in (("colgen", 0.0), ("exact", 0.0), ("mip_heuristic", None)):
        argv = ["solve", "--data", str(data), "--mode", mode, "--hit", "2-3",
                "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["objective"] == 0 and report["selected"] == []
        assert report["status"] == "converged" and report["ub"] == ub


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for data, words in (
        (b"{not json", "is not valid JSON"),
        (b"[1]", "a JSON object"),
        (b'{"beta": "\xff"}', f"{cfg}:1: not UTF-8 text"),
    ):
        cfg.write_bytes(data)
        out_dir = tmp_path / "results"
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]
        assert main(argv) == 1
        assert main(["solve", "--data", write_tiny(tmp_path), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error: ") and words in line for line in err)
        assert not out_dir.exists()


def test_sweep_reads_data_relative_to_its_config(tmp_path, monkeypatch):
    # The instance's path is relative to the config's directory, not to
    # the working directory the sweep runs from.
    (tmp_path / "cfg" / "data").mkdir(parents=True)
    (tmp_path / "elsewhere").mkdir()
    matrix = generate_synthetic(SyntheticSpec(8, 8, 4, ((0, 1),), 0.8, 0.1), 1)
    write_dense(matrix, tmp_path / "cfg" / "data" / "m.tsv")
    cfg = {"instances": [{"name": "m", "data": "data/m.tsv"}], "modes": ["exact"]}
    (tmp_path / "cfg" / "sweep.json").write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.chdir(tmp_path / "elsewhere")
    argv = ["sweep", "--config", "../cfg/sweep.json", "--out-dir", "results"]
    argv += ["--beta", "2"]
    assert main(argv) == 0
    [report] = (tmp_path / "elsewhere" / "results").glob("m__*.json")
    cell = json.loads(report.read_text(encoding="utf-8"))
    assert cell["instance"] == "m" and cell["status"] == "converged"
    assert {g for ids in cell["selected"] for g in ids} <= set(matrix.gene_ids)


def test_report_refusals(tmp_path, capsys):
    # An empty results directory, then one holding a tampered report.
    results = tmp_path / "results"
    results.mkdir()
    assert main(["report", "--dir", str(results)]) == 1
    assert capsys.readouterr().err.startswith("error: no report files found")
    report = results / "tiny.json"
    argv = ["solve", "--data", write_tiny(tmp_path), "--mode", "exact", "--beta", "2"]
    assert main(argv + ["--out", str(report)]) == 0
    assert main(["report", "--dir", str(results)]) == 0
    cell = json.loads(report.read_text(encoding="utf-8"))
    report.write_text(json.dumps(dict(cell, mode="magic")), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--dir", str(results)]) == 1
    assert capsys.readouterr().err == (
        "error: invalid report: 'magic' is not one of "
        "['colgen', 'mip_heuristic', 'exact']\n"
    )
    # A report that is not JSON, or not UTF-8 text, names its file.
    for data, words in ((b"{not json", "is not valid JSON"), (b"{\xff}", "not UTF-8")):
        report.write_bytes(data)
        assert main(["report", "--dir", str(results)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(report) in err and words in err


def test_module_entry_smoke(tmp_path):
    out = tmp_path / "m.tsv"
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(multihit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "multihit", "synth", "--genes", "5",
         "--tumors", "4", "--normals", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote" in proc.stdout
