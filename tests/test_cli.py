"""Command line tests driven through main(); one subprocess smoke check."""

import json
import os
import subprocess
import sys

import pytest

import multihit
from multihit import cli
from multihit.cli import main
from multihit.data import load_dense
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


def test_ingest_command(tmp_path):
    (tmp_path / "tumor.csv").write_text(
        "gene,sample,count\nbraf,s1,2\nkras,s1,1\nbraf,s2,1\ndead,s1,0\n",
        encoding="utf-8",
    )
    (tmp_path / "normal.csv").write_text(
        "gene,sample\nkras,h1\n", encoding="utf-8"
    )
    out = str(tmp_path / "dense.tsv")
    rc = main(
        [
            "ingest",
            "--normal", str(tmp_path / "normal.csv"),
            "--tumor", str(tmp_path / "tumor.csv"),
            "--out", out,
            "--prune",
        ]
    )
    assert rc == 0
    matrix = load_dense(out)
    assert matrix.gene_ids == ("braf", "kras")  # 'dead' pruned
    assert matrix.tumor_count == 2 and matrix.normal_count == 1


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


def test_env_time_limit_and_flag_precedence(tmp_path, monkeypatch):
    data = write_tiny(tmp_path)
    out = str(tmp_path / "r.json")
    monkeypatch.setenv("MULTIHIT_TOTAL_TIME_LIMIT", "1e-9")
    rc = main(["solve", "--data", data, "--mode", "colgen", "--hit", "2",
               "--beta", "2", "--out", out])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        cell = json.load(fh)
    assert cell["status"] == "time_limit" and cell["ub"] is None
    rc = main(["solve", "--data", data, "--mode", "colgen", "--hit", "2",
               "--beta", "2", "--total-time-limit", "60", "--out", out])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["status"] == "converged"
    monkeypatch.setenv("MULTIHIT_TOTAL_TIME_LIMIT", "not-a-number")
    rc = main(["solve", "--data", data, "--mode", "colgen", "--hit", "2"])
    assert rc == 1
    # NaN parses as a float but is no time limit; it must not "solve" nothing.
    monkeypatch.setenv("MULTIHIT_TOTAL_TIME_LIMIT", "nan")
    rc = main(["solve", "--data", data, "--mode", "colgen", "--hit", "2"])
    assert rc == 1


def test_validation_exit_codes(tmp_path, capsys):
    assert main(["solve", "--data", str(tmp_path / "missing.tsv")]) == 1
    bad = tmp_path / "bad.tsv"
    bad.write_text("sample_id\tlabel\tg1\ns1\tweird\t1\n", encoding="utf-8")
    assert main(["solve", "--data", str(bad)]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required --data
    assert exc.value.code == 1
    capsys.readouterr()
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
        ({"seeds": [5]}, "'seeds'"),
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
    assert main(argv) == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["hit_range"] == "2" and report["mode"] == "exact"


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
    # Without a seed list the sweep runs the one seed that solve would use.
    del cfg["seeds"]
    cfg["seed"] = 5
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    single_dir = tmp_path / "single"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(single_dir)])
    assert rc == 0
    single = [p for p in single_dir.iterdir() if p.name.endswith(".json")]
    assert len(single) == 2
    for p in single:
        assert json.loads(p.read_text(encoding="utf-8"))["seed"] == 5


def test_sweep_partial_failure_exit_code(tmp_path):
    cfg = {
        "instances": [
            {
                "name": "toobig",
                "synth": {"genes": 20, "tumors": 6, "normals": 3,
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
    # is not read as its first character, a float top_q does not crash.
    for bad, words in (
        ({"hit_ranges": "3-4"}, "'hit_ranges' must be a list"),
        ({"top_q": 1.5}, "top_q must be an int"),
        ({"beta": True}, "beta must be an int"),
        ({"master_time_limit": "30"}, "master_time_limit must be a number"),
    ):
        cfg.write_text(json.dumps(bad), encoding="utf-8")
        argv = ["solve", "--data", data, "--mode", "colgen", "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err


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
