"""Harness tests: synthetic generation, report schema, sweeps, stability."""

import concurrent.futures
import dataclasses
import json
import math
import os
from concurrent.futures.process import BrokenProcessPool
from importlib import resources

import jsonschema
import pytest

from multihit import harness
from multihit.data import (
    HitRange,
    MutationMatrix,
    SampleLabel,
    SampleRecord,
    prune_genes,
)
from multihit.errors import ValidationError
from multihit.framework import (
    SolverConfig,
    solve_colgen,
    solve_exact,
    solve_mip_heuristic,
)
from multihit.harness import (
    ExperimentSpec,
    cell_id,
    derive_seed,
    run_cell,
    run_experiment,
    validate_report,
)
from multihit.synth import SyntheticSpec, generate_synthetic

from oracles import exact_bruteforce


def planted_spec(n_genes=10, n_tumor=12, n_normal=6, **kw):
    defaults = dict(
        planted=((0, 1), (2, 3)),
        planted_rate=1.0,
        background_rate=0.0,
        normal_rate=0.0,
    )
    defaults.update(kw)
    return SyntheticSpec(n_genes, n_tumor, n_normal, **defaults)


def test_synthetic_determinism_and_seed_sensitivity():
    spec = planted_spec(background_rate=0.3, normal_rate=0.2)
    a = generate_synthetic(spec, 5)
    b = generate_synthetic(spec, 5)
    assert a.gene_ids == b.gene_ids
    assert [s.sample_id for s in a.samples] == [s.sample_id for s in b.samples]
    assert [s.mutations for s in a.samples] == [s.mutations for s in b.samples]
    c = generate_synthetic(spec, 6)
    assert [s.mutations for s in a.samples] != [s.mutations for s in c.samples]


def test_synthetic_planted_structure_and_ids():
    m = generate_synthetic(planted_spec(), 1)
    assert m.gene_ids[0] == "g0001" and m.gene_ids[9] == "g0010"
    assert m.samples[0].sample_id == "t0001"
    assert m.samples[12].sample_id == "n0001"
    want_row = 0b1111  # union of both planted pairs
    for s in m.samples:
        if s.label is SampleLabel.TUMOR:
            assert s.mutations == want_row
        else:
            assert s.mutations == 0


def test_synthetic_rate_extremes():
    m = generate_synthetic(
        planted_spec(planted=(), background_rate=1.0, normal_rate=1.0), 3
    )
    full = (1 << 10) - 1
    assert all(s.mutations == full for s in m.samples)


def test_synthetic_planted_only_instance_is_fully_recoverable():
    spec = SyntheticSpec(6, 10, 3, planted=((0, 1), (2, 3)), planted_rate=1.0)
    m = generate_synthetic(spec, 9)
    sel, obj = exact_bruteforce(m, HitRange(2, 2), 2)
    assert obj == m.tumor_count == 10
    covered = 0
    for comb in sel:
        covered |= comb.tumor_cover
        assert comb.normal_cover == 0
    assert covered == m.all_tumor_mask


def test_synthetic_all_zero_rates_prune_to_empty():
    m = generate_synthetic(SyntheticSpec(5, 4, 2), 3)
    assert all(s.mutations == 0 for s in m.samples)
    assert prune_genes(m).n_genes == 0


def test_synthetic_saturated_normals_favor_empty_selection():
    spec = SyntheticSpec(
        6, 4, 8, planted=((0, 1), (2, 3)), planted_rate=1.0, normal_rate=1.0
    )
    m = generate_synthetic(spec, 21)
    sel, obj = exact_bruteforce(m, HitRange(2, 2), 2)
    assert sel == []
    assert obj == 0


def test_synthetic_validation():
    with pytest.raises(ValidationError, match="rate"):
        SyntheticSpec(5, 3, 2, planted_rate=1.5)
    with pytest.raises(ValidationError, match="out of range"):
        SyntheticSpec(5, 3, 2, planted=((0, 7),))
    with pytest.raises(ValidationError, match="repeats"):
        SyntheticSpec(5, 3, 2, planted=((1, 1),))
    with pytest.raises(ValidationError, match="empty"):
        SyntheticSpec(5, 3, 2, planted=((),))
    with pytest.raises(ValidationError, match="n_genes must be an int"):
        SyntheticSpec("6", 3, 2)
    with pytest.raises(ValidationError, match="n_tumor must be an int"):
        SyntheticSpec(5, True, 2)
    with pytest.raises(ValidationError, match="normal_rate must be a number"):
        SyntheticSpec(5, 3, 2, normal_rate="0.1")
    # Zero tumors or normals are allowed; the message states the bounds.
    SyntheticSpec(5, 0, 0)
    for sizes in ((5, -1, 2), (5, 3, -1), (0, 3, 2)):
        with pytest.raises(ValidationError, match="n_genes must be at least 1 and"):
            SyntheticSpec(*sizes)
    # Planted combinations come from sweep config files too: each must be a
    # list of int gene indices, and a bool is not one.
    for planted in ([[0, 1.5]], [["a", 1]], [5], [[0, True]], 5):
        with pytest.raises(ValidationError, match="planted"):
            SyntheticSpec(5, 3, 2, planted=planted)


def test_derive_seed_is_stable_and_purpose_split():
    assert derive_seed(7, "split:a") == derive_seed(7, "split:a")
    assert derive_seed(7, "split:a") != derive_seed(7, "split:b")
    assert derive_seed(7, "split:a") != derive_seed(8, "split:a")
    assert 0 <= derive_seed(7, "x") < 2**64


def small_experiment(tmp_path, modes, seeds=(0,), **kw):
    matrix = generate_synthetic(planted_spec(background_rate=0.1), 11)
    defaults = dict(
        instances=(("toy", matrix),),
        hit_ranges=(HitRange(2, 2),),
        modes=modes,
        seeds=seeds,
        beta=2,
        gamma1=10,
        gamma2=200,
        train_fraction=0.75,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_run_cell_produces_schema_valid_report():
    spec = small_experiment(None, modes=("mip_heuristic",))
    name, matrix = spec.instances[0]
    cell = run_cell(name, matrix, HitRange(2, 2), "mip_heuristic", 3, spec)
    validate_report(cell)
    assert cell["lb"] == cell["objective"]
    assert cell["mode"] == "mip_heuristic"
    assert cell["hit_range"] == "2"
    for ids in cell["selected"]:
        for gid in ids:
            assert gid in matrix.gene_ids
    assert cell["ub"] is None and cell["gap_percent"] is None
    assert cell["iterations"] == cell["pricing_nodes"] == 0
    assert cell["binary_nodes"] >= 1 and cell["lp_iterations"] >= 1


def test_run_cell_builds_only_the_gene_columns_it_reads(monkeypatch):
    # A pool cell reads the columns of the top gamma1 genes on the train
    # half and those of its at most beta selected combinations (3 genes
    # each) on the test half; each gene read builds a tumor and a normal
    # column, and no other gene's are built.
    matrix = generate_synthetic(
        planted_spec(2500, 60, 30, background_rate=0.03, normal_rate=0.01), 1
    )
    split_train_test, prune = harness.split_train_test, harness.prune_genes
    halves = {}

    def split(*args):
        halves["train"], halves["test"] = split_train_test(*args)
        return halves["train"], halves["test"]

    def pruned(m):
        halves["train"] = prune(m)
        return halves["train"]

    monkeypatch.setattr(harness, "split_train_test", split)
    monkeypatch.setattr(harness, "prune_genes", pruned)
    hit = HitRange(2, 3)
    spec = ExperimentSpec(
        instances=(("wide", matrix),),
        hit_ranges=(hit,),
        modes=("mip_heuristic",),
        seeds=(1,),
        beta=10,
        gamma1=100,
        gamma2=1000,
        train_fraction=0.75,
    )
    cell = run_cell("wide", matrix, hit, "mip_heuristic", 1, spec)
    train, test = halves["train"], halves["test"]
    assert train.n_genes >= 2000 and test.n_genes == matrix.n_genes
    assert cell["objective"] > 0 and cell["n_comb"] == 1000
    assert 0 < 2 * len(train._columns) <= 2 * spec.gamma1
    assert 0 < 2 * len(test._columns) <= 2 * 3 * spec.beta


def test_every_mode_answers_a_training_half_with_fewer_genes_than_k_max():
    # run_cell prunes never-mutated genes, so a training half can hold fewer
    # genes than the hit range's largest size.  The pool heuristic then draws
    # the sizes that fit, and none below the smallest size.
    samples = [
        SampleRecord("t0", SampleLabel.TUMOR, 0b11),
        SampleRecord("t1", SampleLabel.TUMOR, 0b01),
        SampleRecord("n0", SampleLabel.NORMAL, 0),
    ]
    m = MutationMatrix(list("abcde"), samples)
    pruned = prune_genes(m)
    assert pruned.n_genes == 2
    cfg = SolverConfig(hit_range=HitRange(2, 3), beta=3)
    for solve in (solve_colgen, solve_exact, solve_mip_heuristic):
        rep = solve(pruned, cfg)
        assert rep.status == "converged" and rep.objective == 1
        assert [c.genes for c in rep.selection] == [(0, 1)]
        if solve is solve_mip_heuristic:
            assert rep.upper_bound is None and rep.pool_size == 1
        else:
            assert rep.upper_bound == 1.0
    # No training samples: the pruned half has no gene at all.
    spec = ExperimentSpec(instances=(("m", m),), beta=3, train_fraction=0.0)
    for mode in ("colgen", "exact", "mip_heuristic"):
        cell = run_cell("m", m, HitRange(2, 3), mode, 0, spec)
        assert cell["status"] == "converged" and cell["objective"] == 0
        assert cell["n_comb"] == 0 and cell["selected"] == []
        assert cell["ub"] == (None if mode == "mip_heuristic" else 0.0)


def test_run_cell_colgen_carries_bound():
    spec = small_experiment(None, modes=("colgen",))
    name, matrix = spec.instances[0]
    cell = run_cell(name, matrix, HitRange(2, 2), "colgen", 3, spec)
    assert cell["status"] == "converged"
    assert cell["ub"] is not None
    if cell["objective"] > 0:
        assert cell["gap_percent"] is not None


def test_validate_report_rejects_tampering():
    spec = small_experiment(None, modes=("mip_heuristic",))
    name, matrix = spec.instances[0]
    cell = run_cell(name, matrix, HitRange(2, 2), "mip_heuristic", 3, spec)
    schema = json.loads(
        resources.files("multihit").joinpath("report_schema.json").read_text()
    )
    tampered = [
        dict(cell, mode="magic"),
        {k: v for k, v in cell.items() if k != "objective"},
        dict(cell, metrics_train=dict(cell["metrics_train"], extra=1.0)),
        dict(cell, lp_iterations=-1),
        {k: v for k, v in cell.items() if k != "binary_nodes"},
    ]
    for bad in tampered:
        with pytest.raises(ValidationError) as ours:
            validate_report(bad)
        # Raised from the error that jsonschema.validate picks as its best match.
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(bad, schema)
        assert str(ours.value) == f"invalid report: {reference.value.message}"
        cause = ours.value.__cause__
        assert isinstance(cause, jsonschema.ValidationError)
        assert cause.message == reference.value.message
        assert list(cause.path) == list(reference.value.path)


def test_run_experiment_serial(tmp_path):
    spec = small_experiment(tmp_path, modes=("mip_heuristic", "exact"), seeds=(0, 1))
    out = tmp_path / "sweep"
    reports, failures = run_experiment(spec, str(out), workers=1)
    assert failures == []
    assert len(reports) == 4
    files = sorted(os.listdir(out))
    assert "summary.tsv" in files
    assert sum(f.endswith(".json") for f in files) == 4
    name = cell_id("toy", HitRange(2, 2), "exact", 0) + ".json"
    with open(out / name, encoding="utf-8") as fh:
        parsed = json.load(fh)
    validate_report(parsed)
    lines = (out / "summary.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    header = lines[0].split("\t")
    assert header[0] == "instance" and "mcc_train" in header and "time_total" in header
    for line in lines[1:]:
        assert len(line.split("\t")) == len(header)


def test_serial_sweep_validates_each_report_once(tmp_path, monkeypatch):
    # run_cell validates the cell it returns; writing it adds no second check.
    calls = []
    real = harness.validate_report
    monkeypatch.setattr(
        harness, "validate_report", lambda report: calls.append(1) or real(report)
    )
    spec = small_experiment(tmp_path, modes=("mip_heuristic",), seeds=(0, 1))
    reports, failures = run_experiment(spec, str(tmp_path / "sweep"), workers=1)
    assert failures == [] and len(reports) == 2
    assert len(calls) == 2


def test_parallel_matches_serial(tmp_path):
    spec = small_experiment(tmp_path, modes=("mip_heuristic", "exact"), seeds=(0, 1))
    serial, f1 = run_experiment(spec, str(tmp_path / "a"), workers=1)
    parallel, f2 = run_experiment(spec, str(tmp_path / "b"), workers=2)
    assert f1 == [] and f2 == []

    def normalize(reports):
        out = []
        for r in sorted(
            reports, key=lambda r: (r["instance"], r["hit_range"], r["mode"], r["seed"])
        ):
            r = dict(r)
            r["time_seconds"] = None
            out.append(r)
        return out

    assert normalize(serial) == normalize(parallel)


def test_workers_capped_at_cell_count_and_refused_below_one(tmp_path, monkeypatch):
    # A stand-in pool runs each cell in this process and records its size,
    # so no worker process is ever started.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(
        harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool
    )
    spec = small_experiment(tmp_path, modes=("mip_heuristic", "exact"))
    reports, failures = run_experiment(spec, str(tmp_path / "a"), workers=64)
    assert sizes == [2] and failures == [] and len(reports) == 2
    one_cell = small_experiment(tmp_path, modes=("exact",))
    reports, _ = run_experiment(one_cell, str(tmp_path / "c"), workers=8)
    assert sizes == [2] and len(reports) == 1  # one cell runs in-process
    for bad in (0, -3):
        with pytest.raises(ValidationError, match="workers"):
            run_experiment(spec, str(tmp_path / "d"), workers=bad)
    assert sizes == [2] and not (tmp_path / "d").exists()


def test_a_dead_worker_fails_only_its_cell(tmp_path, monkeypatch):
    # A stand-in pool whose first worker dies: that cell is recorded as
    # failed and the sweep goes on, as for a cell that raises.
    class DyingPool:
        def __init__(self, max_workers):
            self.submitted = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.submitted += 1
            fut = concurrent.futures.Future()
            if self.submitted == 1:
                fut.set_exception(BrokenProcessPool("died"))
            else:
                fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", DyingPool)
    spec = small_experiment(tmp_path, modes=("mip_heuristic", "exact"))
    reports, failures = run_experiment(spec, str(tmp_path / "a"), workers=2)
    assert [r["mode"] for r in reports] == ["exact"]
    assert [f["error_type"] for f in failures] == ["BrokenProcessPool"]
    assert failures[0]["cell"] == cell_id("toy", HitRange(2, 2), "mip_heuristic", 0)
    assert (tmp_path / "a" / "failures.json").exists()


def test_each_pool_task_ships_only_its_own_instance(tmp_path, monkeypatch):
    # A stand-in pool that records the spec of every submitted cell: each
    # carries only the instance of its cell, not the whole sweep's.
    submitted = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(
        harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool
    )
    spec = small_experiment(tmp_path, modes=("mip_heuristic",), seeds=(0, 1))
    other = generate_synthetic(planted_spec(background_rate=0.2), 12)
    spec = dataclasses.replace(
        spec, instances=(("toy", spec.instances[0][1]), ("other", other))
    )
    reports, failures = run_experiment(spec, str(tmp_path / "a"), workers=2)
    assert len(reports) == len(submitted) == 4 and not failures
    assert [args[0] for args in submitted] == ["toy", "toy", "other", "other"]
    for name, matrix, *_, cell_spec in submitted:
        assert cell_spec.instances == ((name, matrix),)
        assert cell_spec.modes == spec.modes and cell_spec.seeds == spec.seeds


def test_reports_byte_stable_apart_from_timing(tmp_path):
    spec = small_experiment(tmp_path, modes=("mip_heuristic",))
    run_experiment(spec, str(tmp_path / "a"), workers=1)
    run_experiment(spec, str(tmp_path / "b"), workers=1)
    name = cell_id("toy", HitRange(2, 2), "mip_heuristic", 0) + ".json"

    def scrubbed(path):
        parsed = json.loads(path.read_text(encoding="utf-8"))
        parsed["time_seconds"] = None
        return json.dumps(parsed, sort_keys=True)

    assert scrubbed(tmp_path / "a" / name) == scrubbed(tmp_path / "b" / name)


def test_failure_capture_keeps_sweep_alive(tmp_path):
    # 150 genes give 11,175 pairs, above exact mode's pool cap of 5,000.
    big = generate_synthetic(
        SyntheticSpec(150, 8, 4, planted=((0, 1),), background_rate=0.5), 2
    )
    small = generate_synthetic(planted_spec(background_rate=0.1), 11)
    spec = ExperimentSpec(
        instances=(("big", big), ("small", small)),
        hit_ranges=(HitRange(2, 2),),
        modes=("exact",),
        seeds=(0,),
        beta=2,
        train_fraction=0.75,
    )
    out = tmp_path / "sweep"
    reports, failures = run_experiment(spec, str(out), workers=1)
    assert len(reports) == 1 and reports[0]["instance"] == "small"
    assert len(failures) == 1
    assert failures[0]["cell"].startswith("big__")
    assert failures[0]["error_type"] == "ValidationError"
    assert "combinations" in failures[0]["message"]
    assert (out / "failures.json").exists()
    assert (out / "summary.tsv").exists()


def test_experiment_spec_validation():
    m = generate_synthetic(planted_spec(), 0)
    with pytest.raises(ValidationError, match="unknown mode"):
        ExperimentSpec(
            instances=(("a", m),), hit_ranges=(HitRange(2, 2),), modes=("nope",)
        )
    with pytest.raises(ValidationError, match="needs instances"):
        ExperimentSpec(instances=(), hit_ranges=(HitRange(2, 2),))
    with pytest.raises(ValidationError, match="modes"):
        ExperimentSpec(instances=(("a", m),), hit_ranges=(HitRange(2, 2),), modes=())
    with pytest.raises(ValidationError, match="budget"):
        ExperimentSpec(instances=(("a", m),), hit_ranges=(HitRange(2, 2),), beta=-1)
    # Settings read from config files: wrong types and non-numbers are
    # refused, not run or crashed on.
    for bad in (
        {"beta": True},
        {"beta": 2.0},
        {"gamma1": "10"},
        {"gamma2": 5.5},
        {"gamma1": 0},
        {"gamma2": -5},
        {"gamma1": True},
        {"gamma2": 1.5},
        {"master_time_limit": "30"},
        {"total_time_limit": math.nan},
        {"total_time_limit": -1.0},
        {"master_time_limit": True},
        {"train_fraction": "0.5"},
        {"train_fraction": math.nan},
        {"train_fraction": True},
        {"train_fraction": 1.5},
        {"seeds": ("x",)},
        {"seeds": (0, True)},
    ):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            ExperimentSpec(instances=(("a", m),), hit_ranges=(HitRange(2, 2),), **bad)


def test_experiment_spec_refuses_cells_that_share_a_report_file():
    # Each cell's report is named by its cell id, so an instance name must
    # stay inside the output directory, and no name or grid entry repeats.
    # A name is printable too, as a tab or newline would break summary rows.
    m = generate_synthetic(planted_spec(), 0)
    for name in ("", "../escape", "a/b", "a\\b", "a\tb", "a\nb", 3, None):
        with pytest.raises(ValidationError, match="instance name"):
            ExperimentSpec(instances=((name, m),))
    for grid, words in (
        ({"instances": (("a", m), ("a", m))}, "a appears twice in instance names"),
        (
            {"hit_ranges": (HitRange(2, 3), HitRange(2, 3))},
            "2-3 appears twice in hit_ranges",
        ),
        ({"modes": ("exact", "colgen", "exact")}, "exact appears twice in modes"),
        ({"seeds": (0, 1, 0)}, "0 appears twice in seeds"),
    ):
        with pytest.raises(ValidationError, match=words):
            ExperimentSpec(**{"instances": (("a", m),), **grid})
    cells = ExperimentSpec(instances=(("a", m), ("..", m)), seeds=(0, 1))
    assert [name for name, _ in cells.instances] == ["a", ".."]
