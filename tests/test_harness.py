"""Harness tests: synthetic generation, report schema, sweeps, stability."""

import concurrent.futures
import json
import math
import os

import jsonschema
import pytest

from multihit import harness
from multihit.data import HitRange, SampleLabel, prune_genes
from multihit.errors import ValidationError
from multihit.framework import exact_bruteforce
from multihit.harness import (
    ExperimentSpec,
    cell_id,
    derive_seed,
    run_cell,
    run_experiment,
    validate_report,
)
from multihit.synth import SyntheticSpec, generate_synthetic


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
    bad = dict(cell)
    bad["mode"] = "magic"
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)
    bad = dict(cell)
    del bad["objective"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)
    bad = dict(cell)
    bad["metrics_train"] = dict(cell["metrics_train"], extra=1.0)
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)


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
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    spec = small_experiment(tmp_path, modes=("mip_heuristic", "exact"))
    reports, failures = run_experiment(spec, str(tmp_path / "a"), workers=64)
    assert sizes == [2] and failures == [] and len(reports) == 2
    run_experiment(spec, str(tmp_path / "b"), workers=None)
    assert sizes == [2, 2]
    one_cell = small_experiment(tmp_path, modes=("exact",))
    reports, _ = run_experiment(one_cell, str(tmp_path / "c"), workers=8)
    assert sizes == [2, 2] and len(reports) == 1  # one cell runs in-process
    for bad in (0, -3):
        with pytest.raises(ValidationError, match="workers"):
            run_experiment(spec, str(tmp_path / "d"), workers=bad)
    assert sizes == [2, 2] and not (tmp_path / "d").exists()


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
    big = generate_synthetic(
        SyntheticSpec(20, 8, 4, planted=((0, 1),), background_rate=0.5), 2
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
    assert "genes" in failures[0]["message"]
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
    # Settings read from config files and the environment: wrong types and
    # non-numbers are refused, not run or crashed on.
    for bad in (
        {"beta": True},
        {"beta": 2.0},
        {"gamma1": "10"},
        {"gamma2": 5.5},
        {"top_q": 1.5},
        {"top_q": True},
        {"master_time_limit": "30"},
        {"total_time_limit": math.nan},
        {"total_time_limit": -1.0},
        {"master_time_limit": True},
    ):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            ExperimentSpec(instances=(("a", m),), hit_ranges=(HitRange(2, 2),), **bad)
