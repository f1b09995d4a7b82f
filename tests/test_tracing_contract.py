"""The benchmark's tracer patches and probes package internals by name.

``perfbench/tracing.py`` is loaded from its source text (nothing is written
next to it) and run against the package, so a rename in ``src/`` fails here
instead of in a traced benchmark run.
"""

import types
from pathlib import Path

import multihit
from multihit import harness
from multihit.data import HitRange, write_dense
from multihit.framework import SolverConfig, solve_colgen
from multihit.synth import SyntheticSpec, generate_synthetic

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_targets_exist_and_probes_read_real_solves(tmp_path):
    tracing = load_tracing()
    targets = tracing._targets(multihit)
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    originals = [getattr(module, attr) for module, attr, _, _ in targets]

    spec = SyntheticSpec(12, 16, 8, ((0, 1), (2, 3)), 0.4, 0.1, 0.1)
    path = tmp_path / "m.tsv"
    write_dense(generate_synthetic(spec, 1), path)
    hit = HitRange(2, 3)
    tracer = tracing.Tracer()
    with tracer.patched(multihit):
        tracer.run_id = 0
        matrix = multihit.data.load_dense(path)
        tracer.run_id = 1
        report = solve_colgen(matrix, SolverConfig(hit_range=hit, beta=3))
        tracer.run_id = 2
        cell_spec = harness.ExperimentSpec(
            instances=(("m", matrix),), hit_ranges=(hit,), gamma2=50
        )
        harness.run_cell("m", matrix, hit, "mip_heuristic", 0, cell_spec)
    assert [getattr(module, attr) for module, attr, _, _ in targets] == originals

    setup = tracing.setup_metrics(tracer, 0)
    assert setup["data.load_dense_cells"] == matrix.n_samples * matrix.n_genes
    colgen = tracing.solve_metrics(tracer, 1)
    assert colgen["framework.rounds"] == report.iterations > 0
    assert colgen["pricing.nodes"] == report.pricing_nodes
    assert colgen["master.bnb.nodes"] == report.binary_nodes
    # One LP per round, every one after the first warm; the pool MIP starts
    # from the last relaxation and solves none.
    assert colgen["lp.warm_calls"] == report.iterations - 1
    assert colgen["lp.calls"] == report.iterations
    assert colgen["lp.max_rows"] == matrix.tumor_count + 1
    pool = tracing.solve_metrics(tracer, 2)
    assert pool["candidates.columns"] == 50
    assert pool["pricing.calls"] == 0 and pool["master.bnb.nodes"] >= 1
