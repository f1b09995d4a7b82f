"""Closed-loop benchmark of the multihit solvers, one workload per run.

    python3 perfbench/run.py --workload colgen_prove --seed 1 --seconds 55 --trace 0

One client, one solve at a time, in this process.  Each round times the
workload's set-up (``setup_s``: loading its TSV) a fixed number of times,
then solves the last loaded matrix through the public API (``solve_s``);
a round starts only if it would end at most half a round past ``--seconds``,
so runs last ``--seconds`` on average.  Around each round's set-ups and
solve the run also times a fixed piece of work that uses no multihit code
(``calibration.py``); ``setup_s`` and ``solve_s`` are reported in seconds
at the speed where it takes ``calibration.REFERENCE_S``, because the
reference machine's speed drifts by up to 1.7x for minutes at a time.
Every answer is checked after the loop: the objective against an
independent recount from the TSV rows and against the workload's
reference, plus status, bound, gap and report schema.  Answers and the deterministic counters must also agree across the
solves of a run, between traced and untraced solves, and with earlier runs
of the same sources on the same input (kept under ``.perfbench/``).

With ``--trace 1`` set-ups and solves alternate untraced and traced; the
traced ones wrap each layer's public functions (see ``tracing.py``) and the
run reports per-layer medians plus the tracing overhead instead of
end-to-end metrics.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A child process writes the seed's input file
under ``.perfbench/`` before anything is timed.
"""

import os

# BLAS thread count, pinned before numpy loads.  It changes floating-point
# summation order in the simplex and with it the solver's path: on
# colgen_prove, 2 threads give 516,377 pricing nodes, 1 thread 521,592; a
# 2000-column pool on the same matrix takes 9 branch-and-bound nodes with 2
# threads and 2 with 1.  Pinning keeps the counters repeatable on any
# machine; 2 is OpenBLAS's default on the 2-core reference machine.
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# OpenBLAS's idle worker otherwise busy-waits for 2^28 cycles after each
# call.  These solves make small BLAS calls between stretches of Python, so
# the worker never sleeps and takes the second core from everything else on
# the machine: one colgen_prove solve used 10.4 s of CPU in 6.1 s, against
# 7.3 s in 7.0 s with the wait at OpenBLAS's minimum of 2^4 cycles.  Answers
# and counters are the same either way.
os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SOLVE_SPAN = {
    "colgen_prove": "framework.solve_colgen",
    "paper_scale": "harness.run_cell",
}
# Counters that must repeat exactly across solves, traced or not.
COUNTERS = ("framework.rounds", "pricing.nodes", "master.bnb.nodes", "lp.iters")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One workload on one input file, driven through the public API."""

    def __init__(self, mh, workload, path):
        self.mh = mh
        self.w = workload
        self.path = path
        self.hit = mh.HitRange.parse(wl.HIT_RANGE)
        self.tracer = tracing.Tracer()
        self.matrix = None
        self.train_ids = None

    def load(self):
        """What a CLI user pays before each solve: load the TSV and, on
        paper_scale, split and prune it the way a sweep cell does."""
        mh = self.mh
        matrix = mh.data.load_dense(self.path)
        if self.w.name == "paper_scale":
            train, _ = mh.data.split_train_test(
                matrix,
                wl.PAPER_TRAIN_FRACTION,
                mh.harness.derive_seed(wl.PAPER_CELL_SEED, f"split:{self.w.name}"),
            )
            train = mh.data.prune_genes(train)
            self.train_ids = frozenset(s.sample_id for s in train.samples)
        return matrix

    def call(self):
        """The solve call on the loaded matrix, as a thunk."""
        mh, w, matrix = self.mh, self.w, self.matrix
        if w.name == "paper_scale":
            spec = mh.ExperimentSpec(
                instances=((w.name, matrix),),
                hit_ranges=(self.hit,),
                modes=("mip_heuristic",),
                seeds=(wl.PAPER_CELL_SEED,),
                beta=wl.BETA,
                gamma2=w.gamma2,
                train_fraction=wl.PAPER_TRAIN_FRACTION,
            )
            return lambda: mh.harness.run_cell(
                w.name, matrix, self.hit, "mip_heuristic", wl.PAPER_CELL_SEED, spec
            )
        config = mh.SolverConfig(hit_range=self.hit, beta=wl.BETA)
        return lambda: mh.framework.solve_colgen(matrix, config)

    def _timed(self, run, traced, span_name, fn):
        """Run ``fn`` once, timed, traced or not; returns (sample, result)."""
        sample = {"run": run, "traced": traced, "seconds": None}
        self.tracer.run_id = run
        gc.collect()
        result = None
        try:
            with self.tracer.patched(self.mh) if traced else nullcontext():
                t0 = time.perf_counter()
                with self.tracer.span(span_name) if traced else nullcontext():
                    result = fn()
                sample["seconds"] = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failure is counted, not fatal
            sample["error"] = f"{type(exc).__name__}: {exc}"
        return sample, result

    def set_up(self, index, traced):
        """Time one set-up and keep its matrix for the solves."""
        self.matrix = None
        sample, self.matrix = self._timed(f"setup{index}", traced, "setup", self.load)
        if traced and "error" not in sample:
            sample["layers"] = tracing.setup_metrics(self.tracer, sample["run"])
        return sample

    def solve(self, index, traced):
        """Time one solve of the loaded matrix and keep its answer."""
        span_name = SOLVE_SPAN[self.w.name]
        sample, result = self._timed(index, traced, span_name, self.call())
        if "error" in sample:
            return sample
        sample["answer"], sample["counters"] = normalize(result, self.matrix)
        if traced:
            sample["layers"] = tracing.solve_metrics(self.tracer, index)
            sample["counters"] = {k: sample["layers"][k] for k in COUNTERS}
        return sample


def normalize(result, matrix):
    """The answer fields every check reads, plus the report's own counters."""
    if isinstance(result, dict):  # a run_cell report
        gap = result["gap_percent"]
        answer = {
            "objective": result["objective"],
            "ub": result["ub"],
            "gap": None if gap is None else f"{gap:.2f}",
            "status": result["status"],
            "selected": sorted(result["selected"]),
            "pool_size": result["n_comb"],
            "report": result,
        }
        return answer, {}
    gap = result.gap_percent
    answer = {
        "objective": result.objective,
        "ub": result.upper_bound,
        "gap": None if gap is None else f"{gap:.2f}",
        "status": result.status,
        "selected": sorted(
            [matrix.gene_ids[g] for g in c.genes] for c in result.selection
        ),
        "pool_size": result.pool_size,
        "report": None,
    }
    counters = {
        "framework.rounds": result.iterations,
        "pricing.nodes": result.pricing_nodes,
        "master.bnb.nodes": result.binary_nodes,
    }
    return answer, counters


def signature(sample):
    answer = {k: v for k, v in sample["answer"].items() if k != "report"}
    return {**answer, **sample["counters"]}


def disagreements(a, b):
    return sorted(k for k in a.keys() & b.keys() if a[k] != b[k])


def measure(bench, seconds, trace):
    """Repeat set-ups-then-solve while the next round would end at most half
    a (median) round past ``seconds``.  Traced runs alternate untraced and
    traced rounds.  A calibration runs before and after each round's group
    of set-ups and after its solve; each sample keeps the mean of the two
    calibrations around it, since the machine's speed can change from one
    round to the next."""
    started = time.perf_counter()
    calibrate = calibration.Calibration()
    setups, solves, durations = [], [], []
    before = calibrate()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(solves) % 2 == 1
        group = [
            bench.set_up(len(setups) + i, traced)
            for i in range(bench.w.setups_per_solve)
        ]
        setups.extend(group)
        middle = calibrate()
        for sample in group:
            sample["calibration_s"] = (before + middle) / 2
        if bench.matrix is None:
            break  # the set-up failed; it is counted
        solve = bench.solve(len(solves), traced)
        before = calibrate()
        solve["calibration_s"] = (middle + before) / 2
        solves.append(solve)
        durations.append(time.perf_counter() - t0)
        enough = len(solves) >= (2 if trace else 1)
        if enough and time.perf_counter() + statistics.median(durations) / 2 > (
            started + seconds
        ):
            break
    return setups, solves, time.perf_counter() - started


def check(bench, setups, solves, record_path):
    """Mark each sample with its problems; returns the merged answer record."""
    w = bench.w
    schema = wl.load_schema(SRC) if w.name == "paper_scale" else None
    recount = {}
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    first = None
    for s in setups:
        s["problems"] = [s["error"]] if "error" in s else []
    for s in solves:
        if "error" in s:
            s["problems"] = [s["error"]]
            continue
        key = json.dumps(s["answer"]["selected"])
        if key not in recount:
            recount[key] = wl.tsv_objective(
                bench.path, s["answer"]["selected"], bench.train_ids
            )
        s["problems"] = wl.answer_problems(w, s["answer"], recount[key], schema)
        sig = signature(s)
        if first is None:
            first = sig
        for k in disagreements(sig, first):
            s["problems"].append(f"{k} differs from this run's first answer")
        for k in disagreements(sig, record):
            s["problems"].append(f"{k} differs from an earlier run on this input")
    good = [signature(s) for s in solves if not s["problems"]]
    merged = dict(record)
    for sig in good:
        merged.update(sig)
    if good:
        record_path.write_text(json.dumps(merged, sort_keys=True, indent=1) + "\n")
    return merged


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "multihit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(load_at_start):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "loadavg_at_start": list(load_at_start),
        "commit": commit,
        "source_sha256": source_sha256(),
    }


PREPARE_TIMEOUT_S = 150


def prepare(name, seed):
    """Make the seed's input in a child process, so it stays out of peak RSS.

    A plain child, waited for on every path (``subprocess.run`` kills and
    reaps it on a timeout), and no multiprocessing helper processes that
    could outlive this one.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(workloads.prepare_input(*sys.argv[2:5], int(sys.argv[5])))"
    )
    here = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", code, str(here), str(SRC), str(WORK), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=PREPARE_TIMEOUT_S,
        check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"input preparation failed:\n{out.stderr}")
    return out.stdout.strip().splitlines()[-1]


def median_of(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "multihit" / "__init__.py").is_file():
        print(f"perfbench: multihit sources not found under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import multihit as mh

    w = wl.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    path = prepare(w.name, args.seed)
    input_sha = wl.file_sha256(path)
    info = provenance(load_at_start)
    bench = Bench(mh, w, path)

    setups, solves, elapsed = measure(bench, args.seconds, bool(args.trace))
    record = WORK / f"record-{w.name}-{input_sha[:16]}-{info['source_sha256'][:16]}.json"
    answers = check(bench, setups, solves, record)
    samples = setups + solves
    failed = sum(1 for s in samples if s["problems"])

    def seconds(group, traced):
        return [s["seconds"] for s in group if s["traced"] == traced and "error" not in s]

    def scaled(group):
        return [
            s["seconds"] * calibration.REFERENCE_S / s["calibration_s"]
            for s in group
            if not s["traced"] and "error" not in s
        ]

    if args.trace:
        values = {"trace.overhead_s": median_of(seconds(solves, True)) - median_of(
            seconds(solves, False)
        )}
        for group in (setups, solves):
            layers = [s["layers"] for s in group if "layers" in s]
            if layers:
                values.update(tracing.median_metrics(layers))
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    else:
        values = {
            "setup_s": median_of(scaled(setups)),
            "solve_s": median_of(scaled(solves)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "objective": median_of(
                [s["answer"]["objective"] for s in solves if "answer" in s]
            ),
        }
        units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    metrics = {k: {"value": values.get(k, 0.0), "unit": units[k]} for k in units}

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": elapsed,
        "unscaled_median_s": {
            "setup": median_of(seconds(setups, False)),
            "solve": median_of(seconds(solves, False)),
        },
        "provenance": info,
        "input": {"path": Path(path).relative_to(ROOT).as_posix(), "sha256": input_sha},
        "answers": answers,
        "samples": [{k: v for k, v in s.items() if k != "answer"} for s in samples],
        "metrics": metrics,
    }
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        detail["self_s_by_span"] = tracing.self_time_by_name(bench.tracer)
        with open(WORK / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for i, span in enumerate(bench.tracer.spans):
                fh.write(json.dumps(span.to_json(i)) + "\n")
    (WORK / f"run-{stem}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8"
    )

    print(
        f"{w.name} seed {args.seed} trace {args.trace}: {len(setups)} set-ups and "
        f"{len(solves)} solves in {elapsed:.1f} s"
    )
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    raw = detail["unscaled_median_s"]
    calibrations = [s["calibration_s"] for s in samples if "calibration_s" in s]
    print(
        f"  unscaled median set-up {raw['setup']:.6g} s, solve {raw['solve']:.6g} s; "
        f"median calibration {median_of(calibrations):.6g} s"
    )
    print(f"  fail_share {failed / len(samples):.6g} ({failed}/{len(samples)})")
    for s in samples:
        for problem in s["problems"]:
            print(f"  {s['run']} failed: {problem}", file=sys.stderr)
    print(f"input {detail['input']['path']} sha256 {input_sha}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
