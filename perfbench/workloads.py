"""The two benchmark workloads: their inputs, their solve call and their checks.

Every workload runs on one fixed synthetic matrix, ``generate_synthetic``
at instance seed 1 with planted combinations (0,1), (2,3) and (4,5,6) at
rate 0.3.  The ``--seed`` argument renames every gene and sample in that
matrix (same-length ids, same row and column order), so each seed is a
different input file on which the solver does the same work.  Solve work
on matrices drawn with other instance seeds varies 3x (column generation)
and 20x (branch-and-bound nodes over a random pool), which no end-to-end bound of at most 25%
could absorb; renaming keeps the inputs seed-dependent and the reference
answers below valid at every seed.

The objective check is independent of ``multihit.metrics``: it re-reads the
TSV rows and counts covered tumors minus normal coverings itself.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

PLANTED = ((0, 1), (2, 3), (4, 5, 6))
PLANTED_RATE = 0.3
INSTANCE_SEED = 1
HIT_RANGE = "2-3"
BETA = 10
PAPER_CELL_SEED = 1
PAPER_TRAIN_FRACTION = 0.75


@dataclass(frozen=True)
class Workload:
    name: str
    n_genes: int
    n_tumor: int
    n_normal: int
    noise_rate: float  # background rate in tumors and mutation rate in normals
    gamma2: int  # pool size; None where no pool is drawn
    reference_objective: int
    setups_per_solve: int  # timed set-ups before each solve


WORKLOADS = {
    w.name: w
    for w in (
        # Proven optimum by column generation: pricing ~83% of the time,
        # ~35 small warm-started master LPs, no candidate pool.
        Workload("colgen_prove", 300, 200, 80, 0.05, None, 164, 3),
        # The paper's sparse scale through the sweep's per-cell path: a 13 M
        # cell TSV to load, then one cold 976-row root LP; no pricing.
        Workload("paper_scale", 10_000, 1000, 300, 0.01, 3000, 407, 1),
    )
}


def spec_key(w):
    return f"{w.n_genes}x{w.n_tumor}x{w.n_normal}-r{w.noise_rate}"


def canonical_tsv(mh, w, src_dir, work_dir):
    """The instance-seed matrix written by ``write_dense``, cached by shape
    and by the sources that generate and write it."""
    package = Path(src_dir) / "multihit"
    digest = hashlib.sha256()
    for name in ("synth.py", "data.py"):
        digest.update((package / name).read_bytes())
    path = Path(work_dir) / f"canonical-{spec_key(w)}-{digest.hexdigest()[:12]}.tsv"
    if not path.exists():
        spec = mh.SyntheticSpec(
            w.n_genes,
            w.n_tumor,
            w.n_normal,
            PLANTED,
            PLANTED_RATE,
            w.noise_rate,
            w.noise_rate,
        )
        tmp = path.with_suffix(".tmp")
        mh.data.write_dense(mh.generate_synthetic(spec, INSTANCE_SEED), tmp)
        tmp.replace(path)
    return path


def _renamed(ids, prefix, rng):
    width = len(ids[0]) - len(prefix)
    order = list(range(len(ids)))
    rng.shuffle(order)
    return [f"{prefix}{k:0{width}d}" for k in order]


def prepare_input(src_dir, work_dir, name, seed):
    """Write the ``seed`` input of workload ``name`` and return its path.

    Runs in a child process so that generating the input never shows in the
    measuring process's peak memory.
    """
    import sys

    sys.path.insert(0, str(src_dir))
    import multihit as mh

    w = WORKLOADS[name]
    canonical = canonical_tsv(mh, w, src_dir, work_dir)
    # Rewritten on every run: one 26 MB file per seed would pile up.
    path = Path(work_dir) / f"input-{spec_key(w)}.tsv"
    lines = canonical.read_text(encoding="utf-8").split("\n")
    rng = random.Random(f"perfbench-names:{seed}")
    header = lines[0].split("\t")
    header[2:] = _renamed(header[2:], "g", rng)
    rows = [line.split("\t", 1) for line in lines[1:] if line]
    tumor_ids = [r[0] for r in rows if r[1].startswith("tumor\t")]
    normal_ids = [r[0] for r in rows if r[1].startswith("normal\t")]
    new_ids = iter(_renamed(tumor_ids, "t", rng))
    new_normal = iter(_renamed(normal_ids, "n", rng))
    out = ["\t".join(header)]
    for sample_id, rest in rows:
        fresh = next(new_ids) if rest.startswith("tumor\t") else next(new_normal)
        out.append(fresh + "\t" + rest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(out) + "\n", encoding="utf-8")
    tmp.replace(path)
    return str(path)


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tsv_objective(path, selected, sample_ids=None):
    """Covered tumors minus total normal coverings, straight from TSV rows.

    ``selected`` is a list of gene-id lists; ``sample_ids``, when given,
    restricts the count to those samples (the training half).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        column = {g: j for j, g in enumerate(header)}
        combos = [[column[g] for g in genes] for genes in selected]
        covered = 0
        normal_cost = 0
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if sample_ids is not None and fields[0] not in sample_ids:
                continue
            hits = sum(all(fields[j] == "1" for j in combo) for combo in combos)
            if fields[1] == "tumor":
                covered += hits > 0
            else:
                normal_cost += hits
    return covered - normal_cost


def answer_problems(w, answer, recomputed, schema):
    """Why ``answer`` is wrong for workload ``w``; an empty list if it is right."""
    problems = []
    obj = answer["objective"]
    if obj != recomputed:
        problems.append(f"objective {obj} but the TSV rows give {recomputed}")
    if obj != w.reference_objective:
        problems.append(f"objective {obj}, reference {w.reference_objective}")
    if answer["status"] != "converged":
        problems.append(f"status {answer['status']!r}, expected 'converged'")
    selected = answer["selected"]
    if len(selected) > BETA:
        problems.append(f"{len(selected)} combinations exceed the budget {BETA}")
    if len({tuple(c) for c in selected}) != len(selected):
        problems.append("a combination is selected twice")
    if any(not 2 <= len(c) <= 3 for c in selected):
        problems.append(f"a combination size lies outside {HIT_RANGE}")
    if w.name == "colgen_prove":
        ub = answer["ub"]
        if ub is None or abs(ub - obj) > 1e-6:
            problems.append(f"upper bound {ub}, expected {obj}")
        if answer["gap"] != "0.00":
            problems.append(f"gap {answer['gap']}, expected 0.00")
    elif answer["ub"] is not None or answer["gap"] is not None:
        problems.append("the pool heuristic reported a bound")
    if w.gamma2 is not None and answer["pool_size"] != w.gamma2:
        problems.append(f"pool of {answer['pool_size']}, expected {w.gamma2}")
    report = answer["report"]
    if report is not None and report["lb"] != obj:
        problems.append(f"report lb {report['lb']} differs from objective {obj}")
    if schema is not None:
        import jsonschema

        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"invalid report: {exc.message}")
    return problems


def load_schema(src_dir):
    path = Path(src_dir) / "multihit" / "report_schema.json"
    return json.loads(path.read_text(encoding="utf-8"))
