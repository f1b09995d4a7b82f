"""Top-level package surface stays importable and complete."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import multihit


def test_public_surface():
    assert multihit.__version__ == "0.1.0"
    for name in multihit.__all__:
        assert getattr(multihit, name) is not None


def run_and_list_heavy_modules(code):
    """Run ``code`` in a fresh interpreter; the heavy modules it loaded.

    Those are scipy's sparse, optimize and linalg packages and jsonschema.
    """
    src = os.path.dirname(os.path.dirname(multihit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += (
        "\nimport sys\n"
        "heavy = (['scipy', 'sparse'], ['scipy', 'optimize'], ['scipy', 'linalg'],\n"
        "         ['jsonschema'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in heavy))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_entry_modules_leave_scipy_optimize_and_linalg_unloaded():
    # Importing HiGHS (scipy.optimize) adds ~26 MB of resident memory, an
    # LU factorisation (scipy.linalg) ~7.6 MB and scipy.sparse ~22 MB.  The
    # own simplex solves every LP on plain CSC arrays, and
    # master.solve_binary imports HiGHS inside the call, only for a pool
    # whose rounded relaxation falls short of the LP's integer floor; a
    # module-level import of any of them would bring that cost back to
    # every run.  jsonschema (~70 modules, ~4 MB) is imported only where a
    # report is validated.
    code = "import multihit.cli, multihit.framework, multihit.harness"
    assert run_and_list_heavy_modules(code) == ["[]"]


def test_solves_with_an_integral_pool_relaxation_load_no_heavy_scipy_module():
    # Pricing, the master LPs and an integral final relaxation run on numpy
    # alone; scipy is not even imported, and no report is validated.
    code = (
        "from multihit.data import HitRange\n"
        "from multihit.framework import SolverConfig, solve_colgen, "
        "solve_mip_heuristic\n"
        "from multihit.synth import SyntheticSpec, generate_synthetic\n"
        "spec = SyntheticSpec(30, 40, 15, ((0, 1), (2, 3, 4)), 0.5, 0.05, 0.05)\n"
        "m = generate_synthetic(spec, 1)\n"
        "config = SolverConfig(hit_range=HitRange(2, 3), beta=3, gamma2=60)\n"
        "for solve in (solve_colgen, solve_mip_heuristic):\n"
        "    r = solve(m, config)\n"
        "    print(r.objective > 0, r.binary_nodes, r.status)\n"
        "import sys\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    assert run_and_list_heavy_modules(code) == [
        "True 1 converged",
        "True 1 converged",
        "False",  # no scipy module at all
        "[]",
    ]


def test_bit_set_conversions_live_only_in_bitset():
    # Int bit sets become numpy arrays (and back) only through
    # multihit.bitset, so the bit order and byte layout are decided once.
    package = Path(multihit.__file__).parent
    pattern = re.compile(r"\b(to_bytes|from_bytes|packbits|unpackbits)\b")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "bitset.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []


def definitions(tree):
    """``(name, line range)`` of each function, method and class in
    ``tree``, dunder methods excepted, and of each module-level ALL-CAPS
    constant, one per name of a tuple assignment."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name):
            yield node.name, range(node.lineno, node.end_lineno + 1)
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for name in ast.walk(node):
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id):
                    yield name.id, range(node.lineno, node.end_lineno + 1)


def test_every_definition_is_named_outside_itself():
    # Code that nothing but its own test calls is deleted, not kept: each
    # function, method and class of the package, and each module-level
    # ALL-CAPS constant, must be named somewhere in the package or the
    # benchmark outside its own definition.  Dunder methods are called by
    # Python itself and are exempt.
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "multihit").glob("*.py"))
    sources = {
        path: path.read_text().splitlines()
        for path in modules + sorted((root / "perfbench").glob("*.py"))
    }
    unused = []
    for path in modules:
        for name, own in definitions(ast.parse("\n".join(sources[path]))):
            word = re.compile(rf"\b{name}\b")
            if not any(
                word.search(line)
                for other, lines in sources.items()
                for lineno, line in enumerate(lines, start=1)
                if other != path or lineno not in own
            ):
                unused.append(f"{path.name}:{own[0]} {name}")
    assert unused == []
