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


def test_entry_modules_leave_scipy_optimize_and_linalg_unloaded():
    # Importing HiGHS (scipy.optimize) adds ~26 MB of resident memory and
    # an LU factorisation (scipy.linalg) ~7.6 MB.  The own simplex solves
    # every LP, and master.solve_binary imports HiGHS inside the call, only
    # for a pool whose relaxation is fractional; a module-level import of
    # either would bring that cost back to every run.
    src = os.path.dirname(os.path.dirname(multihit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import multihit.cli, multihit.framework, multihit.harness\n"
        "heavy = (['scipy', 'optimize'], ['scipy', 'linalg'])\n"
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
    assert proc.stdout.strip() == "[]"


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


def test_every_definition_is_named_outside_itself():
    # Code that nothing but its own test calls is deleted, not kept: each
    # function, method and class of the package must be named somewhere in
    # the package or the benchmark outside its own definition.  Dunder
    # methods are called by Python itself and are exempt.
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "multihit").glob("*.py"))
    sources = {
        path: path.read_text().splitlines()
        for path in modules + sorted((root / "perfbench").glob("*.py"))
    }
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path in modules:
        for node in ast.walk(ast.parse("\n".join(sources[path]))):
            if not isinstance(node, kinds) or re.fullmatch(r"__\w+__", node.name):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            word = re.compile(rf"\b{node.name}\b")
            if not any(
                word.search(line)
                for other, lines in sources.items()
                for lineno, line in enumerate(lines, start=1)
                if other != path or lineno not in own
            ):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
