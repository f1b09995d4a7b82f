"""Top-level package surface stays importable and complete."""

import os
import subprocess
import sys

import multihit


def test_public_surface():
    assert multihit.__version__ == "0.1.0"
    for name in multihit.__all__:
        assert getattr(multihit, name) is not None


def test_entry_modules_leave_scipy_optimize_and_linalg_unloaded():
    # The package keeps its own LP kernel because importing HiGHS
    # (scipy.optimize) adds ~26 MB of resident memory and an LU
    # factorisation (scipy.linalg) ~7.6 MB; a new import of either would
    # silently bring that cost back to every run.
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
