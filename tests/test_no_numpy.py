"""The package runs without numpy: importing it does not load numpy, and no
module imports numpy anywhere, lazily inside a function included (the tests
keep numpy as an oracle)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import fibsurf

PACKAGE = Path(fibsurf.__file__).resolve().parent


def test_import_leaves_numpy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import fibsurf, fibsurf.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_numpy_import_in_package():
    pattern = re.compile(r"^[ \t]*(import numpy|from numpy)\b", re.MULTILINE)
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [p.name for p in sources if pattern.search(p.read_text(encoding="utf-8"))]
    assert offenders == []
