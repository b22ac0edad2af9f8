"""The simulator needs nothing beyond the standard library.

``pyproject.toml`` declares no runtime dependency.  This test keeps that
true: a fresh interpreter with numpy blocked imports every module under
``src/repro``.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

CHILD = """
import importlib
import pkgutil
import sys

sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
import repro

names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 50
