"""Smoke tests: every example script runs end to end.

Each example is imported as a module, its trace scale patched down so
the suite stays fast, and its ``main()`` executed.  Output content is
not asserted beyond a few anchors — these tests exist so a public-API
change that breaks an example breaks the suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
FAST_SCALE = 1.2e-5


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "fetch_policy_study",
        "decoupled_cache_study",
        "cmp_vs_smt",
        "custom_workload",
        "pipeline_report",
    ],
)
def test_simulation_examples_run(name, capsys):
    module = load_example(name)
    assert hasattr(module, "SCALE")
    module.SCALE = FAST_SCALE
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100

