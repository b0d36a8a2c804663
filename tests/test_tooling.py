"""The benchmark's tracer finds every cfris name it wraps."""
import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the source without writing a bytecode cache and does
# not run the script's main block.
CHILD = runpy.run_path(str(Path(__file__).parents[1] / "perfbench"
                           / "child.py"))


@pytest.mark.parametrize(
    "module, path",
    [(module, path) for module, path, _ in CHILD["TARGETS"]]
    + [CHILD["CHUNK_TARGET"]],
    ids=lambda v: v)
def test_traced_name_resolves(module, path):
    # a missing name makes a traced benchmark run report NOT CORRECT
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
