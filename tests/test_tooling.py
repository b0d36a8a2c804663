"""The benchmark's tracer finds every cfris name it wraps, and its
workloads still run through the CLI."""
import importlib
import runpy
from pathlib import Path

import pytest

from cfris import cli

# run_path compiles the source without writing a bytecode cache and does
# not run the script's main block.
PERFBENCH = Path(__file__).parents[1] / "perfbench"
CHILD = runpy.run_path(str(PERFBENCH / "child.py"))
WORKLOADS = runpy.run_path(str(PERFBENCH / "run.py"))["WORKLOADS"]


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs(name):
    # a CLI change that breaks a workload fails here, not in a long
    # benchmark run; 2 trials per point keep it quick
    wl = WORKLOADS[name]
    args = cli.build_parser().parse_args(
        [*wl.args, "--trials", "2", "--workers", "1"])
    _, spec = cli.load_config(args.config, vars(args))
    rows = cli.run_experiment(spec, workers=args.workers)
    # ris-gain has a row per point; cdf one per point, user (2) and trial
    assert len(rows) == wl.points * (1 if name == "ris-gain" else 2 * 2)
