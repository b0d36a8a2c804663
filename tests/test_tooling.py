"""The benchmark's tracer finds every cfris name it wraps and records the
pipeline stages, in pool workers too; its workloads still run through the
CLI, and their CSVs still match the benchmark's references.  Every public
name has a user, the README's CLI examples parse and resolve as before,
and every CLI flag sets a config key."""
import ast
import gzip
import importlib
import inspect
import json
import os
import runpy
import shlex
from pathlib import Path

import pytest

import cfris
from cfris import cli, experiments

# run_path compiles the source without writing a bytecode cache and does
# not run the script's main block.
PERFBENCH = Path(__file__).parents[1] / "perfbench"
CHILD = runpy.run_path(str(PERFBENCH / "child.py"))
RUN = runpy.run_path(str(PERFBENCH / "run.py"))
WORKLOADS = RUN["WORKLOADS"]
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)
README = Path(__file__).parents[1] / "README.md"


def _spec(args):
    parsed = cli.build_parser().parse_args(args)
    return parsed, cli.load_config(parsed.config, vars(parsed))[1]


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


def _loaded_names(path):
    """Every name a module reads, bare or as an attribute; definitions,
    assignments and imports are not reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_public_name_is_used():
    # a name in cfris.__all__ is read by the package outside its export
    # list, or by an acceptance criterion
    package = Path(cfris.__file__).parent
    used = set().union(*(_loaded_names(path)
                         for path in package.glob("*.py")
                         if path.name != "__init__.py"))
    used |= _loaded_names(Path(__file__).parent / "test_acceptance.py")
    assert sorted(set(cfris.__all__) - used) == []


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_traced(name, tmp_path):
    # every stage a traced benchmark run times must be called under the
    # tracer's wrappers, with arguments its work counters accept
    summary = _traced_summary(name, tmp_path)
    assert summary["missing"] == []
    for stage in ("geometry.place_nodes", "channel.large_scale",
                  "link.sinr_all", "beamforming.gamma_analytic"):
        assert summary["calls"].get(stage, 0) > 0, stage


def _traced_summary(name, tmp_path):
    """Tracer summary of one workload at 2 trials per point (one batch)."""
    _, spec = _spec([*WORKLOADS[name].args, "--trials", "2",
                     "--workers", "1"])
    tracer = CHILD["Tracer"]()
    tracer.install()
    try:
        cli.run(spec, tmp_path, workers=1)
    finally:
        tracer.restore()
    return tracer.summary(1)


def test_ris_gain_heights_share_one_pass(tmp_path):
    # the 3 heights are one tilt group: its batch makes one large-scale
    # pass and one evaluation per RIS size (0 and 5 sizes), not one per
    # height
    calls = _traced_summary("ris-gain", tmp_path)["calls"]
    assert calls["channel.large_scale"] == 1
    assert calls["beamforming.gamma_analytic"] == 6


def test_ris_gain_group_phases_each_element_once(monkeypatch):
    # the RIS sizes 20-60 of the one tilt group are prefixes of one RIS:
    # its pass phases the 60 elements once, block by block, not the 200
    # elements of five prefixes
    widths = []
    align = experiments.ris_align_uav

    def recording(H_ris, h_ris_uav, h_uav):
        widths.append(H_ris.shape[-1])
        return align(H_ris, h_ris_uav, h_uav)

    monkeypatch.setattr(experiments, "ris_align_uav", recording)
    _, spec = _spec([*WORKLOADS["ris-gain"].args, "--trials", "2",
                     "--workers", "1"])
    cli.run_experiment(spec, workers=1)
    assert sum(widths) == max(spec.sweeps["n_ris"]) == 60
    # every size ends on a block edge: none aligns an empty block
    assert 0 not in widths


def test_pool_workers_ship_their_spans(tmp_path):
    # 60 cdf-w2 trials at N = 20 make 2 batches of 30 (52 fit one), one
    # per pool process; each worker appends its spans to a file that the
    # tracer merges
    if CPUS < 2:
        pytest.skip("needs two usable CPUs for a pool of two")
    _, spec = _spec([*WORKLOADS["cdf-w2"].args, "--trials", "60",
                     "--workers", "2"])
    tracer = CHILD["Tracer"](spans_dir=tmp_path)
    tracer.install()
    try:
        cli.run(spec, tmp_path / "out", workers=2)
    finally:
        tracer.restore()
    worker_spans = [span for path in tmp_path.glob("worker-*.jsonl")
                    for line in path.read_text(encoding="utf-8").splitlines()
                    for span in json.loads(line)["spans"]]
    assert any(span[0] == "link.sinr_all" for span in worker_spans)
    tracer.merge_worker_files()
    summary = tracer.summary(2)
    assert summary["missing"] == []
    assert summary["calls"]["link.sinr_all"] == sum(
        span[0] == "link.sinr_all" for span in worker_spans)


@pytest.mark.parametrize("name, master, workers", [
    *(("ris-gain", master, 1) for master in RUN["MASTER_SEEDS"]),
    ("cdf-w2", RUN["MASTER_SEEDS"][0], 1),
])
def test_workload_matches_reference(name, master, workers, tmp_path):
    # the benchmark fails an invocation whose CSV differs from these
    # references; a change of results shows here first
    wl = WORKLOADS[name]
    args, spec = _spec([*RUN["cli_args"](wl, master, tmp_path),
                        "--workers", str(workers)])
    assert spec.base.trials == wl.trials
    csv = cli.run(spec, tmp_path, workers=args.workers)
    ref = gzip.decompress(RUN["reference_path"](wl, master).read_bytes())
    assert RUN["compare_csv"](csv.read_text(encoding="utf-8"),
                              ref.decode()) is None


def _readme_cli():
    """The README CLI section's commands, as argument lists without the
    program name, and its config-file block."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1]
    blocks = section.split("\n## ")[0].split("```")[1::2]
    commands = [shlex.split(line)
                for line in blocks[0].replace("\\\n", "").splitlines()
                if line.strip()]
    assert len(commands) == 3 and len(blocks) == 2
    assert all(command[0] == "cfris" for command in commands)
    return [command[1:] for command in commands], blocks[1]


def test_readme_cli_examples_parse(tmp_path):
    # the README's CLI section once drifted from the parser: its rule that
    # a swept field takes a list from a flag or the file did not hold for
    # file lines and --uav-height, and its file example held lists that
    # its study dropped; test_examples_resolve_as_before runs its commands
    path = tmp_path / "run.cfg"
    path.write_text(_readme_cli()[1], encoding="utf-8")
    cli.load_config(str(path), {})


SCENARIOS = ((0.1, 15.0, False), (0.33, -5.0, False), (0.1, 15.0, True))
# What each README command, in README order, and benchmark workload
# resolves to: the sweeps its study runs, keyed by field, and the base
# fields the study reads; cdf sweeps no field and runs SCENARIOS.  These
# are the values of the parser that still had a sweep key beside each
# swept field.
RESOLVED = {
    "readme-rate-region": ({"kappa": (0.02, 0.05, 0.1, 0.15),
                            "n_ris": (15, 30)},
                           {"h_uav": 100.0, "tilt_deg": 15.0,
                            "master_seed": 7, "trials": 2000}),
    "readme-cdf": ({}, {"n_ris": 20, "h_uav": 100.0, "master_seed": 1,
                        "trials": 2000}),
    "readme-ris-gain": ({"n_ris": (20, 30, 40, 50, 60),
                         "h_uav": (16.0, 100.0, 300.0)},
                        {"kappa": 0.1, "tilt_deg": 15.0, "master_seed": 1,
                         "trials": 2000}),
    "ris-gain": ({"n_ris": (20, 30, 40, 50, 60),
                  "h_uav": (16.0, 100.0, 300.0)},
                 {"kappa": 0.1, "tilt_deg": 15.0, "master_seed": 7,
                  "trials": 40}),
    "cdf-w2": ({}, {"n_ris": 20, "h_uav": 100.0, "master_seed": 7,
                    "trials": 2000}),
}


@pytest.mark.parametrize("name", RESOLVED)
def test_examples_resolve_as_before(name, tmp_path):
    if name.startswith("readme-"):
        argv = _readme_cli()[0][list(RESOLVED).index(name)]
    else:
        argv = RUN["cli_args"](WORKLOADS[name], RUN["MASTER_SEEDS"][0],
                               tmp_path)
    sweeps, base = RESOLVED[name]
    _, spec = _spec(argv)
    # each study runs its own set of sweeps, so these pin the kind too
    assert spec.sweeps == sweeps
    if spec.kind == "cdf":
        assert inspect.signature(experiments.rate_cdf).parameters[
            "scenarios"].default == SCENARIOS
    assert {f: getattr(spec.base, f) for f in base} == base


def test_study_rows_route_each_sweep():
    # run_experiment passes a row's sweeps to its study by position, so
    # the row's defaults, in order, must be those of the study's
    # parameters after cfg: two fields in the wrong order would send
    # each sweep to the other's argument
    swept = set()
    for kind, row in experiments.STUDIES.items():
        assert set(row.sweeps) <= set(experiments.PER_POINT_FIELDS), kind
        params = list(inspect.signature(row.run).parameters.values())
        params = params[1:1 + len(row.sweeps)]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), kind
        assert [p.default for p in params] == list(row.sweeps.values()), kind
        swept |= set(row.sweeps)
    # a config value is split as a comma list for exactly those fields
    assert {key for key in cli._TYPES
            if type(cli._parse(key, "1", key)) is tuple} == swept


def test_every_flag_sets_a_config_key():
    # load_config ignores a flag that names no config key, so such a flag
    # would be dropped in silence
    dests = {action.dest for action in cli.build_parser()._actions} - {"help"}
    loose = {dest for dest in dests
             if cli._RENAMES.get(dest, dest) not in cli._TYPES}
    assert loose == {"config", "out", "workers"}
    # load_config lets the last flag win, so two flags for one key would
    # drop one of them in silence
    keys = [cli._RENAMES.get(dest, dest) for dest in dests - loose]
    assert len(keys) == len(set(keys))
