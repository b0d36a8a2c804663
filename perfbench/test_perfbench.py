"""Self-test of the benchmark at a tiny trial count.

Run from the repository root:

    python3 -m pytest -q perfbench

It checks that every workload runs untraced and traced, that every metric
named in BENCHMARK.json is produced with a valid name and unit, that the
tracing wrappers restore the program cleanly, and that the benchmark
refuses to run where it cannot.
"""
import copy
import dataclasses
import gzip
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_TRIALS = 20    # the smallest count likely_rate_95 accepts


def tiny(name):
    return dataclasses.replace(run.WORKLOADS[name], trials=TINY_TRIALS)


@pytest.fixture
def bench():
    return run.load_benchmark()


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


def test_benchmark_json_names_and_units(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in bench["workloads"]]
    for spec in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(spec["name"]), spec
        assert UNIT.match(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
        names.append(spec["name"])
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"] for m in bench["per_layer"]} == set(run.LAYER_TARGETS)
    assert set(run.COUNT_METRICS) <= set(run.LAYER_TARGETS)


def test_every_reference_exists():
    for wl in run.WORKLOADS.values():
        for master in run.MASTER_SEEDS:
            text = gzip.decompress(
                run.reference_path(wl, master).read_bytes()).decode()
            lines = text.splitlines()
            assert lines[0].count(",") == lines[-1].count(",")
            assert len(lines) > wl.points


def test_compare_csv_at_printed_precision():
    ref = "a,b\nx,1.234567891\ny,2\n"
    assert run.compare_csv(ref, ref) is None
    assert run.compare_csv("a,b\nx,1.234567892\ny,2\n", ref) is None
    assert "line 2" in run.compare_csv("a,b\nx,1.234567893\ny,2\n", ref)
    assert "line 2" in run.compare_csv("a,b\nx,1.234567991\ny,2\n", ref)
    big = "a,b\nx,9.999999990\ny,-4.2e-07\n"
    assert run.compare_csv("a,b\nx,9.999999991\ny,-4.2e-07\n", big) is None
    assert "line 2" in run.compare_csv("a,b\nx,9.999999992\ny,-4.2e-07\n",
                                       big)
    assert run.compare_csv("a,b\nx,9.99999999\ny,-4.200000001e-07\n",
                           big) is None
    assert "line 3" in run.compare_csv(
        "a,b\nx,9.99999999\ny,-4.200000002e-07\n", big)
    assert "line 2" in run.compare_csv("a,b\nx,nan\ny,2\n", ref)
    assert "line 3" in run.compare_csv("a,b\nx,1.234567891\nz,2\n", ref)
    assert "lines" in run.compare_csv("a,b\nx,1.234567891\n", ref)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_workload_produces_every_metric(name, bench, out_dir):
    wl = tiny(name)
    env = run.child_env()
    plain = run.invoke(wl, run.MASTER_SEEDS[0], False, env)
    traced = run.invoke(wl, run.MASTER_SEEDS[0], True, env)
    assert plain["csv_text"] == traced["csv_text"]
    e2e = run.end_to_end(wl, plain)
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    assert all(v > 0 for v in e2e.values())
    layers = run.per_layer(wl, traced)
    assert set(layers) | {"trace.overhead_s"} == set(run.LAYER_TARGETS)
    assert all(v >= 0 for v in layers.values())
    assert traced["trace"]["missing"] == []
    assert layers["experiments.run_trial.p50_us"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_result_against_a_reference(trace, bench, out_dir,
                                               monkeypatch, capsys):
    wl = tiny("ris-gain")
    first = run.invoke(wl, run.master_seed(0), False, run.child_env())
    ref = out_dir / "ref.csv.gz"
    ref.write_bytes(gzip.compress(first["csv_text"].encode()))
    monkeypatch.setattr(run, "reference_path", lambda *_: ref)
    result = run.run(wl, seed=0, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    group = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench[group]}
    assert "(0 of " in capsys.readouterr().out


def test_unrepeated_count_or_missing_function_is_not_correct(bench,
                                                            out_dir):
    wl = tiny("ris-gain")
    env = run.child_env()
    plain = run.invoke(wl, run.MASTER_SEEDS[0], False, env)
    traced = run.invoke(wl, run.MASTER_SEEDS[0], True, env)
    _, problems = run._layer_report(wl, [plain], [traced, traced], bench)
    assert problems == []

    fewer = copy.deepcopy(traced)
    fewer["trace"]["calls"]["channel.array_response"] -= 1
    _, problems = run._layer_report(wl, [plain], [traced, fewer], bench)
    assert any("channel.array_response.calls_per_trial" in p
               for p in problems)

    renamed = copy.deepcopy(traced)
    renamed["trace"]["missing"] = ["channel.draw_channels"]
    _, problems = run._layer_report(wl, [plain], [renamed], bench)
    assert any("channel.draw_channels" in p for p in problems)


def test_wrong_csv_counts_as_failed(out_dir, monkeypatch):
    wl = tiny("ris-gain")
    ref = out_dir / "ref.csv.gz"
    ref.write_bytes(gzip.compress(b"n_ris,uav_height_m,mean_gain_db\n"
                                  b"20,16,0\n"))
    monkeypatch.setattr(run, "reference_path", lambda *_: ref)
    result = run.run(wl, seed=0, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_wrappers_restore_cleanly(tmp_path):
    import cfris.cli

    targets = [(m, p) for m, p, _ in child.TARGETS] + [child.CHUNK_TARGET]
    originals = {}
    for module, path in targets:
        owner, attr = child._resolve(module, path)
        originals[(owner, attr)] = getattr(owner, attr)
    tracer = child.Tracer(tmp_path)
    tracer.install()
    assert tracer.missing == []
    assert set(tracer.installed()) == set(originals)
    assert all(getattr(o, a) is not f for (o, a), f in originals.items())
    _, spec = cfris.cli.load_config(None, {"experiment": "ris-gain",
                                           "n_ris": "20", "heights": "100",
                                           "trials": TINY_TRIALS})
    try:
        cfris.cli.run(spec, str(tmp_path / "out"))
    finally:
        tracer.restore()
    assert tracer.installed() == []
    assert all(getattr(o, a) is f for (o, a), f in originals.items())
    summary = tracer.summary(workers=1)
    assert summary["calls"]["experiments.run_trial"] == \
        len(spec.n_list) * len(spec.heights) * TINY_TRIALS
    assert summary["calls"]["cli.run"] == 1


def test_refuses_more_workers_than_cpus(monkeypatch):
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda _: {0})
    with pytest.raises(run.BenchError, match="CPUs"):
        run.machine_check(run.WORKLOADS["cdf-w2"], run.child_env())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "ris-gain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
