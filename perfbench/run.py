#!/usr/bin/env python3
"""Outside-in benchmark of the cfris CLI experiments.

Run from the repository root:

    python3 perfbench/run.py --workload ris-gain --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload cdf-w2 --seed 0 --seconds 50 --trace 1
    python3 perfbench/run.py --write-references

Every measured invocation is a fresh interpreter (``perfbench/child.py``)
that runs the workload through the public CLI functions of the program in
``src/``; nothing is installed or compiled.  A run repeats invocations of
the same generated inputs for ``--seconds`` and reports the median of
each metric over them.  Every invocation's CSV is compared with a
reference made at the reference commit; a non-zero exit, an exception or
a mismatching CSV fails the invocation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and prints the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced wall time).
The metric names and units come from ``BENCHMARK.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--seed n`` selects the program's master seed ``MASTER_SEEDS[n % 4]``:
the CSV references exist for exactly those seeds (7 is the benchmark seed,
8 to 10 are held out).  ``--write-references`` regenerates the references
and ``seed_counts.json`` from the program as it stands; run it only on the
commit whose outputs are the reference.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
REFS = BENCH / "references"
SEED_COUNTS = BENCH / "seed_counts.json"
CHILD = BENCH / "child.py"

MASTER_SEEDS = (7, 8, 9, 10)
MIN_INVOCATIONS = 3
# With --seconds at most 60, a run ends within 60 + 20 + 60 s.
INVOCATION_TIMEOUT_S = 60
# No invocation starts this long after --seconds, even if too few ran.
GIVE_UP_AFTER_S = 20
# BLAS/OpenMP pools pinned to one thread in every benchmark process and
# pool worker, so cdf-w2 never runs more threads than cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple            # CLI arguments besides seed/trials/workers/out
    trials: int            # per sweep point
    workers: int
    points: int            # sweep points the experiment delivers
    ris_points: int        # of which have a RIS

    @property
    def trial_points(self) -> int:
        return self.points * self.trials


# The rationale for each workload is its "why" in BENCHMARK.json.  cdf-w2
# runs the acceptance scale of 2000 trials per point, so its fixed cost of
# one pool per point and its CSV size weigh as in a real run.  ris-gain
# shares no fixed cost between trials at one worker; it runs 40 trials per
# point so a run holds many invocations.
WORKLOADS = {w.name: w for w in (
    Workload("ris-gain",
             ("--experiment", "ris-gain", "--n-ris", "20,30,40,50,60",
              "--heights", "16,100,300", "--kappa", "0.1"),
             trials=40, workers=1, points=15, ris_points=15),
    Workload("cdf-w2", ("--experiment", "cdf", "--n-ris", "20"),
             trials=2000, workers=2, points=3, ris_points=1),
)}

# Stages whose inclusive time per trial point is reported.
STAGES = ("geometry.place_nodes", "channel.large_scale",
          "channel.array_response", "channel.draw_channels",
          "channel.aggregate_channel", "beamforming.ris_align_uav",
          "beamforming.gamma_analytic", "beamforming.ppa_allocate",
          "beamforming.RisConfig", "link.sinr_all", "link.rate_bps",
          "kernels.aggregate", "kernels.align_phases", "kernels.sinr_users",
          "experiments.trial_rng")

# Per-layer metric -> the end-to-end metric and workload it should move.
LAYER_TARGETS = {
    "geometry.place_nodes.us_per_trial": "trial_points_per_s on both",
    "channel.large_scale.us_per_trial": "trial_points_per_s on ris-gain",
    "channel.array_response.calls_per_trial":
        "trial_points_per_s on ris-gain, cdf-w2",
    "channel.array_response.calls_per_ris_trial":
        "trial_points_per_s on ris-gain (25 calls today at M=20, U=4)",
    "channel.array_response.calls_per_noris_trial":
        "trial_points_per_s on cdf-w2 (20 wasted calls today)",
    "channel.array_response.us_per_trial":
        "trial_points_per_s on ris-gain, cdf-w2",
    "channel.draw_channels.us_per_trial": "trial_points_per_s on ris-gain",
    "channel.aggregate_channel.us_per_trial":
        "trial_points_per_s on ris-gain",
    "beamforming.ris_align_uav.us_per_trial":
        "trial_points_per_s on ris-gain",
    "beamforming.gamma_analytic.us_per_trial":
        "trial_points_per_s on ris-gain (paired no-RIS evaluation)",
    "beamforming.gamma_analytic.calls_per_trial":
        "trial_points_per_s on ris-gain (2 per RIS trial today)",
    "beamforming.ppa_allocate.us_per_trial":
        "trial_points_per_s on cdf-w2 (kappa sweep)",
    "beamforming.RisConfig.us_per_trial": "trial_points_per_s on ris-gain",
    "link.sinr_all.us_per_trial":
        "trial_points_per_s on ris-gain (paired no-RIS evaluation)",
    "link.sinr_all.calls_per_trial":
        "trial_points_per_s on ris-gain (2 per RIS trial today)",
    "link.rate_bps.us_per_trial": "trial_points_per_s on cdf-w2",
    "kernels.aggregate.us_per_trial":
        "trial_points_per_s on ris-gain (a few % of a trial)",
    "kernels.align_phases.us_per_trial":
        "trial_points_per_s on ris-gain (a few % of a trial)",
    "kernels.sinr_users.us_per_trial":
        "trial_points_per_s on ris-gain (a few % of a trial)",
    "kernels.flop_per_trial":
        "trial_points_per_s, peak_rss_mb on ris-gain (computed)",
    "kernels.bytes_per_trial":
        "trial_points_per_s, peak_rss_mb on ris-gain (computed)",
    "experiments.trial_rng.us_per_trial":
        "trial_points_per_s on both (a per-trial floor)",
    "experiments.run_trial.self_us_per_trial":
        "trial_points_per_s on ris-gain",
    "experiments.run_trial.p50_us": "trial_points_per_s on ris-gain",
    "experiments.run_trial.p99_us": "trial_points_per_s on ris-gain",
    "experiments.realizations_per_trial_point":
        "trial_points_per_s, wall_s on ris-gain (1.0 today)",
    "experiments.rejects_per_trial_point":
        "failed invocations (attempted/failed) on both (0 today)",
    "experiments.run_trials.pool_overhead_s":
        "wall_s, cpu_s, setup_s on cdf-w2 only",
    "experiments.driver_self_s": "wall_s on cdf-w2",
    "cli.write_s": "wall_s on cdf-w2 (6 CSV rows per trial)",
    "cli.csv_bytes": "wall_s on cdf-w2",
    "trace.overhead_s": "none: traced minus untraced wall_s",
}

# Counts that must repeat exactly between runs of one program version.
COUNT_METRICS = (
    "channel.array_response.calls_per_trial",
    "channel.array_response.calls_per_ris_trial",
    "channel.array_response.calls_per_noris_trial",
    "beamforming.gamma_analytic.calls_per_trial",
    "link.sinr_all.calls_per_trial",
    "experiments.realizations_per_trial_point",
    "experiments.rejects_per_trial_point",
    "kernels.flop_per_trial",
    "kernels.bytes_per_trial",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def master_seed(seed: int) -> int:
    return MASTER_SEEDS[seed % len(MASTER_SEEDS)]


def cli_args(wl: Workload, master: int, out: Path) -> list[str]:
    """The generated CLI arguments."""
    return [*wl.args, "--seed", str(master), "--trials", str(wl.trials),
            "--workers", str(wl.workers), "--out", str(out)]


def reference_path(wl: Workload, master: int) -> Path:
    return REFS / f"{wl.name}-seed{master}.csv.gz"


def compare_csv(got: str, ref: str) -> str | None:
    """None when equal at the printed precision (10 significant digits)."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return f"{len(got_lines)} lines, reference has {len(ref_lines)}"
    for no, (g, r) in enumerate(zip(got_lines, ref_lines), start=1):
        if g == r:
            continue
        gf, rf = g.split(","), r.split(",")
        if len(gf) != len(rf) or not all(map(_same_field, gf, rf)):
            return f"line {no}: {g!r}, reference {r!r}"
    return None


def _same_field(got: str, ref: str) -> bool:
    """Equal, or one unit apart in the reference's 10th significant digit.

    The CSV prints numbers with %.10g; decimal arithmetic keeps the
    comparison exact at that precision.
    """
    if got == ref:
        return True
    try:
        x, y = Decimal(got), Decimal(ref)
        if not (x.is_finite() and y.is_finite()):
            return False
        if y == 0:
            return x == 0
        return abs(x - y) <= Decimal(1).scaleb(y.adjusted() - 9)
    except InvalidOperation:
        return False


def invoke(wl: Workload, master: int, trace: bool, env: dict) -> dict:
    """One fresh-process invocation; raises RuntimeError when it fails."""
    out = OUT / wl.name / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(CHILD), "1" if trace else "0", "--",
           *cli_args(wl, master, out)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"timed out after {INVOCATION_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        raise RuntimeError(f"exit {proc.returncode}: {tail[0]}")
    try:
        res = json.loads(stdout.strip().splitlines()[-1])
        csv_text = Path(res["csv"]).read_text(encoding="utf-8")
        manifest = json.loads((out / "manifest.json").read_text(
            encoding="utf-8"))
    except (IndexError, KeyError, ValueError, OSError) as exc:
        raise RuntimeError(f"no usable output: {exc}") from None
    res["setup_s"] = res["t_call"] - spawned
    res["csv_text"] = csv_text
    res["rejected"] = manifest.get("rejected_trials", 0)
    return res


def reference_problem(wl: Workload, master: int, csv_text: str):
    """Why the CSV does not match its reference, or None."""
    ref = gzip.decompress(reference_path(wl, master).read_bytes()).decode()
    problem = compare_csv(csv_text, ref)
    return problem and f"CSV differs from the reference, {problem}"


def end_to_end(wl: Workload, res: dict) -> dict:
    return {"setup_s": res["setup_s"], "wall_s": res["wall_s"],
            "trial_points_per_s": wl.trial_points / res["wall_s"],
            "cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"]}


def per_layer(wl: Workload, res: dict) -> dict:
    """Per-layer metrics of one traced invocation, per delivered trial point.

    A trial point is one trial of one sweep point, so a change that shares
    work between sweep points lowers these numbers.
    """
    s = res["trace"]
    tp = wl.trial_points

    def calls(name, kind=None):
        if kind is None:
            return s["calls"].get(name, 0)
        return s["calls_by_kind"].get(name, {}).get(kind, 0)

    ris_tp = wl.ris_points * wl.trials
    noris_tp = (wl.points - wl.ris_points) * wl.trials
    m = {f"{stage}.us_per_trial": s["incl_s"].get(stage, 0.0) / tp * 1e6
         for stage in STAGES}
    m.update({
        "channel.array_response.calls_per_trial":
            calls("channel.array_response") / tp,
        "channel.array_response.calls_per_ris_trial":
            calls("channel.array_response", "ris") / ris_tp
            if ris_tp else 0.0,
        "channel.array_response.calls_per_noris_trial":
            calls("channel.array_response", "noris") / noris_tp
            if noris_tp else 0.0,
        "beamforming.gamma_analytic.calls_per_trial":
            calls("beamforming.gamma_analytic") / tp,
        "link.sinr_all.calls_per_trial": calls("link.sinr_all") / tp,
        "kernels.flop_per_trial": s["work"].get("flop", 0) / tp,
        "kernels.bytes_per_trial": s["work"].get("bytes", 0) / tp,
        "experiments.run_trial.self_us_per_trial":
            s["self_s"].get("experiments.run_trial", 0.0) / tp * 1e6,
        "experiments.run_trial.p50_us": s["run_trial_p50_us"],
        "experiments.run_trial.p99_us": s["run_trial_p99_us"],
        "experiments.realizations_per_trial_point":
            calls("channel.draw_channels") / tp,
        "experiments.rejects_per_trial_point": res["rejected"] / tp,
        "experiments.run_trials.pool_overhead_s": s["pool_overhead_s"],
        "experiments.driver_self_s": s["driver_self_s"],
        "cli.write_s": s["write_s"],
        "cli.csv_bytes": len(res["csv_text"].encode()),
    })
    return m


def machine_check(wl: Workload, env: dict):
    """Refuse to run where the program is absent or cores are too few."""
    if not (ROOT / "src" / "cfris" / "cli.py").is_file():
        raise BenchError(f"program source not found under {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    if wl.workers > nproc:
        raise BenchError(f"workload {wl.name} needs {wl.workers} workers "
                         f"but only {nproc} CPUs are available")
    # Untimed warm-up: compiles the bytecode cache and checks the import.
    try:
        proc = subprocess.run([sys.executable, "-c", "import cfris.cli"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("importing the program timed out") from None
    if proc.returncode != 0:
        raise BenchError("cannot import the program: "
                         + (proc.stderr.strip().splitlines() or ["?"])[-1])


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    bench = load_benchmark()
    env = child_env()
    machine_check(wl, env)
    master = master_seed(seed)
    print(f"workload {wl.name}: seed {seed} -> master seed {master}, "
          f"{wl.points} points x {wl.trials} trials, workers {wl.workers}")

    plain, traced = [], []
    attempted = crashed = failed = 0
    need = 2 if trace else MIN_INVOCATIONS
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        enough = len(plain) >= need and (
            not trace or len(traced) >= len(plain))
        if elapsed >= seconds + GIVE_UP_AFTER_S or (
                elapsed >= seconds and enough):
            break
        # --trace 1 alternates untraced and traced invocations.
        tracing = trace and len(traced) < len(plain)
        attempted += 1
        label = f"  invocation {attempted}{' (traced)' if tracing else ''}"
        try:
            res = invoke(wl, master, tracing, env)
        except RuntimeError as exc:
            crashed += 1
            print(f"{label} FAILED: {exc}")
            continue
        problem = reference_problem(wl, master, res["csv_text"])
        failed += problem is not None
        (traced if tracing else plain).append(res)
        print(f"{label}: wall {res['wall_s']:.3f} s, "
              f"setup {res['setup_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
              f"rss {res['peak_rss_mb']:.1f} MB, "
              f"{'CSV ok' if problem is None else 'FAILED: ' + problem}")
    failed += crashed
    if not plain or (trace and not traced):
        raise BenchError(f"no invocation completed ({crashed} crashed)")

    print("machine: " + json.dumps(plain[-1]["machine"], sort_keys=True))
    problems = []
    if trace:
        metrics, problems = _layer_report(wl, plain, traced, bench)
    else:
        metrics = _e2e_report(wl, plain, bench)
    print(f"{'failed_ratio':<22} {failed / attempted:>12.6g} ratio "
          f"({failed} of {attempted} invocations failed)")
    for problem in problems:
        print(f"NOT CORRECT: {problem}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _e2e_report(wl, plain, bench) -> dict:
    samples = [end_to_end(wl, r) for r in plain]
    metrics = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        values = [s[name] for s in samples]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{name:<22} {value:>12.6g} {spec['unit']:<4} median of "
              f"{len(values)} (min {min(values):.6g}, "
              f"max {max(values):.6g})")
    return metrics


def _layer_report(wl, plain, traced, bench) -> dict:
    samples = [per_layer(wl, r) for r in traced]
    problems = [f"count {name} differs between traced invocations: "
                f"{sorted({s[name] for s in samples})}"
                for name in COUNT_METRICS
                if len({s[name] for s in samples}) > 1]
    overhead = statistics.median(r["wall_s"] for r in traced) \
        - statistics.median(r["wall_s"] for r in plain)
    seed_counts = json.loads(SEED_COUNTS.read_text(encoding="utf-8")) \
        if SEED_COUNTS.is_file() else {}
    reference = seed_counts.get(wl.name, {})
    missing = sorted({name for r in traced for name in r["trace"]["missing"]})
    if missing:
        problems.append("traced functions not found in the program: "
                        + ", ".join(missing))

    metrics = {}
    for spec in bench["per_layer"]:
        name = spec["name"]
        value = overhead if name == "trace.overhead_s" \
            else statistics.median([s[name] for s in samples])
        metrics[name] = {"value": value, "unit": spec["unit"]}
        note = ""
        if name in reference and reference[name] != value:
            note = f"  (reference commit: {reference[name]:.6g})"
        print(f"{name:<46} {value:>12.6g} {spec['unit']:<5}"
              f" -> {LAYER_TARGETS[name]}{note}")

    print("per sweep point (last traced invocation):")
    print(f"  {'n_ris':>6} {'kappa':>6} {'h_uav':>6} {'tilt':>5} "
          f"{'trials':>6} {'us/trial':>9} {'array_response/trial':>21}")
    for p in traced[-1]["trace"]["points"]:
        print(f"  {p['n_ris']:>6} {p['kappa']:>6g} {p['h_uav']:>6g} "
              f"{p['tilt_deg']:>5g} {p['trials']:>6} "
              f"{p['run_trial_s'] / p['trials'] * 1e6:>9.1f} "
              f"{p.get('array_response', 0) / p['trials']:>21g}")
    return metrics, problems


def write_references():
    """Regenerate the CSV references and seed counts from this program."""
    env = child_env()
    REFS.mkdir(exist_ok=True)
    counts = {}
    for wl in WORKLOADS.values():
        machine_check(wl, env)
        for master in MASTER_SEEDS:
            res = invoke(wl, master, False, env)
            reference_path(wl, master).write_bytes(gzip.compress(
                res["csv_text"].encode(), compresslevel=9, mtime=0))
            print(f"{wl.name} seed {master}: wrote reference")
        traced = per_layer(wl, invoke(wl, MASTER_SEEDS[0], True, env))
        counts[wl.name] = {name: traced[name] for name in COUNT_METRICS}
    SEED_COUNTS.write_text(json.dumps(counts, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_references:
            write_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except (BenchError, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
