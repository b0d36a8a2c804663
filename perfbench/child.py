"""One benchmark invocation: a fresh interpreter that runs one CLI experiment.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/child.py <trace 0|1> -- <cfris CLI arguments...>

The program is driven through its public CLI functions: ``build_parser``
and ``load_config`` resolve the arguments, then ``cli.run`` executes the
experiment and writes the CSV and ``manifest.json``.  The last line of
standard output is one JSON object with the call's start time on the
system-wide monotonic clock (``run.py`` subtracts its spawn time to get the
set-up time), wall and CPU time of the call, peak RSS, and the machine
record.

With trace 1 the public functions of each module are wrapped from outside
before the call and restored after it.  Every wrapped call records a span
(name, start, end, parent) and counts; the kernels also add a computed
operation and byte count from their argument shapes.  Trials that run in
pool workers (forked, so they inherit the wrappers) append their spans to
files under ``<out>/spans`` and are merged here.
"""
from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path, span name).  Pipeline stages are wrapped where
# cfris.experiments looks them up, so every trial goes through the wrapper.
TARGETS = (
    ("cfris.experiments", "place_nodes", "geometry.place_nodes"),
    ("cfris.experiments", "large_scale", "channel.large_scale"),
    ("cfris.experiments", "draw_channels", "channel.draw_channels"),
    ("cfris.experiments", "ris_align_uav", "beamforming.ris_align_uav"),
    ("cfris.experiments", "aggregate_channel", "channel.aggregate_channel"),
    ("cfris.experiments", "gamma_analytic", "beamforming.gamma_analytic"),
    ("cfris.experiments", "ppa_allocate", "beamforming.ppa_allocate"),
    ("cfris.experiments", "sinr_all", "link.sinr_all"),
    ("cfris.experiments", "rate_bps", "link.rate_bps"),
    ("cfris.experiments", "trial_rng", "experiments.trial_rng"),
    ("cfris.experiments", "run_trial", "experiments.run_trial"),
    ("cfris.experiments", "run_trials", "experiments.run_trials"),
    ("cfris.channel", "array_response", "channel.array_response"),
    ("cfris._kernels", "aggregate", "kernels.aggregate"),
    ("cfris._kernels", "align_phases", "kernels.align_phases"),
    ("cfris._kernels", "sinr_users", "kernels.sinr_users"),
    ("cfris.beamforming", "RisConfig.__init__", "beamforming.RisConfig"),
    ("cfris.cli", "run_experiment", "experiments.run_experiment"),
    ("cfris.cli", "run", "cli.run"),
)
# Pool workers run their trials through this function; it is wrapped (not
# traced) so each worker can ship its spans back through a file.
CHUNK_TARGET = ("cfris.experiments", "_run_chunk")

# Computed work of the three kernels from their argument shapes, counting
# a complex multiply as 6 flop, a complex add as 2, a complex
# multiply-add as 8, |z| as 3 and a complex-by-real divide as 2.  Bytes
# are the complex128/float64 arguments read plus the result written;
# cache behaviour is ignored.


def _aggregate_work(h_direct, H_ris, v, h_ris_user):
    m, k = h_direct.shape
    n = v.shape[0]
    flop = 6 * n * k + 8 * m * n * k + 2 * m * k
    return flop, 16 * (2 * m * k + m * n + n + n * k)


def _align_work(H_ris, h_ris_uav, h_uav):
    m, n = H_ris.shape
    return 14 * m * n + 5 * n, 16 * (m * n + 2 * n + m)


def _sinr_work(G, W, eta, noise_w):
    m, k = G.shape
    return 3 * m * k + 8 * m * k * k + 4 * k * k + 3 * k, \
        16 * 2 * m * k + 8 * m * k + 8 * (k + 1)


WORK = {"kernels.aggregate": _aggregate_work,
        "kernels.align_phases": _align_work,
        "kernels.sinr_users": _sinr_work}


def _point_tag(cfg, *_args, **_kwargs):
    """Sweep point of a run_trial call: (n_ris, kappa, h_uav, tilt)."""
    return (int(cfg.n_ris), float(cfg.kappa), float(cfg.h_uav),
            float(cfg.tilt_deg))


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Wraps functions from outside and records one span per call.

    A span is (name, start, end, parent id, point tag); the point tag is
    inherited from the innermost enclosing run_trial call.
    """

    def __init__(self, spans_dir: Path | None = None):
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self.missing = []
        self._originals = []
        self.reset()

    def reset(self):
        self.spans = []
        self.work = Counter()
        self._stack = []
        self._tags = [None]

    def install(self):
        for module, path, name in TARGETS:
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            tag = _point_tag if name == "experiments.run_trial" else None
            self._patch(owner, attr, self._span(original, name, tag,
                                                WORK.get(name)))
        try:
            owner, attr = _resolve(*CHUNK_TARGET)
            self._patch(owner, attr, self._chunk(getattr(owner, attr)))
        except (ImportError, AttributeError):
            pass

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def installed(self):
        return [(owner, attr) for owner, attr, _ in self._originals]

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, fn, name, tag_fn, work_fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, tags = self.spans, self._stack, self._tags
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            tag = tag_fn(*args, **kwargs) if tag_fn else tags[-1]
            stack.append(sid)
            tags.append(tag)
            if work_fn:
                flop, nbytes = work_fn(*args, **kwargs)
                self.work["flop"] += flop
                self.work["bytes"] += nbytes
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tags.pop()
                spans[sid] = (name, start, end, parent, tag)

        return wrapper

    def _chunk(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return fn(*args, **kwargs)
            self.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                path = self.spans_dir / f"worker-{os.getpid()}.jsonl"
                with path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"spans": self.spans,
                                         "work": dict(self.work)}) + "\n")
        return wrapper

    def merge_worker_files(self):
        for path in sorted(self.spans_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                chunk = json.loads(line)
                base = len(self.spans)
                for name, start, end, parent, tag in chunk["spans"]:
                    self.spans.append((
                        name, start, end,
                        parent + base if parent >= 0 else -1,
                        tuple(tag) if tag is not None else None))
                self.work.update(chunk["work"])

    def summary(self, workers: int) -> dict:
        """Totals the benchmark divides by its own trial-point count."""
        incl = Counter()
        calls = Counter()
        child_time = Counter()
        calls_by_kind = defaultdict(Counter)
        points = defaultdict(Counter)
        trial_us = []
        for name, start, end, parent, tag in self.spans:
            dur = end - start
            incl[name] += dur
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
            kind = "none" if tag is None else ("ris" if tag[0] else "noris")
            calls_by_kind[name][kind] += 1
            if name == "experiments.run_trial":
                trial_us.append(dur * 1e6)
                points[tag]["trials"] += 1
                points[tag]["run_trial_s"] += dur
            elif name == "channel.array_response" and tag is not None:
                points[tag]["array_response"] += 1
        self_time = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[sid]
        trial_us.sort()

        def last(name):
            found = [s for s in self.spans if s[0] == name]
            return found[-1] if found else None

        cli_run, run_exp = last("cli.run"), last("experiments.run_experiment")
        return {
            "incl_s": dict(incl),
            "self_s": dict(self_time),
            "calls": dict(calls),
            "calls_by_kind": {k: dict(v) for k, v in calls_by_kind.items()},
            "run_trial_p50_us": _quantile(trial_us, 0.50),
            "run_trial_p99_us": _quantile(trial_us, 0.99),
            "pool_overhead_s": incl["experiments.run_trials"]
            - incl["experiments.run_trial"] / workers,
            "driver_self_s": self_time["experiments.run_experiment"],
            "write_s": (cli_run[2] - run_exp[2])
            if cli_run and run_exp else 0.0,
            "work": dict(self.work),
            "points": [{"n_ris": tag[0], "kappa": tag[1], "h_uav": tag[2],
                        "tilt_deg": tag[3], **counts}
                       for tag, counts in sorted(points.items())],
            "missing": self.missing,
        }


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def machine_record(cfris) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    backend = getattr(cfris, "kernel_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernel_backend": backend() if callable(backend) else "n/a",
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    trace = argv[0] == "1"
    cli_argv = argv[argv.index("--") + 1:]

    import cfris
    from cfris import cli

    args = cli.build_parser().parse_args(cli_argv)
    _, spec = cli.load_config(args.config, vars(args))
    tracer = None
    if trace:
        spans_dir = Path(args.out) / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(spans_dir)
        tracer.install()

    cpu0 = _cpu_s()
    t_call = time.monotonic()
    wall0 = time.perf_counter()
    try:
        csv_path = cli.run(spec, args.out, workers=args.workers)
    finally:
        wall = time.perf_counter() - wall0
        if tracer:
            tracer.restore()
    cpu = _cpu_s() - cpu0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result = {
        "t_call": t_call,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "csv": str(csv_path),
        "machine": machine_record(cfris),
    }
    if tracer:
        tracer.merge_worker_files()
        result["trace"] = tracer.summary(args.workers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
