"""Command-line entry point.

Runs one experiment and writes a machine-readable CSV plus a JSON manifest
that echoes every resolved parameter.  Configuration comes from Table-style
defaults, overridden by an optional ``key = value`` config file, overridden
by command-line flags.

Exit codes: 0 success, 1 configuration/validation error or a degenerate
drawn geometry, 2 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import STUDIES, ExperimentSpec, run_experiment, study
from .geometry import FIELD_TYPES, ConfigError, SimConfig, SimulationError

# Every file key and its type.
_TYPES = {**FIELD_TYPES, "experiment": str}
# The fields that some study sweeps, in a fixed order.
_SWEPT = tuple(dict.fromkeys(f for s in STUDIES.values() for f in s.sweeps))
# Flags named otherwise than the key they set.
_RENAMES = {"seed": "master_seed", "heights": "h_uav"}
# CSV columns named otherwise than their row key, besides *_bps -> *_mbps.
_COLUMNS = {"h_uav_m": "uav_height_m"}


def _parse(key, raw, where):
    """``raw`` cast to the type of ``key``, a tuple for a swept field.

    ``where`` names the source in error messages.
    """
    cast = _TYPES[key]
    if key not in _SWEPT:
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"{where}: cannot parse {raw!r}") from None
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{where}: empty list")
    try:
        return tuple(cast(s) for s in items)
    except ValueError:
        raise ConfigError(
            f"{where}: cannot parse {raw!r} as a list") from None


def _read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file with # comments."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[key] = _parse(key, raw, f"line {line_no}: {key}")
    return values


def load_config(path: str | None, overrides: dict
                ) -> tuple[SimConfig, ExperimentSpec]:
    """Resolve defaults, then file values, then flag overrides.

    ``overrides`` maps flag names to values (None = absent); flags that
    name no config key are ignored.  A swept field takes a comma list, its
    first value setting the field.  The list is the field's sweep when the
    study sweeps the field or the list holds more than one value; the spec
    rejects a sweep of a field its study does not sweep.
    """
    values = _read_config_file(path) if path else {}
    for flag, raw in overrides.items():
        key = _RENAMES.get(flag, flag)
        if raw is not None and key in _TYPES:
            values[key] = _parse(key, raw, flag)
    kind = values.pop("experiment", ExperimentSpec.kind)
    swept = study(kind).sweeps
    sweeps = {}
    for field in _SWEPT:
        if field in values:
            if field in swept or len(values[field]) > 1:
                sweeps[field] = values[field]
            values[field] = values[field][0]
    cfg = SimConfig(**values)
    return cfg, ExperimentSpec(kind, cfg, sweeps)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _cells(rows, keys, bps):
    """The ``%`` format of each column and every cell, row by row.

    ``"%.10g" % x`` is ``_fmt(x)`` for a Python float; a column holding
    anything else is formatted cell by cell here.  The column lists end
    with this call, so they are freed before the text is built.
    """
    formats, columns = [], []
    for key in keys:
        column = ([r[key] / 1e6 for r in rows] if key in bps
                  else [r[key] for r in rows])
        if all(type(x) is float for x in column):
            formats.append("%.10g")
        else:
            formats.append("%s")
            column = [_fmt(x) for x in column]
        columns.append(column)
    return formats, tuple(itertools.chain.from_iterable(zip(*columns)))


def _csv_text(rows) -> str:
    """A header of the first row's keys, then a line of ``_fmt`` cells per
    row, a ``*_bps`` value in Mbps; the lines are formatted in one pass."""
    keys = list(rows[0])
    bps = {key for key in keys if key.endswith("_bps")}
    header = [key[:-4] + "_mbps" if key in bps else _COLUMNS.get(key, key)
              for key in keys]
    formats, cells = _cells(rows, keys, bps)
    line = ",".join(formats) + "\n"
    return ",".join(header) + "\n" + (line * len(rows)) % cells


def run(spec: ExperimentSpec, out_dir: str, workers: int = 1) -> Path:
    """Execute an experiment and write its CSV plus manifest.json."""
    started = time.monotonic()
    rows = run_experiment(spec, workers=workers)
    duration = time.monotonic() - started

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / STUDIES[spec.kind].csv_name
    csv_path.write_text(_csv_text(rows), encoding="utf-8", newline="\n")

    manifest = {
        "tool": "cfris",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "experiment": spec.kind,
        "master_seed": spec.base.master_seed,
        "trials_per_point": spec.base.trials,
        "workers": workers,
        "config": dataclasses.asdict(spec.base),
        "sweeps": spec.sweeps,
        "rows": len(rows),
        "duration_s": duration,
        "results_csv": csv_path.name,
    }
    # a tuple is written as a list, a numpy scalar as its Python number
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True,
                   default=np.generic.item) + "\n", encoding="utf-8")
    return csv_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfris",
        description="Monte-Carlo downlink simulator for a RIS-assisted "
                    "cell-free MIMO network serving ground users and a UAV.")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value config file")
    parser.add_argument("--experiment", choices=STUDIES,
                        help="study to run (default rate-region)")
    parser.add_argument("--seed", help="master seed (64-bit)")
    parser.add_argument("--trials", help="Monte-Carlo trials per sweep point")
    parser.add_argument("--out", metavar="DIR", default="results",
                        help="output directory (default ./results)")
    parser.add_argument("--workers", type=int, default=1,
                        help="concurrent trial workers (default 1)")
    parser.add_argument("--kappa",
                        help="UAV power fraction; rate-region sweeps a list")
    parser.add_argument("--n-ris", dest="n_ris",
                        help="RIS element count; a list sweeps it, not in cdf")
    parser.add_argument("--heights",
                        help="UAV height in meters; ris-gain sweeps a list")
    parser.add_argument("--tilt-deg", dest="tilt_deg",
                        help="AP antenna down-tilt in degrees")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            cfg, spec = load_config(args.config, vars(args))
        except OSError as exc:
            print(f"cfris: cannot read config: {exc}", file=sys.stderr)
            return 2
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
        csv_path = run(spec, args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"cfris: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"cfris: simulation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cfris: I/O error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} (seed {spec.base.master_seed}, "
          f"{spec.base.trials} trials/point)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
