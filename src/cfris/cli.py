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
import json
import platform
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (DEFAULT_CDF_SCENARIOS, EXPERIMENT_KINDS, SWEEPS,
                          ExperimentSpec, run_experiment)
from .geometry import ConfigError, SimConfig, SimulationError


def _field_type(hint) -> type:
    """int or float, unwrapping an optional hint such as ``float | None``."""
    return next(t for t in (hint, *typing.get_args(hint))
                if t in (int, float))


_FIELD_TYPES = {name: _field_type(hint)
                for name, hint in typing.get_type_hints(SimConfig).items()}
# Every file key and its type; a sweep holds values of the field it sweeps.
_TYPES = {**_FIELD_TYPES, "experiment": str,
          **{sweep: _FIELD_TYPES[field] for sweep, field in SWEEPS.items()}}
# Spec keys of the file and flags, and the ExperimentSpec field each sets.
_SPEC_KEYS = {"experiment": "kind", **{sweep: sweep for sweep in SWEEPS}}
# Flags named otherwise than the field they set.
_RENAMES = {"seed": "master_seed", "uav_height": "h_uav"}

CSV_NAMES = {"rate-region": "rate_region.csv", "cdf": "rate_cdf.csv",
             "ris-gain": "ris_gain.csv"}


def _parse(key, raw, where):
    """``raw`` cast to the type of ``key``, a tuple for a sweep key.

    ``where`` names the source in error messages.
    """
    cast = _TYPES[key]
    if key not in SWEEPS:
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
    name no config key are ignored.  A flag on a swept field takes a comma
    list.  A value given for a swept field, one or several, from a flag
    or the file, is also its sweep, and its first value sets the field;
    a sweep key given in the same source wins.  ``no_ris`` forces n_ris
    to 0.
    """
    values = _read_config_file(path) if path else {}
    swept = {field: sweep for sweep, field in SWEEPS.items()}
    flagged = {}
    for flag, raw in overrides.items():
        key = _RENAMES.get(flag, flag)
        if raw is not None and key in _TYPES:
            flagged[key] = _parse(swept.get(key, key), raw, flag)
    for source in (values, flagged):
        for field, sweep in swept.items():
            if field in source:
                items = source[field]
                if not isinstance(items, tuple):
                    items = (items,)
                source[field] = items[0]
                source.setdefault(sweep, items)
    values.update(flagged)
    if overrides.get("no_ris"):
        values["n_ris"] = 0

    spec_kw = {attr: values.pop(key) for key, attr in _SPEC_KEYS.items()
               if key in values}
    cfg = SimConfig(**values)
    return cfg, ExperimentSpec(base=cfg, **spec_kw)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _csv_rows(kind: str, rows) -> list[str]:
    if kind == "rate-region":
        lines = ["system,kappa,gue_rate_mbps,uav_rate_mbps"]
        lines += [",".join([r["system"], _fmt(r["kappa"]),
                            _fmt(r["gue_rate_bps"] / 1e6),
                            _fmt(r["uav_rate_bps"] / 1e6)]) for r in rows]
    elif kind == "cdf":
        lines = ["scenario,user,rate_mbps,prob"]
        lines += [",".join([r["scenario"], r["user"],
                            _fmt(r["rate_bps"] / 1e6),
                            _fmt(r["prob"])]) for r in rows]
    else:
        lines = ["n_ris,uav_height_m,mean_gain_db"]
        lines += [",".join([_fmt(r["n_ris"]), _fmt(r["h_uav_m"]),
                            _fmt(r["mean_gain_db"])]) for r in rows]
    return lines


def run(spec: ExperimentSpec, out_dir: str, workers: int = 1) -> Path:
    """Execute an experiment and write <kind>.csv plus manifest.json."""
    started = time.monotonic()
    rows = run_experiment(spec, workers=workers)
    duration = time.monotonic() - started

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / CSV_NAMES[spec.kind]
    csv_path.write_text("\n".join(_csv_rows(spec.kind, rows)) + "\n",
                        encoding="utf-8", newline="\n")

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
        "sweeps": {
            "kappas": list(spec.kappas),
            "n_list": [int(n) for n in spec.n_list],
            "heights": list(spec.heights),
            "cdf_scenarios": [list(s) for s in DEFAULT_CDF_SCENARIOS],
        },
        "rows": len(rows),
        "duration_s": duration,
        "results_csv": csv_path.name,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return csv_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfris",
        description="Monte-Carlo downlink simulator for a RIS-assisted "
                    "cell-free MIMO network serving ground users and a UAV.")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value config file")
    parser.add_argument("--experiment", choices=EXPERIMENT_KINDS,
                        help="study to run (default rate-region)")
    parser.add_argument("--seed", type=int, help="master seed (64-bit)")
    parser.add_argument("--trials", type=int,
                        help="Monte-Carlo trials per sweep point")
    parser.add_argument("--out", metavar="DIR", default="results",
                        help="output directory (default ./results)")
    parser.add_argument("--workers", type=int, default=1,
                        help="concurrent trial workers (default 1)")
    parser.add_argument("--kappa",
                        help="UAV power fraction; comma list sweeps it")
    parser.add_argument("--n-ris", dest="n_ris",
                        help="RIS element count; comma list sweeps it")
    parser.add_argument("--uav-height", dest="uav_height", type=float,
                        help="UAV height in meters")
    parser.add_argument("--heights",
                        help="comma list of UAV heights for ris-gain")
    parser.add_argument("--tilt-deg", dest="tilt_deg", type=float,
                        help="AP antenna down-tilt in degrees")
    parser.add_argument("--no-ris", dest="no_ris", action="store_true",
                        help="force the RIS off (n_ris = 0)")
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
