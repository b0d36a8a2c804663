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
import sys
import time
import typing
from pathlib import Path

from . import __version__
from .experiments import (DEFAULT_CDF_SCENARIOS, DEFAULT_GAIN_N_LIST,
                          DEFAULT_HEIGHTS, DEFAULT_KAPPAS, DEFAULT_N_LIST,
                          EXPERIMENT_KINDS, ExperimentSpec, run_experiment)
from .geometry import ConfigError, SimConfig, SimulationError


def _config_keys(kind: type) -> set:
    """SimConfig fields typed ``kind`` (or an optional ``kind``)."""
    hints = typing.get_type_hints(SimConfig)
    return {f.name for f in dataclasses.fields(SimConfig)
            if kind in (hints[f.name], *typing.get_args(hints[f.name]))}


_INT_KEYS = _config_keys(int)
_FLOAT_KEYS = _config_keys(float)
_LIST_KEYS = {"kappas": float, "n_list": int, "heights": float}
_STR_KEYS = {"experiment"}

CSV_NAMES = {"rate-region": "rate_region.csv", "cdf": "rate_cdf.csv",
             "ris-gain": "ris_gain.csv"}


def _parse_scalar(key, raw, line_no):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: {key}: cannot parse {raw!r}") from None
    return raw


def _parse_list(raw, cast, key, line_no=None):
    where = f"line {line_no}: " if line_no is not None else ""
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{where}{key}: empty list")
    try:
        return [cast(s) for s in items]
    except ValueError:
        raise ConfigError(
            f"{where}{key}: cannot parse {raw!r} as a list") from None


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
        if key in _LIST_KEYS:
            values[key] = _parse_list(raw, _LIST_KEYS[key], key, line_no)
        elif key in _INT_KEYS | _FLOAT_KEYS | _STR_KEYS:
            values[key] = _parse_scalar(key, raw, line_no)
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    return values


def load_config(path: str | None, overrides: dict
                ) -> tuple[SimConfig, ExperimentSpec]:
    """Resolve defaults, then file values, then flag overrides.

    ``overrides`` maps flag names to already-typed values (None = absent);
    list-valued flags may carry either one value (a plain parameter
    override) or several (a sweep definition).
    """
    values = _read_config_file(path) if path else {}

    kind = overrides.get("experiment") or values.get("experiment") \
        or "rate-region"
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment: unknown kind {kind!r} "
                          f"(expected one of {', '.join(EXPERIMENT_KINDS)})")

    cfg_kw = {k: v for k, v in values.items()
              if k in _INT_KEYS | _FLOAT_KEYS}
    sweeps = {k: values[k] for k in _LIST_KEYS if k in values}

    if overrides.get("seed") is not None:
        cfg_kw["master_seed"] = overrides["seed"]
    if overrides.get("trials") is not None:
        cfg_kw["trials"] = overrides["trials"]
    if overrides.get("uav_height") is not None:
        cfg_kw["h_uav"] = overrides["uav_height"]
    if overrides.get("tilt_deg") is not None:
        cfg_kw["tilt_deg"] = overrides["tilt_deg"]

    kappa = overrides.get("kappa")
    if kappa is not None:
        kappas = _parse_list(kappa, float, "kappa")
        cfg_kw["kappa"] = kappas[0]
        if len(kappas) > 1:
            sweeps["kappas"] = kappas
    n_ris = overrides.get("n_ris")
    if n_ris is not None:
        n_values = _parse_list(n_ris, int, "n_ris")
        cfg_kw["n_ris"] = n_values[0]
        if len(n_values) > 1:
            sweeps["n_list"] = n_values
    if overrides.get("heights") is not None:
        sweeps["heights"] = _parse_list(overrides["heights"], float,
                                        "heights")
    if overrides.get("no_ris"):
        cfg_kw["n_ris"] = 0

    cfg = SimConfig(**cfg_kw)

    default_n = DEFAULT_GAIN_N_LIST if kind == "ris-gain" else DEFAULT_N_LIST
    spec = ExperimentSpec(
        kind=kind, base=cfg,
        kappas=tuple(sweeps.get("kappas", DEFAULT_KAPPAS)),
        n_list=tuple(sweeps.get("n_list", default_n)),
        heights=tuple(sweeps.get("heights", DEFAULT_HEIGHTS)),
        scenarios=DEFAULT_CDF_SCENARIOS)
    return cfg, spec


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
        "experiment": spec.kind,
        "master_seed": spec.base.master_seed,
        "trials_per_point": spec.base.trials,
        "workers": workers,
        "config": dataclasses.asdict(spec.base),
        "sweeps": {
            "kappas": list(spec.kappas),
            "n_list": [int(n) for n in spec.n_list],
            "heights": list(spec.heights),
            "cdf_scenarios": [list(s) for s in spec.scenarios],
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
