"""Monte-Carlo experiment drivers.

Three studies are provided:

* ``rate_region``: 95%-likely GUE/UAV rate pairs over a sweep of the power
  split kappa, for the plain system, RIS systems of several sizes, and a
  GUE-only baseline.
* ``rate_cdf``: empirical rate CDFs for (kappa, tilt, RIS on/off) scenarios.
* ``ris_gain_sweep``: mean UAV SINR gain of the RIS over element counts and
  UAV heights, paired per realization.

Every trial draws its randomness from a substream derived deterministically
from (master_seed, trial_index), so results are bit-identical regardless of
how many workers execute them.  Positions and fading are redrawn each trial.

The sweep points of a study share their draws.  Trial index t of every
point uses the same substream, and the draws of a smaller RIS are a prefix
of those of a larger one, so one realization per trial index, drawn at the
largest element count, serves every (RIS size, kappa) point; kappa enters
only the power split and the SINR.  A different UAV height or antenna tilt
changes the large-scale terms, so each (height, tilt) pair gets its own
large-scale pass on the same substream.  The paired no-RIS reference of a
RIS gain is the zero-element evaluation of the same realization.  A study
runs all its points in one pass over the trial indices, in one process
pool when it has more than one worker.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .beamforming import gamma_analytic, ppa_allocate, ris_align_uav
from .channel import (ChannelSet, LargeScaleParams, aggregate_channel,
                      draw_channels, large_scale)
from .geometry import ConfigError, SimConfig, place_nodes
from .link import rate_bps, ris_gain_db, sinr_all

EXPERIMENT_KINDS = ("rate-region", "cdf", "ris-gain")

DEFAULT_KAPPAS = (0.02, 0.05, 0.1, 0.15)
DEFAULT_N_LIST = (15, 30)
DEFAULT_GAIN_N_LIST = (20, 30, 40, 50, 60)
DEFAULT_HEIGHTS = (16.0, 100.0, 300.0)
# (kappa, tilt_deg, with_ris): down-tilted baseline, up-tilted high-power
# variant, and the RIS system at the baseline settings.
DEFAULT_CDF_SCENARIOS = ((0.1, 15.0, False), (0.33, -5.0, False),
                         (0.1, 15.0, True))
# Each sweep of an ExperimentSpec and the SimConfig field it sweeps.
SWEEPS = {"kappas": "kappa", "n_list": "n_ris", "heights": "h_uav"}
# Fewest samples a 95%-likely rate is taken from.
MIN_RATE_95_SAMPLES = 20


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one end-to-end Monte-Carlo trial."""

    trial_index: int
    rates_bps: np.ndarray          # (K,) per-user, index 0 = UAV
    sinr: np.ndarray               # (K,) linear
    ris_gain_db: float | None      # UAV with/without-RIS ratio; None if no RIS


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: kind, sweeps and the base scenario.

    ``n_list=None`` resolves to the kind's default.  Every swept value must
    make a valid SimConfig in the field it sweeps; the rules of one study
    are checked by its study function.
    """

    kind: str = "rate-region"
    base: SimConfig = SimConfig()
    kappas: tuple = DEFAULT_KAPPAS
    n_list: tuple | None = None
    heights: tuple = DEFAULT_HEIGHTS
    scenarios: tuple = DEFAULT_CDF_SCENARIOS

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"experiment: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(EXPERIMENT_KINDS)})")
        if self.n_list is None:
            object.__setattr__(self, "n_list", DEFAULT_GAIN_N_LIST
                               if self.kind == "ris-gain" else DEFAULT_N_LIST)
        for sweep, field in SWEEPS.items():
            if not getattr(self, sweep):
                raise ConfigError(f"{sweep}: need a non-empty list")
            for value in getattr(self, sweep):
                try:
                    self.base.with_overrides(**{field: value})
                except ConfigError as exc:
                    raise ConfigError(f"{sweep}: {exc}") from None
        if not self.scenarios:
            raise ConfigError("scenarios: need at least one CDF scenario")


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent substream for one trial."""
    # The trailing 0 is part of each stream's identity: without it every
    # drawn number, and so every CSV, would change.
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index, 0))
    return np.random.default_rng(ss)


def _sanity_check_rates(cfg: SimConfig, G: np.ndarray, gamma: np.ndarray,
                        sinr: np.ndarray, rates: np.ndarray):
    # Coherent upper bound: with eta = p_dl / gamma and p_dl <= p_d, the
    # triangle inequality caps user k's signal at
    # p_d (sum_m |G[m,k]|^2 / sqrt(gamma[m,k]))^2, a gamma = 0 term adding
    # nothing.  A violation (or a NaN) is an internal inconsistency, not a
    # property of the drawn geometry (plain RuntimeError, not
    # SimulationError).
    with np.errstate(divide="ignore", invalid="ignore"):
        coherent = np.where(gamma > 0.0, np.abs(G) ** 2 / np.sqrt(gamma), 0.0)
    cap = cfg.p_d_w * np.sum(coherent, axis=0) ** 2 / cfg.noise_power_w
    if not (np.all(rates >= 0.0) and np.all(sinr <= cap * (1.0 + 1e-9))):
        raise RuntimeError("SINR outside the coherent upper bound")


def _draw(cfg: SimConfig, trial_index: int):
    """Large-scale parameters and one channel realization at cfg.n_ris."""
    rng = trial_rng(cfg.master_seed, trial_index)
    layout = place_nodes(cfg, rng)
    ls = large_scale(layout, cfg)
    return ls, draw_channels(ls, rng)


def _evaluate(cfg: SimConfig, ls: LargeScaleParams, cs: ChannelSet,
              n_ris: int, kappas) -> dict:
    """SINR and rates per kappa on the first n_ris RIS elements.

    Every RIS quantity is element-wise in n, so a prefix of a larger
    realization is exactly the realization of the smaller RIS.
    Raises SimulationError when the drawn geometry is degenerate.
    """
    ls = replace(ls, H_ris=ls.H_ris[:, :n_ris],
                 los_ris_user=ls.los_ris_user[:n_ris])
    cs = replace(cs, h_ris_user=cs.h_ris_user[:n_ris])
    ris = ris_align_uav(ls.H_ris, cs.h_ris_user[:, 0], cs.h_direct[:, 0])
    G = aggregate_channel(ls, cs, ris)
    W = np.conj(G)   # conjugate beamforming
    gamma = gamma_analytic(ls, ris)
    out = {}
    for kappa in kappas:
        pa = ppa_allocate(gamma, kappa, cfg.p_d_w)
        sinr = sinr_all(G, W, pa.eta, cfg.noise_power_w)
        rates = rate_bps(sinr, cfg.bandwidth_hz)
        _sanity_check_rates(cfg, G, gamma, sinr, rates)
        out[kappa] = sinr, rates
    return out


def _groups(points):
    """Sweep points that share every draw, in order of first appearance.

    Points that differ only in n_ris and kappa share one realization,
    drawn at their largest n_ris.  Each group is (draw config, the kappas
    to evaluate per n_ris, [(point index, n_ris, kappa)]); every RIS
    point's kappa is also evaluated at n_ris = 0, the paired no-RIS
    reference of its gain.
    """
    members = {}
    for j, p in enumerate(points):
        key = p.with_overrides(n_ris=0, kappa=0.0)
        members.setdefault(key, []).append((j, p.n_ris, p.kappa))
    groups = []
    for key, group in members.items():
        evals = {}
        for _, n_ris, kappa in group:
            evals.setdefault(n_ris, set()).add(kappa)
            if n_ris > 0:
                evals.setdefault(0, set()).add(kappa)
        groups.append((key.with_overrides(n_ris=max(evals)),
                       {n: sorted(k) for n, k in evals.items()}, group))
    return groups


class PointResults(NamedTuple):
    """Every trial of one sweep point; row t holds trial index t."""

    rates_bps: np.ndarray     # (T, K) per-user, column 0 = UAV
    sinr: np.ndarray          # (T, K) linear
    ris_gain_db: np.ndarray   # (T,) paired UAV gain, NaN without a RIS


def _run_chunk(args) -> list[PointResults]:
    """Evaluate every sweep point on one chunk of trial indices."""
    points, chunk = args
    n = len(chunk)
    rates = [np.empty((n, p.n_users)) for p in points]
    sinrs = [np.empty((n, p.n_users)) for p in points]
    gains = [np.full(n, np.nan) for p in points]
    groups = _groups(points)
    for row, trial_index in enumerate(chunk):
        for draw_cfg, evals, group in groups:
            ls, cs = _draw(draw_cfg, trial_index)
            out = {n: _evaluate(draw_cfg, ls, cs, n, kappas)
                   for n, kappas in evals.items()}
            for j, n_ris, kappa in group:
                sinr, rates[j][row] = out[n_ris][kappa]
                sinrs[j][row] = sinr
                if n_ris > 0:
                    sinr0, _ = out[0][kappa]
                    gains[j][row] = ris_gain_db(float(sinr[0]),
                                                float(sinr0[0]))
    return [PointResults(*arrays) for arrays in zip(rates, sinrs, gains)]


def _plan_chunks(trials: int, workers: int):
    """Worker processes and contiguous trial-index chunks for one sweep.

    Forking more processes than chunks or usable CPUs buys nothing, so
    the pool is min(workers, trials, CPUs), a chunk holding at least one
    trial; four chunks per process even out their run times.
    """
    procs = max(1, min(workers, trials, len(os.sched_getaffinity(0))))
    chunks = [range(int(s[0]), int(s[-1]) + 1)
              for s in np.array_split(np.arange(trials), 4 * procs)
              if s.size]
    return procs, chunks


def run_sweep(points, trials: int | None = None,
              workers: int = 1) -> list[PointResults]:
    """All trials of every sweep point, in one pass over the trial indices.

    ``points`` are SimConfigs sharing every field but n_ris, kappa,
    h_uav and tilt_deg; trial index t of every point is drawn from
    ``trial_rng(master_seed, t)``.
    """
    n = points[0].trials if trials is None else trials
    procs, chunks = _plan_chunks(n, workers)
    tasks = [(points, chunk) for chunk in chunks]
    if procs == 1:
        parts = [_run_chunk(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_run_chunk, tasks))
    return [PointResults(*map(np.concatenate, zip(*per_chunk)))
            for per_chunk in zip(*parts)]


def _trial_result(cfg: SimConfig, res: PointResults, row: int,
                  trial_index: int) -> TrialResult:
    gain = float(res.ris_gain_db[row]) if cfg.n_ris > 0 else None
    return TrialResult(trial_index=trial_index, rates_bps=res.rates_bps[row],
                       sinr=res.sinr[row], ris_gain_db=gain)


def run_trial(cfg: SimConfig, trial_index: int) -> TrialResult:
    """Run one end-to-end trial on its own substream.

    Raises SimulationError when the drawn geometry is degenerate.
    """
    (res,) = _run_chunk(([cfg], (trial_index,)))
    return _trial_result(cfg, res, 0, trial_index)


def run_trials(cfg: SimConfig, trials: int | None = None,
               workers: int = 1) -> list[TrialResult]:
    """All trials of one sweep point, ordered by trial index."""
    (res,) = run_sweep([cfg], trials, workers)
    return [_trial_result(cfg, res, i, i) for i in range(len(res.sinr))]


def likely_rate_95(samples) -> float:
    """95%-likely rate: 5th percentile by the nearest-rank rule."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < MIN_RATE_95_SAMPLES:
        raise ValueError(
            f"need at least {MIN_RATE_95_SAMPLES} samples, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return float(x[(n + 19) // 20 - 1])   # 1-based rank ceil(0.05 n)


def rate_region(cfg: SimConfig, kappa_list=DEFAULT_KAPPAS,
                n_list=DEFAULT_N_LIST, trials: int | None = None,
                workers: int = 1):
    """95%-likely (GUE k=1, UAV) rate table over kappa and system variants.

    Systems: the plain network, one RIS system per element count in
    ``n_list``, and a kappa-independent GUE-only baseline (no UAV, no RIS,
    full power shared among GUEs).
    """
    n_trials = cfg.trials if trials is None else trials
    if n_trials < MIN_RATE_95_SAMPLES:
        raise ConfigError(f"trials: rate-region needs at least "
                          f"{MIN_RATE_95_SAMPLES} per point, got {n_trials}")
    systems = [("no-ris", 0)] + [(f"ris-n{int(n)}", int(n)) for n in n_list]
    grid = [(name, n_ris, float(kappa)) for name, n_ris in systems
            for kappa in kappa_list]
    points = [cfg.with_overrides(n_ris=n_ris, kappa=kappa)
              for _, n_ris, kappa in grid]
    # GUE-only baseline: zero UAV power is equivalent to removing the UAV,
    # the full budget is then shared among the GUEs.
    points.append(cfg.with_overrides(n_ris=0, kappa=0.0))
    *results, baseline = run_sweep(points, trials, workers)
    rows = [{
        "system": name,
        "kappa": kappa,
        "gue_rate_bps": likely_rate_95(res.rates_bps[:, 1]),
        "uav_rate_bps": likely_rate_95(res.rates_bps[:, 0]),
    } for (name, _, kappa), res in zip(grid, results)]
    rows.append({
        "system": "no-uav",
        "kappa": None,
        "gue_rate_bps": likely_rate_95(baseline.rates_bps[:, 1]),
        "uav_rate_bps": 0.0,
    })
    return rows


def scenario_label(kappa: float, tilt_deg: float, with_ris: bool) -> str:
    ris = "ris" if with_ris else "noris"
    return f"k{kappa:g}_tilt{tilt_deg:g}_{ris}"


def rate_cdf(cfg: SimConfig, scenarios=DEFAULT_CDF_SCENARIOS,
             trials: int | None = None, workers: int = 1):
    """Empirical per-user rate CDFs for each (kappa, tilt, RIS) scenario.

    Emits sorted (rate, probability) pairs for the UAV and for GUE k=1.
    The RIS size of a with-RIS scenario is the base configuration's n_ris.
    """
    if any(with_ris for _, _, with_ris in scenarios) and cfg.n_ris == 0:
        raise ConfigError("scenarios: with_ris scenario requires "
                          "n_ris >= 1 in the base config")
    points = [cfg.with_overrides(kappa=float(kappa),
                                 tilt_deg=float(tilt_deg),
                                 n_ris=cfg.n_ris if with_ris else 0)
              for kappa, tilt_deg, with_ris in scenarios]
    rows = []
    for scenario, res in zip(scenarios, run_sweep(points, trials, workers)):
        label = scenario_label(*scenario)
        for user, idx in (("uav", 0), ("gue1", 1)):
            rates = np.sort(res.rates_bps[:, idx])
            prob = np.arange(1, rates.size + 1) / rates.size
            rows.extend({"scenario": label, "user": user,
                         "rate_bps": float(r), "prob": float(p)}
                        for r, p in zip(rates, prob))
    return rows


def ris_gain_sweep(cfg: SimConfig, n_list=DEFAULT_GAIN_N_LIST,
                   heights=DEFAULT_HEIGHTS, trials: int | None = None,
                   workers: int = 1):
    """Mean paired UAV RIS gain (dB) per (element count, UAV height).

    Rows are ordered heights-major to match the sweep definition.
    """
    if cfg.kappa == 0.0:
        # no UAV power: both UAV SINRs are 0 and the gain is undefined
        raise ConfigError("kappa: ris-gain needs kappa > 0")
    if any(int(n) < 1 for n in n_list):
        # no RIS: the paired gain is undefined
        raise ConfigError("n_list: ris-gain needs n_ris >= 1")
    grid = [(int(n_ris), float(h_uav)) for h_uav in heights
            for n_ris in n_list]
    points = [cfg.with_overrides(n_ris=n_ris, h_uav=h_uav)
              for n_ris, h_uav in grid]
    results = run_sweep(points, trials, workers)
    return [{
        "n_ris": n_ris,
        "h_uav_m": h_uav,
        "mean_gain_db": float(np.mean(res.ris_gain_db)),
    } for (n_ris, h_uav), res in zip(grid, results)]


def run_experiment(spec: ExperimentSpec, trials: int | None = None,
                   workers: int = 1):
    """Dispatch a resolved experiment; returns its result rows."""
    if spec.kind == "rate-region":
        return rate_region(spec.base, spec.kappas, spec.n_list,
                           trials, workers)
    if spec.kind == "cdf":
        return rate_cdf(spec.base, spec.scenarios, trials, workers)
    return ris_gain_sweep(spec.base, spec.n_list, spec.heights,
                          trials, workers)
