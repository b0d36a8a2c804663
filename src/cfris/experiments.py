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
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beamforming import (RisConfig, cb_precoders, gamma_analytic,
                          ppa_allocate, ris_align_uav)
from .channel import aggregate_channel, draw_channels, large_scale
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


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one end-to-end Monte-Carlo trial."""

    trial_index: int
    rates_bps: np.ndarray          # (K,) per-user, index 0 = UAV
    sinr: np.ndarray               # (K,) linear
    ris_gain_db: float | None      # UAV with/without-RIS ratio; None if no RIS


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: kind, sweeps and the base scenario."""

    kind: str
    base: SimConfig
    kappas: tuple = DEFAULT_KAPPAS
    n_list: tuple = DEFAULT_N_LIST
    heights: tuple = DEFAULT_HEIGHTS
    scenarios: tuple = DEFAULT_CDF_SCENARIOS

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment: unknown kind {self.kind!r}")
        if not self.kappas or not all(0.0 <= k <= 1.0 for k in self.kappas):
            raise ConfigError("kappas: need a non-empty list within [0, 1]")
        if not self.n_list or not all(int(n) >= 0 for n in self.n_list):
            raise ConfigError("n_list: need a non-empty list of counts >= 0")
        if not self.heights or not all(h > 0 for h in self.heights):
            raise ConfigError("heights: need a non-empty list of heights > 0")
        if self.kind == "ris-gain" and any(int(n) < 1 for n in self.n_list):
            raise ConfigError("n_list: ris-gain needs n_ris >= 1")
        if not self.scenarios:
            raise ConfigError("scenarios: need at least one CDF scenario")


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent substream for one trial."""
    # The trailing 0 is part of each stream's identity: without it every
    # drawn number, and so every CSV, would change.
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index, 0))
    return np.random.default_rng(ss)


def _sanity_check_rates(cfg: SimConfig, G: np.ndarray, rates: np.ndarray):
    # Coherent upper bound: numerator can never exceed p_d (M max|g|)^2.
    # A violation is an internal inconsistency, not a property of the
    # drawn geometry (plain RuntimeError, not SimulationError).
    g_max2 = float(np.max(np.abs(G)) ** 2)
    cap = cfg.bandwidth_hz * math.log2(
        1.0 + cfg.p_d_w * cfg.m_ap ** 2 * g_max2 / cfg.noise_power_w)
    if np.any(rates < 0.0) or np.any(rates > cap):
        raise RuntimeError("rate outside the coarse sanity bound")


def run_trial(cfg: SimConfig, trial_index: int) -> TrialResult:
    """Run one end-to-end trial on its own substream.

    Raises SimulationError when the drawn geometry is degenerate.
    """
    rng = trial_rng(cfg.master_seed, trial_index)
    layout = place_nodes(cfg, rng)
    ls = large_scale(layout, cfg)
    cs = draw_channels(ls, layout, cfg, rng)

    if cfg.n_ris > 0:
        ris = ris_align_uav(cs.H_ris, cs.h_ris_user[:, 0], cs.h_direct[:, 0])
    else:
        ris = RisConfig.none()

    G = aggregate_channel(cs, ris)
    W = cb_precoders(G)
    gamma = gamma_analytic(ls, ris)
    pa = ppa_allocate(gamma, cfg.kappa, cfg.p_d_w)
    sinr = sinr_all(G, W, pa.eta, cfg.noise_power_w)
    rates = rate_bps(sinr, cfg.bandwidth_hz)

    gain = None
    if cfg.n_ris > 0:
        # Paired comparison: same direct realization, RIS terms removed.
        gamma0 = gamma_analytic(ls, RisConfig.none())
        pa0 = ppa_allocate(gamma0, cfg.kappa, cfg.p_d_w)
        sinr0 = sinr_all(cs.h_direct, np.conj(cs.h_direct), pa0.eta,
                         cfg.noise_power_w)
        gain = ris_gain_db(float(sinr[0]), float(sinr0[0]))

    _sanity_check_rates(cfg, G, rates)
    return TrialResult(trial_index=trial_index, rates_bps=rates, sinr=sinr,
                       ris_gain_db=gain)


def _run_chunk(args):
    cfg, indices = args
    return [run_trial(cfg, i) for i in indices]


def run_trials(cfg: SimConfig, trials: int | None = None,
               workers: int = 1) -> list[TrialResult]:
    """All trials of one sweep point, ordered by trial index."""
    n = cfg.trials if trials is None else trials
    if workers <= 1:
        results = [run_trial(cfg, i) for i in range(n)]
    else:
        splits = [s for s in np.array_split(np.arange(n), workers * 4)
                  if s.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = pool.map(_run_chunk, [(cfg, [int(i) for i in s])
                                        for s in splits])
            results = [r for chunk in out for r in chunk]
    results.sort(key=lambda r: r.trial_index)
    return results


def likely_rate_95(samples) -> float:
    """95%-likely rate: 5th percentile by the nearest-rank rule."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 20:
        raise ValueError(f"need at least 20 samples, got {n}")
    return float(x[(n + 19) // 20 - 1])   # 1-based rank ceil(0.05 n)


def _collect(results, index: int) -> np.ndarray:
    return np.array([r.rates_bps[index] for r in results])


def rate_region(cfg: SimConfig, kappa_list=DEFAULT_KAPPAS,
                n_list=DEFAULT_N_LIST, trials: int | None = None,
                workers: int = 1):
    """95%-likely (GUE k=1, UAV) rate table over kappa and system variants.

    Systems: the plain network, one RIS system per element count in
    ``n_list``, and a kappa-independent GUE-only baseline (no UAV, no RIS,
    full power shared among GUEs).
    """
    rows = []
    systems = [("no-ris", 0)] + [(f"ris-n{int(n)}", int(n)) for n in n_list]
    for name, n_ris in systems:
        for kappa in kappa_list:
            run_cfg = cfg.with_overrides(n_ris=n_ris, kappa=float(kappa))
            results = run_trials(run_cfg, trials, workers)
            rows.append({
                "system": name,
                "kappa": float(kappa),
                "gue_rate_bps": likely_rate_95(_collect(results, 1)),
                "uav_rate_bps": likely_rate_95(_collect(results, 0)),
            })
    # GUE-only baseline: zero UAV power is equivalent to removing the UAV,
    # the full budget is then shared among the GUEs.
    base_cfg = cfg.with_overrides(n_ris=0, kappa=0.0)
    results = run_trials(base_cfg, trials, workers)
    rows.append({
        "system": "no-uav",
        "kappa": None,
        "gue_rate_bps": likely_rate_95(_collect(results, 1)),
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
    rows = []
    for kappa, tilt_deg, with_ris in scenarios:
        n_ris = cfg.n_ris if with_ris else 0
        if with_ris and n_ris == 0:
            raise ConfigError("scenarios: with_ris scenario requires "
                              "n_ris >= 1 in the base config")
        run_cfg = cfg.with_overrides(kappa=float(kappa),
                                     tilt_deg=float(tilt_deg), n_ris=n_ris)
        results = run_trials(run_cfg, trials, workers)
        label = scenario_label(kappa, tilt_deg, with_ris)
        for user, idx in (("uav", 0), ("gue1", 1)):
            rates = np.sort(_collect(results, idx))
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
    rows = []
    for h_uav in heights:
        for n_ris in n_list:
            run_cfg = cfg.with_overrides(n_ris=int(n_ris),
                                         h_uav=float(h_uav))
            results = run_trials(run_cfg, trials, workers)
            gains = np.array([r.ris_gain_db for r in results], dtype=float)
            rows.append({
                "n_ris": int(n_ris),
                "h_uav_m": float(h_uav),
                "mean_gain_db": float(np.mean(gains)),
            })
    return rows


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
