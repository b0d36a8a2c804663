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

The sweep points of a study share their draws; they may differ only in
n_ris, kappa, h_uav and tilt_deg.  Trial index t of every point uses the
same substream, which is drawn once per study: the node positions, then
the unit scatter of the direct links, then that of the RIS->user links at
the study's largest element count (the draws of a smaller RIS are a
prefix of those of a larger one).  The unit of work is a batch of
consecutive trial indices, drawn and evaluated as stacked arrays, each
entry bit-identical to its own trial's.  A batch draws each trial in two
calls on its substream, one for all coordinates and one for all scatter,
into one row of two buffers, and computes once every large-scale term
that depends on neither the UAV height nor the tilt (link_geometry).
The points are grouped by tilt once per study.  A group's distinct UAV
heights are one more leading axis, before the trial axis, that only the
terms of the UAV carry: each group computes the UAV's links at all its
heights and the tilt's antenna gains once (H_ris and the GUE gains have
no height axis), so its stage arrays hold its height count times the
batch's trials.  Every (RIS size, kappa) point of the group is then
evaluated on the same channels at every height of the group, kappa
entering only the power split and the SINR.  The engine evaluates only
the points it is given; ris_gain_sweep adds the zero-element point that
pairs each RIS gain.  A study runs its batches in turn, or maps them
over one process pool when it has more than one worker.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .beamforming import gamma_analytic, ppa_allocate, ris_align_uav
from .channel import (ChannelSet, LargeScaleParams, aggregate_channel,
                      complex_normals, draw_channels, large_scale,
                      link_geometry)
from .geometry import FIELD_TYPES, ConfigError, SimConfig, place_nodes
from .link import rate_bps, ris_gain_db, sinr_all

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
# The only fields in which the points of one sweep may differ.
PER_POINT_FIELDS = ("n_ris", "kappa", "h_uav", "tilt_deg")
# Complex elements per batch of trials, counted as trials * M * (N_max + K):
# 12 trials at M = 20, N = 60, K = 5, and 32 at N = 20.  Larger batches
# are a little faster but hold more memory.
BATCH_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: kind, sweeps and the base scenario.

    ``kind`` is a key of STUDIES; ``n_list=None`` resolves to its default.
    Every swept value must make a valid SimConfig in the field it sweeps;
    the rules of one study are checked by its study function.
    """

    kind: str = "rate-region"
    base: SimConfig = SimConfig()
    kappas: tuple = DEFAULT_KAPPAS
    n_list: tuple | None = None
    heights: tuple = DEFAULT_HEIGHTS
    # not a field: no flag or file key sets the cdf scenarios
    cdf_scenarios = DEFAULT_CDF_SCENARIOS

    def __post_init__(self):
        if self.kind not in STUDIES:
            raise ConfigError(
                f"experiment: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(STUDIES)})")
        if self.n_list is None:
            object.__setattr__(self, "n_list", STUDIES[self.kind].n_list)
        for sweep, field in SWEEPS.items():
            if not getattr(self, sweep):
                raise ConfigError(f"{sweep}: need a non-empty list")
            for value in getattr(self, sweep):
                try:
                    self.base.with_overrides(**{field: value})
                except ConfigError as exc:
                    raise ConfigError(f"{sweep}: {exc}") from None


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent substream for one trial."""
    # The trailing 0 is part of each stream's identity: without it every
    # drawn number, and so every CSV, would change.
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial_index, 0))
    return np.random.default_rng(ss)


def _coherent_cap(cfg: SimConfig, G: np.ndarray,
                  gamma: np.ndarray) -> np.ndarray:
    """Per-user SINR cap of every power split, with a 1e-9 relative margin.

    With eta = p_dl / gamma and p_dl <= p_d, the triangle inequality caps
    user k's signal at p_d (sum_m |G[m,k]|^2 / sqrt(gamma[m,k]))^2, a
    gamma = 0 term adding nothing.  Leading axes are batch axes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        coherent = np.where(gamma > 0.0, np.abs(G) ** 2 / np.sqrt(gamma), 0.0)
    cap = cfg.p_d_w * np.sum(coherent, axis=-2) ** 2 / cfg.noise_power_w
    return cap * (1.0 + 1e-9)


def _sanity_check_rates(cap: np.ndarray, sinr: np.ndarray,
                        rates: np.ndarray):
    # A SINR above _coherent_cap (or a NaN) is an internal inconsistency,
    # not a property of the drawn geometry (plain RuntimeError, not
    # SimulationError).
    if not (np.all(rates >= 0.0) and np.all(sinr <= cap)):
        raise RuntimeError("SINR outside the coherent upper bound")


def _draw(cfg: SimConfig, trial_indices):
    """Stacked layouts and unit scatter of trials, at cfg.n_ris elements.

    Each trial fills its row of two buffers from its substream, in two
    calls that consume it as a single trial does: the node positions,
    then the direct scatter and the RIS->user scatter.
    """
    m, n, k = cfg.m_ap, cfg.n_ris, cfg.n_users
    uniforms = np.empty((len(trial_indices), 2 * (m + k)))
    normals = np.empty((len(trial_indices), (m + n) * k * 2))
    for row, trial_index in enumerate(trial_indices):
        rng = trial_rng(cfg.master_seed, trial_index)
        rng.random(out=uniforms[row])
        rng.standard_normal(out=normals[row])
    direct = 2 * m * k
    return place_nodes(cfg, uniforms), (
        complex_normals(normals[:, :direct], (m, k)),
        complex_normals(normals[:, direct:], (n, k)))


class PointResults(NamedTuple):
    """Every trial of one sweep point; row t holds trial index t."""

    rates_bps: np.ndarray     # (T, K) per-user, column 0 = UAV
    sinr: np.ndarray          # (T, K) linear


def _evaluate(cfg: SimConfig, ls: LargeScaleParams, cs: ChannelSet,
              n_ris: int, kappas) -> dict:
    """PointResults per kappa on the first n_ris RIS elements.

    Every RIS quantity is element-wise in n, so a prefix of a larger
    realization is exactly the realization of the smaller RIS.  Leading
    axes are batch axes.  Raises SimulationError when a drawn geometry is
    degenerate.
    """
    ls = ls._replace(H_ris=ls.H_ris[..., :n_ris],
                     los_ris_user=ls.los_ris_user[..., :n_ris, :])
    cs = cs._replace(h_ris_user=cs.h_ris_user[..., :n_ris, :])
    ris = ris_align_uav(ls.H_ris, cs.h_ris_user[..., 0],
                        cs.h_direct[..., 0])
    G = aggregate_channel(ls, cs, ris)
    W = np.conj(G)   # conjugate beamforming
    gamma = gamma_analytic(ls, ris)
    cap = _coherent_cap(cfg, G, gamma)
    out = {}
    for kappa in kappas:
        pa = ppa_allocate(gamma, kappa, cfg.p_d_w)
        sinr = sinr_all(G, W, pa.eta, cfg.noise_power_w)
        rates = rate_bps(sinr, cfg.bandwidth_hz)
        _sanity_check_rates(cap, sinr, rates)
        out[kappa] = PointResults(rates, sinr)
    return out


def _groups(points):
    """Sweep points that share a large-scale pass, in order of appearance.

    Points at one tilt_deg differ only in h_uav, n_ris and kappa, so they
    share one pass over their distinct UAV heights, formed at their
    largest n_ris.  Each group is (its config, its heights as an array,
    the kappas to evaluate per n_ris, [(point index, height index, n_ris,
    kappa)]); every (n_ris, kappa) is evaluated at every height.
    """
    members = {}
    for j, p in enumerate(points):
        members.setdefault(p.tilt_deg, []).append(j)
    groups = []
    for group in members.values():
        heights, evals, rows = {}, {}, []
        for j in group:
            p = points[j]
            evals.setdefault(p.n_ris, set()).add(p.kappa)
            rows.append((j, heights.setdefault(p.h_uav, len(heights)),
                         p.n_ris, p.kappa))
        cfg = points[group[0]].with_overrides(n_ris=max(evals))
        groups.append((cfg, np.array(list(heights)),
                       {n: sorted(k) for n, k in evals.items()}, rows))
    return groups


def _run_chunk(args) -> list[PointResults]:
    """Draw one batch of trial indices and evaluate every sweep group on
    it; row t of each point's result is the batch's t-th trial.

    A group's UAV heights are one more leading axis, before the batch's
    trial axis, that only the UAV's terms carry.
    """
    groups, batch = args
    widest = max((group[0] for group in groups), key=lambda c: c.n_ris)
    layout, (z_direct, z_ris_user) = _draw(widest, batch)
    geometry = link_geometry(layout, widest)
    results = [None] * sum(len(group[3]) for group in groups)
    for cfg, heights, evals, members in groups:
        uav_pos = np.empty(heights.shape + layout.uav_pos.shape)
        uav_pos[...] = layout.uav_pos
        uav_pos[..., 2] = heights[:, None]
        ls = large_scale(layout._replace(uav_pos=uav_pos), cfg, geometry)
        cs = draw_channels(ls, (z_direct, z_ris_user[..., :cfg.n_ris, :]))
        out = {n_ris: _evaluate(cfg, ls, cs, n_ris, kappas)
               for n_ris, kappas in evals.items()}
        for j, h, n_ris, kappa in members:
            results[j] = PointResults(*(a[h] for a in out[n_ris][kappa]))
    return results


def _plan_chunks(points, workers: int):
    """Worker processes and the batches of trial indices of one sweep.

    A batch is a contiguous run of trial indices, as many as fit in
    BATCH_ELEMENTS = trials * M * (N_max + K) (at least one).  Forking
    more processes than batches or usable CPUs buys nothing, so the pool
    is min(workers, batches, CPUs).
    """
    p = max(points, key=lambda q: q.n_ris)
    size = max(1, BATCH_ELEMENTS // (p.m_ap * (p.n_ris + p.n_users)))
    batches = [range(start, min(start + size, p.trials))
               for start in range(0, p.trials, size)]
    # the scheduler functions exist only on some Unix platforms
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(workers, len(batches), cpus)), batches


def _check_memory(points):
    """Reject a sweep whose results cannot fit in physical memory.

    Each point keeps a (trials, K) float64 array of rates and one of
    SINR, and joining the batches' parts holds them twice.
    """
    names = getattr(os, "sysconf_names", {})
    if "SC_PHYS_PAGES" not in names or "SC_PAGE_SIZE" not in names:
        return
    p = points[0]
    need = len(points) * p.trials * p.n_users * 2 * 8 * 2
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(
            f"trials: {p.trials} per point at {len(points)} points need "
            f"{need / 2 ** 30:.3g} GiB for their results, more than the "
            f"{have / 2 ** 30:.3g} GiB of physical memory")


def run_sweep(points, *, workers: int = 1) -> list[PointResults]:
    """All trials of every sweep point, in one pass over the trial indices.

    ``points`` are SimConfigs sharing every field but n_ris, kappa,
    h_uav and tilt_deg (ConfigError otherwise); trial index t of every
    point is drawn from ``trial_rng(master_seed, t)``, for t below their
    common ``trials``.
    """
    counts = {p.trials for p in points}
    if len(counts) != 1:
        raise ConfigError(f"trials: need one or more sweep points sharing "
                          f"one trial count, got {sorted(counts)}")
    for field in FIELD_TYPES:
        if field not in PER_POINT_FIELDS \
                and len({getattr(p, field) for p in points}) > 1:
            raise ConfigError(f"{field}: sweep points may differ only in "
                              f"{', '.join(PER_POINT_FIELDS)}")
    _check_memory(points)
    procs, batches = _plan_chunks(points, workers)
    groups = _groups(points)
    tasks = [(groups, batch) for batch in batches]
    if procs == 1:
        parts = [_run_chunk(task) for task in tasks]
    else:
        # four work items per process even out their run times
        chunksize = -(-len(tasks) // (4 * procs))
        # imported here: a run in one process never loads the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_run_chunk, tasks, chunksize=chunksize))
    return [PointResults(*map(np.concatenate, zip(*per_batch)))
            for per_batch in zip(*parts)]


def run_trial(cfg: SimConfig, trial_index: int) -> PointResults:
    """One trial on its own substream, as a one-row PointResults.

    Kept only because the benchmark tracer (perfbench/child.py) wraps it
    by name; the studies call run_sweep.  Raises SimulationError when the
    drawn geometry is degenerate.
    """
    (res,) = _run_chunk((_groups([cfg]), (trial_index,)))
    return res


def run_trials(cfg: SimConfig, *, workers: int = 1) -> PointResults:
    """All cfg.trials trials of one sweep point, row t = trial index t.

    Kept only because the benchmark tracer (perfbench/child.py) wraps it
    by name; it is ``run_sweep([cfg], workers=workers)[0]``.
    """
    return run_sweep([cfg], workers=workers)[0]


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
                n_list=DEFAULT_N_LIST, *, workers: int = 1):
    """95%-likely (GUE k=1, UAV) rate table over kappa and system variants.

    Systems: the plain network, one RIS system per element count in
    ``n_list``, and a kappa-independent GUE-only baseline (no UAV, no RIS,
    full power shared among GUEs).
    """
    if cfg.trials < MIN_RATE_95_SAMPLES:
        raise ConfigError(f"trials: rate-region needs at least "
                          f"{MIN_RATE_95_SAMPLES} per point, got {cfg.trials}")
    if any(int(n) < 1 for n in n_list):
        # an N = 0 system would repeat the no-ris rows under a RIS name
        raise ConfigError("n_list: rate-region needs n_ris >= 1")
    systems = [("no-ris", 0)] + [(f"ris-n{int(n)}", int(n)) for n in n_list]
    grid = [(name, n_ris, float(kappa)) for name, n_ris in systems
            for kappa in kappa_list]
    points = [cfg.with_overrides(n_ris=n_ris, kappa=kappa)
              for _, n_ris, kappa in grid]
    # GUE-only baseline: zero UAV power is equivalent to removing the UAV,
    # the full budget is then shared among the GUEs.
    points.append(cfg.with_overrides(n_ris=0, kappa=0.0))
    *results, baseline = run_sweep(points, workers=workers)
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


def rate_cdf(cfg: SimConfig, scenarios=DEFAULT_CDF_SCENARIOS, *,
             workers: int = 1):
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
    for scenario, res in zip(scenarios, run_sweep(points, workers=workers)):
        label = scenario_label(*scenario)
        for user, idx in (("uav", 0), ("gue1", 1)):
            rates = np.sort(res.rates_bps[:, idx])
            prob = np.arange(1, rates.size + 1) / rates.size
            rows.extend({"scenario": label, "user": user,
                         "rate_bps": float(r), "prob": float(p)}
                        for r, p in zip(rates, prob))
    return rows


def ris_gain_sweep(cfg: SimConfig, n_list=DEFAULT_GAIN_N_LIST,
                   heights=DEFAULT_HEIGHTS, *, workers: int = 1):
    """Mean paired UAV RIS gain (dB) per (element count, UAV height).

    Rows are ordered heights-major to match the sweep definition.
    """
    if cfg.kappa == 0.0:
        # no UAV power: both UAV SINRs are 0 and the gain is undefined
        raise ConfigError("kappa: ris-gain needs kappa > 0")
    if any(int(n) < 1 for n in n_list):
        # no RIS: the paired gain is undefined
        raise ConfigError("n_list: ris-gain needs n_ris >= 1")
    n_list = [int(n) for n in n_list]
    # per height: the paired no-RIS reference, then each element count
    points = [cfg.with_overrides(n_ris=n_ris, h_uav=float(h_uav))
              for h_uav in heights for n_ris in (0, *n_list)]
    results = iter(run_sweep(points, workers=workers))
    rows = []
    for h_uav in heights:
        ref = next(results).sinr[:, 0]
        for n_ris in n_list:
            gain = ris_gain_db(next(results).sinr[:, 0], ref)
            rows.append({"n_ris": n_ris, "h_uav_m": float(h_uav),
                         "mean_gain_db": float(np.mean(gain))})
    return rows


class Study(NamedTuple):
    """One experiment kind."""

    run: Callable     # study(base, *sweeps, workers=...) -> rows
    sweeps: tuple     # the ExperimentSpec attributes it takes, in order
    csv_name: str
    n_list: tuple = DEFAULT_N_LIST   # ExperimentSpec's default n_list


STUDIES = {
    "rate-region": Study(rate_region, ("kappas", "n_list"), "rate_region.csv"),
    "cdf": Study(rate_cdf, ("cdf_scenarios",), "rate_cdf.csv"),
    "ris-gain": Study(ris_gain_sweep, ("n_list", "heights"), "ris_gain.csv",
                      DEFAULT_GAIN_N_LIST),
}


def run_experiment(spec: ExperimentSpec, *, workers: int = 1):
    """Run the study of a resolved experiment; returns its result rows."""
    study = STUDIES[spec.kind]
    return study.run(spec.base, *(getattr(spec, s) for s in study.sweeps),
                     workers=workers)
