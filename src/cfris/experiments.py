"""Monte-Carlo experiment drivers.

Three studies are provided, one row of STUDIES each: the SimConfig
fields it sweeps, with their default sweeps, in its function's order.

* ``rate_region`` sweeps kappa and n_ris: 95%-likely GUE/UAV rate pairs
  for the plain and RIS systems and a GUE-only baseline.
* ``rate_cdf`` sweeps none: rate CDFs of fixed (kappa, tilt, RIS) scenarios.
* ``ris_gain_sweep`` sweeps n_ris and h_uav: mean UAV SINR gain of the
  RIS, paired per realization.

Every trial draws its randomness from a substream derived deterministically
from (master_seed, trial_index), so results are bit-identical regardless of
how many workers execute them.  Positions and fading are redrawn each trial.

The sweep points of a study share their draws; they may differ only in
n_ris, kappa, h_uav and tilt_deg.  Trial index t of every point uses the
same substream, which is drawn once per study: the node positions, then
the unit scatter of the direct links, then that of the RIS->user links at
the study's largest element count.  Every RIS quantity is element-wise
in n, so a smaller RIS is a prefix of a larger one; only this module
slices RIS sizes, in fixed blocks of RIS_BLOCK elements counted from
element 0.  The unit of work is a batch of consecutive trial indices,
drawn and evaluated as stacked arrays, each entry bit-identical to its
own trial's.  A batch draws each trial in two calls on its
substream, one for all coordinates and one for all scatter, into one row
of two buffers, and computes once the AP->GUE links (link_geometry).
The points are grouped by tilt once per study, each group with one plan
that routes the SINR of each (RIS size, kappa) to its points' rows.
Each group computes, at its largest RIS size, the AP->RIS and RIS->user
legs, the tilt's antenna gains and the UAV's links at all its heights,
one more leading axis, before the trial axis, that only the terms of
the UAV carry: a group's stage arrays hold its height count times the
batch's trials.  The group then makes one pass over its RIS elements,
block by block, adding each block's reflected terms to running totals;
every (RIS size, kappa) takes its SINR at every height from the totals
of its whole blocks plus its own partial block, kappa entering only the
power split and the SINR.  As the blocks depend on element indices
alone, a point gets the same bits alone as in any sweep.  The engine
evaluates only the points it is given; ris_gain_sweep adds the
zero-element point that pairs each RIS gain.  A study runs its batches
in turn, or maps them over one process pool when it has more than one
worker, and each batch writes its trials into the sweep's one (points,
trials, K) array of per-user SINR as it arrives.  The studies take rates from that array.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .beamforming import (RisConfig, gamma_analytic, ppa_allocate,
                          ris_align_uav, ris_moments)
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
# Fewest samples a 95%-likely rate is taken from.
MIN_RATE_95_SAMPLES = 20
# The only fields in which the points of one sweep may differ.
PER_POINT_FIELDS = ("n_ris", "kappa", "h_uav", "tilt_deg")
# Working-set bytes of one batch, counted by _trial_bytes: 12 trials at
# the acceptance ris-gain shape (M = 20, N = 60, K = 5, 3 UAV heights).
# Larger batches are a little faster but hold more memory.
BATCH_BYTES = 12 * 92_400
# RIS elements per block of a group's pass over the RIS (see _evaluate).
RIS_BLOCK = 10


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: kind, base scenario and sweeps.

    ``kind`` is a key of STUDIES; ``sweeps`` maps every field its study
    sweeps, in the row's order, to its values, the row's default where
    not given (ConfigError for any other field).  Each value must make a
    valid SimConfig; the other rules of a study are its function's.
    """

    kind: str = "rate-region"
    base: SimConfig = SimConfig()
    sweeps: dict = field(default_factory=dict)

    def __post_init__(self):
        swept = study(self.kind).sweeps
        sweeps = {}
        for name, values in {**swept, **self.sweeps}.items():
            if name not in swept:
                raise ConfigError(f"{name}: {self.kind} does not sweep it")
            try:
                # a tuple, so that a numpy array is a sweep like a list
                sweeps[name] = values = tuple(values)
            except TypeError:
                raise ConfigError(f"{name}: need a list of values") from None
            if not values:
                raise ConfigError(f"{name}: need a non-empty list")
            for value in values:
                self.base.with_overrides(**{name: value})
        object.__setattr__(self, "sweeps", sweeps)


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
    gamma = 0 term adding nothing.  A signal power below the smallest
    normal float has lost significant bits, in the cap as in the SINR, so
    the cap never falls below it.  Leading axes are batch axes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        coherent = np.where(gamma > 0.0, np.abs(G) ** 2 / np.sqrt(gamma), 0.0)
    signal = cfg.p_d_w * np.sum(coherent, axis=-2) ** 2
    # an infinite cap rejects no finite SINR
    with np.errstate(over="ignore"):
        cap = np.maximum(signal, np.finfo(float).tiny) / cfg.noise_power_w
    return cap * (1.0 + 1e-9)


def _sanity_check(cap: np.ndarray, sinr: np.ndarray):
    # A SINR below 0 or above _coherent_cap (or a NaN) is an internal
    # inconsistency, not a property of the drawn geometry (plain
    # RuntimeError, not SimulationError).
    if not (np.all(sinr >= 0.0) and np.all(sinr <= cap)):
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


def _block(ls: LargeScaleParams, cs: ChannelSet, G: np.ndarray,
           start: int, stop: int):
    """RIS elements [start, stop) of the links, their phases toward the
    UAV, and the channels G plus their reflected terms.

    Each element's phase depends on its own links and the direct UAV
    channel alone, so a block can be phased on its own columns.
    """
    ls = ls._replace(H_ris=ls.H_ris[..., start:stop],
                     mean_ris_user=ls.mean_ris_user[..., start:stop, :])
    h_ris_user = cs.h_ris_user[..., start:stop, :]
    ris = ris_align_uav(ls.H_ris, h_ris_user[..., 0], cs.h_direct[..., 0])
    return ls, ris, aggregate_channel(ls, ChannelSet(G, h_ris_user), ris)


def _evaluate(cfg: SimConfig, ls: LargeScaleParams, cs: ChannelSet, plan,
              sinr: np.ndarray):
    """Write the per-user SINR, (..., K), of every point of a group's
    ``plan`` (see _groups) at its height into its row of ``sinr``.

    One pass over the RIS elements in blocks of RIS_BLOCK: each whole
    block is phased toward the UAV once, and its reflected terms are added
    to running totals of G and of the ris_moments of gamma.  A RIS size
    takes its gamma, power split and SINR from the totals of its whole
    blocks plus its own partial block.  The blocks start at fixed element
    indices, whatever sizes are evaluated, so a size gets the same bits
    in any sweep as alone.  Leading axes are batch axes.  Raises
    SimulationError when a drawn geometry is degenerate.
    """
    G, moments, done = cs.h_direct, None, 0
    # no element, the partial block of a size made of whole blocks
    ls_0 = ls._replace(H_ris=ls.H_ris[..., :0],
                       mean_ris_user=ls.mean_ris_user[..., :0, :])
    ris_0 = RisConfig(v=np.empty(0))
    for n_ris, kappas in plan.items():
        while done + RIS_BLOCK <= n_ris:
            ls_b, ris, G = _block(ls, cs, G, done, done + RIS_BLOCK)
            moments = ris_moments(ls_b, ris, moments)
            done += RIS_BLOCK
        if done < n_ris:
            ls_b, ris, G_n = _block(ls, cs, G, done, n_ris)
        else:
            ls_b, ris, G_n = ls_0, ris_0, G
        _sinr(cfg, G_n, gamma_analytic(ls_b, ris, moments), kappas, sinr)


def _sinr(cfg: SimConfig, G: np.ndarray, gamma: np.ndarray, kappas,
          sinr: np.ndarray):
    """Write the per-user SINR of the channels G with second moments
    gamma at each kappa of ``kappas`` ({kappa: [(point index, height
    index)]}) into each of its points' rows of ``sinr``."""
    W = np.conj(G)   # conjugate beamforming
    cap = _coherent_cap(cfg, G, gamma)
    for kappa, rows in kappas.items():
        pa = ppa_allocate(gamma, kappa, cfg.p_d_w)
        out = sinr_all(G, W, pa.eta, cfg.noise_power_w)
        _sanity_check(cap, out)
        for j, h in rows:
            sinr[j] = out[h]


def _groups(points):
    """Sweep points that share a large-scale pass, in order of appearance.

    Points at one tilt_deg differ only in h_uav, n_ris and kappa, so they
    share one pass over their distinct UAV heights, formed at their
    largest n_ris.  Each group is (its config, its heights as an array,
    its plan): the plan maps each n_ris, ascending, to {kappa, ascending:
    [(point index, height index)]}, and every (n_ris, kappa) is evaluated
    at every height.
    """
    members = {}
    for j, p in enumerate(points):
        members.setdefault(p.tilt_deg, []).append(j)
    groups = []
    for group in members.values():
        heights, plan = {}, {}
        for j in group:
            p = points[j]
            plan.setdefault(p.n_ris, {}).setdefault(p.kappa, []).append(
                (j, heights.setdefault(p.h_uav, len(heights))))
        plan = {n: dict(sorted(plan[n].items())) for n in sorted(plan)}
        cfg = points[group[0]].with_overrides(n_ris=max(plan))
        groups.append((cfg, np.array(list(heights)), plan))
    return groups


def _run_chunk(args) -> np.ndarray:
    """Draw one batch of trial indices and evaluate every sweep group on
    it: the (points, batch trials, K) SINR, row t the batch's t-th trial.

    A group's UAV heights are one more leading axis, before the batch's
    trial axis, that only the UAV's terms carry.
    """
    groups, batch = args
    widest = max((group[0] for group in groups), key=lambda c: c.n_ris)
    layout, (z_direct, z_ris_user) = _draw(widest, batch)
    geometry = link_geometry(layout, widest)
    points = sum(len(rows) for *_, plan in groups
                 for kappas in plan.values() for rows in kappas.values())
    sinr = np.empty((points, len(batch), widest.n_users))
    for cfg, heights, plan in groups:
        uav_pos = np.empty(heights.shape + layout.uav_pos.shape)
        uav_pos[...] = layout.uav_pos
        uav_pos[..., 2] = heights[:, None]
        ls = large_scale(layout._replace(uav_pos=uav_pos), cfg, geometry)
        cs = draw_channels(ls, (z_direct, z_ris_user[..., :cfg.n_ris, :]))
        _evaluate(cfg, ls, cs, plan, sinr)
    return sinr


def _trial_bytes(points) -> int:
    """Working-set bytes of one trial of a sweep, each term counted as
    often as the pipeline holds it at once (a lower bound, measured).

    16 B per complex element: the draw and the AP, RIS and user links,
    M N and, per UAV height of a tilt group, 6 M K + 3 N K; per height
    also the K x K SINR matrix.  N is the sweep's largest RIS.
    """
    p = points[0]
    m, n, k = p.m_ap, max(q.n_ris for q in points), p.n_users
    h = max(Counter(t for t, _ in {(q.tilt_deg, q.h_uav)
                                   for q in points}).values())
    return 16 * (m * n + h * (6 * m * k + 3 * n * k + k * k))


def _plan_chunks(points, workers: int):
    """Worker processes and the batches of trial indices of one sweep.

    A batch is a contiguous run of trial indices.  The trials are split
    evenly over as few batches as keep each within BATCH_BYTES of
    _trial_bytes (a batch holds at least one trial).  Forking more
    processes than batches or usable CPUs buys nothing, so the pool is
    min(workers, batches, CPUs).  The sweep's memory is checked before
    the batches are listed.
    """
    trials = points[0].trials
    size = max(1, BATCH_BYTES // _trial_bytes(points))
    count = -(-trials // size)
    # the scheduler functions exist only on some Unix platforms
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    procs = max(1, min(workers, count, cpus))
    _check_memory(points, procs * -(-trials // count))
    bounds = [i * trials // count for i in range(count + 1)]
    return procs, [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _check_memory(points, in_flight: int):
    """Reject a sweep that cannot fit in physical memory.

    The sweep keeps one float64 SINR per point, trial and user, and each
    of the ``in_flight`` trials evaluated at once (one batch per process)
    holds _trial_bytes.
    """
    names = getattr(os, "sysconf_names", {})
    if "SC_PHYS_PAGES" not in names or "SC_PAGE_SIZE" not in names:
        return
    p = points[0]
    results = len(points) * p.trials * p.n_users * 8
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if results > have:
        raise ConfigError(
            f"trials: {p.trials} per point at {len(points)} points need "
            f"{results / 2 ** 30:.3g} GiB for their results, more than the "
            f"{have / 2 ** 30:.3g} GiB of physical memory")
    per_trial = _trial_bytes(points)
    if results + in_flight * per_trial > have:
        raise ConfigError(
            f"sweep: {in_flight} trial(s) at once, at "
            f"{per_trial / 2 ** 30:.3g} GiB each, need "
            f"{(results + in_flight * per_trial) / 2 ** 30:.3g} GiB, more "
            f"than the {have / 2 ** 30:.3g} GiB of physical memory")


def run_sweep(points, *, workers: int = 1) -> np.ndarray:
    """Per-user SINR of every sweep point, (points, trials, K), in one
    pass over the trial indices; column 0 is the UAV.

    ``points`` are SimConfigs sharing every field but n_ris, kappa,
    h_uav and tilt_deg (ConfigError otherwise); row t of each point is
    trial index t, drawn from ``trial_rng(master_seed, t)``, for t below
    their common ``trials``.
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
    procs, batches = _plan_chunks(points, workers)
    groups = _groups(points)
    tasks = [(groups, batch) for batch in batches]
    sinr = np.empty((len(points), points[0].trials, points[0].n_users))
    if procs == 1:
        for batch, task in zip(batches, tasks):
            sinr[:, batch.start:batch.stop] = _run_chunk(task)
    else:
        # four work items per process even out their run times
        chunksize = -(-len(tasks) // (4 * procs))
        # imported here: a run in one process never loads the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = pool.map(_run_chunk, tasks, chunksize=chunksize)
            for batch, part in zip(batches, parts):
                sinr[:, batch.start:batch.stop] = part
    return sinr


def run_trial(cfg: SimConfig, trial_index: int) -> np.ndarray:
    """The (1, K) SINR of one trial on its own substream.

    Kept only because the benchmark tracer (perfbench/child.py) wraps it
    by name; the studies call run_sweep.  Raises SimulationError when the
    drawn geometry is degenerate.
    """
    return _run_chunk((_groups([cfg]), (trial_index,)))[0]


def run_trials(cfg: SimConfig, *, workers: int = 1) -> np.ndarray:
    """The (T, K) SINR of one sweep point, row t = trial index t.

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
        raise ConfigError("n_ris: rate-region needs n_ris >= 1")
    systems = [("no-ris", 0)] + [(f"ris-n{int(n)}", int(n)) for n in n_list]
    grid = [(name, n_ris, float(kappa)) for name, n_ris in systems
            for kappa in kappa_list]
    points = [cfg.with_overrides(n_ris=n_ris, kappa=kappa)
              for _, n_ris, kappa in grid]
    # GUE-only baseline: zero UAV power is equivalent to removing the UAV,
    # the full budget is then shared among the GUEs.
    points.append(cfg.with_overrides(n_ris=0, kappa=0.0))
    *results, baseline = rate_bps(run_sweep(points, workers=workers)[..., :2],
                                  cfg.bandwidth_hz)
    rows = [{
        "system": name,
        "kappa": kappa,
        "gue_rate_bps": likely_rate_95(rates[:, 1]),
        "uav_rate_bps": likely_rate_95(rates[:, 0]),
    } for (name, _, kappa), rates in zip(grid, results)]
    rows.append({
        "system": "no-uav",
        "kappa": None,
        "gue_rate_bps": likely_rate_95(baseline[:, 1]),
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
        raise ConfigError("n_ris: cdf's RIS scenario needs n_ris >= 1")
    points = [cfg.with_overrides(kappa=float(kappa),
                                 tilt_deg=float(tilt_deg),
                                 n_ris=cfg.n_ris if with_ris else 0)
              for kappa, tilt_deg, with_ris in scenarios]
    results = rate_bps(run_sweep(points, workers=workers)[..., :2],
                       cfg.bandwidth_hz)
    rows = []
    for scenario, res in zip(scenarios, results):
        label = scenario_label(*scenario)
        for user, idx in (("uav", 0), ("gue1", 1)):
            rates = np.sort(res[:, idx])
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
        raise ConfigError("n_ris: ris-gain needs n_ris >= 1")
    n_list = [int(n) for n in n_list]
    # per height: the paired no-RIS reference, then each element count
    points = [cfg.with_overrides(n_ris=n_ris, h_uav=float(h_uav))
              for h_uav in heights for n_ris in (0, *n_list)]
    uav_sinr = iter(run_sweep(points, workers=workers)[..., 0])
    rows = []
    for h_uav in heights:
        ref = next(uav_sinr)
        for n_ris in n_list:
            gain = ris_gain_db(next(uav_sinr), ref)
            rows.append({"n_ris": n_ris, "h_uav_m": float(h_uav),
                         "mean_gain_db": float(np.mean(gain))})
    return rows


class Study(NamedTuple):
    """One experiment kind."""

    run: Callable     # study(base, *sweeps.values(), workers=...) -> rows
    sweeps: dict      # {SimConfig field: default sweep}, in run's order
    csv_name: str


STUDIES = {
    "rate-region": Study(rate_region,
                         {"kappa": DEFAULT_KAPPAS, "n_ris": DEFAULT_N_LIST},
                         "rate_region.csv"),
    "cdf": Study(rate_cdf, {}, "rate_cdf.csv"),
    "ris-gain": Study(ris_gain_sweep,
                      {"n_ris": DEFAULT_GAIN_N_LIST, "h_uav": DEFAULT_HEIGHTS},
                      "ris_gain.csv"),
}


def study(kind: str) -> Study:
    """The STUDIES row of ``kind``; ConfigError for an unknown kind."""
    if kind not in STUDIES:
        raise ConfigError(f"experiment: unknown kind {kind!r} "
                          f"(expected one of {', '.join(STUDIES)})")
    return STUDIES[kind]


def run_experiment(spec: ExperimentSpec, *, workers: int = 1):
    """Run the study of a resolved experiment; returns its result rows."""
    return STUDIES[spec.kind].run(spec.base, *spec.sweeps.values(),
                                  workers=workers)
