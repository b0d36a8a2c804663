"""Batched evaluation: every stage function on stacked realizations gives
exactly its per-realization results, and the batch size of a sweep never
changes a bit of its output."""
from collections import Counter

import numpy as np
import pytest

from cfris import (ConfigError, NetworkLayout, SimConfig, aggregate_channel,
                   draw_channels, gamma_analytic, large_scale, place_nodes,
                   ppa_allocate, rate_bps, ris_align_uav, ris_gain_db,
                   sinr_all)
from cfris import experiments
from cfris.channel import complex_normals, link_geometry
from cfris.experiments import _coherent_cap, _sanity_check_rates, run_sweep

CFG = SimConfig(m_ap=6, n_gue=3, n_ris=8, kappa=0.2, master_seed=5,
                trials=25)
T = 7


def _trials():
    """Per-trial layouts and unit scatter, drawn as the pipeline does."""
    out = []
    for t in range(T):
        rng = np.random.default_rng(100 + t)
        layout = place_nodes(CFG, rng)
        z = (complex_normals(rng, (CFG.m_ap, CFG.n_users)),
             complex_normals(rng, (CFG.n_ris, CFG.n_users)))
        out.append((layout, z))
    return out


def _stack(items):
    """Stack equal-typed results (arrays, or NamedTuples of arrays)."""
    first = items[0]
    if isinstance(first, np.ndarray):
        return np.stack(items)
    return type(first)(**{f: _stack([getattr(x, f) for x in items])
                          for f in first._fields})


def _assert_same(stacked, single):
    if isinstance(stacked, np.ndarray):
        assert np.array_equal(stacked, single, equal_nan=True)
        return
    for f in stacked._fields:
        assert np.array_equal(getattr(stacked, f), getattr(single, f)), f


def _prefix(ls, cs, n_ris):
    # the RIS prefix of a larger realization, sliced as the pipeline does
    ls = ls._replace(H_ris=ls.H_ris[..., :n_ris],
                     los_ris_user=ls.los_ris_user[..., :n_ris, :])
    return ls, cs._replace(h_ris_user=cs.h_ris_user[..., :n_ris, :])


@pytest.mark.parametrize("n_ris", [0, 3, 8])
def test_stage_functions_match_per_trial_calls(n_ris):
    trials = _trials()
    layouts = [lay for lay, _ in trials]
    stacked_layout = NetworkLayout(
        ap_pos=_stack([lay.ap_pos for lay in layouts]),
        gue_pos=_stack([lay.gue_pos for lay in layouts]),
        uav_pos=_stack([lay.uav_pos for lay in layouts]),
        ris_pos=layouts[0].ris_pos)

    # every stage, once per trial and once on the stack
    single = []
    for layout, z in trials:
        full = large_scale(layout, CFG)
        ls, cs = _prefix(full, draw_channels(full, z), n_ris)
        ris = ris_align_uav(ls.H_ris, cs.h_ris_user[:, 0], cs.h_direct[:, 0])
        G = aggregate_channel(ls, cs, ris)
        gamma = gamma_analytic(ls, ris)
        pa = ppa_allocate(gamma, CFG.kappa, CFG.p_d_w)
        sinr = sinr_all(G, np.conj(G), pa.eta, CFG.noise_power_w)
        single.append(dict(ls=ls, cs=cs, v=ris.v, G=G, gamma=gamma, pa=pa,
                           sinr=sinr, rates=rate_bps(sinr, CFG.bandwidth_hz)))

    ls = large_scale(stacked_layout, CFG)
    _assert_same(ls, _stack([large_scale(lay, CFG) for lay in layouts]))
    cs = draw_channels(ls, (_stack([z[0] for _, z in trials]),
                            _stack([z[1] for _, z in trials])))
    ls, cs = _prefix(ls, cs, n_ris)
    _assert_same(ls, _stack([s["ls"] for s in single]))
    _assert_same(cs, _stack([s["cs"] for s in single]))
    ris = ris_align_uav(ls.H_ris, cs.h_ris_user[..., 0], cs.h_direct[..., 0])
    if n_ris:
        _assert_same(ris.v, _stack([s["v"] for s in single]))
    G = aggregate_channel(ls, cs, ris)
    _assert_same(G, _stack([s["G"] for s in single]))
    gamma = gamma_analytic(ls, ris)
    _assert_same(gamma, _stack([s["gamma"] for s in single]))
    pa = ppa_allocate(gamma, CFG.kappa, CFG.p_d_w)
    _assert_same(pa, _stack([s["pa"] for s in single]))
    sinr = sinr_all(G, np.conj(G), pa.eta, CFG.noise_power_w)
    _assert_same(sinr, _stack([s["sinr"] for s in single]))
    rates = rate_bps(sinr, CFG.bandwidth_hz)
    _assert_same(rates, _stack([s["rates"] for s in single]))
    _sanity_check_rates(_coherent_cap(CFG, G, gamma), sinr, rates)


def test_draw_from_a_generator_matches_the_scatter_pair():
    layout, z = _trials()[0]
    ls = large_scale(layout, CFG)
    rng = np.random.default_rng(100)
    place_nodes(CFG, rng)   # the scatter follows the positions
    _assert_same(draw_channels(ls, rng), draw_channels(ls, z))


@pytest.mark.parametrize("cfg", [CFG.with_overrides(n_ris=0), CFG,
                                 CFG.with_overrides(n_gue=1)],
                         ids=["n0", "n8", "u1"])
def test_batch_draw_matches_per_trial_draws(cfg):
    trials = range(3, 3 + T)
    layout, (z_direct, z_ris_user) = experiments._draw(cfg, trials)
    for row, t in enumerate(trials):
        rng = experiments.trial_rng(cfg.master_seed, t)
        single = place_nodes(cfg, rng)
        for f in ("ap_pos", "gue_pos", "uav_pos"):
            assert np.array_equal(getattr(layout, f)[row],
                                  getattr(single, f)), f
        assert np.array_equal(layout.ris_pos, single.ris_pos)
        assert np.array_equal(z_direct[row], complex_normals(
            rng, (cfg.m_ap, cfg.n_users)))
        assert np.array_equal(z_ris_user[row], complex_normals(
            rng, (cfg.n_ris, cfg.n_users)))
        # the stream is consumed as by one uniform(0, D) call per node
        # group: the APs, the GUEs, then the UAV
        rng = experiments.trial_rng(cfg.master_seed, t)
        d = cfg.area_side
        assert np.array_equal(single.ap_pos[:, :2],
                              rng.uniform(0.0, d, (cfg.m_ap, 2)))
        assert np.array_equal(single.gue_pos[:, :2],
                              rng.uniform(0.0, d, (cfg.n_gue, 2)))
        assert np.array_equal(single.uav_pos[:2], rng.uniform(0.0, d, 2))


def _moved(layout, heights):
    """The layout with its UAV at heights, of shape (...): uav_pos
    (..., T, 3)."""
    heights = np.asarray(heights)
    uav_pos = np.empty(heights.shape + layout.uav_pos.shape)
    uav_pos[...] = layout.uav_pos
    uav_pos[..., 2] = heights[..., None]
    return layout._replace(uav_pos=uav_pos)


HEIGHTS = (0.0, CFG.h_ris, 300.0)


@pytest.mark.parametrize("tilt", [15.0, -5.0])
@pytest.mark.parametrize("h_uav", HEIGHTS)
@pytest.mark.parametrize("n_ris", [CFG.n_ris, 3, 0])
def test_group_pass_matches_large_scale(h_uav, tilt, n_ris):
    # one geometry at the largest RIS serves every tilt group, and a
    # group without RIS under it, as in cdf's sweep; the group's heights
    # are one leading axis, and row h is that height's pass
    layout, _ = experiments._draw(CFG, range(T))
    geometry = link_geometry(layout, CFG)
    cfg = CFG.with_overrides(tilt_deg=tilt, n_ris=n_ris)
    stacked = large_scale(_moved(layout, HEIGHTS), cfg, geometry)
    # the AP->RIS matrix depends on the tilt only: no height axis
    assert stacked.H_ris.shape == (T, CFG.m_ap, n_ris)
    single = large_scale(_moved(layout, h_uav), cfg)
    row = HEIGHTS.index(h_uav)
    for f in stacked._fields:
        got = getattr(stacked, f)
        assert np.array_equal(got if f == "H_ris" else got[row],
                              getattr(single, f)), f


def test_gain_matches_per_trial_calls():
    with_ris = np.array([2.0, 1.0, 0.0, 3.0, 0.5])
    without = np.array([1.0, 0.0, 1.0, 3.0, -1.0])
    stacked = ris_gain_db(with_ris, without)
    assert np.array_equal(
        stacked, [ris_gain_db(float(a), float(b))
                  for a, b in zip(with_ris, without)], equal_nan=True)
    assert np.isnan(stacked[1]) and np.isnan(stacked[4])
    assert stacked[2] == -np.inf


def test_sanity_check_fails_on_the_stack_iff_a_trial_fails():
    G = np.ones((3, 2, 2), dtype=complex)
    gamma = np.ones((3, 2, 2))
    sinr = np.full((3, 2), 0.5)
    cfg = SimConfig(p_d_w=1.0, noise_power_dbm=30.0)   # 1 W noise
    cap = _coherent_cap(cfg, G, gamma)
    _sanity_check_rates(cap, sinr, rate_bps(sinr, 1.0))
    sinr[1, 0] = 5.0   # above the coherent cap p_d (2 * 1)^2 / 1 = 4
    with pytest.raises(RuntimeError):
        _sanity_check_rates(cap, sinr, rate_bps(sinr, 1.0))
    for t in (0, 2):
        _sanity_check_rates(_coherent_cap(cfg, G[t], gamma[t]), sinr[t],
                            rate_bps(sinr[t], 1.0))
    with pytest.raises(RuntimeError):
        _sanity_check_rates(_coherent_cap(cfg, G[1], gamma[1]), sinr[1],
                            rate_bps(sinr[1], 1.0))


# mixed groups: N = 0 and RIS prefixes, kappa = 0 (NaN gain), three
# heights and two tilts, one of which holds two heights
POINTS = [CFG.with_overrides(n_ris=n, kappa=k, h_uav=h, tilt_deg=tilt)
          for h, tilt in ((40.0, 15.0), (200.0, -5.0), (300.0, 15.0))
          for n in (0, 3, 8) for k in (0.0, 0.3)]
# one tilt holds two heights with different RIS sizes and kappas, next to
# a tilt with a single height
MIXED = [CFG.with_overrides(n_ris=n, kappa=k, h_uav=h, tilt_deg=tilt)
         for h, tilt, ns, ks in ((40.0, 15.0, (0, 8), (0.1,)),
                                 (200.0, 15.0, (3,), (0.0, 0.3)),
                                 (100.0, -5.0, (8,), (0.2,)))
         for n in ns for k in ks]


def _paired_gains(results):
    """UAV gain of each point of POINTS over the one at N = 0 with its
    kappa, height and tilt."""
    by_point = dict(zip(POINTS, results, strict=True))
    return [ris_gain_db(res.sinr[:, 0],
                        by_point[p.with_overrides(n_ris=0)].sinr[:, 0])
            for p, res in by_point.items()]


@pytest.fixture
def batch_sizes(monkeypatch):
    """The trial count of every batch drawn in this process."""
    sizes = []
    draw = experiments._draw

    def recording_draw(cfg, trial_indices):
        sizes.append(len(trial_indices))
        return draw(cfg, trial_indices)

    monkeypatch.setattr(experiments, "_draw", recording_draw)
    return sizes


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_batch_size_does_not_change_results(monkeypatch, batch_sizes, batch,
                                            workers):
    default = run_sweep(POINTS)
    batch_sizes.clear()
    # a budget of `batch` trials at the largest RIS; 25 trials in batches
    # of 3 leave a short last batch
    per_trial = CFG.m_ap * (CFG.n_ris + CFG.n_users)
    monkeypatch.setattr(experiments, "BATCH_ELEMENTS", batch * per_trial)
    got = run_sweep(POINTS, workers=workers)
    if workers == 1:
        assert max(batch_sizes) == batch
        assert sum(batch_sizes) == CFG.trials
    for a, b in zip(default, got, strict=True):
        assert np.array_equal(a.rates_bps, b.rates_bps)
        assert np.array_equal(a.sinr, b.sinr)
    for a, b in zip(_paired_gains(default), _paired_gains(got)):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_every_point_matches_its_own_sweep(monkeypatch, batch, workers):
    # a point evaluated at every height of its tilt, and at the RIS sizes
    # and kappas of the other heights, gives exactly its results alone
    alone = [run_sweep([p])[0] for p in MIXED]
    per_trial = CFG.m_ap * (CFG.n_ris + CFG.n_users)
    monkeypatch.setattr(experiments, "BATCH_ELEMENTS", batch * per_trial)
    got = run_sweep(MIXED, workers=workers)
    for a, b in zip(alone, got, strict=True):
        assert np.array_equal(a.rates_bps, b.rates_bps)
        assert np.array_equal(a.sinr, b.sinr)


def test_default_batch_holds_the_whole_chunk(batch_sizes):
    run_sweep(POINTS)
    # 25 trials fit one batch, drawn once and shared by every point
    assert batch_sizes == [25]


def test_groups_are_formed_once_per_sweep(monkeypatch):
    calls = Counter()
    groups, with_overrides = experiments._groups, SimConfig.with_overrides

    def counting_groups(points):
        calls["_groups"] += 1
        return groups(points)

    def counting_with_overrides(self, **kw):
        calls["with_overrides"] += 1
        return with_overrides(self, **kw)

    monkeypatch.setattr(experiments, "_groups", counting_groups)
    monkeypatch.setattr(SimConfig, "with_overrides", counting_with_overrides)
    run_sweep(POINTS)
    one_batch = dict(calls)
    calls.clear()
    monkeypatch.setattr(experiments, "BATCH_ELEMENTS", 1)   # 25 batches
    run_sweep(POINTS)
    assert calls == one_batch
    # one group per tilt: tilt 15 holds two heights, tilt -5 one
    assert one_batch == {"_groups": 1, "with_overrides": 2}
    groups = experiments._groups(POINTS)
    assert [cfg.tilt_deg for cfg, *_ in groups] == [15.0, -5.0]
    assert [list(heights) for _, heights, *_ in groups] == [[40.0, 300.0],
                                                            [200.0]]


@pytest.mark.parametrize("field, value", [("m_ap", 7), ("master_seed", 12),
                                          ("noise_power_dbm", -60.0)])
def test_points_must_share_every_other_field(field, value):
    with pytest.raises(ConfigError, match=field):
        run_sweep([CFG, CFG.with_overrides(**{field: value})])
