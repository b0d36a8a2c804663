"""The three studies against the loop-level reference of one trial."""
import numpy as np
import pytest

from cfris import (SimConfig, likely_rate_95, rate_cdf, rate_region,
                   ris_gain_sweep)
from cfris.experiments import run_sweep, scenario_label
from reference_pipeline import reference_trial

SMALL = SimConfig(m_ap=6, n_gue=3, n_ris=8, master_seed=11)
TRIALS = 20
RTOL = 1e-12


def _reference(cfg):
    """Rates (T, K), SINR (T, K) and gains (T,) of one point, per trial."""
    out = [reference_trial(cfg, t) for t in range(TRIALS)]
    rates = np.array([r for r, _, _ in out])
    sinr = np.array([s for _, s, _ in out])
    gains = np.array([np.nan if g is None else g for _, _, g in out])
    return rates, sinr, gains


def test_sweep_matches_reference_per_trial():
    points = [SMALL.with_overrides(n_ris=n, kappa=kappa, h_uav=h,
                                   tilt_deg=tilt)
              for h in (40.0, 300.0) for tilt in (15.0, -5.0)
              for n in (0, 3, 8) for kappa in (0.02, 0.3)]
    for cfg, res in zip(points, run_sweep(points, trials=TRIALS),
                        strict=True):
        rates, sinr, gains = _reference(cfg)
        assert np.all(np.isfinite(res.rates_bps))
        assert np.all(np.isfinite(res.sinr))
        np.testing.assert_allclose(res.rates_bps, rates, rtol=RTOL, atol=0)
        np.testing.assert_allclose(res.sinr, sinr, rtol=RTOL, atol=0)
        if cfg.n_ris:
            assert np.all(np.isfinite(res.ris_gain_db))
            np.testing.assert_allclose(res.ris_gain_db, gains, rtol=0,
                                       atol=1e-12)
        else:
            assert np.all(np.isnan(res.ris_gain_db))


def test_rate_region_matches_reference():
    cfg = SMALL.with_overrides(h_uav=300.0, tilt_deg=-5.0)
    kappas = (0.02, 0.3)
    rows = rate_region(cfg, kappa_list=kappas, n_list=(3, 8), trials=TRIALS)
    expected = []
    for name, n_ris in (("no-ris", 0), ("ris-n3", 3), ("ris-n8", 8)):
        for kappa in kappas:
            rates, _, _ = _reference(cfg.with_overrides(n_ris=n_ris,
                                                        kappa=kappa))
            expected.append((name, kappa, likely_rate_95(rates[:, 1]),
                             likely_rate_95(rates[:, 0])))
    rates, _, _ = _reference(cfg.with_overrides(n_ris=0, kappa=0.0))
    expected.append(("no-uav", None, likely_rate_95(rates[:, 1]), 0.0))
    assert len(rows) == len(expected)
    for row, (name, kappa, gue, uav) in zip(rows, expected):
        assert (row["system"], row["kappa"]) == (name, kappa)
        assert row["gue_rate_bps"] == pytest.approx(gue, rel=RTOL, abs=0)
        assert row["uav_rate_bps"] == pytest.approx(uav, rel=RTOL, abs=0)


def test_rate_cdf_matches_reference():
    cfg = SMALL.with_overrides(h_uav=40.0)
    scenarios = ((0.02, 15.0, False), (0.3, -5.0, True), (0.3, 15.0, True))
    rows = rate_cdf(cfg, scenarios=scenarios, trials=TRIALS)
    for kappa, tilt, with_ris in scenarios:
        rates, _, _ = _reference(cfg.with_overrides(
            kappa=kappa, tilt_deg=tilt, n_ris=cfg.n_ris if with_ris else 0))
        label = scenario_label(kappa, tilt, with_ris)
        for user, idx in (("uav", 0), ("gue1", 1)):
            got = [r["rate_bps"] for r in rows
                   if r["scenario"] == label and r["user"] == user]
            np.testing.assert_allclose(got, np.sort(rates[:, idx]),
                                       rtol=RTOL, atol=0)


def test_ris_gain_matches_reference():
    cfg = SMALL.with_overrides(kappa=0.3, tilt_deg=-5.0)
    rows = ris_gain_sweep(cfg, n_list=(3, 8), heights=(40.0, 300.0),
                          trials=TRIALS)
    expected = [(n, h) for h in (40.0, 300.0) for n in (3, 8)]
    assert [(r["n_ris"], r["h_uav_m"]) for r in rows] == expected
    for row, (n_ris, h_uav) in zip(rows, expected):
        _, _, gains = _reference(cfg.with_overrides(n_ris=n_ris,
                                                    h_uav=h_uav))
        assert np.isfinite(row["mean_gain_db"])
        assert row["mean_gain_db"] == pytest.approx(np.mean(gains), rel=0,
                                                    abs=1e-12)
