import numpy as np
import pytest

from cfris import (ConfigError, ExperimentSpec, SimConfig, likely_rate_95,
                   rate_cdf, rate_region, ris_gain_sweep, run_trial,
                   run_trials)
from cfris.experiments import run_experiment, scenario_label

SMALL = SimConfig(m_ap=6, n_gue=3, n_ris=8, trials=40, master_seed=11)


class TestRunTrial:
    def test_bit_identical_repeat(self):
        a = run_trial(SMALL, 5)
        b = run_trial(SMALL, 5)
        assert np.array_equal(a.rates_bps, b.rates_bps)
        assert np.array_equal(a.sinr, b.sinr)
        assert a.ris_gain_db == b.ris_gain_db

    def test_distinct_trials_differ(self):
        a = run_trial(SMALL, 0)
        b = run_trial(SMALL, 1)
        assert not np.array_equal(a.rates_bps, b.rates_bps)

    def test_no_ris_has_no_gain(self):
        r = run_trial(SMALL.with_overrides(n_ris=0), 3)
        assert r.ris_gain_db is None
        assert np.all(r.rates_bps >= 0.0)

    def test_kappa_zero_silences_uav(self):
        r = run_trial(SMALL.with_overrides(kappa=0.0), 2)
        assert r.rates_bps[0] == 0.0
        assert np.all(r.rates_bps[1:] > 0.0)

    def test_no_rejections_on_defaults(self):
        # a degenerate geometry raises SimulationError
        run_trials(SMALL, trials=30)

    def test_finite_nonnegative_outputs(self):
        for t in range(10):
            r = run_trial(SMALL, t)
            assert np.all(np.isfinite(r.rates_bps))
            assert np.all(r.sinr >= 0.0)

    def test_pinned_trial_values(self):
        # Trial 4 of seed 3 is drawn from SeedSequence(3, spawn_key=(4, 0));
        # these values pin that stream and the arithmetic applied to it.
        cfg = SimConfig(m_ap=5, n_gue=2, n_ris=6, master_seed=3)
        r = run_trial(cfg, 4)
        np.testing.assert_allclose(
            r.rates_bps,
            [13023772.651474953, 11286413.664331613, 10134065.805796774],
            rtol=1e-12)
        assert r.ris_gain_db == pytest.approx(0.40463537910730485,
                                              rel=1e-12)
        r0 = run_trial(cfg.with_overrides(n_ris=0), 4)
        np.testing.assert_allclose(
            r0.rates_bps,
            [12075961.266997825, 11688602.857884252, 6758115.929857713],
            rtol=1e-12)
        assert r0.ris_gain_db is None


class TestWorkers:
    def test_worker_count_does_not_change_results(self):
        serial = run_trials(SMALL, trials=24, workers=1)
        parallel = run_trials(SMALL, trials=24, workers=4)
        assert len(serial) == len(parallel) == 24
        for a, b in zip(serial, parallel):
            assert a.trial_index == b.trial_index
            assert np.array_equal(a.rates_bps, b.rates_bps)
            assert np.array_equal(a.sinr, b.sinr)


class TestLikelyRate95:
    def test_uniform_grid(self):
        assert likely_rate_95(np.arange(1.0, 101.0)) == 5.0

    def test_constant_samples(self):
        assert likely_rate_95(np.full(50, 3.3)) == 3.3

    def test_rank_arithmetic_n40(self):
        # ceil(0.05 * 40) = 2 exactly; float rounding must not bump it to 3
        assert likely_rate_95(np.arange(1.0, 41.0)) == 2.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            likely_rate_95(np.arange(19))

    def test_order_insensitive(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=200)
        assert likely_rate_95(x) == likely_rate_95(np.sort(x)[::-1])


class TestRateRegion:
    def test_table_shape_and_baseline(self):
        rows = rate_region(SMALL, kappa_list=(0.05, 0.2),
                           n_list=(4,), trials=25)
        systems = [r["system"] for r in rows]
        assert systems == ["no-ris", "no-ris", "ris-n4", "ris-n4", "no-uav"]
        baseline = rows[-1]
        assert baseline["kappa"] is None
        assert baseline["uav_rate_bps"] == 0.0
        assert baseline["gue_rate_bps"] > 0.0

    def test_kappa_tradeoff_direction(self):
        rows = rate_region(SMALL, kappa_list=(0.05, 0.4), n_list=(4,),
                           trials=40)
        no_ris = {r["kappa"]: r for r in rows if r["system"] == "no-ris"}
        assert no_ris[0.4]["uav_rate_bps"] > no_ris[0.05]["uav_rate_bps"]
        assert no_ris[0.4]["gue_rate_bps"] < no_ris[0.05]["gue_rate_bps"]


class TestRateCdf:
    def test_empirical_cdf_properties(self):
        scenarios = ((0.1, 15.0, False), (0.1, 15.0, True))
        rows = rate_cdf(SMALL, scenarios=scenarios, trials=30)
        labels = {r["scenario"] for r in rows}
        assert labels == {scenario_label(0.1, 15.0, False),
                          scenario_label(0.1, 15.0, True)}
        for label in labels:
            for user in ("uav", "gue1"):
                pts = [r for r in rows
                       if r["scenario"] == label and r["user"] == user]
                probs = [p["prob"] for p in pts]
                rates = [p["rate_bps"] for p in pts]
                assert probs[0] == pytest.approx(1 / 30)
                assert probs[-1] == pytest.approx(1.0)
                assert np.all(np.diff(probs) > 0)
                assert np.all(np.diff(rates) >= 0)

    def test_with_ris_requires_elements(self):
        cfg = SMALL.with_overrides(n_ris=0)
        with pytest.raises(ConfigError):
            rate_cdf(cfg, scenarios=((0.1, 15.0, True),), trials=25)


class TestRisGainSweep:
    def test_table_and_finiteness(self):
        rows = ris_gain_sweep(SMALL, n_list=(4, 8),
                              heights=(50.0, 150.0), trials=25)
        assert [(r["n_ris"], r["h_uav_m"]) for r in rows] == \
            [(4, 50.0), (8, 50.0), (4, 150.0), (8, 150.0)]
        assert all(np.isfinite(r["mean_gain_db"]) for r in rows)

    def test_gain_grows_with_elements(self):
        rows = ris_gain_sweep(SMALL, n_list=(2, 32), heights=(150.0,),
                              trials=60)
        assert rows[1]["mean_gain_db"] > rows[0]["mean_gain_db"]


class TestExperimentSpec:
    def test_dispatch(self):
        spec = ExperimentSpec(kind="ris-gain",
                              base=SMALL.with_overrides(trials=25),
                              n_list=(4,), heights=(100.0,))
        rows = run_experiment(spec)
        assert len(rows) == 1

    @pytest.mark.parametrize("kw", [
        {"kind": "bogus"},
        {"kind": "rate-region", "kappas": ()},
        {"kind": "rate-region", "kappas": (1.5,)},
        {"kind": "ris-gain", "n_list": (0,)},
        {"kind": "cdf", "heights": (-3.0,)},
    ])
    def test_validation(self, kw):
        kw.setdefault("base", SMALL)
        with pytest.raises(ConfigError):
            ExperimentSpec(**kw)
