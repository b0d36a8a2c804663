import os

import numpy as np
import pytest

from cfris import (ConfigError, ExperimentSpec, SimConfig, likely_rate_95,
                   rate_cdf, rate_region, ris_gain_sweep, run_trial,
                   run_trials)
from cfris import experiments
from cfris.experiments import (DEFAULT_GAIN_N_LIST, DEFAULT_N_LIST,
                               MIN_RATE_95_SAMPLES, _plan_chunks,
                               run_experiment, run_sweep, scenario_label)

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

    def test_single_ap_within_coherent_bound(self):
        # GUE 4 has |G|^2 / gamma = 1.97 at the only AP: its SINR 0.786
        # exceeds the old cap p_d M^2 max|G|^2 / noise = 0.771, yet stays
        # below the coherent bound
        cfg = SimConfig(m_ap=1, n_ris=20, kappa=0.1, master_seed=1)
        r = run_trial(cfg, 57)
        assert np.all(np.isfinite(r.rates_bps))
        assert np.all(r.rates_bps >= 0.0)


def _per_point(cfg, trials):
    """Reference: every trial of one sweep point run on its own."""
    results = [run_trial(cfg, i) for i in range(trials)]
    return (np.array([r.rates_bps for r in results]),
            [r.ris_gain_db for r in results])


class TestSweepEquivalence:
    """Sweeps give exactly what per-point trials give, point by point."""

    TRIALS = 25

    def test_rate_region_matches_per_point_trials(self):
        cfg = SMALL.with_overrides(tilt_deg=5.0, h_uav=60.0)
        kappas, n_list = (0.05, 0.3), (3, 8)
        rows = rate_region(cfg, kappa_list=kappas, n_list=n_list,
                           trials=self.TRIALS)
        expected = []
        for name, n_ris in (("no-ris", 0), ("ris-n3", 3), ("ris-n8", 8)):
            for kappa in kappas:
                rates, _ = _per_point(
                    cfg.with_overrides(n_ris=n_ris, kappa=kappa),
                    self.TRIALS)
                expected.append({
                    "system": name, "kappa": kappa,
                    "gue_rate_bps": likely_rate_95(rates[:, 1]),
                    "uav_rate_bps": likely_rate_95(rates[:, 0])})
        rates, _ = _per_point(cfg.with_overrides(n_ris=0, kappa=0.0),
                              self.TRIALS)
        expected.append({"system": "no-uav", "kappa": None,
                         "gue_rate_bps": likely_rate_95(rates[:, 1]),
                         "uav_rate_bps": 0.0})
        assert rows == expected

    def test_rate_cdf_matches_per_point_trials(self):
        cfg = SMALL.with_overrides(n_ris=6)
        scenarios = ((0.1, 15.0, False), (0.33, -5.0, False),
                     (0.1, 15.0, True), (0.2, -5.0, True))
        rows = rate_cdf(cfg, scenarios=scenarios, trials=self.TRIALS)
        for kappa, tilt, with_ris in scenarios:
            rates, _ = _per_point(cfg.with_overrides(
                kappa=kappa, tilt_deg=tilt, n_ris=6 if with_ris else 0),
                self.TRIALS)
            label = scenario_label(kappa, tilt, with_ris)
            for user, idx in (("uav", 0), ("gue1", 1)):
                got = [r["rate_bps"] for r in rows
                       if r["scenario"] == label and r["user"] == user]
                assert np.array_equal(got, np.sort(rates[:, idx]))

    def test_ris_gain_matches_per_point_trials(self):
        n_list, heights = (2, 5, 8), (30.0, 120.0)
        cfg = SMALL.with_overrides(kappa=0.2, tilt_deg=-5.0)
        rows = ris_gain_sweep(cfg, n_list=n_list, heights=heights,
                              trials=self.TRIALS)
        expected = []
        for h_uav in heights:
            for n_ris in n_list:
                _, gains = _per_point(
                    cfg.with_overrides(n_ris=n_ris, h_uav=h_uav),
                    self.TRIALS)
                expected.append({"n_ris": n_ris, "h_uav_m": h_uav,
                                 "mean_gain_db": float(np.mean(gains))})
        assert rows == expected

    def test_sweep_arrays_match_run_trial(self):
        # mixed groups: N = 0 and RIS prefixes, kappa = 0 (NaN gain)
        points = [SMALL.with_overrides(n_ris=n, kappa=k, h_uav=h)
                  for h in (40.0, 200.0) for n in (0, 3, 8)
                  for k in (0.0, 0.1, 0.6)]
        for cfg, res in zip(points, run_sweep(points, trials=self.TRIALS),
                            strict=True):
            ref = [run_trial(cfg, i) for i in range(self.TRIALS)]
            assert np.array_equal(res.rates_bps, [r.rates_bps for r in ref])
            assert np.array_equal(res.sinr, [r.sinr for r in ref])
            gains = [np.nan if r.ris_gain_db is None else r.ris_gain_db
                     for r in ref]
            assert np.array_equal(res.ris_gain_db, gains, equal_nan=True)

    def test_ris_gain_pinned_values(self):
        rows = ris_gain_sweep(SMALL, n_list=(4, 8), heights=(50.0, 150.0),
                              trials=self.TRIALS)
        pinned = [0.10828458476406683, 0.18638358745870007,
                  0.14017009296077262, 0.21622626706760298]
        for row, value in zip(rows, pinned, strict=True):
            assert row["mean_gain_db"] == pytest.approx(value, rel=1e-12)

    def test_multi_point_sweep_same_at_two_workers(self):
        scenarios = ((0.1, 15.0, False), (0.33, -5.0, False),
                     (0.1, 15.0, True))
        serial = rate_cdf(SMALL, scenarios=scenarios, trials=30, workers=1)
        parallel = rate_cdf(SMALL, scenarios=scenarios, trials=30,
                            workers=2)
        assert serial == parallel


class TestWorkers:
    def test_worker_count_does_not_change_results(self):
        serial = run_trials(SMALL, trials=24, workers=1)
        parallel = run_trials(SMALL, trials=24, workers=4)
        assert len(serial) == len(parallel) == 24
        for a, b in zip(serial, parallel):
            assert a.trial_index == b.trial_index
            assert np.array_equal(a.rates_bps, b.rates_bps)
            assert np.array_equal(a.sinr, b.sinr)

    def test_pool_never_exceeds_cpus_or_chunks(self):
        # computed only: no pool is started
        procs, chunks = _plan_chunks(2000, 10**6)
        assert 1 <= procs <= len(os.sched_getaffinity(0))
        assert [i for c in chunks for i in c] == list(range(2000))
        procs, chunks = _plan_chunks(3, 8)
        assert procs <= len(chunks) == 3
        assert [i for c in chunks for i in c] == [0, 1, 2]
        assert _plan_chunks(40, 1)[0] == 1


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.arange(1.0, 32.0)
        x[7] = bad
        with pytest.raises(ValueError):
            likely_rate_95(x)
        with pytest.raises(ValueError):
            likely_rate_95(np.full(31, bad))

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


    def test_too_few_trials_rejected_up_front(self, monkeypatch):
        def no_trials(*args, **kw):
            raise AssertionError("trials ran")
        monkeypatch.setattr(experiments, "run_sweep", no_trials)
        with pytest.raises(ConfigError, match="at least 20"):
            rate_region(SMALL, n_list=(4,), trials=MIN_RATE_95_SAMPLES - 1)
        with pytest.raises(ConfigError, match="at least 20"):
            rate_region(SMALL.with_overrides(trials=5), n_list=(4,))


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

    def test_zero_elements_rejected(self):
        # no RIS: the paired gain is undefined (it used to average to NaN)
        with pytest.raises(ConfigError, match="n_ris >= 1"):
            ris_gain_sweep(SMALL, n_list=(0, 4), heights=(100.0,),
                           trials=20)

    def test_kappa_zero_rejected(self):
        # no UAV power: the gain is undefined (it used to average to NaN)
        with pytest.raises(ConfigError):
            ris_gain_sweep(SMALL.with_overrides(kappa=0.0), n_list=(4,),
                           heights=(100.0,), trials=20)


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
        {"kind": "ris-gain", "base": SMALL.with_overrides(kappa=0.0)},
    ])
    def test_validation(self, kw):
        # the spec checks kinds and swept values, the study function its
        # own rules; either way nothing runs
        kw.setdefault("base", SMALL)
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec(**kw))

    def test_sweep_height_zero_accepted_like_uav_height(self):
        # heights follow h_uav >= 0; a sweep height of 0 used to be refused
        spec = ExperimentSpec(kind="cdf", base=SMALL, heights=(0.0,))
        assert spec.heights == (0.0,)

    def test_default_n_list_follows_kind(self):
        assert ExperimentSpec("ris-gain", SMALL).n_list == DEFAULT_GAIN_N_LIST
        assert ExperimentSpec("rate-region", SMALL).n_list == DEFAULT_N_LIST
        assert ExperimentSpec("cdf", SMALL).n_list == DEFAULT_N_LIST

    def test_unknown_kind_lists_the_kinds(self):
        with pytest.raises(ConfigError, match="expected one of rate-region"):
            ExperimentSpec("bogus", SMALL)
