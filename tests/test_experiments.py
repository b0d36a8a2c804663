import os
import tracemalloc

import numpy as np
import pytest

from cfris import (ConfigError, ExperimentSpec, SimConfig, SimulationError,
                   likely_rate_95, rate_bps, rate_cdf, rate_region,
                   ris_gain_db, ris_gain_sweep)
from cfris import experiments
from cfris.experiments import (DEFAULT_CDF_SCENARIOS, DEFAULT_GAIN_N_LIST,
                               DEFAULT_N_LIST, MIN_RATE_95_SAMPLES,
                               _plan_chunks, _trial_bytes,
                               run_experiment, run_sweep, run_trial,
                               run_trials, scenario_label)

SMALL = SimConfig(m_ap=6, n_gue=3, n_ris=8, trials=40, master_seed=11)
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)


class TestRunTrial:
    def test_bit_identical_repeat(self):
        a = run_trial(SMALL, 5)
        b = run_trial(SMALL, 5)
        assert np.array_equal(a, b)
        ref = run_trial(SMALL.with_overrides(n_ris=0), 5)
        assert np.array_equal(ris_gain_db(a[:, 0], ref[:, 0]),
                              ris_gain_db(b[:, 0], ref[:, 0]))

    def test_distinct_trials_differ(self):
        a = run_trial(SMALL, 0)
        b = run_trial(SMALL, 1)
        assert not np.array_equal(a, b)

    def test_no_ris_has_no_gain(self):
        r = run_trial(SMALL.with_overrides(n_ris=0), 3)
        assert np.all(rate_bps(r, SMALL.bandwidth_hz) >= 0.0)

    def test_kappa_zero_silences_uav(self):
        rates = rate_bps(run_trial(SMALL.with_overrides(kappa=0.0), 2),
                         SMALL.bandwidth_hz)[0]
        assert rates[0] == 0.0
        assert np.all(rates[1:] > 0.0)

    def test_no_rejections_on_defaults(self):
        # a degenerate geometry raises SimulationError
        run_trials(SMALL.with_overrides(trials=30))

    def test_finite_nonnegative_outputs(self):
        for t in range(10):
            r = run_trial(SMALL, t)
            assert np.all(np.isfinite(rate_bps(r, SMALL.bandwidth_hz)))
            assert np.all(r >= 0.0)

    def test_single_ap_within_coherent_bound(self):
        # GUE 4 has |G|^2 / gamma = 1.97 at the only AP: its SINR 0.786
        # exceeds the old cap p_d M^2 max|G|^2 / noise = 0.771, yet stays
        # below the coherent bound
        cfg = SimConfig(m_ap=1, n_ris=20, kappa=0.1, master_seed=1)
        rates = rate_bps(run_trial(cfg, 57), cfg.bandwidth_hz)
        assert np.all(np.isfinite(rates))
        assert np.all(rates >= 0.0)

    @pytest.mark.parametrize("p_d_w, noise_power_dbm, alpha", [
        (5e-324, 0.0, 1.0), (1e-320, 0.0, 6.0), (1e-315, -200.0, 1.0)])
    def test_subnormal_power_runs(self, p_d_w, noise_power_dbm, alpha):
        # the signal of a subnormal power budget has lost significant
        # bits in the SINR and in its coherent cap alike; a lone AP giving
        # the UAV all of it sits at the cap, which it used to exceed
        cfg = SimConfig(m_ap=1, n_gue=1, n_ris=0, area_side=2.0, h_ap=1.0,
                        h_ris=0.0, h_gue=0.0, h_uav=1.0, kappa=1.0,
                        tilt_deg=0.0, rho_db=0.0, alpha=alpha,
                        carrier_freq_hz=1.5e8, bandwidth_hz=1.0,
                        noise_power_dbm=noise_power_dbm, p_d_w=p_d_w,
                        master_seed=0, trials=20)
        sinr = run_sweep([cfg])
        assert np.all(np.isfinite(sinr)) and np.all(sinr >= 0.0)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_alignment_is_a_degenerate_geometry(self):
        # a RIS point without its N = 0 partner, the UAV 1e128 m up: the
        # alignment coefficients are subnormal, and 1 / |t| used to
        # overflow and end in "RIS coefficients must be unit modulus"
        with pytest.raises(SimulationError, match="degenerate geometry"):
            run_sweep([SimConfig(h_uav=1e128, n_ris=20, trials=20)])


def _per_point(cfg, trials):
    """Reference: every trial of one sweep point run on its own; rates
    and SINR, (trials, K) each."""
    sinr = np.array([run_trial(cfg, i)[0] for i in range(trials)])
    return rate_bps(sinr, cfg.bandwidth_hz), sinr


class TestSweepEquivalence:
    """Sweeps give exactly what per-point trials give, point by point."""

    TRIALS = 25

    def test_rate_region_matches_per_point_trials(self):
        cfg = SMALL.with_overrides(tilt_deg=5.0, h_uav=60.0,
                                   trials=self.TRIALS)
        kappas, n_list = (0.05, 0.3), (3, 8)
        rows = rate_region(cfg, kappa_list=kappas, n_list=n_list)
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
        cfg = SMALL.with_overrides(n_ris=6, trials=self.TRIALS)
        scenarios = ((0.1, 15.0, False), (0.33, -5.0, False),
                     (0.1, 15.0, True), (0.2, -5.0, True))
        rows = rate_cdf(cfg, scenarios=scenarios)
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
        cfg = SMALL.with_overrides(kappa=0.2, tilt_deg=-5.0,
                                   trials=self.TRIALS)
        rows = ris_gain_sweep(cfg, n_list=n_list, heights=heights)
        expected = []
        for h_uav in heights:
            _, sinr0 = _per_point(cfg.with_overrides(n_ris=0, h_uav=h_uav),
                                  self.TRIALS)
            for n_ris in n_list:
                _, sinr = _per_point(
                    cfg.with_overrides(n_ris=n_ris, h_uav=h_uav),
                    self.TRIALS)
                gains = ris_gain_db(sinr[:, 0], sinr0[:, 0])
                expected.append({"n_ris": n_ris, "h_uav_m": h_uav,
                                 "mean_gain_db": float(np.mean(gains))})
        assert rows == expected

    def test_sweep_arrays_match_run_trial(self):
        # mixed groups: N = 0 and RIS prefixes, kappa = 0 (NaN gain)
        points = [SMALL.with_overrides(n_ris=n, kappa=k, h_uav=h,
                                       trials=self.TRIALS)
                  for h in (40.0, 200.0) for n in (0, 3, 8)
                  for k in (0.0, 0.1, 0.6)]
        results = dict(zip(points, run_sweep(points), strict=True))
        refs = {cfg: _per_point(cfg, self.TRIALS) for cfg in points}
        for cfg, res in results.items():
            _, sinr = refs[cfg]
            assert np.array_equal(res, sinr)
            # the paired gain over the sweep's N = 0 point
            zero = cfg.with_overrides(n_ris=0)
            assert np.array_equal(
                ris_gain_db(res[:, 0], results[zero][:, 0]),
                ris_gain_db(sinr[:, 0], refs[zero][1][:, 0]), equal_nan=True)

    @pytest.mark.parametrize("block", [1, 3])
    def test_sweep_arrays_match_run_trial_in_small_blocks(self, monkeypatch,
                                                          block):
        # RIS sizes 3 and 8 span whole blocks of 1 or 3 elements, and a
        # part of one
        monkeypatch.setattr(experiments, "RIS_BLOCK", block)
        self.test_sweep_arrays_match_run_trial()

    def test_pinned_trial_values(self):
        # Trial 4 of seed 3 is drawn from SeedSequence(3, spawn_key=(4, 0));
        # these values pin that stream and the arithmetic applied to it.
        cfg = SimConfig(m_ap=5, n_gue=2, n_ris=6, master_seed=3, trials=5)
        r, r0 = run_sweep([cfg, cfg.with_overrides(n_ris=0)])[:, 4]
        np.testing.assert_allclose(
            rate_bps(r, cfg.bandwidth_hz),
            [13023772.651474953, 11286413.664331613, 10134065.805796774],
            rtol=1e-12)
        np.testing.assert_allclose(
            rate_bps(r0, cfg.bandwidth_hz),
            [12075961.266997825, 11688602.857884252, 6758115.929857713],
            rtol=1e-12)
        assert ris_gain_db(r[0], r0[0]) == pytest.approx(
            0.40463537910730485, rel=1e-12)

    def test_ris_gain_pinned_values(self):
        rows = ris_gain_sweep(SMALL.with_overrides(trials=self.TRIALS),
                              n_list=(4, 8), heights=(50.0, 150.0))
        pinned = [0.10828458476406683, 0.18638358745870007,
                  0.14017009296077262, 0.21622626706760298]
        for row, value in zip(rows, pinned, strict=True):
            assert row["mean_gain_db"] == pytest.approx(value, rel=1e-12)

    def test_multi_point_sweep_same_at_two_workers(self, monkeypatch):
        scenarios = ((0.1, 15.0, False), (0.33, -5.0, False),
                     (0.1, 15.0, True))
        cfg = SMALL.with_overrides(trials=30)
        # batches of 4 trials, so that two processes share the 30; the
        # cdf points hold one UAV height per tilt, as cfg alone does
        monkeypatch.setattr(experiments, "BATCH_BYTES",
                            4 * _trial_bytes([cfg]))
        procs, batches = _plan_chunks([cfg], 2)
        assert len(batches) == 8 and procs == min(2, CPUS)
        serial = rate_cdf(cfg, scenarios=scenarios, workers=1)
        parallel = rate_cdf(cfg, scenarios=scenarios, workers=2)
        assert serial == parallel


class TestWorkers:
    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = SMALL.with_overrides(trials=24)
        # batches of 4 trials, so that the pool gets more than one
        monkeypatch.setattr(experiments, "BATCH_BYTES",
                            4 * _trial_bytes([cfg]))
        procs, batches = _plan_chunks([cfg], 4)
        assert len(batches) == 6 and procs == min(4, CPUS)
        serial = run_trials(cfg, workers=1)
        parallel = run_trials(cfg, workers=4)
        assert serial.shape[0] == parallel.shape[0] == 24
        assert np.array_equal(serial, parallel)

    def test_worker_count_is_keyword_only(self):
        # a positional count must not be taken for a worker count
        with pytest.raises(TypeError):
            run_sweep([SMALL], 2)
        with pytest.raises(TypeError):
            rate_cdf(SMALL, DEFAULT_CDF_SCENARIOS, 2)

    def test_mixed_trial_counts_rejected(self):
        # every point used to run at the first point's count
        with pytest.raises(ConfigError, match="trial count"):
            run_sweep([SMALL.with_overrides(trials=10),
                       SMALL.with_overrides(trials=30, kappa=0.2)])

    def test_empty_sweep_rejected(self):
        # this used to end in an IndexError
        with pytest.raises(ConfigError, match="trial count"):
            run_sweep([])

    def test_pool_never_exceeds_cpus_or_chunks(self):
        # computed only: no pool is started
        procs, batches = _plan_chunks([SMALL.with_overrides(trials=2000)],
                                      10**6)
        assert 1 <= procs <= CPUS
        assert [i for b in batches for i in b] == list(range(2000))
        procs, batches = _plan_chunks([SMALL.with_overrides(trials=3)], 8)
        assert procs == len(batches) == 1
        assert [i for b in batches for i in b] == [0, 1, 2]
        assert _plan_chunks([SMALL], 1)[0] == 1

    def test_batches_hold_at_most_the_element_budget(self):
        # SMALL at N = 8 holds 4864 B per trial, so 227 trials fit
        # BATCH_BYTES; the largest RIS of the sweep sets the size, and the
        # 500 trials are split evenly over ceil(500 / 227) = 3 batches
        points = [SMALL.with_overrides(trials=500, n_ris=n) for n in (0, 8)]
        assert _trial_bytes(points) == 4864
        _, batches = _plan_chunks(points, 1)
        assert [len(b) for b in batches] == [166, 167, 167]
        assert [i for b in batches for i in b] == list(range(500))

    def test_runs_without_sched_getaffinity(self, monkeypatch):
        # the scheduler functions exist only on some Unix platforms; every
        # sweep used to end in an AttributeError there
        monkeypatch.delattr(os, "sched_getaffinity")
        procs, _ = _plan_chunks([SMALL], 2)
        assert 1 <= procs <= (os.cpu_count() or 1)
        res = run_trials(SMALL.with_overrides(trials=3), workers=2)
        assert res.shape == (3, SMALL.n_users)


def _study_points(monkeypatch, kind, **base):
    """The sweep points that the study ``kind`` passes to run_sweep, at
    its default sweeps."""
    seen = []

    def capture(points, *, workers=1):
        seen.append(points)
        return np.ones((len(points), points[0].trials, points[0].n_users))

    with monkeypatch.context() as mp:
        mp.setattr(experiments, "run_sweep", capture)
        run_experiment(ExperimentSpec(kind=kind, base=SimConfig(**base)))
    return seen[0]


class TestBatchPlan:
    @pytest.mark.parametrize("kind, trials, workers, sizes", [
        # the benchmark's ris-gain workload: 4 batches of 10, not 12, 12,
        # 12 and 4
        ("ris-gain", 40, 1, [10] * 4),
        # acceptance scale: 12 trials at N = 60 and 3 heights fill
        # BATCH_BYTES; N = 20 and N = 30 at one height hold more
        ("ris-gain", 2000, 1, [11] * 4 + [12] * 163),
        ("cdf", 2000, 2, [51] * 28 + [52] * 11),
        ("rate-region", 2000, 1, [40] * 9 + [41] * 40),
    ])
    def test_acceptance_plans(self, monkeypatch, kind, trials, workers,
                              sizes):
        points = _study_points(monkeypatch, kind, trials=trials)
        procs, batches = _plan_chunks(points, workers)
        assert procs == min(workers, CPUS)
        assert sorted(len(b) for b in batches) == sizes
        assert [i for b in batches for i in b] == list(range(trials))

    @pytest.mark.parametrize("kind", ["rate-region", "cdf", "ris-gain"])
    def test_trial_bytes_bound_the_measured_working_set(self, monkeypatch,
                                                        kind):
        # tracemalloc peak of one 10-trial batch, per trial: the model is
        # a lower bound, so _check_memory never rejects a sweep that fits,
        # and within 2.5x of it, so a stage that grows the batch shows
        points = _study_points(monkeypatch, kind, trials=40)
        task = (experiments._groups(points), range(10))
        experiments._run_chunk(task)   # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            experiments._run_chunk(task)
            per_trial = (tracemalloc.get_traced_memory()[1] - base) / 10
        finally:
            tracemalloc.stop()
        model = _trial_bytes(points)
        assert model <= per_trial <= 2.5 * model


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
        rows = rate_region(SMALL.with_overrides(trials=25),
                           kappa_list=(0.05, 0.2), n_list=(4,))
        systems = [r["system"] for r in rows]
        assert systems == ["no-ris", "no-ris", "ris-n4", "ris-n4", "no-uav"]
        baseline = rows[-1]
        assert baseline["kappa"] is None
        assert baseline["uav_rate_bps"] == 0.0
        assert baseline["gue_rate_bps"] > 0.0

    def test_kappa_tradeoff_direction(self):
        rows = rate_region(SMALL.with_overrides(trials=40),
                           kappa_list=(0.05, 0.4), n_list=(4,))
        no_ris = {r["kappa"]: r for r in rows if r["system"] == "no-ris"}
        assert no_ris[0.4]["uav_rate_bps"] > no_ris[0.05]["uav_rate_bps"]
        assert no_ris[0.4]["gue_rate_bps"] < no_ris[0.05]["gue_rate_bps"]


    def test_too_few_trials_rejected_up_front(self, monkeypatch):
        def no_trials(*args, **kw):
            raise AssertionError("trials ran")
        monkeypatch.setattr(experiments, "run_sweep", no_trials)
        with pytest.raises(ConfigError, match="at least 20"):
            rate_region(SMALL.with_overrides(trials=MIN_RATE_95_SAMPLES - 1),
                        n_list=(4,))
        with pytest.raises(ConfigError, match="at least 20"):
            rate_region(SMALL.with_overrides(trials=5), n_list=(4,))

    def test_zero_elements_rejected(self):
        # an N = 0 system used to write "ris-n0" rows equal to the no-ris rows
        with pytest.raises(ConfigError, match="n_ris >= 1"):
            rate_region(SMALL.with_overrides(trials=20), n_list=(0, 4))


class TestRateCdf:
    def test_empirical_cdf_properties(self):
        scenarios = ((0.1, 15.0, False), (0.1, 15.0, True))
        rows = rate_cdf(SMALL.with_overrides(trials=30), scenarios=scenarios)
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
        cfg = SMALL.with_overrides(n_ris=0, trials=25)
        with pytest.raises(ConfigError, match="^n_ris:"):
            rate_cdf(cfg, scenarios=((0.1, 15.0, True),))

    @pytest.mark.filterwarnings("error")
    def test_coherent_cap_beyond_float_range(self, monkeypatch):
        # signal / noise overflowed in _coherent_cap: a RuntimeWarning,
        # and a traceback under -W error
        points = _study_points(
            monkeypatch, "cdf", noise_power_dbm=-3046.0, p_d_w=100.0,
            rho_db=0.0, m_ap=6, area_side=1.0, h_ap=1.0, h_ris=0.5,
            h_gue=0.5, h_uav=1.0, alpha=6.0, trials=20)
        sinr = run_sweep(points)
        assert np.all(np.isfinite(sinr)) and np.all(sinr >= 0.0)


class TestRisGainSweep:
    def test_table_and_finiteness(self):
        rows = ris_gain_sweep(SMALL.with_overrides(trials=25), n_list=(4, 8),
                              heights=(50.0, 150.0))
        assert [(r["n_ris"], r["h_uav_m"]) for r in rows] == \
            [(4, 50.0), (8, 50.0), (4, 150.0), (8, 150.0)]
        assert all(np.isfinite(r["mean_gain_db"]) for r in rows)

    def test_gain_grows_with_elements(self):
        rows = ris_gain_sweep(SMALL.with_overrides(trials=60),
                              n_list=(2, 32), heights=(150.0,))
        assert rows[1]["mean_gain_db"] > rows[0]["mean_gain_db"]

    def test_zero_elements_rejected(self):
        # no RIS: the paired gain is undefined (it used to average to NaN)
        with pytest.raises(ConfigError, match="n_ris >= 1"):
            ris_gain_sweep(SMALL.with_overrides(trials=20), n_list=(0, 4),
                           heights=(100.0,))

    def test_kappa_zero_rejected(self):
        # no UAV power: the gain is undefined (it used to average to NaN)
        with pytest.raises(ConfigError):
            ris_gain_sweep(SMALL.with_overrides(kappa=0.0, trials=20),
                           n_list=(4,), heights=(100.0,))


class TestExperimentSpec:
    def test_dispatch(self):
        spec = ExperimentSpec(kind="ris-gain",
                              base=SMALL.with_overrides(trials=25),
                              sweeps={"n_ris": (4,), "h_uav": (100.0,)})
        rows = run_experiment(spec)
        assert len(rows) == 1

    @pytest.mark.parametrize("kw", [
        {"kind": "bogus"},
        {"kind": "rate-region", "sweeps": {"kappa": ()}},
        {"kind": "rate-region", "sweeps": {"kappa": (1.5,)}},
        {"kind": "ris-gain", "sweeps": {"n_ris": (0,)}},
        {"kind": "ris-gain", "sweeps": {"h_uav": (-3.0,)}},
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
        spec = ExperimentSpec(kind="ris-gain", base=SMALL,
                              sweeps={"h_uav": (0.0,)})
        assert spec.sweeps["h_uav"] == (0.0,)

    def test_default_n_list_follows_kind(self):
        assert ExperimentSpec("ris-gain", SMALL).sweeps["n_ris"] \
            == DEFAULT_GAIN_N_LIST
        assert ExperimentSpec("rate-region", SMALL).sweeps["n_ris"] \
            == DEFAULT_N_LIST

    @pytest.mark.parametrize("kind, h_uav", [("cdf", 0.0),
                                             ("rate-region", 50.0)])
    def test_unswept_field_rejected(self, kind, h_uav):
        # a spec holds sweeps of its study's fields only; each kind used to
        # hold and check every sweep, also those its study never ran
        with pytest.raises(ConfigError,
                           match=f"^h_uav: {kind} does not sweep it"):
            ExperimentSpec(kind, SMALL, {"h_uav": (h_uav,)})

    def test_scalar_sweep_rejected(self):
        # a bare number used to fail with a TypeError from tuple()
        with pytest.raises(ConfigError, match="^n_ris: need a list of values"):
            ExperimentSpec("ris-gain", SMALL, {"n_ris": 20})

    def test_unknown_kind_lists_the_kinds(self):
        with pytest.raises(ConfigError, match="expected one of rate-region"):
            ExperimentSpec("bogus", SMALL)
