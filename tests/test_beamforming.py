import math

import numpy as np
import pytest

from cfris import (ConfigError, RisConfig, SimConfig, SimulationError,
                   draw_channels, gamma_analytic, large_scale, place_nodes,
                   ppa_allocate, ris_align_uav)


def _random_instance(rng, m, n):
    h0 = rng.normal(size=m) + 1j * rng.normal(size=m)
    H = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    hru = rng.normal(size=n) + 1j * rng.normal(size=n)
    return h0, H, hru


def _received_power(R, v, h0):
    g0 = h0 + R @ v
    return float(np.abs(g0 @ np.conj(g0)) ** 2)   # CB: w0 = conj(g0)


class TestRisAlignUav:
    def test_unit_modulus_output(self):
        rng = np.random.default_rng(0)
        h0, H, hru = _random_instance(rng, 4, 12)
        v = ris_align_uav(H, hru, h0).v
        assert np.allclose(np.abs(v), 1.0)

    def test_single_ap_perfect_cophasing(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            h0, H, hru = _random_instance(rng, 1, int(rng.integers(1, 40)))
            v = ris_align_uav(H, hru, h0).v
            R = H * hru[None, :]
            achieved = np.abs(h0[0] + (R @ v)[0])
            target = np.abs(h0[0]) + np.sum(np.abs(R[0]))
            assert achieved == pytest.approx(target, rel=1e-12)

    def test_global_phase_covariance(self):
        # rotating h0 rotates v with it, leaving the achieved moduli fixed
        rng = np.random.default_rng(2)
        h0, H, hru = _random_instance(rng, 3, 8)
        v1 = ris_align_uav(H, hru, h0).v
        v2 = ris_align_uav(H, hru, h0 * np.exp(1j * 1.3)).v
        R = H * hru[None, :]
        g1 = h0 + R @ v1
        g2 = h0 * np.exp(1j * 1.3) + R @ v2
        assert np.allclose(np.abs(g1), np.abs(g2))

    def test_zero_coefficient_gets_zero_phase(self):
        H = np.array([[0.0 + 0j, 1.0 + 0j]])
        hru = np.array([1.0 + 0j, 1.0 + 0j])
        h0 = np.array([1.0 + 0j])
        v = ris_align_uav(H, hru, h0).v
        assert v[0] == 1.0 + 0j

    def test_beats_quantized_exhaustive_search(self):
        # M=2, N=2, received power for the given (pre-RIS) precoder
        # w0 = conj(h0): the aligned vector is the analytic optimum, so the
        # best of 64^2 quantized phase pairs sandwiches it from below
        # within the quantization slack 2(1 - cos(pi/64)).
        rng = np.random.default_rng(3)
        levels = np.exp(1j * 2 * np.pi * np.arange(64) / 64)
        slack = 2.0 * (1.0 - math.cos(math.pi / 64))
        for _ in range(5):
            h0, H, hru = _random_instance(rng, 2, 2)
            R = H * hru[None, :]
            w0 = np.conj(h0)

            def power(v):
                return float(np.abs((R @ v + h0) @ w0) ** 2)

            v_star = ris_align_uav(H, hru, h0).v
            p_star = power(v_star)
            p_best = max(power(np.array([a, b]))
                         for a in levels for b in levels)
            assert p_star >= p_best - slack * p_best
            assert p_star * (1.0 + 1e-12) >= p_best
            assert p_best >= p_star * (1.0 - slack)

    def test_single_ap_never_beaten_by_random_phases(self):
        rng = np.random.default_rng(4)
        h0, H, hru = _random_instance(rng, 1, 16)
        R = H * hru[None, :]
        p_star = _received_power(R, ris_align_uav(H, hru, h0).v, h0)
        phases = rng.uniform(0, 2 * np.pi, size=(2000, 16))
        for v in np.exp(1j * phases):
            assert _received_power(R, v, h0) <= p_star * (1 + 1e-9)


class TestGammaAnalytic:
    def _ls(self, cfg, seed):
        layout = place_nodes(cfg, np.random.default_rng(seed))
        return layout, large_scale(layout, cfg)

    def test_no_ris_equals_beta_squared(self):
        # gamma = beta^2 for any Rician factor once the RIS term is absent
        cfg = SimConfig(n_ris=0)
        _, ls = self._ls(cfg, 0)
        gamma = gamma_analytic(ls, RisConfig.none())
        assert np.allclose(gamma, ls.beta_direct ** 2, rtol=1e-12)

    def test_no_ris_rayleigh_and_los_limits(self):
        cfg = SimConfig(n_ris=0)
        _, ls = self._ls(cfg, 1)
        phasors = ls.los_direct / np.abs(ls.los_direct)
        rayleigh = ls._replace(los_direct=np.zeros_like(phasors),
                               nlos_direct=np.ones_like(ls.nlos_direct))
        los = ls._replace(los_direct=phasors,
                          nlos_direct=np.zeros_like(ls.nlos_direct))
        for ls_k in (rayleigh, los):
            gamma = gamma_analytic(ls_k, RisConfig.none())
            assert np.allclose(gamma, ls.beta_direct ** 2, rtol=1e-12)

    def test_matches_monte_carlo_second_moment(self):
        from cfris import aggregate_channel
        cfg = SimConfig(m_ap=2, n_gue=1, n_ris=4)
        _, ls = self._ls(cfg, 2)
        rng = np.random.default_rng(77)
        cs0 = draw_channels(ls, rng)
        ris = ris_align_uav(ls.H_ris, cs0.h_ris_user[:, 0],
                            cs0.h_direct[:, 0])
        gamma = gamma_analytic(ls, ris)
        acc = np.zeros_like(gamma)
        trials = 100_000
        for _ in range(trials):
            cs = draw_channels(ls, rng)
            acc += np.abs(aggregate_channel(ls, cs, ris)) ** 2
        rel = np.abs(acc / trials - gamma) / gamma
        assert np.max(rel) < 0.02


class TestPpaAllocate:
    def test_kappa_zero_gives_gues_everything(self):
        rng = np.random.default_rng(6)
        gamma = rng.uniform(0.1, 2.0, size=(5, 4))
        pa = ppa_allocate(gamma, 0.0, 1.0)
        assert np.all(pa.p_dl[:, 0] == 0.0)
        assert np.allclose(pa.p_dl[:, 1:].sum(axis=1), 1.0)

    def test_equal_gamma_split(self):
        gamma = np.ones((3, 5))
        pa = ppa_allocate(gamma, 0.1, 1.0)
        assert np.allclose(pa.p_dl[:, 0], 0.1)
        assert np.allclose(pa.p_dl[:, 1:], 0.225)

    def test_per_ap_budget_met_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(1, 30))
            k = int(rng.integers(2, 8))
            gamma = 10.0 ** rng.uniform(-12, 0, size=(m, k))
            kappa = float(rng.uniform(0, 1))
            p_d = float(rng.uniform(0.1, 10))
            pa = ppa_allocate(gamma, kappa, p_d)
            sums = pa.p_dl.sum(axis=1)
            assert np.all(np.abs(sums - p_d) <= 1e-12 * p_d)
            # eq-(power constraint) with equality: sum_k eta gamma = p_d
            assert np.all(np.abs((pa.eta * gamma).sum(axis=1) - p_d)
                          <= 1e-12 * p_d)

    def test_degenerate_gue_row_rejected(self):
        gamma = np.ones((2, 3))
        gamma[1, 1:] = 0.0
        with pytest.raises(SimulationError):
            ppa_allocate(gamma, 0.1, 1.0)

    def test_kappa_out_of_range(self):
        with pytest.raises(ConfigError):
            ppa_allocate(np.ones((1, 2)), 1.2, 1.0)


class TestRisConfig:
    def test_rejects_non_unit_modulus(self):
        with pytest.raises(ConfigError):
            RisConfig(v=np.array([0.5 + 0j]))

    def test_empty_allowed(self):
        assert RisConfig.none().v.size == 0

    def test_unit_modulus_tolerance(self):
        # |v| may differ from 1 by at most 1e-9 + 1e-5
        v = np.exp(1j * np.linspace(0.0, 6.0, 60))
        RisConfig(v=v * (1.0 + 5e-6))
        RisConfig(v=v * (1.0 - 5e-6))
        for bad in (1.0 + 2e-5, 1.0 - 2e-5):
            with pytest.raises(ConfigError):
                RisConfig(v=v * bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(np.nan, 0.0)])
    def test_non_finite_rejected(self, bad):
        v = np.ones(8, dtype=complex)
        v[3] = bad
        with pytest.raises(ConfigError):
            RisConfig(v=v)
