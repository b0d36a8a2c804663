import math
from types import SimpleNamespace

import numpy as np
import pytest

from cfris import (ConfigError, NetworkLayout, RisConfig, SimConfig,
                   aggregate_channel, antenna_gain_db, array_response,
                   draw_channels, large_scale, pathloss_gue_db,
                   pathloss_simple_linear, place_nodes, rician_k_linear)
from cfris.channel import ChannelSet

CFG = SimConfig()


class TestAntennaGain:
    def test_boresight(self):
        assert antenna_gain_db(15.0, 15.0) == 0.0

    def test_one_beamwidth_off(self):
        assert antenna_gain_db(25.0, 15.0) == pytest.approx(-12.0)

    def test_sidelobe_floor(self):
        assert antenna_gain_db(-60.0, 15.0) == -20.0

    def test_bounds_and_unique_peak(self):
        thetas = np.linspace(-90, 90, 721)
        g = antenna_gain_db(thetas, 15.0)
        assert np.all(g <= 0.0) and np.all(g >= -20.0)
        assert np.all(g[thetas != 15.0] < 0.0)


class TestHataPathloss:
    def test_continuity_at_breakpoints(self):
        for d in (10.0, 50.0):
            lo = pathloss_gue_db(d - 1e-7, CFG)
            hi = pathloss_gue_db(d + 1e-7, CFG)
            assert abs(lo - hi) < 1e-5

    def test_35db_per_decade_beyond_50m(self):
        assert pathloss_gue_db(100.0, CFG) - pathloss_gue_db(1000.0, CFG) \
            == pytest.approx(35.0, abs=1e-9)

    def test_regression_anchor_at_50m(self):
        # hand evaluation of the closed form: L = 140.71508370390842 dB at
        # 1.9 GHz / 15 m / 1.65 m, then -L - 35 log10(0.05)
        assert pathloss_gue_db(50.0, CFG) == \
            pytest.approx(-95.17903385566908, abs=1e-9)

    def test_monotone_gain(self):
        d = np.linspace(1.0, 2000.0, 4000)
        g = pathloss_gue_db(d, CFG)
        assert np.all(np.diff(g) <= 1e-12)

    def test_clamps_below_one_meter(self):
        assert pathloss_gue_db(0.2, CFG) == pathloss_gue_db(1.0, CFG)


class TestSimplePathloss:
    def test_reference_distance(self):
        assert pathloss_simple_linear(1.0, CFG) == pytest.approx(1e-3)

    def test_ten_meters(self):
        assert pathloss_simple_linear(10.0, CFG) == \
            pytest.approx(1e-3 * 10 ** (-2.4))

    def test_power_law_halving(self):
        for d in (3.0, 17.0, 240.0):
            ratio = pathloss_simple_linear(2 * d, CFG) \
                / pathloss_simple_linear(d, CFG)
            assert ratio == pytest.approx(2.0 ** (-2.4))

    def test_clamps_below_one_meter(self):
        assert pathloss_simple_linear(0.01, CFG) == \
            pathloss_simple_linear(1.0, CFG)


class TestRicianFactor:
    def test_at_zero_distance(self):
        assert rician_k_linear(0.0) == pytest.approx(10 ** 1.3)

    def test_zero_db_crossing(self):
        assert rician_k_linear(13.0 / 0.03) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        d = np.linspace(0, 1000, 500)
        k = rician_k_linear(d)
        assert np.all(np.diff(k) < 0.0)

    def test_may_drop_below_unity(self):
        assert rician_k_linear(600.0) < 1.0


class TestArrayResponse:
    def test_broadside_entries_equal(self):
        a = array_response(8, (0.0, 1.0, 0.0), 5.0, 0.15)
        assert np.allclose(a, a[0])

    def test_endfire_phase_step_pi(self):
        a = array_response(2, (1.0, 0.0, 0.0), 3.0, 0.15)
        step = np.angle(a[1] / a[0])
        assert abs(abs(step) - np.pi) < 1e-12

    def test_unit_modulus(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            a = array_response(16, direction, rng.uniform(1, 100), 0.1578)
            assert np.allclose(np.abs(a), 1.0)

    def test_stacked_nodes_match_single_calls(self):
        # LoS phases reach ~1e4 rad at the longest links, where one ulp of
        # the phase argument shows in the SINR: stacking nodes must not
        # change a single bit
        rng = np.random.default_rng(3)
        directions = rng.normal(size=(2000, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        d_ref = rng.uniform(1.0, 600.0, 2000)
        lam = CFG.wavelength_m
        stacked = array_response(24, directions, d_ref, lam)
        single = [array_response(24, u, d, lam)
                  for u, d in zip(directions, d_ref)]
        assert np.array_equal(stacked, single)
        assert array_response(0, directions, d_ref, lam).shape == (2000, 0)


def _single_link_layout(cfg, gue_pos, uav_pos):
    return NetworkLayout(
        ap_pos=np.array([[0.0, 0.0, cfg.h_ap]]),
        gue_pos=np.array([gue_pos]),
        uav_pos=np.array(uav_pos),
        ris_pos=np.array([cfg.ris_x, 0.0, cfg.h_ris]))


class TestLargeScale:
    def test_boresight_unit_distance_gue(self):
        # GUE exactly 1 m away on the boresight (theta = tilt): beta^2
        # equals the Hata gain at 1 m with no antenna penalty.
        cfg = SimConfig(m_ap=1, n_gue=1)
        tilt = math.radians(cfg.tilt_deg)
        gue = [math.cos(tilt), 0.0, cfg.h_ap - math.sin(tilt)]
        layout = _single_link_layout(cfg, gue, [30.0, 30.0, cfg.h_uav])
        ls = large_scale(layout, cfg)
        expected = 10 ** (pathloss_gue_db(1.0, cfg) / 10.0)
        assert ls.beta_direct[0, 1] ** 2 == pytest.approx(expected,
                                                          rel=1e-12)

    def test_uav_straight_overhead(self):
        # theta = -90 clips the pattern at -20 dB, then the power law at 85 m
        cfg = SimConfig(m_ap=1, n_gue=1)
        layout = _single_link_layout(cfg, [5.0, 5.0, cfg.h_gue],
                                     [0.0, 0.0, 100.0])
        ls = large_scale(layout, cfg)
        assert ls.beta_direct[0, 0] ** 2 == \
            pytest.approx(1e-2 * 85.0 ** (-2.4) * 1e-3, rel=1e-12)

    def test_ris_uav_amplitude_ap_independent(self):
        cfg_a = SimConfig(m_ap=2, master_seed=4)
        cfg_b = SimConfig(m_ap=17, master_seed=4)
        rng = np.random.default_rng(8)
        uav = np.append(rng.uniform(0, 40, 2), 100.0)
        la = place_nodes(cfg_a, np.random.default_rng(1))
        lb = place_nodes(cfg_b, np.random.default_rng(2))
        la = la._replace(uav_pos=uav)
        lb = lb._replace(uav_pos=uav)
        assert large_scale(la, cfg_a).beta_ris_user[0] == \
            large_scale(lb, cfg_b).beta_ris_user[0]

    def test_ris_uav_leg_is_pure_los(self):
        layout = place_nodes(CFG, np.random.default_rng(0))
        ls = large_scale(layout, CFG)
        assert ls.nlos_ris_user[0] == 0.0
        assert np.all(np.abs(ls.los_ris_user[:, 0]) == pytest.approx(1.0))
        assert np.all(ls.nlos_ris_user[1:] > 0.0)

    def test_node_on_the_ris_sees_it_broadside(self):
        # zero distance has no direction: finite responses, no NaN
        cfg = SimConfig(m_ap=1, n_gue=1, n_ris=4, h_ap=12.0)
        ris = [cfg.ris_x, 0.0, cfg.h_ris]
        layout = _single_link_layout(
            cfg, [5.0, 5.0, cfg.h_gue], ris)._replace(ap_pos=np.array([ris]))
        ls = large_scale(layout, cfg)
        assert np.all(np.isfinite(ls.H_ris))
        assert np.all(np.isfinite(ls.los_ris_user))
        assert np.allclose(ls.los_ris_user[:, 0], ls.los_ris_user[0, 0])

    def test_all_amplitudes_nonnegative(self):
        layout = place_nodes(CFG, np.random.default_rng(3))
        ls = large_scale(layout, CFG)
        assert np.all(ls.beta_direct >= 0)
        assert np.all(ls.beta_ris_user >= 0)
        assert np.all(ls.nlos_direct >= 0)
        assert np.all(ls.nlos_ris_user >= 0)

    def test_los_entries_unit_modulus(self):
        layout = place_nodes(CFG, np.random.default_rng(6))
        ls = large_scale(layout, CFG)
        # unit-modulus LoS phasors: LoS and scatter weights split unit power
        assert np.allclose(np.abs(ls.los_direct) ** 2 + ls.nlos_direct ** 2,
                           1.0)
        assert np.allclose(np.abs(ls.los_ris_user) ** 2
                           + ls.nlos_ris_user ** 2, 1.0)


class TestDrawChannels:
    def test_pure_los_limit(self):
        cfg = SimConfig(m_ap=2, n_gue=2, n_ris=4)
        layout = place_nodes(cfg, np.random.default_rng(1))
        ls = large_scale(layout, cfg)
        ls_los = ls._replace(nlos_direct=np.zeros_like(ls.nlos_direct))
        cs = draw_channels(ls_los, np.random.default_rng(9))
        assert np.array_equal(cs.h_direct, ls.beta_direct * ls.los_direct)

    def test_h_ris_deterministic_across_seeds(self):
        layout = place_nodes(CFG, np.random.default_rng(1))
        ls = large_scale(layout, CFG)
        a = draw_channels(ls, np.random.default_rng(10))
        b = draw_channels(ls, np.random.default_rng(20))
        assert np.array_equal(a.h_ris_user[:, 0], b.h_ris_user[:, 0])
        assert not np.array_equal(a.h_direct, b.h_direct)

    def test_second_moment_matches_beta_squared(self):
        # E|h|^2 = beta^2 for every direct link, checked at 1e5 draws
        cfg = SimConfig(m_ap=2, n_gue=1, n_ris=0)
        layout = place_nodes(cfg, np.random.default_rng(4))
        ls = large_scale(layout, cfg)
        rng = np.random.default_rng(1234)
        trials = 100_000
        acc = np.zeros_like(ls.beta_direct)
        for _ in range(trials):
            acc += np.abs(draw_channels(ls, rng).h_direct) ** 2
        rel = np.abs(acc / trials - ls.beta_direct ** 2) \
            / ls.beta_direct ** 2
        assert np.max(rel) < 0.02


def _ris(v):
    return RisConfig(v=np.asarray(v, dtype=complex))


def _ls(H_ris):
    # aggregate_channel reads only the AP->RIS matrix of the link set
    return SimpleNamespace(H_ris=H_ris)


class TestAggregateChannel:
    def test_no_ris_returns_direct(self):
        cfg = SimConfig(n_ris=0)
        layout = place_nodes(cfg, np.random.default_rng(0))
        ls = large_scale(layout, cfg)
        cs = draw_channels(ls, np.random.default_rng(1))
        g = aggregate_channel(ls, cs, RisConfig.none())
        assert np.array_equal(g, cs.h_direct)

    def test_single_term_arithmetic(self):
        cs = ChannelSet(h_direct=np.array([[1.0 + 0j]]),
                        h_ris_user=np.array([[2.0 + 0j]]))
        g = aggregate_channel(_ls(np.array([[0.5j]])), cs, _ris([1.0]))
        assert g[0, 0] == pytest.approx(1.0 + 1.0j)

    def test_global_phase_keeps_modulus(self):
        rng = np.random.default_rng(5)
        n = 6
        ls = _ls(rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
        cs = ChannelSet(
            h_direct=np.zeros((3, 2), dtype=complex),
            h_ris_user=rng.normal(size=(n, 2))
            + 1j * rng.normal(size=(n, 2)))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        g1 = aggregate_channel(ls, cs, _ris(v))
        g2 = aggregate_channel(ls, cs, _ris(v * np.exp(1j * 0.7)))
        assert np.allclose(np.abs(g1), np.abs(g2))

    def test_linear_in_v(self):
        rng = np.random.default_rng(8)
        n = 5
        h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        H_ris = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        h_ris_user = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        v1 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        v2 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        reflected = ChannelSet(np.zeros_like(h), h_ris_user)
        lhs = aggregate_channel(_ls(H_ris), reflected, _ris(v1)) \
            + aggregate_channel(_ls(H_ris), reflected, _ris(v2))
        combined = H_ris @ (((v1 + v2))[:, None] * h_ris_user)
        assert np.allclose(lhs, combined, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        cs = ChannelSet(h_direct=np.zeros((2, 2), dtype=complex),
                        h_ris_user=np.zeros((4, 2), dtype=complex))
        with pytest.raises(ConfigError):
            aggregate_channel(_ls(np.zeros((2, 4), dtype=complex)), cs,
                              _ris(np.ones(3)))
