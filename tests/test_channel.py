import math
from types import SimpleNamespace

import numpy as np
import pytest

from cfris import (ConfigError, NetworkLayout, RisConfig, SimConfig,
                   aggregate_channel, antenna_gain_db, array_response,
                   draw_channels, large_scale, pathloss_gue_db,
                   pathloss_simple_linear, place_nodes, rician_k_linear)
from cfris import channel
from cfris.channel import ChannelSet
from cfris.experiments import _draw, trial_rng
from reference_pipeline import _links

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

    def test_flat_below_10m(self):
        # hand evaluation: -L - 15 log10(0.05) - 20 log10(0.01)
        for d in (1.0, 4.0, 10.0):
            assert pathloss_gue_db(d, CFG) == \
                pytest.approx(-81.1996337689487, abs=1e-9)

    def test_20db_per_decade_between_10_and_50m(self):
        # hand evaluation: -L - 15 log10(0.05) - 20 log10(0.02) at 20 m
        assert pathloss_gue_db(20.0, CFG) == \
            pytest.approx(-87.22023368222832, abs=1e-9)
        assert pathloss_gue_db(10.0, CFG) - pathloss_gue_db(40.0, CFG) \
            == pytest.approx(20.0 * math.log10(4.0), abs=1e-9)

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

    def test_smaller_array_is_a_prefix(self):
        # a RIS size of a sweep is a prefix of the sweep's largest RIS, so
        # element n must not depend on the array length, for stacked
        # (trials, APs) nodes and for one node alike
        rng = np.random.default_rng(4)
        directions = rng.normal(size=(7, 20, 3))
        directions /= np.linalg.norm(directions, axis=-1)[..., None]
        d_ref = rng.uniform(1.0, 600.0, (7, 20))
        lam = CFG.wavelength_m
        full = array_response(60, directions, d_ref, lam)
        one = array_response(60, directions[2, 5], d_ref[2, 5], lam)
        for n in range(61):
            assert np.array_equal(
                array_response(n, directions, d_ref, lam), full[..., :n]), n
            assert np.array_equal(array_response(
                n, directions[2, 5], d_ref[2, 5], lam), one[:n]), n

    def test_matches_the_phase_formula(self):
        # exp(-j 2 pi d / lambda) exp(-j pi n cos(phi)) as two exponentials
        # per element, at reference phases up to 1e4 rad
        rng = np.random.default_rng(5)
        directions = rng.normal(size=(500, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        lam = CFG.wavelength_m
        d_ref = rng.uniform(0.0, 1e4 * lam / (2.0 * np.pi), 500)
        n = np.arange(60)
        expected = np.exp(1j * (-2.0 * np.pi * d_ref[:, None] / lam)) \
            * np.exp(1j * (-np.pi * directions[:, :1] * n))
        np.testing.assert_allclose(array_response(60, directions, d_ref, lam),
                                   expected, rtol=1e-12, atol=0)


def _single_link_layout(cfg, gue_pos, uav_pos):
    return NetworkLayout(
        ap_pos=np.array([[0.0, 0.0, cfg.h_ap]]),
        gue_pos=np.array([gue_pos]),
        uav_pos=np.array(uav_pos),
        ris_pos=np.array([cfg.ris_x, 0.0, cfg.h_ris]))


class TestLargeScale:
    def test_boresight_unit_distance_gue(self):
        # GUE exactly 1 m away on the boresight (theta = tilt): the link
        # power |mean|^2 + std^2 equals the Hata gain at 1 m with no
        # antenna penalty.
        cfg = SimConfig(m_ap=1, n_gue=1)
        tilt = math.radians(cfg.tilt_deg)
        gue = [math.cos(tilt), 0.0, cfg.h_ap - math.sin(tilt)]
        layout = _single_link_layout(cfg, gue, [30.0, 30.0, cfg.h_uav])
        ls = large_scale(layout, cfg)
        expected = 10 ** (pathloss_gue_db(1.0, cfg) / 10.0)
        power = abs(ls.mean_direct[0, 1]) ** 2 + ls.std_direct[0, 1] ** 2
        assert power == pytest.approx(expected, rel=1e-12)

    def test_uav_straight_overhead(self):
        # theta = -90 clips the pattern at -20 dB, then the power law at 85 m
        cfg = SimConfig(m_ap=1, n_gue=1)
        layout = _single_link_layout(cfg, [5.0, 5.0, cfg.h_gue],
                                     [0.0, 0.0, 100.0])
        ls = large_scale(layout, cfg)
        power = abs(ls.mean_direct[0, 0]) ** 2 + ls.std_direct[0, 0] ** 2
        assert power == pytest.approx(1e-2 * 85.0 ** (-2.4) * 1e-3,
                                      rel=1e-12)

    def test_ris_uav_amplitude_ap_independent(self):
        cfg_a = SimConfig(m_ap=2, master_seed=4)
        cfg_b = SimConfig(m_ap=17, master_seed=4)
        rng = np.random.default_rng(8)
        uav = np.append(rng.uniform(0, 40, 2), 100.0)
        la = place_nodes(cfg_a, np.random.default_rng(1))
        lb = place_nodes(cfg_b, np.random.default_rng(2))
        la = la._replace(uav_pos=uav)
        lb = lb._replace(uav_pos=uav)
        assert np.array_equal(large_scale(la, cfg_a).mean_ris_user[:, 0],
                              large_scale(lb, cfg_b).mean_ris_user[:, 0])

    def test_ris_uav_leg_is_pure_los(self):
        layout = place_nodes(CFG, np.random.default_rng(0))
        ls = large_scale(layout, CFG)
        # the whole RIS->UAV power is in its mean, equal at every element
        d = np.linalg.norm(layout.uav_pos - layout.ris_pos)
        assert ls.std_ris_user[0] == 0.0
        assert np.all(np.abs(ls.mean_ris_user[:, 0]) ** 2 == pytest.approx(
            pathloss_simple_linear(d, CFG)))
        assert np.all(ls.std_ris_user[1:] > 0.0)

    def test_node_on_the_ris_sees_it_broadside(self):
        # zero distance has no direction: finite responses, no NaN
        cfg = SimConfig(m_ap=1, n_gue=1, n_ris=4, h_ap=12.0)
        ris = [cfg.ris_x, 0.0, cfg.h_ris]
        layout = _single_link_layout(
            cfg, [5.0, 5.0, cfg.h_gue], ris)._replace(ap_pos=np.array([ris]))
        ls = large_scale(layout, cfg)
        assert np.all(np.isfinite(ls.H_ris))
        assert np.all(np.isfinite(ls.mean_ris_user))
        assert np.allclose(ls.mean_ris_user[:, 0], ls.mean_ris_user[0, 0])

    def test_no_elements_make_no_array_response(self, monkeypatch):
        # at N = 0 the RIS terms are empty: no array response is formed,
        # and every field has the shape and value it has with elements
        calls = []

        def counting(*args):
            calls.append(args[0])
            return array_response(*args)

        layout, _ = _draw(CFG, range(3))
        uav_pos = np.repeat(layout.uav_pos[None], 2, axis=0)
        uav_pos[..., 2] = np.array([40.0, 300.0])[:, None]
        layout = layout._replace(uav_pos=uav_pos)
        monkeypatch.setattr(channel, "array_response", counting)
        ls = large_scale(layout, CFG.with_overrides(n_ris=0))
        assert calls == []
        with_ris = large_scale(layout, CFG.with_overrides(n_ris=4))
        assert calls == [4, 4, 4]
        assert ls.H_ris.shape == (3, CFG.m_ap, 0)
        assert ls.mean_ris_user.shape == (2, 3, 0, CFG.n_users)
        for f in ls._fields:
            got, want = getattr(ls, f), getattr(with_ris, f)
            if f == "H_ris":
                want = want[..., :0]
            elif f == "mean_ris_user":
                want = want[..., :0, :]
            assert got.dtype == want.dtype, f
            assert np.array_equal(got, want), f

    def test_all_amplitudes_nonnegative(self):
        layout = place_nodes(CFG, np.random.default_rng(3))
        ls = large_scale(layout, CFG)
        assert np.all(ls.std_direct >= 0)
        assert np.all(ls.std_ris_user >= 0)

    def test_los_entries_unit_modulus(self):
        layout = place_nodes(CFG, np.random.default_rng(6))
        ls = large_scale(layout, CFG)
        # unit-modulus LoS phasors: mean and scatter split the link power
        # by the Rician factor, and a RIS->user link holds the power of
        # its d^-alpha law at every element
        users = np.vstack([layout.uav_pos, layout.gue_pos])
        d_direct = np.linalg.norm(users[None, :, :]
                                  - layout.ap_pos[:, None, :], axis=-1)
        assert np.allclose(np.abs(ls.mean_direct) ** 2 / ls.std_direct ** 2,
                           rician_k_linear(d_direct))
        d_ris = np.linalg.norm(users - layout.ris_pos, axis=-1)
        assert np.allclose(np.abs(ls.mean_ris_user) ** 2
                           + ls.std_ris_user ** 2,
                           pathloss_simple_linear(d_ris, CFG))


class TestLinksMatchReference:
    """Each link's mean and scatter power against the loop-level oracle."""

    CFG = SimConfig(m_ap=6, n_gue=3, n_ris=8, master_seed=11)

    @staticmethod
    def _assert_matches(ls, ref):
        for got, want in ((ls.mean_direct, ref["los_direct"]),
                          (ls.std_direct ** 2, ref["var_direct"]),
                          (ls.mean_ris_user, ref["los_ru"]),
                          (ls.std_ris_user ** 2, ref["var_ru"]),
                          (ls.H_ris, ref["H_ris"])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trial_index", [0, 3, 17])
    def test_single_layout(self, trial_index):
        cfg = self.CFG
        layout = place_nodes(cfg, trial_rng(cfg.master_seed, trial_index))
        self._assert_matches(large_scale(layout, cfg),
                             _links(cfg, trial_index))

    def test_stacked_heights(self):
        # (heights, trials) UAV positions over one batch of layouts
        cfg, trials, heights = self.CFG, range(2, 6), (40.0, 300.0)
        layout, _ = _draw(cfg, trials)
        uav_pos = np.repeat(layout.uav_pos[None], len(heights), axis=0)
        uav_pos[..., 2] = np.array(heights)[:, None]
        ls = large_scale(layout._replace(uav_pos=uav_pos), cfg)
        for h, h_uav in enumerate(heights):
            for row, t in enumerate(trials):
                self._assert_matches(
                    ls._replace(**{f: getattr(ls, f)[h, row]
                                   for f in ls._fields if f != "H_ris"},
                                H_ris=ls.H_ris[row]),
                    _links(cfg.with_overrides(h_uav=h_uav), t))


class TestDrawChannels:
    def test_pure_los_limit(self):
        cfg = SimConfig(m_ap=2, n_gue=2, n_ris=4)
        layout = place_nodes(cfg, np.random.default_rng(1))
        ls = large_scale(layout, cfg)
        ls_los = ls._replace(std_direct=np.zeros_like(ls.std_direct))
        cs = draw_channels(ls_los, np.random.default_rng(9))
        assert np.array_equal(cs.h_direct, ls.mean_direct)

    def test_h_ris_deterministic_across_seeds(self):
        layout = place_nodes(CFG, np.random.default_rng(1))
        ls = large_scale(layout, CFG)
        a = draw_channels(ls, np.random.default_rng(10))
        b = draw_channels(ls, np.random.default_rng(20))
        assert np.array_equal(a.h_ris_user[:, 0], b.h_ris_user[:, 0])
        assert not np.array_equal(a.h_direct, b.h_direct)

    def test_second_moment_matches_beta_squared(self):
        # E|h|^2 = beta^2 = |mean|^2 + std^2 for every direct link, checked
        # at 1e5 draws
        cfg = SimConfig(m_ap=2, n_gue=1, n_ris=0)
        layout = place_nodes(cfg, np.random.default_rng(4))
        ls = large_scale(layout, cfg)
        rng = np.random.default_rng(1234)
        trials = 100_000
        power = np.abs(ls.mean_direct) ** 2 + ls.std_direct ** 2
        acc = np.zeros_like(power)
        for _ in range(trials):
            acc += np.abs(draw_channels(ls, rng).h_direct) ** 2
        rel = np.abs(acc / trials - power) / power
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
        g = aggregate_channel(ls, cs, RisConfig(v=np.zeros(0)))
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
