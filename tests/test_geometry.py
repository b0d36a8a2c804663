import numpy as np
import pytest

from cfris import ConfigError, SimConfig, place_nodes


def rng_for(seed):
    return np.random.default_rng(seed)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.m_ap == 20 and cfg.n_gue == 4
        assert cfg.area_side == 40.0
        assert (cfg.h_ap, cfg.h_ris, cfg.h_gue, cfg.h_uav) == (15.0, 12.0,
                                                               1.65, 100.0)
        assert cfg.carrier_freq_hz == 1.9e9
        assert cfg.bandwidth_hz == 20e6
        assert cfg.noise_power_dbm == -62.0
        assert cfg.p_d_w == 1.0
        assert cfg.rho_db == -30.0 and cfg.alpha == 2.4
        assert cfg.tilt_deg == 15.0
        assert cfg.ris_x == 20.0  # defaults to D/2

    def test_noise_power_watts(self):
        assert SimConfig().noise_power_w == pytest.approx(10 ** (-9.2))

    @pytest.mark.parametrize("kw", [
        {"kappa": 1.5}, {"kappa": -0.1}, {"m_ap": 0}, {"n_gue": 0},
        {"n_ris": -1}, {"p_d_w": 0.0}, {"area_side": -5.0},
        {"trials": 0}, {"h_ap": 0.0}, {"rho_db": float("nan")},
        {"tilt_deg": float("inf")}, {"area_side": float("inf")},
        {"ris_x": 40.5},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ConfigError):
            SimConfig(**kw)


class TestPlaceNodes:
    def test_support_of_uniform_law(self):
        cfg = SimConfig()
        layout = place_nodes(cfg, rng_for(0))
        for xy in (layout.ap_pos[:, :2], layout.gue_pos[:, :2],
                   layout.uav_pos[None, :2]):
            assert np.all(xy >= 0.0) and np.all(xy <= cfg.area_side)

    def test_heights_fixed_and_ris_position(self):
        cfg = SimConfig()
        layout = place_nodes(cfg, rng_for(1))
        assert np.all(layout.ap_pos[:, 2] == cfg.h_ap)
        assert np.all(layout.gue_pos[:, 2] == cfg.h_gue)
        assert layout.uav_pos[2] == cfg.h_uav
        assert np.array_equal(layout.ris_pos,
                              [cfg.area_side / 2, 0.0, cfg.h_ris])

    def test_deterministic_given_seed(self):
        cfg = SimConfig()
        a = place_nodes(cfg, rng_for(42))
        b = place_nodes(cfg, rng_for(42))
        assert np.array_equal(a.ap_pos, b.ap_pos)
        assert np.array_equal(a.gue_pos, b.gue_pos)
        assert np.array_equal(a.uav_pos, b.uav_pos)

    def test_ap_x_sample_mean(self):
        # mean of U(0, 40) is 20; 1e4 draws must sit well inside +-1.2
        cfg = SimConfig(m_ap=1)
        rng = rng_for(123)
        xs = [place_nodes(cfg, rng).ap_pos[0, 0] for _ in range(10_000)]
        assert abs(np.mean(xs) - 20.0) < 1.2

    def test_user_pos_stacks_uav_first(self):
        layout = place_nodes(SimConfig(), rng_for(5))
        assert np.array_equal(layout.user_pos[0], layout.uav_pos)
        assert np.array_equal(layout.user_pos[1:], layout.gue_pos)
